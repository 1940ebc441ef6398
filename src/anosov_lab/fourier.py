"""Truncated Fourier perturbations of the torus.

A perturbation is a real trigonometric polynomial p: T^2 -> R^2 stored in
the form a config gives it, p(x) = sum_k a_k sin 2 pi k.x + b_k cos 2 pi k.x,
with one row of sin and cos amplitudes a_k, b_k in R^2 per distinct integer
wavevector k.  Each k is kept in canonical sign, its leading nonzero entry
positive: a term at -k folds into k with a -> -a (sin is odd) and b kept
(cos is even), so a k term and a -k term add.  k = 0 carries cos only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import _empty2x2, row_blocks

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class FourierPerturbation:
    """p(x) = sum_k a_k sin 2 pi k.x + b_k cos 2 pi k.x over sorted canonical k."""

    wavevectors: np.ndarray  # (m, 2) int
    sin_amps: np.ndarray  # (m, 2) float, a_k
    cos_amps: np.ndarray  # (m, 2) float, b_k
    deriv_bound: float = field(init=False, default=0.0)

    def __post_init__(self):
        merged = {}  # canonical k -> [a_k, b_k]
        for k, a, b in zip(np.reshape(self.wavevectors, (-1, 2)).tolist(),
                           np.reshape(self.sin_amps, (-1, 2)).astype(float),
                           np.reshape(self.cos_amps, (-1, 2)).astype(float)):
            key = tuple(k)
            if key < (0, 0):
                key, a = (-k[0], -k[1]), -a
            elif key == (0, 0):
                a = np.zeros(2)
            merged[key] = merged.get(key, 0.0) + np.array([a, b])
        keys = sorted(key for key, rows in merged.items() if np.any(rows))
        kv = np.array(keys, dtype=np.int64).reshape(-1, 2)
        amps = np.array([merged[key] for key in keys]).reshape(-1, 2, 2)
        sa, ca = amps[:, 0].copy(), amps[:, 1].copy()
        object.__setattr__(self, "wavevectors", kv)
        object.__setattr__(self, "sin_amps", sa)
        object.__setattr__(self, "cos_amps", ca)
        # triangle-inequality C^1 bound: |a_kj sin + b_kj cos| <=
        # hypot(a_kj, b_kj), so |d p_j / d x_l| <= sum_k hypot(a_kj, b_kj)
        # 2 pi |k_l|; bound the operator norm by the spectral norm of the
        # entry-wise bound matrix
        amp = np.hypot(sa, ca)  # (m, 2)
        entry = np.einsum("mj,ml->jl", amp, TWO_PI * np.abs(kv).astype(float))
        object.__setattr__(self, "deriv_bound", float(np.linalg.norm(entry, 2)))

    @classmethod
    def zero(cls) -> "FourierPerturbation":
        return cls(np.zeros((0, 2), dtype=np.int64), np.zeros((0, 2)), np.zeros((0, 2)))

    @classmethod
    def from_sin_cos(cls, terms) -> "FourierPerturbation":
        """Build from real terms (k, amp_sin, amp_cos).

        Each term contributes amp_sin * sin(2 pi k.x) + amp_cos * cos(2 pi k.x)
        (2-vector amplitudes; either may be None); repeated and opposite
        wavevectors add.
        """
        terms = list(terms)
        return cls(
            np.array([t[0] for t in terms], dtype=np.int64),
            np.array([np.zeros(2) if t[1] is None else t[1] for t in terms], dtype=float),
            np.array([np.zeros(2) if t[2] is None else t[2] for t in terms], dtype=float))

    @property
    def is_zero(self) -> bool:
        return len(self.wavevectors) == 0

    def _phases(self, x) -> np.ndarray:
        """theta = 2 pi k.x, shape (n, m), at the points x of shape (n, 2)."""
        return TWO_PI * (x @ self.wavevectors.T.astype(float))

    def evaluate(self, x, out=None) -> np.ndarray:
        """p(x), shape (n, 2), at the points x of shape (n, 2), into out
        when given, a C-contiguous (n, 2) float array that may be x itself.

        A sin or cos term whose amplitudes are all zero is skipped; the
        nonzero terms are summed in sin, cos order, as over both.  The
        points are taken in ``lattice.row_blocks``, so the phase and trig
        tables hold at most ROW_BLOCK x m values, and each block has the
        bits of one whole-batch evaluation; a block's phases are formed
        before its values are written, so out may alias x.
        """
        if self.is_zero:
            if out is None:
                return np.zeros_like(x)
            out.fill(0.0)
            return out
        # __post_init__ drops all-zero rows, so at least one term is left
        (first, first_amps), *rest = [
            (trig, amps) for trig, amps in ((np.sin, self.sin_amps), (np.cos, self.cos_amps))
            if amps.any()]
        if out is None:
            out = np.empty((len(x), 2))
        for rows in row_blocks(len(x)):
            theta = self._phases(x[rows])
            np.matmul(first(theta), first_amps, out=out[rows])
            for trig, amps in rest:
                out[rows] += trig(theta) @ amps
        return out

    def derivative(self, x) -> np.ndarray:
        """Jacobians D p(x), shape (n, 2, 2) in the layout of
        ``lattice._empty2x2``, at the points x of shape (n, 2)."""
        if self.is_zero:
            out = _empty2x2(len(x))
            out.fill(0.0)
            return out
        return self.derivative_from(self.trig(x))

    # Newton, which needs value and derivative at the same points, shares
    # one trig evaluation over the whole batch
    def trig(self, x):
        """(sin theta, cos theta), each (n, m), at theta = 2 pi k.x for the
        points x of shape (n, 2): one trig evaluation, from which
        value_from and derivative_from form p(x) and D p(x)."""
        theta = self._phases(x)
        return np.sin(theta), np.cos(theta)

    def value_from(self, trig) -> np.ndarray:
        """p(x), shape (n, 2), from trig(x), skipping a term whose
        amplitudes are all zero as ``evaluate`` does."""
        terms = [t @ amps for t, amps in zip(trig, (self.sin_amps, self.cos_amps))
                 if amps.any()]
        if not terms:  # the zero perturbation
            return np.zeros((len(trig[0]), 2))
        return terms[0] + terms[1] if len(terms) == 2 else terms[0]

    def derivative_from(self, trig) -> np.ndarray:
        """D p(x), shape (n, 2, 2) in the layout of ``lattice._empty2x2``,
        from trig(x)."""
        sin, cos = trig
        # d p_j / d x_l = sum_k (a_kj cos theta - b_kj sin theta) 2 pi k_l;
        # the amplitude multiplies first, 2 pi k second, and each sum over k
        # starts from +0.0, so a term skipped for all-zero amplitudes, which
        # only moves the signs of zeros in the rate, leaves the same bits
        k = TWO_PI * self.wavevectors.astype(float)
        has_sin, has_cos = self.sin_amps.any(), self.cos_amps.any()
        out = _empty2x2(len(sin))
        for j in range(2):
            if has_sin and has_cos:
                rate = cos * self.sin_amps[:, j] - sin * self.cos_amps[:, j]
            elif has_sin:
                rate = cos * self.sin_amps[:, j]
            else:
                rate = sin * -self.cos_amps[:, j]
            for l in range(2):
                np.einsum("nm,m->n", rate, k[:, l], out=out[:, j, l])
        return out

    def scaled(self, factor: float) -> "FourierPerturbation":
        return FourierPerturbation(self.wavevectors.copy(), self.sin_amps * factor,
                                   self.cos_amps * factor)
