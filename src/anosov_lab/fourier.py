"""Truncated Fourier perturbations of the torus.

A perturbation is a trigonometric polynomial p: T^2 -> R^2 stored as a
finite set of modes (k, c) with k an integer wavevector and c a complex
coefficient 2-vector.  Realness is enforced by conjugate-symmetric
closure at construction, so evaluation sums to a real vector exactly
(up to roundoff, which we discard by taking the real part).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class FourierPerturbation:
    """p(x) = sum_k c_k exp(2 pi i k.x), closed under k -> -k, c -> conj(c)."""

    wavevectors: np.ndarray  # (m, 2) int
    coefficients: np.ndarray  # (m, 2) complex
    sup_bound: float = field(init=False, default=0.0)
    deriv_bound: float = field(init=False, default=0.0)

    def __post_init__(self):
        kv = np.atleast_2d(np.asarray(self.wavevectors, dtype=np.int64))
        cf = np.atleast_2d(np.asarray(self.coefficients, dtype=complex))
        if kv.size == 0:
            kv = np.zeros((0, 2), dtype=np.int64)
            cf = np.zeros((0, 2), dtype=complex)
        kv, cf = _conjugate_closure(kv, cf)
        object.__setattr__(self, "wavevectors", kv)
        object.__setattr__(self, "coefficients", cf)
        # triangle-inequality C^0 and C^1 bounds, componentwise sup then
        # Euclidean norm across components / operator bound for D p
        amp = np.abs(cf)  # (m, 2)
        sup = float(np.linalg.norm(amp.sum(axis=0))) if len(kv) else 0.0
        # |d p_j / d x_l| <= sum_k |c_kj| 2 pi |k_l|; bound the operator
        # norm by the Frobenius norm of the entry-wise bound matrix
        if len(kv):
            entry = np.einsum("mj,ml->jl", amp, TWO_PI * np.abs(kv).astype(float))
            deriv = float(np.linalg.norm(entry, 2))
        else:
            deriv = 0.0
        object.__setattr__(self, "sup_bound", sup)
        object.__setattr__(self, "deriv_bound", deriv)

    @classmethod
    def zero(cls) -> "FourierPerturbation":
        return cls(np.zeros((0, 2), dtype=np.int64), np.zeros((0, 2), dtype=complex))

    @classmethod
    def from_sin_cos(cls, terms) -> "FourierPerturbation":
        """Build from real terms (k, amp_sin, amp_cos).

        Each term contributes amp_sin * sin(2 pi k.x) + amp_cos * cos(2 pi k.x)
        (2-vector amplitudes; either may be None).
        """
        kv, cf = [], []
        for term in terms:
            k = np.asarray(term[0], dtype=np.int64)
            amp_sin = np.zeros(2) if term[1] is None else np.asarray(term[1], dtype=float)
            amp_cos = np.zeros(2) if len(term) < 3 or term[2] is None else np.asarray(term[2], dtype=float)
            # sin t = (e^{it} - e^{-it}) / 2i,  cos t = (e^{it} + e^{-it}) / 2
            kv.append(k)
            cf.append(amp_cos / 2.0 + amp_sin / (2.0j))
        if not kv:
            return cls.zero()
        return cls(np.array(kv), np.array(cf))

    @property
    def is_zero(self) -> bool:
        return len(self.wavevectors) == 0 or not np.any(self.coefficients)

    def evaluate(self, x) -> np.ndarray:
        """p(x), shape (n, 2), at the points x of shape (n, 2)."""
        if self.is_zero:
            return np.zeros_like(x)
        phase = np.exp(1j * TWO_PI * (x @ self.wavevectors.T.astype(float)))  # (n, m)
        return np.real(phase @ self.coefficients)

    def derivative(self, x) -> np.ndarray:
        """Jacobians D p(x), shape (n, 2, 2), at the points x of shape (n, 2)."""
        if self.is_zero:
            return np.zeros((len(x), 2, 2))
        phase = np.exp(1j * TWO_PI * (x @ self.wavevectors.T.astype(float)))  # (n, m)
        # d p_j / d x_l = sum_m c_mj (2 pi i k_ml) phase_m
        grad = np.einsum(
            "nm,mj,ml->njl",
            phase,
            self.coefficients,
            1j * TWO_PI * self.wavevectors.astype(float),
        )
        return np.real(grad)

    def scaled(self, factor: float) -> "FourierPerturbation":
        return FourierPerturbation(self.wavevectors.copy(), self.coefficients * factor)


def _conjugate_closure(kv: np.ndarray, cf: np.ndarray):
    """Merge duplicate wavevectors and symmetrize so that p is real-valued.

    The returned set satisfies c(-k) = conj(c(k)); a pure k=0 mode keeps
    only its real part.
    """
    merged = {}
    for k, c in zip(kv, cf):
        key = (int(k[0]), int(k[1]))
        merged[key] = merged.get(key, np.zeros(2, dtype=complex)) + c
    closed = {}
    for key, c in merged.items():
        neg = (-key[0], -key[1])
        if key == (0, 0):
            closed[key] = closed.get(key, 0) + c.real.astype(complex)
            continue
        # Hermitian projection of the pair; a lone mode keeps its full
        # amplitude with the conjugate partner implied
        c_neg = merged.get(neg)
        sym = c if c_neg is None else (c + np.conj(c_neg)) / 2.0
        closed[key] = sym
        closed[neg] = np.conj(sym)
    if not closed:
        return np.zeros((0, 2), dtype=np.int64), np.zeros((0, 2), dtype=complex)
    keys = sorted(closed)
    kv_out = np.array(keys, dtype=np.int64)
    cf_out = np.array([closed[k] for k in keys])
    keep = np.abs(cf_out).sum(axis=1) > 0
    return kv_out[keep], cf_out[keep]
