"""Integer SL(2,Z) matrix algebra and eigen-geometry of hyperbolic elements.

Everything here is exact integer arithmetic except the eigen data, which
uses the closed-form quadratic formula for 2x2 matrices (no general
eigensolver).  Torus points live in [0,1)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotHyperbolic, NotInSL2Z

EIGEN_TOL = 1e-12


@dataclass(frozen=True)
class IntMatrix2:
    """A 2x2 integer matrix with determinant 1 (an element of SL(2,Z))."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for entry in (self.a, self.b, self.c, self.d):
            if entry != int(entry):
                raise NotInSL2Z(f"non-integer entry {entry!r}")
        if self.det != 1:
            raise NotInSL2Z(f"determinant {self.det} != 1, not in SL(2,Z)")

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> int:
        return self.a + self.d

    def as_array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=float)

    def rows(self):
        return [[self.a, self.b], [self.c, self.d]]


IDENTITY = IntMatrix2(1, 0, 0, 1)


def compose(m1: IntMatrix2, m2: IntMatrix2) -> IntMatrix2:
    """Matrix product m1 @ m2, exact in integers."""
    return IntMatrix2(
        m1.a * m2.a + m1.b * m2.c,
        m1.a * m2.b + m1.b * m2.d,
        m1.c * m2.a + m1.d * m2.c,
        m1.c * m2.b + m1.d * m2.d,
    )


def invert(m: IntMatrix2) -> IntMatrix2:
    """Inverse via the adjugate; integral because det = 1."""
    return IntMatrix2(m.d, -m.b, -m.c, m.a)


def power(m: IntMatrix2, n: int) -> IntMatrix2:
    if n < 0:
        return power(invert(m), -n)
    out = IDENTITY
    for _ in range(n):
        out = compose(out, m)
    return out


def is_hyperbolic(m: IntMatrix2) -> bool:
    return abs(m.trace) > 2


def canonical_sign(v: np.ndarray) -> np.ndarray:
    """The directions v (..., 2) negated in place where needed to give each
    a positive first coordinate, or a positive second where the first
    vanishes: the one sign of a line's direction."""
    flip = (v[..., 0] < 0) | ((v[..., 0] == 0) & (v[..., 1] < 0))
    return np.negative(v, out=v, where=flip[..., None])


@dataclass(frozen=True, eq=False)
class HyperbolicElement:
    """A hyperbolic SL(2,Z) matrix with its eigenvalue magnitudes, unit
    eigen-directions and their dual rows.

    ``wu`` and ``ws`` are biorthogonal to ``vu`` and ``vs``
    (w_i . v_j = delta_ij): wu . x and ws . x are the coordinates of x in
    A's eigen-frame, the one way every eigen-coordinate is read.  The four
    are read-only (2,) arrays, formed once by ``eigen_data``.

    ``lambda_u`` and ``lambda_s`` are the magnitudes of the expanding and
    contracting eigenvalues; the signed eigenvalues are
    ``eigen_sign * lambda_u`` and ``eigen_sign * lambda_s`` where
    ``eigen_sign`` follows the sign of the trace.
    """

    matrix: IntMatrix2
    lambda_u: float
    lambda_s: float
    vu: np.ndarray
    vs: np.ndarray
    wu: np.ndarray
    ws: np.ndarray
    eigen_sign: int

    @property
    def signed_lambda_u(self) -> float:
        return self.eigen_sign * self.lambda_u

    @property
    def signed_lambda_s(self) -> float:
        return self.eigen_sign * self.lambda_s


def eigen_data(m: IntMatrix2) -> HyperbolicElement:
    """Closed-form eigen decomposition of a hyperbolic SL(2,Z) matrix.

    Eigenvalues are (t +- sqrt(t^2 - 4))/2 with t the trace; eigenvectors
    come from the kernel of (M - lambda I), choosing whichever row gives
    the better-conditioned cross product.  The dual rows are the rows of
    the inverse of the matrix with columns (vu, vs).
    """
    if not is_hyperbolic(m):
        raise NotHyperbolic(f"|trace| = {abs(m.trace)} <= 2 for {m.rows()}")
    t = float(m.trace)
    disc = math.sqrt(t * t - 4.0)
    lam_big = (t + disc) / 2.0 if t > 0 else (t - disc) / 2.0
    lam_small = 1.0 / lam_big  # det = 1
    sign = 1 if t > 0 else -1

    vu, vs = (canonical_sign(v / np.linalg.norm(v))
              for v in (_kernel_vector(m, lam_big), _kernel_vector(m, lam_small)))
    wu, ws = np.linalg.inv(np.column_stack([vu, vs]))
    for v in (vu, vs, wu, ws):
        v.flags.writeable = False
    return HyperbolicElement(
        matrix=m,
        lambda_u=abs(lam_big),
        lambda_s=abs(lam_small),
        vu=vu,
        vs=vs,
        wu=wu,
        ws=ws,
        eigen_sign=sign,
    )


def _kernel_vector(m: IntMatrix2, lam: float) -> np.ndarray:
    """Nonzero v with (M - lam I) v = 0, from the better-conditioned row."""
    row1 = np.array([m.a - lam, m.b])
    row2 = np.array([m.c, m.d - lam])
    row = row1 if np.linalg.norm(row1) >= np.linalg.norm(row2) else row2
    return np.array([-row[1], row[0]])


@dataclass(frozen=True)
class PairHypothesisCertificate:
    """Pairwise linear independence of the four eigen-directions of a pair."""

    elements: tuple
    min_pairwise_sine: float

    @property
    def hypothesis_ok(self) -> bool:
        return self.min_pairwise_sine > EIGEN_TOL

    def to_dict(self) -> dict:
        e1, e2 = self.elements
        return {
            "matrices": [e1.matrix.rows(), e2.matrix.rows()],
            "eigenvalues": [
                [e1.signed_lambda_u, e1.signed_lambda_s],
                [e2.signed_lambda_u, e2.signed_lambda_s],
            ],
            "eigenvectors": [
                {"v_u": e1.vu.tolist(), "v_s": e1.vs.tolist()},
                {"v_u": e2.vu.tolist(), "v_s": e2.vs.tolist()},
            ],
            "min_pairwise_sine": self.min_pairwise_sine,
            "hypothesis_ok": self.hypothesis_ok,
        }


def check_pair_hypothesis(e1: HyperbolicElement, e2: HyperbolicElement) -> PairHypothesisCertificate:
    """Minimum |det [v_i v_j]| over the six unordered pairs of eigen-directions."""
    dirs = [e1.vs, e1.vu, e2.vs, e2.vu]
    sines = []
    for i in range(4):
        for j in range(i + 1, 4):
            a, b = dirs[i], dirs[j]
            sines.append(abs(float(a[0] * b[1] - a[1] * b[0])))
    m = min(sines)
    if m <= EIGEN_TOL:
        m = 0.0
    return PairHypothesisCertificate(elements=(e1, e2), min_pairwise_sine=m)


def line_angle(a, b):
    """Unsigned angle in [0, pi/2] between the lines spanned by a and b,
    row by row over the last axis (shapes broadcast)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cross = np.abs(a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0])
    dots = np.abs(np.einsum("...i,...i->...", a, b))
    return np.arctan2(cross, dots)


def _empty2x2(n: int) -> np.ndarray:
    """An uninitialised batch of n 2x2 matrices, shape (n, 2, 2), in
    component-major memory: a view of a C-contiguous (2, 2, n) block, so
    that each entry [:, r, c] is one contiguous plane.  Every batch of
    matrices the maps and foliations form is laid out this way, and their
    kernels work entry by entry on the planes."""
    return np.empty((2, 2, n)).transpose(2, 0, 1)


def _inv2(j, rhs=None):
    """adj(j) / det(j) for a batch of 2x2 matrices j (n, 2, 2), or with
    ``rhs`` (n, 2) the solutions adj(j) @ rhs / det(j) of j @ v = rhs.
    The inverses come in the layout of ``_empty2x2``."""
    det = j[:, 0, 0] * j[:, 1, 1] - j[:, 0, 1] * j[:, 1, 0]
    adj = ((j[:, 1, 1], -j[:, 0, 1]), (-j[:, 1, 0], j[:, 0, 0]))
    if rhs is None:
        out = _empty2x2(len(j))
        for r in range(2):
            for c in range(2):
                np.divide(adj[r][c], det, out=out[:, r, c])
        return out
    return np.stack([(a0 * rhs[:, 0] + a1 * rhs[:, 1]) / det for a0, a1 in adj], axis=1)


def grid_points(n: int) -> np.ndarray:
    """The N x N torus grid points (i / N, j / N), flat and row-major in (i, j)."""
    axis = np.arange(n) / n
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def wrap_point(x) -> np.ndarray:
    """Reduce to the half-open fundamental domain [0,1)^2.

    x - floor(x) has the bits of np.mod(x, 1.0) at a fraction of its cost:
    for x >= 0 both are exact, and for x < 0 both round the same real
    number x - floor(x) once."""
    x = np.asarray(x, dtype=float)
    y = np.floor(x)
    np.subtract(x, y, out=y)
    # a tiny negative x rounds to 1.0
    return np.subtract(y, 1.0, out=y, where=y >= 1.0)


# rows per block of a computation streamed over an (n, 2) batch
ROW_BLOCK = 2 ** 14


def row_blocks(n: int):
    """Slices of range(n) in blocks of ROW_BLOCK rows, the last of which
    takes a one-row tail: a one-row (1, 2) @ (2, k) matmul may round
    differently from the batched kernel, while blocks of two or more rows
    give the bits of one whole-batch product."""
    stops = list(range(ROW_BLOCK, n, ROW_BLOCK))
    if stops and n - stops[-1] == 1:
        stops.pop()
    return [slice(start, stop) for start, stop in zip([0, *stops], [*stops, n])]

