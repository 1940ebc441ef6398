"""Closed-form references for the benchmark's correctness checks.

Nothing here imports anosov_lab: every reference is written out from the
mathematics, so a check compares the program against an independent
computation, never against a stored copy of an earlier output.

- Eigen-data of a 2x2 SL(2,Z) matrix come from the quadratic formula.
- A trigonometric polynomial q gives phi = id + q, D phi, and phi^{-1} by
  fixed-point iteration (q is a contraction, |Dq| < 1).
- The perturbed map g = A x + (eps sin 2 pi x2, 0) and its derivative.
- Periodic-orbit counts come from |det(A^n - I)| = L_{2n} - 2 (Lucas
  numbers, for trace 3) and a Moebius sum over divisors.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


# --- 2x2 eigen-data -------------------------------------------------------

def eigen(matrix):
    """(lambda_u, lambda_s, v_u, v_s) of a hyperbolic [[a, b], [c, d]] with
    det 1 and positive trace; unit vectors with positive first coordinate."""
    (a, b), (c, d) = matrix
    t = a + d
    lam_u = (t + math.sqrt(t * t - 4.0)) / 2.0
    lam_s = (t - math.sqrt(t * t - 4.0)) / 2.0

    def direction(lam):
        v = np.array([b, lam - a], dtype=float)  # first row of (M - lam I) v = 0
        v /= np.linalg.norm(v)
        return -v if v[0] < 0 else v

    return lam_u, lam_s, direction(lam_u), direction(lam_s)


def line_angle(v, w):
    """Unsigned angle in [0, pi/2] between the lines spanned by v and w
    (the last axis holds the 2-vectors)."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    cross = np.abs(v[..., 0] * w[..., 1] - v[..., 1] * w[..., 0])
    dot = np.abs(v[..., 0] * w[..., 0] + v[..., 1] * w[..., 1])
    return np.arctan2(cross, dot)


# --- phi = id + q ---------------------------------------------------------

class TrigMap:
    """q(x) = sum over modes of sin_amp sin(2 pi k.x) + cos_amp cos(2 pi k.x),
    from the same ``[{"k": [k1, k2], "sin": [s1, s2], "cos": [c1, c2]}]``
    spec the workload passes to the program."""

    def __init__(self, modes):
        self.k = np.array([m["k"] for m in modes], dtype=float).reshape(-1, 2)
        self.sin = np.array([m.get("sin") or [0.0, 0.0] for m in modes], dtype=float).reshape(-1, 2)
        self.cos = np.array([m.get("cos") or [0.0, 0.0] for m in modes], dtype=float).reshape(-1, 2)

    def q(self, x):
        phase = TWO_PI * (np.atleast_2d(x) @ self.k.T)            # (n, m)
        return np.sin(phase) @ self.sin + np.cos(phase) @ self.cos  # (n, 2)

    def dq(self, x):
        phase = TWO_PI * (np.atleast_2d(x) @ self.k.T)
        # d/dx_l of sin(2 pi k.x) is 2 pi k_l cos(2 pi k.x)
        amp = np.cos(phase)[:, :, None] * self.sin[None] - np.sin(phase)[:, :, None] * self.cos[None]
        return TWO_PI * np.einsum("nmj,ml->njl", amp, self.k)       # (n, 2, 2)

    def phi(self, x):
        return np.atleast_2d(x) + self.q(x)

    def dphi(self, x):
        return np.eye(2)[None] + self.dq(x)

    def phi_inverse(self, y, tol=1e-15, max_iters=200):
        """Solve x + q(x) = y by the fixed-point iteration x <- y - q(x)."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        x = y.copy()
        for _ in range(max_iters):
            x_new = y - self.q(x)
            if np.max(np.abs(x_new - x)) <= tol:
                return x_new
            x = x_new
        return x


def conjugated_alpha(diffeo_modes, direction):
    """|D phi(0) v| for a unit eigen-direction v: the rate Proposition 1
    recovers along the phi-image of the eigenline through 0."""
    d = TrigMap(diffeo_modes).dphi(np.zeros(2))[0]
    return float(np.linalg.norm(d @ np.asarray(direction, dtype=float)))


def conjugated_transversality(diffeo_modes, gen1, gen2, n):
    """Minimum over the n x n grid of the angles between E_1^u and E_2^s and
    between E_2^u and E_1^s, where E(y) = D phi(phi^{-1} y) v."""
    m = TrigMap(diffeo_modes)
    axis = np.arange(n) / n
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    grid = np.column_stack([xx.ravel(), yy.ravel()])
    d = m.dphi(m.phi_inverse(grid))
    _, _, v1u, v1s = eigen(gen1)
    _, _, v2u, v2s = eigen(gen2)
    return float(min(line_angle(d @ u, d @ s).min() for u, s in ((v1u, v2s), (v2u, v1s))))


# --- g = A x + (eps sin 2 pi x2, 0) --------------------------------------

class PerturbedAutomorphism:
    """g(x) = A x + (eps sin 2 pi x2, 0) on the lift."""

    def __init__(self, matrix, eps):
        self.a = np.array(matrix, dtype=float)
        self.eps = float(eps)

    def lift(self, x):
        x = np.atleast_2d(x)
        out = x @ self.a.T
        out[:, 0] += self.eps * np.sin(TWO_PI * x[:, 1])
        return out

    def jacobian(self, x):
        x = np.atleast_2d(x)
        out = np.broadcast_to(self.a, (len(x), 2, 2)).copy()
        out[:, 0, 1] += TWO_PI * self.eps * np.cos(TWO_PI * x[:, 1])
        return out

    def orbit_product(self, x, n):
        """(g^n(x) on the lift, D g^n(x) as the product of D g along the orbit)."""
        z = np.atleast_2d(np.asarray(x, dtype=float))
        prod = np.eye(2)
        for _ in range(n):
            prod = self.jacobian(z)[0] @ prod
            z = self.lift(z)
        return z[0], prod


def closing_error(g, x, n):
    """max |g^n(x) - x| mod 1 on the torus."""
    z, _ = g.orbit_product(x, n)
    d = z - np.asarray(x, dtype=float)
    return float(np.max(np.abs(d - np.round(d))))


def multipliers(prod):
    """Real eigenvalues of a 2x2 hyperbolic matrix by the quadratic formula,
    |mult_u| > |mult_s|."""
    t = prod[0, 0] + prod[1, 1]
    det = prod[0, 0] * prod[1, 1] - prod[0, 1] * prod[1, 0]
    root = math.sqrt(t * t - 4.0 * det)
    big = (t + root) / 2.0 if t > 0 else (t - root) / 2.0
    return big, det / big


def mismatch(mult_u, period, lam_u):
    """|log|mult_u| - n log lambda_u| / (n log lambda_u), the program's
    smooth-invariant mismatch, written out."""
    return abs(math.log(abs(mult_u)) - period * math.log(lam_u)) / (period * math.log(lam_u))


# --- periodic-orbit counts -----------------------------------------------

def lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def fixed_points(n):
    """|det(A^n - I)| = L_{2n} - 2 for a trace-3 hyperbolic A."""
    return lucas(2 * n) - 2


def moebius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def orbit_count(n):
    """Number of orbits whose period divides n (the program lists every
    such orbit under period n)."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    total = 0
    for d in divisors:
        least = sum(moebius(d // e) * fixed_points(e) for e in range(1, d + 1) if d % e == 0)
        total += least // d
    return total
