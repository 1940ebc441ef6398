"""Structural-stability conjugacies h = id + u and smoothness diagnostics.

The conjugacy equation h o A = g o h, with h = id + u and u periodic,
reduces on the lift to

    u(A x) = A u(x) + p(h(x)),        p = displacement of g.

Split in the eigenbasis of A this is a contraction: the stable component
is a forward geometric series (factor lambda_s), the unstable a backward
one (factor 1/lambda_u).  Because A maps the uniform N x N grid to itself
mod 1, the grid iteration involves no interpolation at all; bicubic
interpolation enters only when h is evaluated off-grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NewtonFailed, PeriodOutOfRange, SeedEnumerationFailed, SolverDiverged
from .interp import PeriodicBicubic
from .lattice import HyperbolicElement, IntMatrix2, invert, power, wrap_point

MAX_DISPLACEMENT = 0.5
MAX_PERIOD = 8  # desk-scale limit of the periodic-orbit finder
DIVERGENCE_PATIENCE = 10


def _grid_points(n: int) -> np.ndarray:
    axis = np.arange(n) / n
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def _index_permutation(m: IntMatrix2, n: int) -> np.ndarray:
    """Flat index permutation of the N x N grid under x -> m x mod 1."""
    idx = np.arange(n)
    ii, jj = np.meshgrid(idx, idx, indexing="ij")
    ti = (m.a * ii + m.b * jj) % n
    tj = (m.c * ii + m.d * jj) % n
    return (ti * n + tj).ravel()


@dataclass
class DisplacementField:
    """Periodic displacement u on an N x N grid with bicubic interpolation."""

    grid_size: int
    values: np.ndarray  # (N*N, 2) flat, row-major in (i, j)

    _interp: PeriodicBicubic | None = field(default=None, repr=False)

    def interpolator(self) -> PeriodicBicubic:
        if self._interp is None:
            n = self.grid_size
            self._interp = PeriodicBicubic(self.values.reshape(n, n, 2))
        return self._interp

    def __call__(self, x) -> np.ndarray:
        return self.interpolator()(x)

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


class Conjugacy:
    """h = id + u conjugating the linear model A to the nonlinear map g."""

    def __init__(self, displacement: DisplacementField, source: HyperbolicElement,
                 target, residual: float):
        self.displacement = displacement
        self.source = source
        self.target = target
        self.residual = residual

    def lift(self, x):
        x = np.asarray(x, dtype=float)
        return x + self.displacement(x)

    def apply(self, x):
        return wrap_point(self.lift(x))

    def inverse_lift(self, y, tol: float = 1e-12, max_iters: int = 200):
        """Solve x + u(x) = y by damped fixed-point iteration."""
        y = np.asarray(y, dtype=float)
        x = y.copy()
        for _ in range(max_iters):
            x_new = y - self.displacement(x)
            if np.max(np.abs(x_new - x)) < tol:
                return x_new
            x = x_new
        return x

    def secant_jacobian(self, x, delta: float = 1e-4) -> np.ndarray:
        """Centered-difference Jacobian of the lift at x (batched)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        cols = []
        for e in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            cols.append((self.lift(pts + delta * e) - self.lift(pts - delta * e)) / (2 * delta))
        out = np.stack(cols, axis=2)
        return out[0] if single else out

    def residual_on_grid(self, n: int) -> float:
        """Conjugacy residual sup |h(Ax) - g(h(x))| re-evaluated on an
        arbitrary (finer) grid through the interpolant."""
        pts = _grid_points(n)
        a = self.source.matrix.as_array()
        hx = pts + self.displacement(pts)
        lhs = pts @ a.T + self.displacement(pts @ a.T)
        rhs = hx @ a.T + self.target.displacement(hx)
        d = np.abs(lhs - rhs)
        d = np.minimum(d % 1.0, 1.0 - d % 1.0)
        return float(d.max())


def solve_conjugacy(a_elem: HyperbolicElement, g, n: int = 256, tol: float = 1e-9,
                    max_sweeps: int = 2000, u0: np.ndarray | None = None) -> Conjugacy:
    """Solve h o A = g o h for the identity-homotopic conjugacy h = id + u.

    Component-split fixed-point iteration in the eigenbasis of A: the
    stable coefficient is updated by forward substitution (contraction
    factor lambda_s), the unstable coefficient by backward substitution
    (factor 1/lambda_u).  Raises SolverDiverged when the residual stops
    decreasing for DIVERGENCE_PATIENCE consecutive sweeps or the
    displacement leaves the admissible ball.
    """
    m = a_elem.matrix
    a = m.as_array()
    pts = _grid_points(n)
    fwd = _index_permutation(m, n)          # grid index of A x
    bwd = _index_permutation(invert(m), n)  # grid index of A^{-1} x

    w_s, w_u = a_elem.dual_basis()
    v_s, v_u = a_elem.vs, a_elem.vu
    lam_s = a_elem.signed_lambda_s
    lam_u = a_elem.signed_lambda_u

    u = np.zeros((n * n, 2)) if u0 is None else np.array(u0, dtype=float).reshape(n * n, 2)

    def residual_of(u_arr, p_arr):
        r = u_arr[fwd] - u_arr @ a.T - p_arr
        return float(np.max(np.abs(r)))

    best = np.inf
    stall = 0
    for sweep in range(max_sweeps):
        p = g.displacement(pts + u)
        res = residual_of(u, p)
        if res < tol:
            return Conjugacy(DisplacementField(n, u), a_elem, g, res)
        xi = u @ w_s
        eta = u @ w_u
        p_s = p @ w_s
        p_u = p @ w_u
        # stable: xi(Ax) = lam_s xi(x) + p_s(x), read off at grid point y = Ax
        xi_new = lam_s * xi[bwd] + p_s[bwd]
        # unstable: eta(x) = (eta(Ax) - p_u(x)) / lam_u
        eta_new = (eta[fwd] - p_u) / lam_u
        u = np.outer(xi_new, v_s) + np.outer(eta_new, v_u)
        if np.max(np.abs(u)) >= MAX_DISPLACEMENT:
            raise SolverDiverged(f"|u| reached {np.max(np.abs(u)):.3f} at sweep {sweep}")
        if res < best - 1e-16:
            best = res
            stall = 0
        else:
            stall += 1
            if stall >= DIVERGENCE_PATIENCE:
                raise SolverDiverged(f"residual stalled at {res:.3e} after {sweep + 1} sweeps")
    raise SolverDiverged(f"residual {res:.3e} > tol after {max_sweeps} sweeps")


def estimate_holder_exponent(h: Conjugacy, direction, scales, n_base: int = 100,
                             seed: int = 0):
    """Least-squares slope of log increment size against log scale.

    Returns (exponent, standard_error); the exponent is the mean over the
    base points of the per-point log-log slope.
    """
    v = np.asarray(direction, dtype=float)
    v = v / np.linalg.norm(v)
    scales = np.asarray(scales, dtype=float)
    rng = np.random.default_rng(seed)
    base = rng.random((n_base, 2))
    log_s = np.log(scales)
    slopes = []
    for x in base:
        incs = np.array([np.linalg.norm(h.lift(x + d * v) - h.lift(x)) for d in scales])
        slope = np.polyfit(log_s, np.log(incs), 1)[0]
        slopes.append(slope)
    slopes = np.array(slopes)
    return float(slopes.mean()), float(slopes.std(ddof=1) / np.sqrt(n_base))


@dataclass
class PeriodicOrbitData:
    """A periodic orbit of g with the eigenvalues of D g^n along it."""

    period: int
    points: np.ndarray  # (n, 2)
    multipliers: tuple  # (mult_u, mult_s), sorted by |.| descending

    @property
    def mult_u(self) -> float:
        return self.multipliers[0]

    @property
    def mult_s(self) -> float:
        return self.multipliers[1]


def _k2_interval(a: int, b: int, d: int, lo: int, hi: int):
    """Integers t in [lo, hi] with 0 <= a + b t < d (d > 0), as an inclusive pair."""
    if b > 0:
        lo, hi = max(lo, -(a // b)), min(hi, (d - 1 - a) // b)
    elif b < 0:
        lo, hi = max(lo, -((d - 1 - a) // -b)), min(hi, a // -b)
    elif not 0 <= a < d:
        hi = lo - 1
    return lo, hi


def _lattice_seeds(m_n: IntMatrix2, n: int):
    """Exact rational solutions of (A^n - I) x = k inside [0,1)^2.

    x = adj(P) k / det with P = A^n - I.  Folding the sign of det into the
    adjugate rows makes each coordinate num / |det| with num linear in k2,
    so for every k1 the admissible k2 form one interval, found by integer
    floor division; no candidate outside it is visited.  Seeds come in
    k1-outer, k2-inner order, and each coordinate is the correctly rounded
    float of its exact quotient.  The count is |det(A^n - I)|.
    """
    p = m_n.a - 1, m_n.b, m_n.c, m_n.d - 1
    det = p[0] * p[3] - p[1] * p[2]
    if det == 0:
        raise SeedEnumerationFailed(f"A^{n} - I is singular")
    s, d = (1, det) if det > 0 else (-1, -det)
    # k ranges over (A^n - I) [0,1)^2; bound by the corner images
    corners = [(0, 0), (p[0], p[2]), (p[1], p[3]), (p[0] + p[1], p[2] + p[3])]
    k1_lo = min(c[0] for c in corners) - 1
    k1_hi = max(c[0] for c in corners) + 1
    k2_lo = min(c[1] for c in corners) - 1
    k2_hi = max(c[1] for c in corners) + 1
    seeds = []
    for k1 in range(k1_lo, k1_hi + 1):
        # num1 = a1 + b1 k2 and num2 = a2 + b2 k2, both in [0, d)
        a1, b1 = s * p[3] * k1, -s * p[1]
        a2, b2 = -s * p[2] * k1, s * p[0]
        lo, hi = _k2_interval(a1, b1, d, k2_lo, k2_hi)
        lo, hi = _k2_interval(a2, b2, d, lo, hi)
        for k2 in range(lo, hi + 1):
            seeds.append((((a1 + b1 * k2) / d, (a2 + b2 * k2) / d), (k1, k2)))
    if len(seeds) != d:
        raise SeedEnumerationFailed(f"{len(seeds)} seeds for |det(A^{n} - I)| = {d}")
    return seeds


def _iterated_lift(g, x, n: int):
    """(g^n)(x) on the lift, plus the chain-rule Jacobian product."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    jac = np.broadcast_to(np.eye(2), (len(pts), 2, 2)).copy()
    z = pts
    for _ in range(n):
        j_here = np.atleast_3d(g.jacobian(z)).reshape(-1, 2, 2)
        jac = np.einsum("nij,njk->nik", j_here, jac)
        z = g.lift(z)
    return z, jac


def find_periodic_points(g, a_elem: HyperbolicElement, n: int, newton_tol: float = 1e-12,
                         max_newton: int = 50):
    """All points of period dividing n, via Newton on g^n(x) = x + k.

    Seeds are the exact lattice solutions for the linear part.  One Newton
    iteration runs over all seeds of the period at once: each pass lifts
    the rows still live, a row stops once max |g^n(x) - x - k| < newton_tol,
    and a row still live after max_newton passes fails.  Returns (orbits,
    failures) where orbits is a list of PeriodicOrbitData and failures a
    NewtonFailed per seed that did not converge, in seed order.
    """
    if not 1 <= n <= MAX_PERIOD:
        raise PeriodOutOfRange(f"period {n} outside [1, {MAX_PERIOD}] (desk scale only)")
    seeds = _lattice_seeds(power(a_elem.matrix, n), n)
    x = np.array([seed for seed, _ in seeds])
    kv = np.array([k for _, k in seeds], dtype=float)
    converged = np.zeros(len(seeds), dtype=bool)
    live = np.arange(len(seeds))
    for _ in range(max_newton):
        fx, jac = _iterated_lift(g, x[live], n)
        res = fx - x[live] - kv[live]
        done = np.max(np.abs(res), axis=1) < newton_tol
        converged[live[done]] = True
        live, res, jac = live[~done], res[~done], jac[~done]
        if not len(live):
            break
        x[live] -= np.linalg.solve(jac - np.eye(2), res[..., None])[..., 0]
    failures = [NewtonFailed(f"seed {seed} for k={k}, period {n}")
                for (seed, k), ok in zip(seeds, converged) if not ok]
    return _group_orbits(g, wrap_point(x[converged]), n), failures


def _group_orbits(g, points: np.ndarray, n: int, tol: float = 1e-8):
    """Partition period-n points into orbits of g and attach multipliers.

    g is applied once to all points.  Each orbit starts at the first point
    not yet taken, in input order, and follows the images: a step takes the
    first untaken point within tol (wrapped sup distance) of the current
    image, and the orbit closes when none is left.  The multipliers come
    from one D g^n product over all orbit heads.
    """
    if not len(points):
        return []
    images = wrap_point(g.apply(points))
    taken = np.zeros(len(points), dtype=bool)
    members = []
    for head in range(len(points)):
        if taken[head]:
            continue
        taken[head] = True
        orbit = [head]
        while True:
            d = np.abs(images[orbit[-1]] - points) % 1.0
            hit = np.flatnonzero(~taken & (np.max(np.minimum(d, 1.0 - d), axis=1) < tol))
            if not len(hit):
                break
            taken[hit[0]] = True
            orbit.append(hit[0])
        members.append(orbit)
    _, jac = _iterated_lift(g, points[[orbit[0] for orbit in members]], n)
    orbits = []
    for orbit, j in zip(members, jac):
        eigs = sorted(np.real_if_close(np.linalg.eigvals(j)), key=abs, reverse=True)
        orbits.append(PeriodicOrbitData(
            period=n,
            points=points[orbit],
            multipliers=(complex(eigs[0]).real, complex(eigs[1]).real),
        ))
    return orbits


@dataclass
class MismatchReport:
    """Per-orbit relative multiplier mismatch against the linear model."""

    rows: list  # dicts: period, point, mult_u, mult_s, mismatch
    max_mismatch: float
    failures: list


def compare_smooth_invariants(g, a_elem: HyperbolicElement, max_period: int) -> MismatchReport:
    """Relative difference |log|mult_u| - n log lambda_u| / (n log lambda_u)
    over every orbit of period dividing n, for n = 1 .. max_period.

    Zero mismatch (to tolerance) is necessary for the conjugacy to be C^1.
    """
    log_lam = np.log(a_elem.lambda_u)
    rows = []
    all_failures = []
    for n in range(1, max_period + 1):
        orbits, failures = find_periodic_points(g, a_elem, n)
        all_failures.extend(failures)
        for orb in orbits:
            mism = abs(np.log(abs(orb.mult_u)) - n * log_lam) / (n * log_lam)
            rows.append({
                "period": n,
                "point_x": float(orb.points[0][0]),
                "point_y": float(orb.points[0][1]),
                "mult_u": float(orb.mult_u),
                "mult_s": float(orb.mult_s),
                "mismatch": float(mism),
            })
    max_mism = max((r["mismatch"] for r in rows), default=0.0)
    return MismatchReport(rows=rows, max_mismatch=max_mism, failures=all_failures)
