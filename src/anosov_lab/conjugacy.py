"""Structural-stability conjugacies h = id + u and smoothness diagnostics.

The conjugacy equation h o A = g o h, with h = id + u and u periodic,
reduces on the lift to

    u(A x) = A u(x) + p(h(x)),        p = displacement of g.

A maps the uniform N x N grid to itself mod 1, so on the grid the
equation involves no interpolation; bicubic interpolation enters only when
h is evaluated off-grid.  With p(h) held fixed the equation is linear, and
in the eigenbasis of A its two components are geometric series along the
A-orbits of the grid: the stable one forward (factor lambda_s), the
unstable one backward (factor 1/lambda_u).  The solve lays the grid out
orbit by orbit, sums both series exactly by doubling, and iterates only the
re-evaluation of p(h).

When h is smooth, as it is for an action smoothly conjugate to the linear
one, a coarse grid already resolves it, and the N-grid solve needs only to
polish the coarse solution (nested iteration).  ``coarse_start`` solves on
the COARSE_N grid and reads the spectrum of that solution: when its
high-frequency band is below the solve's stop it zero-pads that spectrum
onto the N grid, whose inverse FFT is the band-limited interpolant and the
start, and otherwise returns None, so that the N solve starts cold.  From
the spectral start of a smooth h the N solve usually stops at its first
evaluation of p and builds no orbit layout.  Either way the N solve stops
at the same residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NewtonFailed, PeriodOutOfRange, SeedEnumerationFailed, SolverDiverged
from .interp import PeriodicBicubic
from .lattice import HyperbolicElement, IntMatrix2, grid_points, power, row_blocks, wrap_point

MAX_DISPLACEMENT = 0.5
MAX_PERIOD = 8  # desk-scale limit of the periodic-orbit finder
MAX_ITERATIONS = 2000
DIVERGENCE_PATIENCE = 10
RESIDUAL_STOP = 1e-9  # the solve stops once sup |u o A - A u - p(h)| is below it
COARSE_N = 64  # the grid of coarse_start's solve: the smallest grid_n the config accepts
SMOOTH_BAND = 16  # coarse_start reads the modes with max(|k1|, |k2|) >= SMOOTH_BAND


def _index_permutation(m: IntMatrix2, n: int) -> np.ndarray:
    """Flat index permutation of the N x N grid under x -> m x mod 1."""
    idx = np.arange(n)
    i, j = idx[:, None], idx[None, :]
    ti = (m.a * i + m.b * j) % n
    tj = (m.c * i + m.d * j) % n
    return (ti * n + tj).ravel()


class _OrbitLayout:
    """The flat indices of the N x N grid in A-orbit order.

    Each cycle of ``_index_permutation(A, N)`` is one row: it starts at the
    cycle's smallest grid index and follows x -> A x.  Rows of equal cycle
    length L form one (count x L) block, blocks in increasing L.  In this
    order f o A^s is a cyclic shift by s along every row, so composing with
    a power of A is two slice copies per block.
    """

    def __init__(self, m: IntMatrix2, n: int):
        fwd = _index_permutation(m, n)
        # every index walks its cycle forward; it drops out at the first
        # smaller index and is its cycle's minimum when the walk closes
        firsts = {}
        cand, cur, length = np.arange(n * n), fwd, 1
        while len(cand):
            closed = cur == cand
            if closed.any():
                firsts[length] = cand[closed]
            keep = cur > cand
            cand, cur, length = cand[keep], fwd[cur[keep]], length + 1
        parts, self.blocks, start = [], [], 0
        for length, first in firsts.items():
            rows = np.empty((length, len(first)), dtype=fwd.dtype)
            rows[0] = first
            for k in range(1, length):
                rows[k] = fwd[rows[k - 1]]
            parts.append(rows.T.ravel())
            self.blocks.append((start, start + rows.size, length))
            start += rows.size
        self.order = np.concatenate(parts)  # grid index at each orbit position

    def gather(self, f: np.ndarray) -> np.ndarray:
        """f given in grid order, returned in orbit order."""
        return np.take(f, self.order, axis=0)

    def scatter(self, f: np.ndarray) -> np.ndarray:
        """f, (N*N, 2) in orbit order, returned in grid order."""
        out = np.empty_like(f)
        # each row of f moved as one complex128 item: a 1-D scatter, about
        # 3x faster than assigning rows of a 2-D array at N = 1024
        out.view(np.complex128).reshape(-1)[self.order] = f.view(np.complex128).reshape(-1)
        return out

    def shift(self, f: np.ndarray, s: int, out: np.ndarray) -> np.ndarray:
        """f o A^s into out, both in orbit order (out C-contiguous)."""
        for start, stop, length in self.blocks:
            k = s % length
            src = f[start:stop].reshape(-1, length, *f.shape[1:])
            dst = out[start:stop].reshape(src.shape)
            dst[:, :length - k] = src[:, k:]
            dst[:, length - k:] = src[:, :k]
        return out

    def geometric_sum(self, f: np.ndarray, c: float, s: int, tmp: np.ndarray) -> np.ndarray:
        """sum_k c^k f o A^(k s) for |c| < 1, summed in place in f.

        After j doubling steps f holds the first 2^j terms; the step
        f += c f o A^s, s <- 2 s, c <- c^2 runs until |c| is below machine
        epsilon, when the remaining terms no longer change f.
        """
        while abs(c) >= np.finfo(float).eps:
            self.shift(f, s, tmp)
            tmp *= c
            f += tmp
            s, c = 2 * s, c * c
        return f


class Conjugacy:
    """h = id + u conjugating A to g, u on the N x N grid and bicubic off it."""

    def __init__(self, grid_size: int, values: np.ndarray, source: HyperbolicElement,
                 target, residual: float):
        self.grid_size = grid_size
        self.values = values  # u, (N*N, 2) flat, row-major in (i, j)
        self.source = source
        self.target = target
        self.residual = residual
        self._interp = None

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def displacement(self, x) -> np.ndarray:
        """u, shape (n, 2), at the points x of shape (n, 2)."""
        if self._interp is None:
            n = self.grid_size
            self._interp = PeriodicBicubic(self.values.reshape(n, n, 2))
        return self._interp(x)

    def lift(self, x):
        """h(x), shape (n, 2), at the points x of shape (n, 2)."""
        return x + self.displacement(x)

    def secant_jacobian(self, x, delta: float = 1e-4) -> np.ndarray:
        """Centered-difference Jacobians (n, 2, 2) of the lift at the
        points x of shape (n, 2)."""
        cols = []
        for e in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            cols.append((self.lift(x + delta * e) - self.lift(x - delta * e)) / (2 * delta))
        return np.stack(cols, axis=2)

    def residual_on_grid(self, n: int) -> float:
        """Conjugacy residual sup |h(Ax) - g(h(x))| re-evaluated on an
        arbitrary (finer) grid through the interpolant."""
        pts = grid_points(n)
        a = self.source.matrix.as_array()
        hx = pts + self.displacement(pts)
        ax = pts @ a.T
        lhs = ax + self.displacement(ax)
        rhs = hx @ a.T + self.target.displacement(hx)
        d = np.abs(lhs - rhs)
        d = np.minimum(d % 1.0, 1.0 - d % 1.0)
        return float(d.max())


def _lift_into(out: np.ndarray, u: np.ndarray, n: int, order: np.ndarray | None) -> np.ndarray:
    """h = id + u at the points of ``grid_points(n)`` into out, (N*N, 2),
    with u and out in grid order, or in the order whose grid index at
    each row is order; the grid points are rebuilt a row block at a time,
    with the bits of grid_points."""
    index = np.arange(n * n) if order is None else order
    for rows in row_blocks(len(index)):
        o = index[rows]
        i = o // n
        np.divide(i, n, out=out[rows, 0])
        np.subtract(o, np.multiply(i, n, out=i), out=i)
        np.divide(i, n, out=out[rows, 1])
        out[rows] += u[rows]
    return out


def _residual(u: np.ndarray, u_a: np.ndarray, p: np.ndarray, a: np.ndarray) -> float:
    """sup |u o A - A u - p|, formed a row block at a time."""
    blocks = row_blocks(len(u))
    sups = np.empty(len(blocks))
    for k, rows in enumerate(blocks):
        r = u[rows] @ a.T
        np.subtract(u_a[rows], r, out=r)
        r -= p[rows]
        sups[k] = np.max(np.abs(r, out=r))
    return float(np.max(sups))


def solve_conjugacy(a_elem: HyperbolicElement, g, n: int = 256,
                    u0: np.ndarray | None = None) -> Conjugacy:
    """Solve h o A = g o h for the identity-homotopic conjugacy h = id + u.

    Each iteration evaluates p at h = id + u on the grid and stops once the
    residual sup |u o A - A u - p(h)| is below RESIDUAL_STOP.  Otherwise it
    replaces u by the exact solution of the linear equation with p(h) held
    fixed, in the eigenbasis of A:

        xi  =  sum_k lambda_s^k p_s o A^(-k-1),
        eta = -sum_k lambda_u^(-k-1) p_u o A^k,

    each summed to rounding by doubling along the rows of the A-orbit
    layout (``_OrbitLayout``).  The iteration contracts at a rate set by
    the Lipschitz constant of p, not by lambda_s.  The first check runs on
    u0 in grid order, so an action that needs no iteration builds no
    layout.  Raises SolverDiverged when the residual stops decreasing for
    DIVERGENCE_PATIENCE consecutive iterations or the displacement leaves
    the admissible ball.

    The ``solve_conjugacy`` stage passes ``coarse_start``'s u0: the
    COARSE_N solution's spectrum zero-padded onto the N grid when its high
    band is below the stop (a smooth h), and None, a cold start, for a
    linear action, a Hölder h or a coarse SolverDiverged.  From the
    spectral start the first check usually passes, so the N solve
    evaluates p once.  The stop is the same from either start, so the
    start sets the work, not the tolerance of h.

    Besides p, an iteration holds u, one (N*N, 2) point buffer, the three
    (N*N,) series arrays and the layout: the buffer takes the points h in
    turn, then u o A, then |u|.
    """
    m = a_elem.matrix
    a = m.as_array()
    w_s, w_u = a_elem.dual_basis()
    v_s, v_u = a_elem.vs, a_elem.vu
    lam_s = a_elem.signed_lambda_s
    lam_u = a_elem.signed_lambda_u

    if u0 is None:
        u = np.zeros((n * n, 2))
    else:
        # a C-ordered copy: scatter views each row of u as one complex128 item
        u = np.array(u0, dtype=float, order="C").reshape(n * n, 2)
    buf = np.empty((n * n, 2))
    layout = None
    best = np.inf
    stall = 0
    for it in range(MAX_ITERATIONS):
        p = g.displacement(_lift_into(buf, u, n, None if layout is None else layout.order))
        if layout is not None:
            layout.shift(u, 1, buf)
        elif u0 is None:
            buf.fill(0.0)  # u o A of the zero start
        else:
            np.take(u, _index_permutation(m, n), axis=0, out=buf)
        res = _residual(u, buf, p, a)
        if res < RESIDUAL_STOP:
            del p, buf
            values = u if layout is None else layout.scatter(u)
            return Conjugacy(n, values, a_elem, g, res)
        if layout is None:
            del buf
            layout = _OrbitLayout(m, n)
            p = layout.gather(p)
            buf = np.empty_like(p)
            xi, eta, tmp = np.empty(n * n), np.empty(n * n), np.empty(n * n)
        # xi = sum_k lam_s^k p_s o A^(-k-1), eta = -sum_k lam_u^(-k-1) p_u o A^k
        layout.shift(np.dot(p, w_s, out=tmp), -1, xi)
        layout.geometric_sum(xi, lam_s, -1, tmp)
        np.dot(p, w_u, out=eta)
        del p
        eta /= -lam_u
        layout.geometric_sum(eta, 1.0 / lam_u, 1, tmp)
        # u = xi v_s + eta v_u, a column at a time: broadcasting over rows
        # of length 2 runs its inner loop on 2 elements and is 3x slower;
        # the previous u, in grid or orbit order, is overwritten whole
        for j in range(2):
            np.multiply(xi, v_s[j], out=tmp)
            np.add(tmp, eta * v_u[j], out=u[:, j])
        size = np.max(np.abs(u, out=buf))
        if size >= MAX_DISPLACEMENT:
            raise SolverDiverged(f"|u| reached {size:.3g} at iteration {it}")
        if res < best - 1e-16:
            best = res
            stall = 0
        else:
            stall += 1
            if stall >= DIVERGENCE_PATIENCE:
                raise SolverDiverged(f"residual stalled at {res:.3e} after {it + 1} iterations")
    raise SolverDiverged(f"residual {res:.3e} > {RESIDUAL_STOP:g} after {MAX_ITERATIONS} "
                         "iterations")


def coarse_start(a_elem: HyperbolicElement, g, n: int) -> np.ndarray | None:
    """A start u0, (N*N, 2) and C-ordered, for the N-grid solve of
    h o A = g o h: the solution on the COARSE_N grid, zero-padded in
    Fourier space onto the N grid, when its spectrum shows a smooth h;
    otherwise None, and the N solve starts cold.

    One real FFT of the coarse u gives its Fourier coefficients
    u^(k) = sum_x u(x) e^(-2 pi i k.x) / COARSE_N^2.  The start is declined
    when N is not finer than COARSE_N; when the coarse solve raises
    SolverDiverged; when the coarse u is exactly 0, as for a linear action,
    before any FFT; and when a coefficient |u^(k)| of the band
    max(|k1|, |k2|) >= SMOOTH_BAND reaches RESIDUAL_STOP.  u is real, so
    its half spectrum holds the band maximum of the whole.  The band of a
    smooth h holds about 1e-12; that of the Hölder h of a perturbed action
    1e-6 to 6e-5, where a start is one the N solve takes longer to polish
    than it takes to solve cold.  The top shell alone can read below the
    stop on a Hölder h, so the whole band is read.

    Otherwise the modes with |k1|, |k2| < COARSE_N / 2 are the start's
    spectrum on the N grid, every other mode 0, and one inverse real FFT
    evaluates that trigonometric polynomial at the N grid points: the
    band-limited interpolant of the coarse u.  The Nyquist row and column
    lie in the band, below the stop, and are dropped.  From a smooth h the
    N solve then usually stops at its first evaluation of p.
    """
    if n <= COARSE_N:
        return None
    try:
        coarse = solve_conjugacy(a_elem, g, n=COARSE_N)
    except SolverDiverged:
        return None
    if not coarse.values.any():
        return None
    u_hat = np.fft.rfft2(coarse.values.reshape(COARSE_N, COARSE_N, 2), axes=(0, 1),
                         norm="forward")
    k1 = np.abs(np.fft.fftfreq(COARSE_N, 1.0 / COARSE_N))
    k2 = np.fft.rfftfreq(COARSE_N, 1.0 / COARSE_N)
    if np.max(np.abs(u_hat[np.maximum.outer(k1, k2) >= SMOOTH_BAND])) >= RESIDUAL_STOP:
        return None
    half = COARSE_N // 2
    padded = np.zeros((n, n // 2 + 1, 2), dtype=complex)
    padded[:half, :half] = u_hat[:half, :half]
    padded[n - half + 1:, :half] = u_hat[half + 1:, :half]
    u0 = np.fft.irfft2(padded, s=(n, n), axes=(0, 1), norm="forward")
    return np.ascontiguousarray(u0).reshape(n * n, 2)


def estimate_holder_exponent(h: Conjugacy, direction, scales, seed: int = 0):
    """Least-squares slope of log increment size against log scale.

    Returns (exponent, standard_error); the exponent is the mean over 100
    random base points of the per-point log-log slope.  The base points and
    the moved points base + d v of every scale d are lifted as two batches.
    """
    v = np.asarray(direction, dtype=float)
    v = v / np.linalg.norm(v)
    scales = np.asarray(scales, dtype=float)
    rng = np.random.default_rng(seed)
    base = rng.random((100, 2))
    log_s = np.log(scales)
    moved = (base[:, None, :] + scales[None, :, None] * v).reshape(-1, 2)
    diff = h.lift(moved) - np.repeat(h.lift(base), len(scales), axis=0)
    # the norm as the 1-D np.linalg.norm computes it, a BLAS dot; a stacked
    # 1x2 @ 2x1 matmul is that dot per row
    incs = np.sqrt(diff[:, None, :] @ diff[:, :, None]).reshape(len(base), len(scales))
    slopes = np.array([np.polyfit(log_s, np.log(row), 1)[0] for row in incs])
    return float(slopes.mean()), float(slopes.std(ddof=1) / np.sqrt(len(slopes)))


@dataclass
class PeriodicOrbitData:
    """A periodic orbit of g with the eigenvalues of D g^n along it."""

    period: int
    points: np.ndarray  # (n, 2)
    multipliers: tuple  # (mult_u, mult_s), sorted by |.| descending


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
    jac = np.broadcast_to(np.eye(2), (len(x), 2, 2)).copy()
    z = x
    for _ in range(n):
        j_here = g.jacobian(z)
        jac = np.einsum("nij,njk->nik", j_here, jac)
        z = g.lift(z)
    return z, jac


def find_periodic_points(g, a_elem: HyperbolicElement, n: int, max_newton: int = 50):
    """All points of period dividing n, via Newton on g^n(x) = x + k.

    Seeds are the exact lattice solutions for the linear part.  One Newton
    iteration runs over all seeds of the period at once: each pass lifts
    the rows still live, a row stops once max |g^n(x) - x - k| < 1e-12,
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
        done = np.max(np.abs(res), axis=1) < 1e-12
        converged[live[done]] = True
        live, res, jac = live[~done], res[~done], jac[~done]
        if not len(live):
            break
        x[live] -= np.linalg.solve(jac - np.eye(2), res[..., None])[..., 0]
    failures = [NewtonFailed(f"seed {seed} for k={k}, period {n}")
                for (seed, k), ok in zip(seeds, converged) if not ok]
    return _group_orbits(g, wrap_point(x[converged]), n), failures


def _near_matches(images: np.ndarray, points: np.ndarray, tol: float) -> list:
    """For each image, the ascending indices of the points within tol of it
    in the wrapped sup distance; images and points lie in [0,1)^2.

    Candidates come from a sorted search on the first coordinate, in
    windows around y - 1, y and y + 1 so that the seam at 0 = 1 is
    covered; the exact distance test then runs on the candidates only.
    """
    order = np.argsort(points[:, 0])
    first = points[order, 0]
    # windows twice as wide as tol: the exact test below decides
    y = (images[:, 0] + np.array([[-1.0], [0.0], [1.0]])).ravel()
    lo = np.searchsorted(first, y - 2 * tol, side="left")
    count = np.searchsorted(first, y + 2 * tol, side="right") - lo
    i = np.repeat(np.tile(np.arange(len(images)), 3), count)
    j = order[np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - lo, count)]
    d = np.abs(images[i] - points[j]) % 1.0
    near = np.max(np.minimum(d, 1.0 - d), axis=1) < tol
    i, j = i[near], j[near]
    keep = np.lexsort((j, i))
    i, j = i[keep], j[keep]
    bounds = np.searchsorted(i, np.arange(len(images) + 1))
    j = j.tolist()
    return [j[bounds[k]:bounds[k + 1]] for k in range(len(images))]


def _group_orbits(g, points: np.ndarray, n: int):
    """Partition period-n points into orbits of g and attach multipliers.

    g is applied once to all points.  Each orbit starts at the first point
    not yet taken, in input order, and follows the images: a step takes the
    first untaken point within 1e-8 (wrapped sup distance) of the current
    image, and the orbit closes when none is left.  The points near each
    image are found once, before the walk.  The multipliers come from one
    D g^n product and one eigvals call over all orbit heads.
    """
    if not len(points):
        return []
    matches = _near_matches(g.apply(points), points, 1e-8)
    taken = [False] * len(points)
    members = []
    for head in range(len(points)):
        if taken[head]:
            continue
        taken[head] = True
        orbit = [head]
        while True:
            nxt = next((k for k in matches[orbit[-1]] if not taken[k]), None)
            if nxt is None:
                break
            taken[nxt] = True
            orbit.append(nxt)
        members.append(orbit)
    _, jac = _iterated_lift(g, points[[orbit[0] for orbit in members]], n)
    orbits = []
    for orbit, eigs in zip(members, np.linalg.eigvals(jac)):
        eigs = sorted(np.real_if_close(eigs), key=abs, reverse=True)
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
    failures: list  # a NewtonFailed per seed whose Newton diverged

    def check_converged(self) -> None:
        """Raise one NewtonFailed, naming how many seeds diverged and the
        first of them, when any did."""
        if self.failures:
            raise NewtonFailed(f"{len(self.failures)} periodic seeds did not converge, "
                               f"first: {self.failures[0]}")


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
            mult_u, mult_s = orb.multipliers
            mism = abs(np.log(abs(mult_u)) - n * log_lam) / (n * log_lam)
            rows.append({
                "period": n,
                "point_x": float(orb.points[0][0]),
                "point_y": float(orb.points[0][1]),
                "mult_u": float(mult_u),
                "mult_s": float(mult_s),
                "mismatch": float(mism),
            })
    max_mism = max((r["mismatch"] for r in rows), default=0.0)
    return MismatchReport(rows=rows, max_mismatch=max_mism, failures=all_failures)
