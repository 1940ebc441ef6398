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

The periodic orbits are h of the periodic points of A.  Fix(A^n) is a
subgroup of the q x q grid, q = |det(A^n - I)|, that A maps onto itself,
so the same iteration (``_iterate``) runs on its cycles alone, laid out as
the grid is, and each cycle is one orbit of g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# by name, so that the package's import loads np.random, which NumPy 2
# would load lazily inside the first experiment
from numpy.random import default_rng

from .errors import PeriodOutOfRange, SeedEnumerationFailed, SolverDiverged
from .interp import PeriodicBicubic
from .lattice import ROW_BLOCK, HyperbolicElement, IntMatrix2, power, row_blocks, wrap_point

MAX_DISPLACEMENT = 0.5
MAX_PERIOD = 8  # desk-scale limit of the periodic-orbit finder
MAX_ITERATIONS = 2000
DIVERGENCE_PATIENCE = 10
RESIDUAL_STOP = 1e-9  # the solve stops once sup |u o A - A u - p(h)| is below it
# the periodic solve's stop: the closing error |g^n(y) - y| of an orbit point
# is up to lambda_u^n times the residual, about 843 times at n = 7
PERIODIC_STOP = 1e-14
COARSE_N = 64  # the grid of coarse_start's solve: the smallest grid_n the config accepts
SMOOTH_BAND = 16  # coarse_start reads the modes with max(|k1|, |k2|) >= SMOOTH_BAND
WALKED_N = 32  # _OrbitLayout walks grids up to this N, where a lift costs more than a walk


def _index_permutation(m: IntMatrix2, n: int) -> np.ndarray:
    """Flat index permutation of the N x N grid under x -> m x mod 1."""
    idx = np.arange(n)

    def coordinate(x, y):
        # (x i + y j) mod N as (x i mod N) + (y j mod N), less N where that
        # reaches N: two remainders of length N, none over the grid
        t = np.add.outer(x * idx % n, y * idx % n)
        return np.subtract(t, n, out=t, where=t >= n)
    ti = coordinate(m.a, m.b)
    ti *= n
    ti += coordinate(m.c, m.d)
    return ti.ravel()


def _walked_rows(fwd: np.ndarray) -> dict:
    """The cycles of the permutation fwd as {length: [(count, length)
    rows]}, each row starting at its cycle's smallest index."""
    # every index walks its cycle forward; it drops out at the first
    # smaller index and is its cycle's minimum when the walk closes
    firsts = {}
    cand, cur, length = np.arange(len(fwd)), fwd, 1
    while len(cand):
        closed = cur == cand
        if closed.any():
            firsts[length] = cand[closed]
        keep = cur > cand
        cand, cur, length = cand[keep], fwd[cur[keep]], length + 1
    rows = {}
    for length, first in firsts.items():
        walk = np.empty((length, len(first)), dtype=fwd.dtype)
        walk[0] = first
        for k in range(1, length):
            walk[k] = fwd[walk[k - 1]]
        rows[length] = [walk.T]
    return rows


def _lifted_rows(half_order: np.ndarray, half_blocks: list, fwd: np.ndarray, n: int) -> dict:
    """The cycles of fwd on the N x N grid, N even, as {length: [(count,
    length) rows]}, lifted from the orbit layout of the N/2 grid.

    Reducing x mod N/2 commutes with A, so the cycle of a point r + (N/2) e,
    r a point of the N/2 grid and e in {0, 1}^2, reduces onto the N/2 row
    of r.  Walking L steps from r + (N/2) e, L that row's length, lands on
    r + (N/2) T(e) for a permutation T of {0, 1}^2, and each cycle
    (e, T e, ..., T^(t-1) e) of T joins t walked segments into one row of
    length L t.  T(e) = M e + T(0) mod 2, with M = A^L mod 2 the same for
    every row of the block, so the rows with equal T(0) share T.  Each grid
    point is walked once.
    """
    h = n // 2
    lifts = np.array([0, h, h * n, h * n + h])[:, None]  # r + (N/2) e for e = 2 e1 + e2
    rows = {}
    for start, stop, length in half_blocks:
        i, j = np.divmod(half_order[start:stop:length], h)
        seg = np.empty((length, 4, len(i)), dtype=fwd.dtype)
        np.add(i * n + j, lifts, out=seg[0])
        for k in range(1, length):
            fwd.take(seg[k - 1], out=seg[k])
        i, j = np.divmod(fwd[seg[-1]], n)
        tab = 2 * (i >= h) + (j >= h)  # T(e) of each row, (4, count)
        for d in np.bincount(tab[0], minlength=4).nonzero()[0].tolist():
            r = (tab[0] == d).nonzero()[0]
            perm, seen = tab[:, r[0]].tolist(), set()
            for e in range(4):
                if e in seen:
                    continue
                cycle = [e]
                while perm[cycle[-1]] != e:
                    cycle.append(perm[cycle[-1]])
                seen.update(cycle)
                # row c of the joined block: the segments of its T-cycle in turn
                rows.setdefault(length * len(cycle), []).append(
                    seg[:, cycle, r[:, None]].transpose(1, 2, 0).reshape(len(r), -1))
    return rows


def _stacked(rows: dict):
    """(order, blocks) of the rows {length: [(count, length) rows]}: the
    rows one after another, blocks of equal length in increasing length,
    each block (start, stop, length)."""
    lengths = sorted(rows)
    blocks, start = [], 0
    for length in lengths:
        size = sum(r.size for r in rows[length])
        blocks.append((start, start + size, length))
        start += size
    return np.concatenate([r.reshape(-1) for length in lengths for r in rows[length]]), blocks


def _orbit_order(m: IntMatrix2, n: int):
    """(order, blocks) of the N x N grid's ``_OrbitLayout``: the cycles
    walked for odd N and N <= WALKED_N (``_walked_rows``), and lifted from
    the N/2 grid for even N above it (``_lifted_rows``)."""
    fwd = _index_permutation(m, n)
    if n % 2 or n <= WALKED_N:
        rows = _walked_rows(fwd)
    else:
        rows = _lifted_rows(*_orbit_order(m, n // 2), fwd, n)
    del fwd
    return _stacked(rows)


class _OrbitLayout:
    """Flat grid indices in A-orbit order: those of the N x N grid
    (``_orbit_order``), or of the seeds of Fix(A^n) on the q x q grid
    (``find_periodic_points``).

    Each cycle of x -> A x is one row, which follows it.  Rows of equal
    cycle length L form one (count x L) block, blocks in increasing L.  In
    this order f o A^s is a cyclic shift by s along every row, so composing
    with a power of A is two slice copies per block.  For odd N and
    N <= WALKED_N the grid's cycles are walked from their smallest indices;
    for even N above it they are lifted from the layout of the N/2 grid,
    which walks each grid point once.

    The solve streams the layout in chunks: runs of whole rows of at least
    ROW_BLOCK points, small blocks merged into one chunk, and the rest of
    the longest rows, whose last chunk is shorter but not a single row.
    Each chunk is (start, stop, segments), each segment (lo, hi, length)
    the rows of one block in the chunk, relative to start.
    """

    def __init__(self, order: np.ndarray, blocks: list):
        self.order, self.blocks = order, blocks  # grid index at each orbit position
        total = len(order)
        cuts = [0]
        for lo, hi, length in self.blocks:
            # the first row end of this block at least ROW_BLOCK past the last cut
            cut = lo - (lo - cuts[-1] - ROW_BLOCK) // length * length
            while cut <= hi:
                cuts.append(cut)
                cut += -(-ROW_BLOCK // length) * length
        if cuts[-1] < total:
            # the rest, whole rows of the longest length, is a chunk of its
            # own unless it is one row
            if len(cuts) > 1 and total - cuts[-1] == self.blocks[-1][2]:
                cuts.pop()
            cuts.append(total)
        self.chunks = [(a, b, [(max(lo, a) - a, min(hi, b) - a, length)
                               for lo, hi, length in self.blocks if max(lo, a) < min(hi, b)])
                       for a, b in zip(cuts, cuts[1:])]


def _shift(f: np.ndarray, s: int, out: np.ndarray, segments) -> np.ndarray:
    """f o A^s into out, both one chunk in orbit order (out C-contiguous)."""
    for lo, hi, length in segments:
        k = s % length
        src = f[lo:hi].reshape(-1, length, *f.shape[1:])
        dst = out[lo:hi].reshape(src.shape)
        dst[:, :length - k] = src[:, k:]
        dst[:, length - k:] = src[:, :k]
    return out


def _geometric_sum(f: np.ndarray, c: float, s: int, segments, tmp: np.ndarray) -> np.ndarray:
    """sum_k c^k f o A^(k s) for |c| < 1 over one chunk, summed in place in f.

    After j doubling steps f holds the first 2^j terms; the step
    f += c f o A^s, s <- 2 s, c <- c^2 runs until |c| is below machine
    epsilon, when the remaining terms no longer change f.
    """
    while abs(c) >= np.finfo(float).eps:
        _shift(f, s, tmp, segments)
        tmp *= c
        f += tmp
        s, c = 2 * s, c * c
    return f


class Conjugacy:
    """h = id + u conjugating A to g, u on the N x N grid and bicubic off it."""

    def __init__(self, grid_size: int, values: np.ndarray, residual: float):
        self.grid_size = grid_size
        self.values = values  # u, (N*N, 2) flat, row-major in (i, j)
        self.residual = residual  # sup |u o A - A u - p(h)| over every grid node, at the stop
        self._interp = None

    @property
    def sup_norm(self) -> float:
        """max |u| over the grid, as the largest of max u and -min u, which
        makes no |u| copy; + 0.0 turns a -0.0 into 0.0, and a nan stays."""
        return float(np.maximum(self.values.max(), -self.values.min()) + 0.0)

    def displacement(self, x) -> np.ndarray:
        """u, shape (n, 2), at the points x of shape (n, 2).  An all-zero
        u (the linear action's) is answered with zeros and no bicubic: the
        bicubic returns a constant field exactly, so the bits are the same."""
        if self._interp is None:
            n = self.grid_size
            self._interp = (PeriodicBicubic(self.values.reshape(n, n, 2)) if self.values.any()
                            else lambda x: np.zeros((len(x), 2)))
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


def _lift_into(out: np.ndarray, u: np.ndarray, index: np.ndarray, n: int) -> np.ndarray:
    """h = id + u at the points of ``grid_points(n)`` of flat indices index
    into out, (k, 2); the grid points are rebuilt with the bits of
    grid_points."""
    i = index // n
    np.divide(i, n, out=out[:, 0])
    np.subtract(index, np.multiply(i, n, out=i), out=i)
    np.divide(i, n, out=out[:, 1])
    out += u
    return out


def _residual(u: np.ndarray, u_a: np.ndarray, p: np.ndarray, a: np.ndarray) -> float:
    """sup |u o A - A u - p| over one block of two or more rows."""
    r = u @ a.T
    np.subtract(u_a, r, out=r)
    r -= p
    return float(np.max(np.abs(r, out=r)))


def _u_chunks(layout: _OrbitLayout, xi: np.ndarray, eta: np.ndarray,
              a_elem: HyperbolicElement):
    """(lo, hi, segments, u, tmp) for each chunk of the layout: u = xi v_s
    + eta v_u on the chunk, (k, 2), and tmp a free (k, 2) scratch, both in
    chunk-sized arrays that live as long as the pass."""
    v_s, v_u = a_elem.vs, a_elem.vu
    largest = max(hi - lo for lo, hi, _ in layout.chunks)
    u_c, scratch = np.empty((largest, 2)), np.empty(2 * largest)
    for lo, hi, segments in layout.chunks:
        u, tmp = u_c[:hi - lo], scratch[:2 * (hi - lo)].reshape(2, -1)
        # a column at a time: broadcasting over rows of length 2 runs its
        # inner loop on 2 elements and is 3x slower
        for j in range(2):
            np.multiply(xi[lo:hi], v_s[j], out=tmp[0])
            np.multiply(eta[lo:hi], v_u[j], out=tmp[1])
            np.add(tmp[0], tmp[1], out=u[:, j])
        yield lo, hi, segments, u, tmp.reshape(-1, 2)


def _sum_pass(layout: _OrbitLayout, p: np.ndarray, xi: np.ndarray, eta: np.ndarray,
              a_elem: HyperbolicElement, gather: bool = False) -> None:
    """xi = sum_k lam_s^k p_s o A^(-k-1) and eta = -sum_k lam_u^(-k-1)
    p_u o A^k, in orbit order, summed a chunk at a time into xi and eta;
    with ``gather`` p is in grid order, and each chunk of it is gathered
    by ``layout.order``."""
    w_s, w_u = a_elem.ws, a_elem.wu
    lam_s, lam_u = a_elem.signed_lambda_s, a_elem.signed_lambda_u
    tmp = np.empty(max(hi - lo for lo, hi, _ in layout.chunks))
    for lo, hi, segments in layout.chunks:
        xi_c, eta_c, t = xi[lo:hi], eta[lo:hi], tmp[:hi - lo]
        p_c = p.take(layout.order[lo:hi], axis=0) if gather else p[lo:hi]
        _shift(np.dot(p_c, w_s, out=t), -1, xi_c, segments)
        _geometric_sum(xi_c, lam_s, -1, segments, t)
        np.dot(p_c, w_u, out=eta_c)
        eta_c /= -lam_u
        _geometric_sum(eta_c, 1.0 / lam_u, 1, segments, t)


def _lift_pass(layout: _OrbitLayout, xi: np.ndarray, eta: np.ndarray,
               a_elem: HyperbolicElement, out: np.ndarray, n: int) -> float:
    """The points h = id + u into out in orbit order; returns max |u|."""
    sups = []
    for lo, hi, _, u, tmp in _u_chunks(layout, xi, eta, a_elem):
        sups.append(np.max(np.abs(u, out=tmp)))
        _lift_into(out[lo:hi], u, layout.order[lo:hi], n)
    return np.max(sups)


def _residual_pass(layout: _OrbitLayout, xi: np.ndarray, eta: np.ndarray,
                   a_elem: HyperbolicElement, p: np.ndarray) -> float:
    """sup |u o A - A u - p|, with u o A a shift within each row."""
    a = a_elem.matrix.as_array()
    return float(np.max([_residual(u, _shift(u, 1, tmp, segments), p[lo:hi], a)
                         for lo, hi, segments, u, tmp in _u_chunks(layout, xi, eta, a_elem)]))


def _scatter_u(layout: _OrbitLayout, xi: np.ndarray, eta: np.ndarray,
               a_elem: HyperbolicElement, out: np.ndarray) -> np.ndarray:
    """u into out, (N*N, 2) in grid order."""
    for lo, hi, _, u, _ in _u_chunks(layout, xi, eta, a_elem):
        # each row of u moved as one complex128 item: a 1-D scatter, about
        # 3x faster than assigning rows of a 2-D array at N = 1024
        out.view(np.complex128).reshape(-1)[layout.order[lo:hi]] = \
            u.view(np.complex128).reshape(-1)
    return out


def _iterate(layout: _OrbitLayout, g, buf: np.ndarray, n: int, stop: float,
             res: float | None = None):
    """The iteration of h o A = g o h, A the element of the map handle g,
    on the points of the layout, whose flat indices are those of the n x n
    grid: (xi, eta, residual) once the residual is below stop, buf holding
    p at the points of that u.

    The start is u = 0, whose points buf holds in orbit order, unless res
    is given: then buf holds the displacement p there in grid order, res
    its residual, and the first sum pass gathers it a chunk at a time.
    Each iteration evaluates p into buf, over the points it holds, and
    stops once the residual pass reads below stop; otherwise the sum pass
    sums p into xi and eta, and the lift pass, which runs after it, writes
    the points of the new u over p.  Raises SolverDiverged when the
    residual stops decreasing for DIVERGENCE_PATIENCE consecutive
    iterations, the displacement leaves the admissible ball, or
    MAX_ITERATIONS pass.
    """
    a_elem = g.element
    xi, eta = np.zeros(len(layout.order)), np.zeros(len(layout.order))
    best = np.inf
    stall = 0
    gather = res is not None
    for it in range(MAX_ITERATIONS):
        if not gather:
            g.displacement(buf, out=buf)
            res = _residual_pass(layout, xi, eta, a_elem, buf)
            if res < stop:
                return xi, eta, res
        _sum_pass(layout, buf, xi, eta, a_elem, gather)
        gather = False
        size = _lift_pass(layout, xi, eta, a_elem, buf, n)
        if size >= MAX_DISPLACEMENT:
            raise SolverDiverged(f"|u| reached {size:.3g} at iteration {it}")
        if res < best - 1e-16:
            best = res
            stall = 0
        else:
            stall += 1
            if stall >= DIVERGENCE_PATIENCE:
                raise SolverDiverged(f"residual stalled at {res:.3e} after {it + 1} iterations")
    raise SolverDiverged(f"residual {res:.3e} > {stop:g} after {MAX_ITERATIONS} iterations")


def solve_conjugacy(g, n: int = 256, u0: np.ndarray | None = None) -> Conjugacy:
    """Solve h o A = g o h for the identity-homotopic conjugacy h = id + u,
    A the element of the map handle g.

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
    layout: it evaluates p into the buffer of the points h, and reads u o A
    a row block at a time, u itself for the zero start and a gather of u0
    otherwise.  Raises SolverDiverged when the residual stops decreasing
    for DIVERGENCE_PATIENCE consecutive iterations or the displacement
    leaves the admissible ball.

    The ``solve_conjugacy`` stage passes ``coarse_start``'s u0: the
    COARSE_N solution's spectrum zero-padded onto the N grid when its high
    band is below the stop (a smooth h), and None, a cold start, for a
    linear action, a Hölder h or a coarse SolverDiverged.  From the
    spectral start the first check usually passes, so the N solve
    evaluates p once.  The stop is the same from either start, so the
    start sets the work, not the tolerance of h.

    Once the first check fails, the iteration (``_iterate``) keeps xi and
    eta in orbit order as its state, and u = xi v_s + eta v_u is formed
    only a chunk of the layout at a time (``_OrbitLayout.chunks``), in
    chunk-sized temporaries.  A sweep makes three passes over the chunks:
    the sum pass projects p and writes both doubling sums into xi and eta;
    the lift pass forms u, takes max |u| and writes the points h into the
    one (N*N, 2) point buffer; and, after p is evaluated over the whole
    grid in one call into that buffer, over the points it holds, the
    residual pass takes u o A as a shift within each row.  p has no array
    of its own, so an iteration holds xi, eta, the point buffer and the
    layout, 40 B per grid point (traced peaks 41 and 43 B at N = 1024 and
    512).  The point buffer is the first check's, holding its p in grid
    order through the layout build; the first sum pass gathers that p by
    the layout's order a chunk at a time, and at the stop u is scattered
    over the last p chunk by chunk.  Every value has the bits of the same
    sums over whole-grid arrays.
    """
    m = g.element.matrix
    a = m.as_array()
    if u0 is None:
        u = np.zeros((n * n, 2))
    else:
        # a C-ordered copy, returned as the values when the first check passes
        u = np.array(u0, dtype=float, order="C").reshape(n * n, 2)
    blocks = row_blocks(n * n)
    buf = np.empty((n * n, 2))
    for rows in blocks:
        _lift_into(buf[rows], u[rows], np.arange(rows.start, rows.stop), n)
    g.displacement(buf, out=buf)
    # u o A a row block at a time: u itself for the zero start
    perm = None if u0 is None else _index_permutation(m, n)
    res = float(np.max([_residual(u[rows], u[rows] if perm is None else u.take(perm[rows], axis=0),
                                  buf[rows], a) for rows in blocks]))
    if res < RESIDUAL_STOP:
        return Conjugacy(n, u, res)
    del u, perm
    layout = _OrbitLayout(*_orbit_order(m, n))
    xi, eta, res = _iterate(layout, g, buf, n, RESIDUAL_STOP, res=res)
    # p is spent, and u takes its buffer
    return Conjugacy(n, _scatter_u(layout, xi, eta, g.element, buf), res)


def coarse_start(g, n: int) -> np.ndarray | None:
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
        coarse = solve_conjugacy(g, n=COARSE_N)
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
    rng = default_rng(seed)
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


def _lattice_seeds(m_n: IntMatrix2, n: int):
    """Exact rational solutions of (A^n - I) x = k inside [0,1)^2.

    With P = A^n - I and q = |det P| each solution is x = num / q, and the
    numerators num = sign(det) adj(P) k, taken mod q, are the subgroup of
    (Z/q)^2 spanned by the columns c1, c2 of sign(det) adj(P); it has q
    elements.  With g = gcd(q, c1), c1 has order q / g and c2 spans the
    cyclic quotient by <c1>, of order g, so the subgroup is
    i c1 + j c2 mod q for i < q / g and j < g.  Each k is P num / q.
    Returns (nums, ks), two (q, 2) int arrays sorted by (k1, k2).
    """
    p = np.array([[m_n.a - 1, m_n.b], [m_n.c, m_n.d - 1]])
    det = p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0]
    if det == 0:
        raise SeedEnumerationFailed(f"A^{n} - I is singular")
    q = abs(int(det))
    adj = np.sign(det) * np.array([[p[1, 1], -p[0, 1]], [-p[1, 0], p[0, 0]]])
    g = math.gcd(q, *adj[:, 0].tolist())
    i, j = np.divmod(np.arange(q), g)
    nums = (i[:, None] * adj[:, 0] + j[:, None] * adj[:, 1]) % q
    ks = nums @ p.T // q
    # Python's sort: the package calls no NumPy sort, and np.lexsort's
    # first call adds 0.2 MB to the peak RSS of a linear teichmuller run
    order = sorted(range(q), key=ks.tolist().__getitem__)
    return nums[order], ks[order]


def find_periodic_points(g, n: int):
    """All points of period dividing n, as h of the points of Fix(A^n), A
    the element of the map handle g.

    h o A = g o h, so h maps Fix(A^n) onto the points of g of period
    dividing n, and each cycle of A on Fix(A^n) onto one orbit of g.  The
    seeds of Fix(A^n) are the points num / q of the q x q grid with the
    integer numerators num of ``_lattice_seeds``, of flat index
    num_1 q + num_2, and A acts on them mod q exactly.  Their cycles,
    walked from their smallest seed in seed order, are the rows of an
    ``_OrbitLayout``, on which the conjugacy solve's iteration
    (``_iterate``) runs from u = 0 to the residual PERIODIC_STOP, with no
    grid and no interpolant; the last p fills the point buffer at the
    stop, and one lift pass forms the points of the last u again.  Each
    row is one orbit, its head the row's first seed, the orbits in the
    order of their heads, and the multipliers come from one D g^n product
    and one eigvals call over all heads.  Returns a list of
    PeriodicOrbitData; raises SolverDiverged, naming the period, when the
    iteration does.
    """
    if not 1 <= n <= MAX_PERIOD:
        raise PeriodOutOfRange(f"period {n} outside [1, {MAX_PERIOD}] (desk scale only)")
    a = g.element.matrix
    nums, _ = _lattice_seeds(power(a, n), n)
    q = len(nums)
    flat = nums[:, 0] * q + nums[:, 1]
    seed_of = dict(zip(flat.tolist(), range(q)))
    images = nums @ np.array([[a.a, a.c], [a.b, a.d]]) % q
    fwd = np.array([seed_of[i] for i in (images[:, 0] * q + images[:, 1]).tolist()])
    seed_at, blocks = _stacked(_walked_rows(fwd))  # the seed at each orbit position
    layout = _OrbitLayout(flat[seed_at], blocks)
    buf = _lift_into(np.empty((q, 2)), 0.0, layout.order, q)  # the seeds, h at u = 0
    try:
        xi, eta, _ = _iterate(layout, g, buf, q, PERIODIC_STOP)
    except SolverDiverged as err:
        raise SolverDiverged(f"period {n}: {err}") from None
    _lift_pass(layout, xi, eta, g.element, buf, q)  # the points of the last u, over its p
    seed_at = seed_at.tolist()
    rows = sorted((seed_at[lo], lo, lo + length)
                  for start, stop, length in blocks for lo in range(start, stop, length))
    _, jac = g.orbit(wrap_point(buf[[lo for _, lo, _ in rows]]), n)
    orbits = []
    for (_, lo, hi), eigs in zip(rows, np.linalg.eigvals(jac)):
        eigs = sorted(np.real_if_close(eigs), key=abs, reverse=True)
        orbits.append(PeriodicOrbitData(
            period=n,
            points=wrap_point(buf[lo:hi]),
            multipliers=(complex(eigs[0]).real, complex(eigs[1]).real),
        ))
    return orbits


@dataclass
class MismatchReport:
    """Per-orbit relative multiplier mismatch against the linear model."""

    rows: list  # dicts: period, point, mult_u, mult_s, mismatch
    max_mismatch: float


def compare_smooth_invariants(g, max_period: int) -> MismatchReport:
    """Relative difference |log|mult_u| - n log lambda_u| / (n log lambda_u),
    lambda_u that of the element of the map handle g, over every orbit of
    period dividing n, for n = 1 .. max_period.

    Zero mismatch (to tolerance) is necessary for the conjugacy to be C^1.
    """
    log_lam = np.log(g.element.lambda_u)
    rows = []
    for n in range(1, max_period + 1):
        for orb in find_periodic_points(g, n):
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
    return MismatchReport(rows=rows, max_mismatch=max_mism)
