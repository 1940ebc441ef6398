"""Stable/unstable line fields, leaves, and the shooting solve of holonomy,
local graphs, heteroclinic points and sampled leaves.

Line fields are stored as angles mod pi (foliations are unoriented).

Every leaf and every crossing of a leaf with a transversal is found on the
maps.  By the stable manifold theorem y lies on the stable leaf of g
through p exactly when l . (G^n(y) - G^n(p)) -> 0 as n grows, with G the
lift of g and l the dual row w_u of its linear part A, which reads the
unstable coordinate (Katok & Hasselblatt 1995, 6.2); unstable leaves are
the stable leaves of the inverse.  ``_shoot`` solves such conditions for a
batch of rows by Newton's method on the handle's ``orbit``, continued in n
over ORBIT_LENGTHS with NEWTON_STEPS steps at each length, a fixed count
for every row.  Holonomies (a scalar unknown, the target's parameter),
local graph samples, heteroclinic points (two unknowns, the point) and the
points of a sampled leaf (``integrate_leaf``, a graph over A's stable
eigen-axis in arc-length parameters, a ``LeafBundle``) all find their
crossings this one way.  The line fields are read off the same
orbits at the points asked, none interpolated: the stable leaf through y
is tangent to the kernel of l . D G^n(y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainMismatch,
    NotConverged,
    RadiusOutOfRange,
    TangencySuspected,
)
from .interp import HermiteCubic, MonotoneCubic, inverse_spline, not_a_knot_spline
from .lattice import _inv2, canonical_sign, grid_points, line_angle, wrap_point

TANGENCY_THRESHOLD = 0.01  # rad; smaller crossing angles are suspect
MAX_RADIUS = 3  # desk scale: lattice vectors with |k|_inf <= 3
ORBIT_LENGTHS = (2, 4, 8, 12, 16)  # the continuation in n of ``_shoot``
NEWTON_STEPS = 4  # Newton steps of ``_shoot`` at each orbit length
SHOOT_TOL = 1e-10  # the largest last Newton step of a converged row
GRAPH_SAMPLES = 41  # samples of each local graph
FIELD_TOL = 1e-8  # rad; the largest change of a line field from orbit length 12 to 16
LEAF_SPACING = 1e-3  # arc length between a sampled leaf's nodes; its arc samples' spacing


def _unit(theta):
    """Unit vector for an angle mod pi, canonical sign: positive first
    coordinate, positive second if the first vanishes."""
    v = np.empty(np.shape(theta) + (2,))
    np.cos(theta, out=v[..., 0])
    np.sin(theta, out=v[..., 1])
    return canonical_sign(v)


class LineField:
    """Unit direction field mod pi of the torus map ``owner``: angles on an
    N x N grid, and directions at any point off the orbit of ``handle``, the
    map whose stable field it is (g, or g.inverse() for g's unstable one)."""

    def __init__(self, owner, theta: np.ndarray, change: float = 0.0, handle=None):
        self.owner = owner
        self.handle = handle
        self.theta = np.asarray(theta, dtype=float)  # (N, N), [0, pi)
        self.grid_size = self.theta.shape[0]
        self.change = change  # largest angle between the orbit-length 12 and 16 fields

    def angle_at(self, x):
        """Angles in [0, pi), shape (n,), at the torus points x of shape
        (n, 2): the kernel angles of l . D G^16 there, as on the grid."""
        return _kernel_angle(_orbit_row(self.handle, x, ORBIT_LENGTHS[-1]))

    def direction_at(self, x):
        """Canonical unit vectors (n, 2) for the angles at the torus points
        x of shape (n, 2)."""
        return _unit(self.angle_at(x))

    def invariance_error(self) -> float:
        """Max angular error of D g (stored grid direction at x) against the
        field at g(x) over 512 fixed grid nodes x."""
        n = self.grid_size
        nodes = np.random.default_rng(0).integers(n * n, size=512)
        pts = grid_points(n)[nodes]
        stored = _unit(self.theta.ravel()[nodes])
        pushed = np.einsum("nij,nj->ni", self.owner.jacobian(pts), stored)
        return float(np.max(line_angle(pushed, self.direction_at(wrap_point(self.owner.lift(pts))))))


def _orbit_row(handle, pts, m: int):
    """The rows l . D G^m(x), (n, 2), at the points pts (n, 2), with l the
    dual row w_u of the handle's element, formed plane by plane."""
    ell = handle.element.wu
    jac = handle.orbit(pts, m)[1]
    return np.stack([ell[0] * jac[:, 0, k] + ell[1] * jac[:, 1, k] for k in range(2)], axis=1)


def _kernel(rows):
    """The kernels (-r_1, r_0) (..., 2) of the rows r (..., 2): leaf tangents."""
    return rows[..., ::-1] * (-1.0, 1.0)


def _kernel_angle(rows):
    """The angles in [0, pi), (...,), of the kernels of the rows (..., 2)."""
    return np.mod(np.arctan2(rows[..., 0], -rows[..., 1]), math.pi)


def compute_line_field(g, label: str, n: int = 128) -> LineField:
    """Stable or unstable line field of an Anosov map handle on the n x n
    grid.

    The stable direction at x is the kernel (-r_1, r_0) of the row
    r = l . D G^m(x) as m grows, with l the dual row w_u of g's linear
    part (``_shoot`` reads the same kernel as a leaf's tangent); the
    unstable field is the stable field of the inverse map.  The row is
    taken at the two longest ORBIT_LENGTHS, 12 and 16, from the handle's
    ``orbit``; its kernel at m approaches its limit like lambda_u^-2m.  The
    grid holds the kernel angles at m = 16 (``LineField.angle_at`` there, to
    the bit), ``change`` the largest angle between the two kernels (that
    between the rows); one above FIELD_TOL raises NotConverged."""
    handle = g if label == "stable" else g.inverse()
    pts = grid_points(n)
    near, row = (_orbit_row(handle, pts, m) for m in ORBIT_LENGTHS[-2:])
    change = float(np.max(line_angle(near, row)))
    if not change <= FIELD_TOL:  # nan too
        raise NotConverged(f"angular change {change:.3e} rad between orbit lengths "
                           f"{ORBIT_LENGTHS[-2]} and {ORBIT_LENGTHS[-1]} above {FIELD_TOL:.1e}")
    return LineField(g, _kernel_angle(row).reshape(n, n), change, handle)


def line_fields(handles, keys, n: int) -> dict:
    """Line fields keyed like 'f1u' (unstable field of handles[0]) or
    'f2s' (stable field of handles[1]), one per requested key."""
    return {key: compute_line_field(handles[int(key[1]) - 1],
                                    "unstable" if key[2] == "u" else "stable", n=n)
            for key in keys}


def _failure(cls, message: str, rows, tags):
    """Exception ``cls`` for failing rows of a stacked call; when the caller
    tagged its rows, the message ends with the failing rows' tags."""
    if tags is not None:
        names = dict.fromkeys(tags[int(r)] for r in rows)
        message = f"{message} [{'; '.join(names)}]"
    return cls(message)


@dataclass
class LeafBundle:
    """A leaf curve in the universal cover at nodes of uniform arc length:
    nodes 0..last at parameter spacing step."""

    params: np.ndarray        # (n,) arc-length parameters
    points: np.ndarray        # (n, 2) lift coordinates
    headings: np.ndarray      # (n, 2) unit tangents
    step: float               # node spacing

    @property
    def last(self) -> int:
        """The index of the last node."""
        return len(self.params) - 1

    def project(self, pts):
        """Return (s, signed_distance, tangent) for points pts of shape (m, 2)
        projected onto the leaf.

        Nearest-node search over every node plus parabolic refinement of
        the squared distance; exact for straight leaves.  The foot is
        linearly interpolated along the nearest node's heading, accurate
        to O(step^2).
        """
        last, nodes = self.last, self.points
        # each coordinate's difference squared, the two squares added as np.sum
        # over a last axis of length 2 adds them, but without that reduction
        d2 = (pts[:, None, 0] - nodes[:, 0]) ** 2 + (pts[:, None, 1] - nodes[:, 1]) ** 2
        idx = d2.argmin(axis=1)
        # the squared distances at idx - 1, idx and idx + 1
        around = np.take_along_axis(d2, np.clip(idx[:, None] + np.arange(-1, 2), 0, last), axis=1)
        h = self.step
        node = nodes[idx]
        head = self.headings[idx]
        offset = np.einsum("ni,ni->n", pts - node, head) / h
        np.minimum(offset, 0.0, out=offset, where=idx == 0)
        np.maximum(offset, 0.0, out=offset, where=idx == last)
        interior = (idx > 0) & (idx < last)
        if interior.any():
            dm, d0, dp = around[interior].T
            denom = dm - 2 * d0 + dp
            par = np.where(np.abs(denom) > 1e-30, 0.5 * (dm - dp) / np.where(denom == 0, 1.0, denom), 0.0)
            offset[interior] = np.clip(par, -1.0, 1.0)
        shift = offset * h
        foot = node + shift[:, None] * head
        return self.params[idx] + shift, np.einsum("ni,ni->n", pts - foot, _kernel(head)), head


# the name bench/spans.py wraps for the projection's span
CurveProjector = LeafBundle


def chord_arc_length(curve):
    """Arc length from the first of the samples ``curve`` (2n + 1, 2), at
    uniform parameter spacing, to each even one, (n + 1,): the chord sums
    over the full and the halved spacing, Richardson-corrected, O(dr^4)."""
    full = np.linalg.norm(curve[2::2] - curve[:-2:2], axis=1)
    halves = np.linalg.norm(np.diff(curve, axis=0), axis=1)
    half_sum = halves[0::2] + halves[1::2]
    return np.concatenate([[0.0], np.cumsum(half_sum + (half_sum - full) / 3.0)])


def _on_leaves(handle, bases, sigma):
    """The points at the coordinates sigma (m,) along v of the stable
    leaves of the handle through the rows of ``bases`` (m, 2): one
    ``holonomy`` onto the lines base + sigma v + tau w from tau = 0, with
    v and w the unit stable and unstable eigen-directions vs and vu of the
    handle's element."""
    v, w = handle.element.vs, handle.element.vu
    origins = bases + sigma[:, None] * v
    tau = holonomy(handle, bases, _line(origins, np.broadcast_to(w, origins.shape)),
                   np.zeros(len(origins)))
    return origins + tau[:, None] * w


def leaf_arc_lengths(handle, bases, lo: float, hi: float, spacing: float = LEAF_SPACING):
    """The signed arc lengths s (m, k) from each row of ``bases`` (m, 2)
    along the stable leaf through it, at the coordinates sigma (k,) along
    v of ``_on_leaves`` at ``spacing``, covering s in [lo, hi] (lo <= 0 <=
    hi): (sigma, s).  Each leaf is shot at half that spacing, all in one
    batch, and s is its ``chord_arc_length`` from sigma = 0.  A chord is
    at least |sin(v, w)| times its extent in sigma, so sigma in
    [lo, hi] / |sin(v, w)|, one sample more at each end, covers s."""
    v, w = handle.element.vs, handle.element.vu
    width = abs(v[0] * w[1] - v[1] * w[0]) * spacing
    first = math.floor(lo / width) - 1
    last = max(math.ceil(hi / width) + 1, first + 3)
    sigma = 0.5 * spacing * np.arange(2 * first, 2 * last + 1)
    curves = _on_leaves(handle, np.repeat(bases, len(sigma), axis=0),
                        np.tile(sigma, len(bases))).reshape(len(bases), len(sigma), 2)
    s = np.array([chord_arc_length(curve) for curve in curves])
    return sigma[::2], s - s[:, -first, None]


def integrate_leaf(handle, x, length: float, centered: bool = False) -> LeafBundle:
    """The stable leaf of the map handle through the point x (2,) (for the
    unstable one pass g.inverse()) at nodes of uniform arc length s from x,
    s growing along the stable eigen-axis v (``handle.element.vs``), over
    [-|length|/2, |length|/2] with ``centered``, else between 0 and
    ``length``, in max(1, round(extent / LEAF_SPACING)) intervals.  The
    nodes are shot at the coordinates along v read off the inverse of
    ``leaf_arc_lengths``; each heading is the unit kernel of l . D G^16
    there (``_orbit_row``), oriented along v by the sign of its dual
    coordinate w_s . kernel."""
    x = np.asarray(x, dtype=float)[None]
    lo, hi = (-abs(length) / 2, abs(length) / 2) if centered else sorted((0.0, length))
    sigma, (s,) = leaf_arc_lengths(handle, x, lo, hi)
    n = max(1, int(round((hi - lo) / LEAF_SPACING)))
    params = np.linspace(lo, hi, n + 1)
    points = _on_leaves(handle, np.repeat(x, n + 1, axis=0),
                        inverse_spline(sigma, s, "leaf arc length")(params))
    kernel = _kernel(_orbit_row(handle, points, ORBIT_LENGTHS[-1]))
    headings = np.sign(kernel @ handle.element.ws)[:, None] * kernel
    headings /= np.linalg.norm(headings, axis=1, keepdims=True)
    return LeafBundle(params, points, headings, (hi - lo) / n)


def _shoot(leaves, position, x, tags=None):
    """Solve for the unknowns x (m, d), d = 1 or 2, the d conditions that
    position(x) lies on the stable leaf of g through p, for each (g, p) of
    ``leaves``, p the rows' base points (m, 2); returns x.

    ``position(x)`` gives the points y (m, 2) and their derivatives
    dy/dx (m, 2, d).  Condition i reads l_i . (G_i^n(y) - G_i^n(p)) = 0,
    with l_i the dual row w_u of g_i's element, by Newton's method on
    the handles' ``orbit``: NEWTON_STEPS steps at each n of ORBIT_LENGTHS,
    for every row.  No row stops early, so a row's steps do not depend on its
    batchmates.  The leaf of condition i is tangent to the kernel of
    l_i . D G_i^n(y); a row whose crossing angle (between the two leaves,
    or between the leaf and the curve dy/dx) is below TANGENCY_THRESHOLD,
    or not a number, raises TangencySuspected, and a row whose last Newton
    step exceeds SHOOT_TOL raises NotConverged; ``tags`` (one per row)
    name the failing rows.
    """
    readers = [g.element.wu for g, _ in leaves]
    d = len(leaves)
    refs_n = None
    with np.errstate(divide="ignore", invalid="ignore"):
        for n in np.repeat(ORBIT_LENGTHS, NEWTON_STEPS).tolist():
            if n != refs_n:
                refs, refs_n = [g.orbit(p, n)[0] @ ell for (g, p), ell in zip(leaves, readers)], n
            y, dy = position(x)
            f = np.empty((len(y), d))
            grad = np.empty((len(y), d, 2))
            for i, ((g, _), ell, ref) in enumerate(zip(leaves, readers, refs)):
                image, jac = g.orbit(y, n)
                f[:, i] = image @ ell - ref
                grad[:, i] = np.einsum("j,njk->nk", ell, jac)
            jac_x = grad @ dy
            step = f / jac_x[:, :, 0] if d == 1 else _inv2(jac_x, f)
            x = x - step
            if not np.isfinite(x).all():  # a row without a crossing stops every row
                break
    # the leaves' directions, normal to the gradients, and the curve's
    across = _kernel(grad)
    angle = line_angle(across[:, 0], across[:, 1] if d == 2 else dy[:, :, 0])
    shallow = np.flatnonzero(~(angle >= TANGENCY_THRESHOLD))
    if len(shallow):
        worst = float(np.min(np.nan_to_num(angle[shallow], nan=0.0)))
        raise _failure(TangencySuspected, f"min crossing angle {worst:.4f} rad below "
                       f"{TANGENCY_THRESHOLD}", shallow, tags)
    last = np.max(np.abs(step), axis=1)
    lost = np.flatnonzero(~(last <= SHOOT_TOL))
    if len(lost):
        raise _failure(NotConverged, f"last Newton step {float(np.max(last[lost])):.3e} above "
                       f"{SHOOT_TOL:g}", lost, tags)
    return x


def _line(origins, directions):
    """The straight transversals t -> origins + t directions, one per row,
    as a target of ``holonomy``."""
    return lambda t: (origins + t[:, None] * directions, directions)


def holonomy(g, starts, target, guess, tags=None):
    """Holonomy along the stable foliation of the map handle g (for the
    unstable one pass g.inverse()): the parameter t at which the stable
    leaf through each row of ``starts`` (m, 2) crosses that row's target
    curve, found by ``_shoot`` from ``guess`` (m,).

    ``target(t)`` gives the points (m, 2) of the rows' curves at their
    parameters t and their derivatives dy/dt (m, 2), which ``_shoot``
    reads as such: the straight transversals of ``_line`` give their
    directions.
    ``tags`` (one per row) name the failing rows.
    """
    def position(t):
        pts, tangents = target(t[:, 0])
        return pts, tangents[:, :, None]

    return _shoot([(g, starts)], position, np.asarray(guess, dtype=float)[:, None], tags)[:, 0]


def _identity(y):
    """``_shoot``'s position when the unknowns are the point itself."""
    return y, np.broadcast_to(np.eye(2), (len(y), 2, 2))


def local_graph(bases, axes, target_dirs, g_frame, g_target, eps: float, tags=None) -> list:
    """Local graphs of the stable leaves of ``g_target`` through ``bases``
    (m, 2), one not-a-knot spline s(u) per base.

    The frame at base b is two straight axes, b + u axes[:, 0] and
    b + s axes[:, 1] (unit directions, (m, 2, 2)).  A point's u is where
    the stable leaf of ``g_frame`` through it crosses the u-axis, and its
    s where its unstable leaf crosses the s-axis.  Sample j of each graph
    is the point on the stable leaf of ``g_target`` through b and on the
    stable leaf of ``g_frame`` through b + u_j axes[:, 0], u_j =
    linspace(-eps, eps, GRAPH_SAMPLES): one 2 x 2 ``_shoot`` for every
    sample of every graph, from where the lines b + sigma target_dirs (the
    target leaves' unit directions at the bases, (m, 2)) and
    b + u_j axes[:, 0] + tau axes[:, 1] meet.  Its s is then one
    ``holonomy``, all samples together.  ``tags`` (one per graph) name the
    failing graphs.
    """
    count = len(bases)
    u = np.linspace(-eps, eps, GRAPH_SAMPLES)
    graph = np.repeat(np.arange(count), GRAPH_SAMPLES)
    b, e_u, e_s = bases[graph], axes[graph, 0], axes[graph, 1]
    on_axis = b + np.tile(u, count)[:, None] * e_u
    # sigma target_dirs - tau e_s = u_j e_u
    seed_dirs = target_dirs[graph]
    sigma_tau = _inv2(np.stack([seed_dirs, -e_s], axis=2), on_axis - b)
    row_tags = None if tags is None else [tags[i] for i in graph]
    y = _shoot([(g_target, b), (g_frame, on_axis)], _identity,
               b + sigma_tau[:, :1] * seed_dirs, row_tags)
    # start s at y's coordinate along e_s in the frame (e_u, e_s)
    guess = _inv2(np.stack([e_u, e_s], axis=2), y - b)[:, 1]
    s = holonomy(g_frame.inverse(), y, _line(b, e_s), guess, row_tags)
    return [not_a_knot_spline(u, row) for row in s.reshape(count, GRAPH_SAMPLES)]


def min_transversality_angle(f1: LineField, f2: LineField):
    """Minimum unsigned angle between two line fields over the grid."""
    if f1.grid_size != f2.grid_size:
        raise DomainMismatch(f"fields on {f1.grid_size}- and {f2.grid_size}-point grids; "
                             "they must share a grid")
    d = np.abs(f1.theta - f2.theta) % math.pi
    d = np.minimum(d, math.pi - d)
    flat = int(np.argmin(d))
    n = f1.grid_size
    i, j = divmod(flat, n)
    return float(d.ravel()[flat]), np.array([i / n, j / n])


@dataclass
class HeteroclinicPoint:
    """A point of W^u(z) cap W^s(z), with its leaf parameters and lattice tag."""

    u_param: float         # a of the linear seed a v_u = b v_s + k
    s_param: float         # b of the linear seed
    lattice: tuple         # the integer vector k of the cover equation
    lift: np.ndarray       # the point on the lift of the unstable leaf from z
    lift_s: np.ndarray     # the point on the lift of the stable leaf from z: lift - k


def heteroclinic_points(z, e1, radius: int, g=None):
    """Transverse intersections of the unstable and stable leaves through z.

    Solves a v_u = b v_s + k over integer k with |k|_inf <= radius
    (k = 0 excluded as the trivial basepoint) by the dual rows of e1,
    a = w_u . k and b = -w_s . k, all k at once; these linear seeds are each
    point's ``u_param`` and ``s_param``, and its lifts on the unstable and
    stable leaves from z are z + a v_u and z + b v_s.  Given the map
    handle g, the lifts are those of g's leaves instead: the stable lift
    is the point of the stable leaf of g through z on the unstable leaf
    through z - k, one 2 x 2 ``_shoot`` for every k from z + b v_s, and
    the unstable lift is that point plus k.  Errors name the failing k.
    """
    z = np.asarray(z, dtype=float)
    if not 1 <= radius <= MAX_RADIUS:
        raise RadiusOutOfRange(f"radius {radius} outside [1, {MAX_RADIUS}]")
    ks = [(k1, k2) for k1 in range(-radius, radius + 1)
          for k2 in range(-radius, radius + 1) if (k1, k2) != (0, 0)]
    offsets = np.array(ks, dtype=float)
    a, b = offsets @ e1.wu, -(offsets @ e1.ws)
    lifts_s = z + b[:, None] * e1.vs  # the linear stable lifts, the shot's seeds
    if g is None:
        lifts = z + a[:, None] * e1.vu
    else:
        lifts_s = _shoot([(g, np.broadcast_to(z, offsets.shape)), (g.inverse(), z - offsets)],
                         _identity, lifts_s, [f"heteroclinic point k={k}" for k in ks])
        lifts = lifts_s + offsets
    # ks, and so the points, are in increasing lexicographic order
    return [HeteroclinicPoint(float(a_k), float(b_k), k, lift, lift_s)
            for k, a_k, b_k, lift, lift_s in zip(ks, a, b, lifts, lifts_s)]


def verify_graph_transport(theta_z: HermiteCubic, theta_zp: HermiteCubic,
                           hol_s: MonotoneCubic, hol_u: MonotoneCubic) -> float:
    """Sup deviation of the graph-transport identity
    theta_z' = hol_u o theta_z o hol_s^{-1} over 41 points of the common
    domain.

    ``hol_s`` is the holonomy along the stable foliation between the
    u-axes of the frames at z and z' (it transports u-parameters);
    ``hol_u`` transports s-parameters along the unstable foliation.
    """
    lo, hi = theta_zp.domain
    t = np.linspace(lo, hi, 41)
    # restrict to t whose pullback stays inside the composed domains
    u_back = hol_s.inverse(t)
    d_lo, d_hi = theta_z.domain
    ok = (u_back >= d_lo) & (u_back <= d_hi)
    s_mid = theta_z(u_back[ok])
    h_lo, h_hi = hol_u.domain
    inner = (s_mid >= h_lo) & (s_mid <= h_hi)
    if not inner.any():
        raise DomainMismatch("empty common domain for graph transport")
    predicted = hol_u(s_mid[inner])
    measured = theta_zp(t[ok][inner])
    return float(np.max(np.abs(predicted - measured)))
