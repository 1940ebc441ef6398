"""Stable/unstable line fields, leaves, holonomy, and local graph maps.

Line fields are stored as angles mod pi (foliations are unoriented);
orientation is reconstructed during leaf integration by heading
continuity.  Leaves are integrated in the universal cover with fixed-step
4th-order (RK4) steps, and reduced mod 1 only for field lookups, so
crossing logic never wraps ambiguously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import (
    ChartOverflow,
    DomainMismatch,
    LeafEscaped,
    NonMonotoneG,
    NotConverged,
    RadiusOutOfRange,
    SignAmbiguity,
    TangencySuspected,
)
from .interp import PeriodicBicubic
from .lattice import eigen_data, grid_points, line_angle

TANGENCY_THRESHOLD = 0.01  # rad; smaller crossing angles are suspect
SIGN_CONTINUITY_LIMIT = math.pi / 2 * 0.9
DEFAULT_STEP = 1e-3
MAX_RADIUS = 3  # desk scale: lattice vectors with |k|_inf <= 3


def _unit(theta):
    """Unit vector for an angle mod pi, canonical sign: positive first
    coordinate, positive second if the first vanishes."""
    v = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    flip = (v[..., 0] < 0) | ((v[..., 0] == 0) & (v[..., 1] < 0))
    return np.where(flip[..., None], -v, v)


def _fold_angle(theta):
    """Reduce to [0, pi)."""
    return np.mod(theta, math.pi)


class LineField:
    """Unit direction field mod pi on an N x N grid, owned by a torus map."""

    def __init__(self, owner, theta: np.ndarray, converged_residual: float = 0.0):
        self.owner = owner
        self.theta = np.asarray(theta, dtype=float)  # (N, N), [0, pi)
        self.grid_size = self.theta.shape[0]
        self.converged_residual = converged_residual
        # interpolate the double-angle embedding so the mod-pi topology is smooth
        self._interp = PeriodicBicubic(
            np.stack([np.cos(2 * self.theta), np.sin(2 * self.theta)], axis=-1)
        )

    @classmethod
    def constant(cls, owner, direction, grid_size: int = 2) -> "LineField":
        theta = math.atan2(direction[1], direction[0]) % math.pi
        return cls(owner, np.full((grid_size, grid_size), theta))

    def angle_at(self, x):
        """Interpolated angle(s) in [0, pi)."""
        emb = self._interp(np.asarray(x, dtype=float))
        emb = np.atleast_2d(emb)
        theta = 0.5 * np.arctan2(emb[:, 1], emb[:, 0]) % math.pi
        return theta[0] if np.asarray(x).ndim == 1 else theta

    def direction_at(self, x):
        """Canonical unit vectors for the interpolated angles."""
        theta = np.atleast_1d(self.angle_at(x))
        out = _unit(theta)
        return out[0] if np.asarray(x).ndim == 1 else out

    def invariance_error(self) -> float:
        """Max angular error of D g (field at x) against field at g(x) over
        512 random points."""
        rng = np.random.default_rng(0)
        pts = rng.random((512, 2))
        vec = self.direction_at(pts)
        pushed = np.einsum("nij,nj->ni", self.owner.jacobian(pts), vec)
        target = self.direction_at(self.owner.apply(pts))
        return float(np.max(line_angle(pushed, target)))


def compute_line_field(g, label: str, n: int = 128, iters: int = 30,
                       tol: float = 1e-8) -> LineField:
    """Converged stable or unstable line field of an Anosov map handle.

    The unstable direction at x is the push-forward of a seed direction
    along the backward orbit; the stable field is the unstable field of
    the inverse map.  Convergence compares transport depths k and k-1.
    """
    handle = g if label == "unstable" else g.inverse()
    seed_dir = eigen_data(handle.linear_part).vu
    pts = grid_points(n)
    inv = handle.inverse()
    orbit = [pts]
    for _ in range(iters):
        orbit.append(inv.apply(orbit[-1]))

    v = np.broadcast_to(seed_dir, pts.shape).copy()   # depth iters
    w = np.broadcast_to(seed_dir, pts.shape).copy()   # depth iters - 1
    for j in range(iters, 0, -1):
        jac = handle.jacobian(orbit[j])
        v = np.einsum("nij,nj->ni", jac, v)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        if j < iters:
            w = np.einsum("nij,nj->ni", jac, w)
            w /= np.linalg.norm(w, axis=1, keepdims=True)

    residual = float(np.max(line_angle(v, w)))
    if residual > tol:
        raise NotConverged(f"angular change {residual:.3e} > {tol:.1e} after {iters} iterations")
    theta = _fold_angle(np.arctan2(v[:, 1], v[:, 0])).reshape(n, n)
    return LineField(g, theta, converged_residual=residual)


def line_fields(handles, keys, n: int, iters: int) -> dict:
    """Line fields keyed like 'f1u' (unstable field of handles[0]) or
    'f2s' (stable field of handles[1]), one per requested key."""
    return {key: compute_line_field(handles[int(key[1]) - 1],
                                    "unstable" if key[2] == "u" else "stable",
                                    n=n, iters=iters)
            for key in keys}


def _aligned_direction(field: LineField, pts, headings):
    """Field directions at pts with signs matched to the given headings."""
    d = np.atleast_2d(field.direction_at(np.mod(pts, 1.0)))
    dots = np.einsum("ni,ni->n", d, headings)
    d = d * np.sign(dots)[:, None]
    return d, np.abs(dots)


def _rk4_step(field: LineField, pts, headings, h):
    """One RK4 step of x' = field direction, batched; returns new points
    and headings plus the worst heading alignment encountered.

    ``h`` is one step for every row or an (m, 1) array of per-row steps."""
    k1, a1 = _aligned_direction(field, pts, headings)
    k2, a2 = _aligned_direction(field, pts + 0.5 * h * k1, k1)
    k3, a3 = _aligned_direction(field, pts + 0.5 * h * k2, k2)
    k4, a4 = _aligned_direction(field, pts + h * k3, k3)
    new_pts = pts + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    worst = min(float(np.min(a)) for a in (a1, a2, a3, a4))
    return new_pts, k4, worst


def _flow(field: LineField, starts, headings, n_steps: int, h: float):
    """Batched leaf flow; returns points (n_steps+1, m, 2) and headings."""
    pts = np.atleast_2d(np.asarray(starts, dtype=float)).copy()
    hd = np.atleast_2d(np.asarray(headings, dtype=float)).copy()
    hd /= np.linalg.norm(hd, axis=1, keepdims=True)
    traj = np.empty((n_steps + 1,) + pts.shape)
    heads = np.empty_like(traj)
    traj[0] = pts
    heads[0] = hd
    for i in range(n_steps):
        pts, hd, worst = _rk4_step(field, pts, hd, h)
        if worst < math.cos(SIGN_CONTINUITY_LIMIT):
            raise SignAmbiguity(
                f"field direction flipped by more than {SIGN_CONTINUITY_LIMIT:.2f} rad at step {i}"
            )
        traj[i + 1] = pts
        heads[i + 1] = hd
    return traj, heads


@dataclass
class LeafSegment:
    """Arc-length-parametrized leaf curve in the universal cover."""

    params: np.ndarray        # (m,) arc-length parameters, uniform spacing
    points: np.ndarray        # (m, 2) lift coordinates
    headings: np.ndarray      # (m, 2) unit tangents
    field: LineField
    step: float

    @property
    def param_range(self):
        return float(self.params[0]), float(self.params[-1])

    def point_at(self, s: float) -> np.ndarray:
        """Position at parameter s, via one RK4 sub-step from the nearest
        stored node below (single-step error ~ step^5)."""
        return self.evaluate([s])[0][0]

    def tangent_at(self, s: float) -> np.ndarray:
        return self.evaluate([s])[1][0]

    def evaluate(self, s):
        """Positions and unit tangents, each (m, 2), at the parameters s.

        Each parameter takes one RK4 sub-step of length |ds| from the
        nearest stored node below it; parameters outside the segment step
        from the end nodes, backward (against the heading) below the first.
        All sub-steps run as one batch.
        """
        s = np.asarray(s, dtype=float)
        idx = np.clip(np.floor((s - self.params[0]) / self.step + 1e-12),
                      0, len(self.params) - 1).astype(int)
        ds = s - self.params[idx]
        pts = self.points[idx]
        tangents = self.headings[idx]
        moved = np.abs(ds) >= 1e-15
        if moved.any():
            sign = np.where(ds[moved] < 0, -1.0, 1.0)[:, None]
            new_pts, new_hd, _ = _rk4_step(self.field, pts[moved], sign * tangents[moved],
                                           np.abs(ds[moved])[:, None])
            pts[moved] = new_pts
            tangents[moved] = sign * new_hd
        return pts, tangents

    def translated(self, offset) -> "LeafSegment":
        """The same curve shifted by a deck translation (integer vector)."""
        off = np.asarray(offset, dtype=float)
        return LeafSegment(params=self.params.copy(), points=self.points + off,
                           headings=self.headings.copy(), field=self.field, step=self.step)


def integrate_leaf(field: LineField, x, length: float, step: float = DEFAULT_STEP,
                   centered: bool = False) -> LeafSegment:
    """Fixed-step RK4 integration of the line field through x.

    With ``centered`` the segment covers parameters [-length/2, length/2]
    with the anchor at 0; otherwise [0, length].  The initial heading is
    the field's canonical direction at x; negative ``length`` integrates
    against it.
    """
    x = np.asarray(x, dtype=float)
    heading = field.direction_at(np.mod(x, 1.0))
    heading = heading / np.linalg.norm(heading)

    if centered:
        half = abs(length) / 2.0
        fwd = _march(field, x, heading, half, step)
        bwd = _march(field, x, -heading, half, step)
        params = np.concatenate([-bwd[0][::-1], fwd[0][1:]])
        points = np.concatenate([bwd[1][::-1], fwd[1][1:]])
        heads = np.concatenate([-bwd[2][::-1], fwd[2][1:]])
    else:
        sign = 1.0 if length >= 0 else -1.0
        params, points, heads = _march(field, x, sign * heading, abs(length), step)
        params = sign * params
        heads = sign * heads
        if sign < 0:
            params = params[::-1]
            points = points[::-1]
            heads = heads[::-1]
    # n_steps rounding makes the realized node spacing differ slightly from
    # the requested step; record the actual spacing for parameter lookups
    return LeafSegment(params=params, points=points, headings=heads, field=field,
                       step=float(abs(params[1] - params[0])))


def _march(field, x, heading, length, step):
    n_steps = max(1, int(round(length / step)))
    traj, heads = _flow(field, x[None, :], heading[None, :], n_steps, length / n_steps)
    params = np.linspace(0.0, length, n_steps + 1)
    return params, traj[:, 0, :], heads[:, 0, :]


class CurveProjector:
    """Arc-length projection and signed distance onto a leaf segment."""

    def __init__(self, tau: LeafSegment):
        self.tau = tau

    def project(self, x, refine: bool = True):
        """Return (s, signed_distance, tangent) for points x of shape (m, 2).

        Nearest-node search plus parabolic refinement of the squared
        distance; exact for straight segments.  With ``refine`` the foot
        points are recomputed by RK4 sub-steps from the nearest nodes, one
        batched ``LeafSegment.evaluate`` call for all of x; without it the
        foot is linearly interpolated between nodes, which is cheap and
        accurate to O(step^2) -- enough for sign tracking during leaf
        marching.
        """
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        nodes = self.tau.points
        heads = self.tau.headings
        d2 = np.sum((pts[:, None, :] - nodes[None, :, :]) ** 2, axis=2)  # (m, nodes)
        idx = np.argmin(d2, axis=1)
        h = self.tau.step
        interior = (idx > 0) & (idx < len(nodes) - 1)
        offset = np.einsum("ni,ni->n", pts - nodes[idx], heads[idx]) / h
        offset[idx == 0] = np.minimum(offset[idx == 0], 0.0)
        offset[idx == len(nodes) - 1] = np.maximum(offset[idx == len(nodes) - 1], 0.0)
        if np.any(interior):
            k = idx[interior]
            dm, d0, dp = d2[interior, k - 1], d2[interior, k], d2[interior, k + 1]
            denom = dm - 2 * d0 + dp
            par = np.where(np.abs(denom) > 1e-30, 0.5 * (dm - dp) / np.where(denom == 0, 1.0, denom), 0.0)
            offset[interior] = np.clip(par, -1.0, 1.0)
        s = self.tau.params[idx] + offset * h
        if refine:
            foot, tang = self.tau.evaluate(s)
            n_vec = np.stack([-tang[:, 1], tang[:, 0]], axis=1)
            # a stacked 1x2 @ 2x1 matmul sums each row with the BLAS dot
            # kernel, as np.dot does on one point; einsum can round the last
            # bit differently
            dist = ((pts - foot)[:, None, :] @ n_vec[:, :, None])[:, 0, 0]
        else:
            foot = nodes[idx] + (offset * h)[:, None] * heads[idx]
            tang = heads[idx]
            n_vec = np.stack([-tang[:, 1], tang[:, 0]], axis=1)
            dist = np.einsum("ni,ni->n", pts - foot, n_vec)
        return s, dist, tang


def _initial_toward(field, starts, projector):
    """Headings pointing so the signed distance to the target shrinks."""
    starts = np.atleast_2d(starts)
    d = np.atleast_2d(field.direction_at(np.mod(starts, 1.0)))
    _, dist, tang = projector.project(starts, refine=False)
    normal = np.stack([-tang[:, 1], tang[:, 0]], axis=1)
    rate = np.einsum("ni,ni->n", d, normal)
    sign = -np.sign(dist * rate)
    sign[sign == 0] = 1.0
    return d * sign[:, None]


def _cross_to_target(field: LineField, starts, tau2: LeafSegment, budget: float,
                     step: float):
    """March leaves of ``field`` from ``starts`` until each crosses tau2.

    All leaves advance together; a leaf stops at the first step whose
    fast signed distance changes sign.  After the march the crossings of
    all stopped leaves are refined in one batched bisection
    (``_refine_crossings``), before any escape or tangency check.

    Returns (s_prime, crossing_angle) arrays.  Raises LeafEscaped when a
    leaf exhausts the budget, TangencySuspected for shallow crossings.
    """
    proj = CurveProjector(tau2)
    pts = np.atleast_2d(np.asarray(starts, dtype=float)).copy()
    m = len(pts)
    hd = _initial_toward(field, pts, proj)
    _, dist, _ = proj.project(pts)
    s_out = np.full(m, np.nan)
    ang_out = np.full(m, np.nan)
    active = np.ones(m, dtype=bool)

    # points starting on the curve cross at once
    on_curve = np.abs(dist) < 1e-13
    if np.any(on_curve):
        s_here, _, tang = proj.project(pts[on_curve])
        s_out[on_curve] = s_here
        d_here = np.atleast_2d(field.direction_at(np.mod(pts[on_curve], 1.0)))
        ang_out[on_curve] = line_angle(d_here, tang)
        active[on_curve] = False

    n_steps = int(math.ceil(budget / step))
    prev_pts = pts.copy()
    prev_hd = hd.copy()
    prev_dist = dist.copy()
    # node and heading at the start of the step in which each leaf crossed
    crossed = np.zeros(m, dtype=bool)
    node_pts = np.empty_like(pts)
    node_hd = np.empty_like(pts)
    for _ in range(n_steps):
        if not active.any():
            break
        new_pts = prev_pts.copy()
        new_hd = prev_hd.copy()
        stepped, hd_step, worst = _rk4_step(field, prev_pts[active], prev_hd[active], step)
        if worst < math.cos(SIGN_CONTINUITY_LIMIT):
            raise SignAmbiguity("field too rough along holonomy leaf")
        new_pts[active] = stepped
        new_hd[active] = hd_step
        _, new_dist, _ = proj.project(new_pts, refine=False)
        flipped = active & (np.sign(new_dist) != np.sign(prev_dist)) & (prev_dist != 0.0)
        node_pts[flipped] = prev_pts[flipped]
        node_hd[flipped] = prev_hd[flipped]
        crossed |= flipped
        active &= ~flipped
        prev_pts, prev_hd, prev_dist = new_pts, new_hd, new_dist
    if crossed.any():
        s_out[crossed], ang_out[crossed] = _refine_crossings(
            field, node_pts[crossed], node_hd[crossed], step, proj)
    if active.any():
        raise LeafEscaped(f"{int(active.sum())} leaves did not reach the transversal "
                          f"within budget {budget}")
    if np.any(ang_out < TANGENCY_THRESHOLD):
        raise TangencySuspected(
            f"min crossing angle {np.nanmin(ang_out):.4f} rad below {TANGENCY_THRESHOLD}"
        )
    return s_out, ang_out


def _refine_crossings(field, node_pts, node_hds, step, proj: CurveProjector):
    """Bisection on the signed distance within one integration step, for
    many leaves at once.

    Row i starts from the bracket [0, step] in the flow parameter from
    node_pts[i] along node_hds[i], widened to (-0.5, 1.5) * step and then
    (-1, 2) * step if the refined distance has one sign at both ends, and
    stops when |d| < 1e-10, the bracket is shorter than 1e-14, or after 80
    midpoints.  Each iteration evaluates only the rows still live, so every
    row takes the same iterates as a bisection of that leaf alone.
    Returns (s, crossing_angle) at the last midpoint of each row; raises
    SignAmbiguity if some row's bracket cannot be restored.
    """
    node_pts = np.atleast_2d(node_pts)
    node_hds = np.atleast_2d(node_hds)
    m = len(node_pts)

    def dist_at(rows, sigma):
        p = node_pts[rows]
        h = node_hds[rows]
        moved = sigma != 0.0
        if moved.any():
            p[moved], h[moved], _ = _rk4_step(field, p[moved], h[moved], sigma[moved][:, None])
        s_p, d, tang = proj.project(p)
        return d, s_p, h, tang

    every = np.arange(m)
    lo = np.zeros(m)
    hi = np.full(m, step)
    d_lo = dist_at(every, lo)[0]
    # the bracket comes from the fast (unrefined) distance; widen it a
    # little if the refined distance disagrees near the endpoints
    lost = np.sign(dist_at(every, hi)[0]) == np.sign(d_lo)
    for lo_f, hi_f in ((-0.5, 1.5), (-1.0, 2.0)):
        if not lost.any():
            break
        rows = np.flatnonzero(lost)
        d_try_lo = dist_at(rows, np.full(len(rows), lo_f * step))[0]
        d_try_hi = dist_at(rows, np.full(len(rows), hi_f * step))[0]
        flip = np.sign(d_try_lo) != np.sign(d_try_hi)
        ok = rows[flip]
        lo[ok] = lo_f * step
        hi[ok] = hi_f * step
        d_lo[ok] = d_try_lo[flip]
        lost[ok] = False
    if lost.any():
        raise SignAmbiguity("crossing bracket lost during refinement")

    s_mid = np.empty(m)
    h_mid = np.empty((m, 2))
    t_mid = np.empty((m, 2))
    live = np.ones(m, dtype=bool)
    for _ in range(80):
        rows = np.flatnonzero(live)
        if len(rows) == 0:
            break
        mid = 0.5 * (lo[rows] + hi[rows])
        d_mid, s_mid[rows], h_mid[rows], t_mid[rows] = dist_at(rows, mid)
        done = (np.abs(d_mid) < 1e-10) | ((hi[rows] - lo[rows]) < 1e-14)
        same = np.sign(d_mid) == np.sign(d_lo[rows])
        to_lo = ~done & same
        lo[rows[to_lo]] = mid[to_lo]
        d_lo[rows[to_lo]] = d_mid[to_lo]
        to_hi = ~done & ~same
        hi[rows[to_hi]] = mid[to_hi]
        live[rows[done]] = False
    return s_mid, line_angle(h_mid, t_mid)


class HolonomyMap:
    """Monotone parameter correspondence between two transversals."""

    def __init__(self, s_values: np.ndarray, s_primes: np.ndarray):
        order = np.argsort(s_values)
        s = np.asarray(s_values, dtype=float)[order]
        sp = np.asarray(s_primes, dtype=float)[order]
        d = np.diff(sp)
        if np.all(d > 0):
            self.increasing = True
        elif np.all(d < 0):
            self.increasing = False
        else:
            raise NonMonotoneG("holonomy samples are not strictly monotone")
        self.samples = np.column_stack([s, sp])
        self._fwd = PchipInterpolator(s, sp)
        inv_s = sp if self.increasing else sp[::-1]
        inv_v = s if self.increasing else s[::-1]
        self._inv = PchipInterpolator(inv_s, inv_v)

    @property
    def domain(self):
        return float(self.samples[0, 0]), float(self.samples[-1, 0])

    def __call__(self, s):
        return self._fwd(s)

    def inverse(self, s_prime):
        return self._inv(s_prime)

    def derivative(self, s):
        return self._fwd.derivative()(s)


def holonomy(field: LineField, tau1: LeafSegment, tau2: LeafSegment,
             budget: float = 3.0, step: float = DEFAULT_STEP, span=None) -> HolonomyMap:
    """Holonomy of ``field`` from tau1 to tau2.

    Slides 25 sample points of tau1 along the leaves of ``field`` until
    it crosses tau2; crossings are located by sign change of the signed
    distance, then refined together by one batched bisection after the
    march (``_cross_to_target``).
    """
    lo, hi = tau1.param_range if span is None else span
    for seg, name in ((tau1, "tau1"), (tau2, "tau2")):
        angle = line_angle(seg.headings, field.direction_at(np.mod(seg.points, 1.0)))
        if float(angle.min()) < 0.1:
            raise TangencySuspected(f"{name} not transverse to the field "
                                    f"(min angle {angle.min():.3f} rad)")
    s_values = np.linspace(lo, hi, 25)
    starts, _ = tau1.evaluate(s_values)
    s_primes, _ = _cross_to_target(field, starts, tau2, budget, step)
    return HolonomyMap(s_values, s_primes)


class GraphMap:
    """Local graph of one foliation's leaf over a transverse leaf frame."""

    def __init__(self, u_values: np.ndarray, s_values: np.ndarray):
        order = np.argsort(u_values)
        self.u_values = np.asarray(u_values, dtype=float)[order]
        self.s_values = np.asarray(s_values, dtype=float)[order]
        self._interp = PchipInterpolator(self.u_values, self.s_values)

    @property
    def domain(self):
        return float(self.u_values[0]), float(self.u_values[-1])

    def __call__(self, u):
        return self._interp(u)

    def slope_at(self, u):
        return float(self._interp.derivative()(u))


def local_graph(z, frame_u: LineField, frame_s: LineField, target: LineField,
                eps: float, step: float = DEFAULT_STEP) -> GraphMap:
    """Graph map of the target leaf through z in the (frame_u, frame_s)
    leaf coordinates at z.

    Each of 21 sample points of the target leaf is projected onto the frame
    axes by integrating frame leaves to their crossings; the axes and the
    crossing budgets have length 3 * 2 eps.
    """
    z = np.asarray(z, dtype=float)
    reach = 2 * eps * 3.0
    axis_u = integrate_leaf(frame_u, z, reach, step=step, centered=True)
    axis_s = integrate_leaf(frame_s, z, reach, step=step, centered=True)
    angle = line_angle(target.direction_at(np.mod(z, 1.0)),
                       frame_u.direction_at(np.mod(z, 1.0)))
    if angle < 0.05:
        raise TangencySuspected(f"target not transverse to frame_u at z (angle {angle:.3f})")
    # cover u-range [-eps, eps]: leaf length eps / cos of worst angle, padded
    leaf_len = 2 * eps / max(math.cos(min(angle, 1.0)), 0.3) * 1.5
    leaf = integrate_leaf(target, z, leaf_len, step=step, centered=True)
    t_vals = np.linspace(leaf.params[0], leaf.params[-1], 21)
    pts, _ = leaf.evaluate(t_vals)
    u_vals, _ = _cross_to_target(frame_s, pts, axis_u, budget=reach, step=step)
    s_vals, _ = _cross_to_target(frame_u, pts, axis_s, budget=reach, step=step)
    if u_vals.max() < eps or u_vals.min() > -eps:
        raise ChartOverflow(
            f"target leaf covers u in [{u_vals.min():.4f}, {u_vals.max():.4f}], "
            f"short of [-{eps}, {eps}]"
        )
    keep = np.abs(u_vals) <= eps * 1.0001
    return GraphMap(u_vals[keep], s_vals[keep])


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

    point: np.ndarray      # torus representative in [0,1)^2
    u_param: float         # a: arc length along the unstable leaf from z
    s_param: float         # b: arc length along the stable leaf from z
    lattice: tuple         # the integer vector k of the cover equation


def heteroclinic_points(z, e1, radius: int, field_u: LineField | None = None,
                        field_s: LineField | None = None, step: float = DEFAULT_STEP):
    """Transverse intersections of the unstable and stable leaves through z.

    Solves a v_u = b v_s + k over integer k with |k|_inf <= radius
    (k = 0 excluded as the trivial basepoint).  When nonlinear fields are
    supplied, each linear seed is refined by intersecting the integrated
    leaves of the nonlinear map through z.
    """
    z = np.asarray(z, dtype=float)
    if not 1 <= radius <= MAX_RADIUS:
        raise RadiusOutOfRange(f"radius {radius} outside [1, {MAX_RADIUS}]")
    v_u, v_s = e1.vu, e1.vs
    basis = np.column_stack([v_u, -v_s])
    out = []
    ks = [(k1, k2) for k1 in range(-radius, radius + 1)
          for k2 in range(-radius, radius + 1) if (k1, k2) != (0, 0)]
    for k in ks:
        a, b = np.linalg.solve(basis, np.array(k, dtype=float))
        if field_u is None:
            point = np.mod(z + a * v_u, 1.0)
            out.append(HeteroclinicPoint(point, float(a), float(b), k))
        else:
            out.append(_refine_heteroclinic(z, a, b, k, field_u, field_s, step))
    out.sort(key=lambda h: h.lattice)
    return out


def _refine_heteroclinic(z, a, b, k, field_u, field_s, step):
    """Intersect the integrated unstable leaf with the k-translated stable leaf."""
    pad = 1.3
    stable = integrate_leaf(field_s, z, 2 * abs(b) * pad + 0.2, step=step, centered=True)
    target = stable.translated(np.array(k, dtype=float))
    # march the unstable leaf from near the seed toward the target
    unstable = integrate_leaf(field_u, z, 2 * abs(a) * pad + 0.2, step=step, centered=True)
    proj = CurveProjector(target)
    _, dists, _ = proj.project(unstable.points)
    sign_change = np.where(np.sign(dists[:-1]) != np.sign(dists[1:]))[0]
    if len(sign_change) == 0:
        raise LeafEscaped(f"no stable-leaf crossing for lattice vector {k}")
    # pick the crossing closest to the linear prediction
    cand = sign_change[np.argmin(np.abs(unstable.params[sign_change] - a))]
    s_c, _ = _refine_crossings(field_u, unstable.points[cand], unstable.headings[cand],
                               step, proj)
    # the bisection reports the target parameter; recover the point from it
    b_ref = s_c[0]
    pt = target.point_at(b_ref)
    a_ref = CurveProjector(unstable).project(pt[None, :])[0][0]
    return HeteroclinicPoint(np.mod(pt, 1.0), float(a_ref), float(b_ref), k)


def verify_graph_transport(theta_z: GraphMap, theta_zp: GraphMap,
                           hol_s: HolonomyMap, hol_u: HolonomyMap) -> float:
    """Sup deviation of the graph-transport identity
    theta_z' = hol_u o theta_z o hol_s^{-1} over 41 points of the common
    domain.

    ``hol_s`` is the holonomy along the stable foliation between the
    unstable frame leaves at z and z' (it transports u-parameters);
    ``hol_u`` transports s-parameters along the unstable foliation.
    """
    lo, hi = theta_zp.domain
    t = np.linspace(lo, hi, 41)
    # restrict to t whose pullback stays inside the composed domains
    u_back = hol_s.inverse(t)
    d_lo, d_hi = theta_z.domain
    ok = (u_back >= d_lo) & (u_back <= d_hi)
    if ok.any():
        s_mid = theta_z(u_back[ok])
        h_lo, h_hi = hol_u.domain
        inner = (s_mid >= h_lo) & (s_mid <= h_hi)
        ok_idx = np.where(ok)[0][inner]
    else:
        ok_idx = np.array([], dtype=int)
    if len(ok_idx) == 0:
        raise DomainMismatch("empty common domain for graph transport")
    t = t[ok_idx]
    predicted = hol_u(theta_z(hol_s.inverse(t)))
    measured = theta_zp(t)
    return float(np.max(np.abs(predicted - measured)))
