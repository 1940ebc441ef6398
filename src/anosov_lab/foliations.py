"""Stable/unstable line fields, leaves, holonomy, and local graph maps.

Line fields are stored as angles mod pi (foliations are unoriented);
orientation is reconstructed during leaf integration by heading
continuity.  Leaves are integrated in the universal cover with fixed-step
4th-order (RK4) steps, and reduced mod 1 only for field lookups, so
crossing logic never wraps ambiguously.  Many leaves of one field advance
together, one field lookup per RK4 stage for all of them; each keeps the
iterates it would take alone.  A single leaf is a one-row ``LeafBundle``.

A march brackets each crossing of a leaf with a transversal, at the first
step whose fast signed distance changes sign; ``_hermite_crossings``
intersects the leaf's and the transversal's cubic Hermite segments there.
Rows that start on one leaf with one heading share one march, so each
distinct leaf is integrated once whatever the number of transversals it
is bracketed against.  A row projects onto its transversal, through a
window of nodes around its last foot (``LeafBundle.project``), only at
steps where its fast signed distance can change sign: that distance moves
by at most LIPSCHITZ = 2 steps per step (about one is measured), so a row
far from its transversal skips most projections.  Its node hint is its
last foot advanced by its displacement since, along the target's tangent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

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
from .interp import HermiteCubic, MonotoneCubic, PeriodicBicubic, not_a_knot_spline
from .lattice import _empty2x2, _inv2, eigen_data, grid_points, line_angle

TANGENCY_THRESHOLD = 0.01  # rad; smaller crossing angles are suspect
SIGN_CONTINUITY_LIMIT = math.pi / 2 * 0.9
DEFAULT_STEP = 1e-3
MAX_RADIUS = 3  # desk scale: lattice vectors with |k|_inf <= 3
HERMITE_NEWTON_STEPS = 4  # from the bracket's linear guess, 2 reach rounding level
SEGMENT_SLACK = 1e-9  # a crossing this far past a node stays on its segment
WINDOW = 3  # nodes on each side of a hint that a hinted projection searches
# Bound on the change of a march's fast signed distance D per unit of arc
# length, which lets a march skip projections (``_cross_to_target``).
# Within one nearest-node cell D(p) = (p - x_n) . n_n is 1-Lipschitz, and
# an RK4 step of size h moves a point by at most h; switching nodes moves D
# by O(h^2) on a curved target.  The largest |change of D| per step, over
# the step, along every march of ``tangency_propagation_check`` (steps 4e-3
# and 1e-3, fields on 32- to 128-point grids): 1.000000 on the linear
# action and on phi = id + (a sin 2 pi x2, 0), a = 0.02 and 0.03; 1.000004
# on a two-mode phi; 1.000002 on phi = id + (0, 0.03 sin 2 pi x1).  At the
# default step 8e-3 (32- and 128-point grids): 1.000000 linear, 1.000001
# and 1.000005 at a = 0.02 and 0.03, 1.000020 on the two-mode
# phi = id + (0.03 sin 2 pi x2, 0.01 sin 2 pi (x1 + x2)), 1.000000 on the last.
LIPSCHITZ = 2.0


def _unit(theta):
    """Unit vector for an angle mod pi, canonical sign: positive first
    coordinate, positive second if the first vanishes."""
    v = np.empty(np.shape(theta) + (2,))
    np.cos(theta, out=v[..., 0])
    np.sin(theta, out=v[..., 1])
    flip = (v[..., 0] < 0) | ((v[..., 0] == 0) & (v[..., 1] < 0))
    np.negative(v, out=v, where=flip[..., None])
    return v


class LineField:
    """Unit direction field mod pi on an N x N grid, owned by a torus map."""

    def __init__(self, owner, theta: np.ndarray, depth: int = 0):
        self.owner = owner
        self.theta = np.asarray(theta, dtype=float)  # (N, N), [0, pi)
        self.grid_size = self.theta.shape[0]
        self.depth = depth  # backward-orbit depth the transport reached
        # interpolate the double-angle embedding so the mod-pi topology is smooth
        self._interp = PeriodicBicubic(
            np.stack([np.cos(2 * self.theta), np.sin(2 * self.theta)], axis=-1)
        )

    def angle_at(self, x):
        """Interpolated angles in [0, pi), shape (n,), at the torus points
        x of shape (n, 2)."""
        emb = self._interp(x)
        theta = np.arctan2(emb[:, 1], emb[:, 0])
        theta *= 0.5
        return np.remainder(theta, math.pi, out=theta)

    def direction_at(self, x):
        """Canonical unit vectors (n, 2) for the interpolated angles at the
        torus points x of shape (n, 2)."""
        return _unit(self.angle_at(x))

    def invariance_error(self) -> float:
        """Max angular error of D g (field at x) against field at g(x) over
        512 random points."""
        rng = np.random.default_rng(0)
        pts = rng.random((512, 2))
        vec = self.direction_at(pts)
        pushed = np.einsum("nij,nj->ni", self.owner.jacobian(pts), vec)
        target = self.direction_at(self.owner.apply(pts))
        return float(np.max(line_angle(pushed, target)))


def _pushed_seeds(handle, pts):
    """Yield (v_d, residual_d) for d = 1, 2, ...: the handle's unstable
    seed direction pushed to the points pts (n, 2) from depth d of their
    backward orbit, v_d = P_d seed / |P_d seed| with P_d = J_1 ... J_d and
    J_d the jacobian at the d-th backward orbit point, and the largest
    angle between v_d and v_{d-1} (v_0 = seed).

    P_d is kept per point, rescaled so that P_d seed is a unit vector, and
    each product is written out as 2x2 arithmetic, plane by plane in the
    layout of ``_empty2x2``; no depth is stored."""
    seed = eigen_data(handle.linear_part).vu
    n = len(pts)
    v_prev = np.broadcast_to(seed, pts.shape)
    prod = None
    for jac in handle.backward_jacobians(pts):
        if prod is None:
            prod = jac
        else:  # (prod jac)[i, l] = prod[i, 0] jac[0, l] + prod[i, 1] jac[1, l]
            prod, old = _empty2x2(n), prod
            for i in range(2):
                for l in range(2):
                    np.add(old[:, i, 0] * jac[:, 0, l], old[:, i, 1] * jac[:, 1, l],
                           out=prod[:, i, l])
        v = np.empty((n, 2))
        for i in range(2):
            np.add(prod[:, i, 0] * seed[0], prod[:, i, 1] * seed[1], out=v[:, i])
        # |v| as np.linalg.norm reduces it: v0 v0 + v1 v1, no +0.0 start
        norm = np.sqrt(v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1])
        v /= norm[:, None]
        prod = prod / norm[:, None, None]
        yield v, float(np.max(line_angle(v, v_prev)))
        v_prev = v


def compute_line_field(g, label: str, n: int = 128, iters: int = 30,
                       tol: float = 1e-8) -> LineField:
    """Converged stable or unstable line field of an Anosov map handle on
    the n x n grid.

    The unstable direction at x is the limit of the seed direction (the
    unstable eigen-direction of the linear part) pushed forward from
    deeper and deeper points of the backward orbit of x; the stable field
    is the unstable field of the inverse map.  The handle's
    ``backward_jacobians`` gives the orbit's jacobians one depth at a time,
    and the transport stops at the first depth d whose largest angle
    between the pushes from depths d and d - 1 is at most ``tol``.  That
    change falls by about lambda_u^-2 per depth, so the field is then
    within about tol lambda_u^-2 / (1 - lambda_u^-2) of its limit.
    ``iters`` caps the depth: NotConverged is raised only there."""
    handle = g if label == "unstable" else g.inverse()
    for depth, (v, residual) in enumerate(_pushed_seeds(handle, grid_points(n)), start=1):
        if residual <= tol:
            break
        if depth == iters:
            raise NotConverged(f"angular change {residual:.3e} > {tol:.1e} at the depth cap "
                               f"resolution.field_iters = {iters}")
    theta = np.mod(np.arctan2(v[:, 1], v[:, 0]), math.pi).reshape(n, n)
    return LineField(g, theta, depth=depth)


def line_fields(handles, keys, n: int, iters: int) -> dict:
    """Line fields keyed like 'f1u' (unstable field of handles[0]) or
    'f2s' (stable field of handles[1]), one per requested key."""
    return {key: compute_line_field(handles[int(key[1]) - 1],
                                    "unstable" if key[2] == "u" else "stable",
                                    n=n, iters=iters)
            for key in keys}


def _failure(cls, message: str, rows, tags):
    """Exception ``cls`` for failing rows of a stacked call; when the caller
    tagged its rows, the message ends with the failing rows' tags."""
    if tags is not None:
        names = dict.fromkeys(tags[int(r)] for r in rows)
        message = f"{message} [{'; '.join(names)}]"
    return cls(message)


def _row_tags(tags, index):
    """Tags of the rows of a stacked call, row r tagged tags[index[r]]."""
    return None if tags is None else [tags[i] for i in index]


def _aligned_direction(field: LineField, pts, headings):
    """Field directions at pts with signs matched to the given headings.

    The directions are not put in canonical sign first: the alignment
    overrides any sign, and (-d).h = -(d.h) exactly, so a row comes out
    with the same bits either way unless its alignment is exactly 0,
    where the flow raises SignAmbiguity.  pts - floor(pts) has the bits
    of np.mod(pts, 1.0) at a fraction of its cost (``lattice.wrap_point``)."""
    theta = field.angle_at(pts - np.floor(pts))
    d = np.empty((len(theta), 2))
    np.cos(theta, out=d[:, 0])
    np.sin(theta, out=d[:, 1])
    dots = np.einsum("ni,ni->n", d, headings)
    d *= np.sign(dots)[:, None]
    return d, np.abs(dots)


def _rk4_step(field: LineField, pts, headings, h):
    """One RK4 step of x' = field direction, batched; returns new points
    and headings plus each row's worst heading alignment.

    ``h`` is one step for every row or an (m, 1) array of per-row steps."""
    k1, a1 = _aligned_direction(field, pts, headings)
    k2, a2 = _aligned_direction(field, pts + 0.5 * h * k1, k1)
    k3, a3 = _aligned_direction(field, pts + 0.5 * h * k2, k2)
    k4, a4 = _aligned_direction(field, pts + h * k3, k3)
    new_pts = pts + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return new_pts, k4, np.minimum(np.minimum(a1, a2), np.minimum(a3, a4))


def _flow(field: LineField, starts, headings, n_steps, h, tags=None):
    """Batched leaf flow; returns points and headings, each
    (max n_steps + 1, m, 2).

    Row i takes ``n_steps[i]`` RK4 steps of size ``h[i]``; either may be
    one value for every row.  Each step evaluates only the rows that still
    have steps to take, so every row takes the iterates of a flow of that
    row alone; a row's entries past its last step repeat its end state.
    ``tags`` (one per row) name the rows of a SignAmbiguity."""
    pts = starts.copy()
    hd = headings / np.linalg.norm(headings, axis=1, keepdims=True)
    m = len(pts)
    counts = np.broadcast_to(n_steps, (m,))
    sizes = np.broadcast_to(np.asarray(h, dtype=float), (m,))[:, None]
    total = int(counts.max())
    traj = np.empty((total + 1, m, 2))
    heads = np.empty_like(traj)
    traj[0] = pts
    heads[0] = hd
    for i in range(total):
        live = counts > i
        pts[live], hd[live], worst = _rk4_step(field, pts[live], hd[live], sizes[live])
        flipped = worst < math.cos(SIGN_CONTINUITY_LIMIT)
        if flipped.any():
            raise _failure(
                SignAmbiguity,
                f"field direction flipped by more than {SIGN_CONTINUITY_LIMIT:.2f} rad at step {i}",
                np.flatnonzero(live)[flipped], tags)
        traj[i + 1] = pts
        heads[i + 1] = hd
    return traj, heads


@dataclass
class LeafBundle:
    """Arc-length-parametrized leaf curves of one line field in the universal
    cover, one per row of padded arrays; a single leaf is a one-row bundle.

    Row t keeps its nodes 0..last[t] at uniform parameter spacing step[t];
    a shorter row is padded with +inf parameters and points and zero
    headings: a padded node is never the nearest node of a finite point.
    """

    params: np.ndarray        # (t, n) arc-length parameters
    points: np.ndarray        # (t, n, 2) lift coordinates
    headings: np.ndarray      # (t, n, 2) unit tangents
    last: np.ndarray          # (t,) index of each row's last node
    step: np.ndarray          # (t,) node spacing of each row
    field: LineField

    def take(self, rows) -> "LeafBundle":
        """The bundle of the given rows (repeats allowed), trimmed to the
        longest of them."""
        width = int(self.last[rows].max()) + 1
        return LeafBundle(self.params[rows, :width], self.points[rows, :width],
                          self.headings[rows, :width], self.last[rows], self.step[rows],
                          self.field)

    def translated(self, offsets) -> "LeafBundle":
        """The same curves, row t shifted by the deck translation offsets[t]."""
        return replace(self, points=self.points + np.asarray(offsets, dtype=float)[:, None, :])

    def evaluate(self, s, which=0):
        """Positions and unit tangents, each (m, 2), at the parameters s[i]
        of the rows which[i] (one index may serve every parameter).

        Each parameter takes one RK4 sub-step of length |ds| from the
        nearest stored node below it (single-step error ~ step^5);
        parameters outside their row step from its end nodes, backward
        (against the heading) below the first.  All sub-steps run as one
        batch.
        """
        s = np.asarray(s, dtype=float)
        which = np.broadcast_to(which, s.shape)
        idx = np.clip(np.floor((s - self.params[which, 0]) / self.step[which] + 1e-12),
                      0, self.last[which]).astype(int)
        ds = s - self.params[which, idx]
        pts = self.points[which, idx]
        tangents = self.headings[which, idx]
        moved = np.abs(ds) >= 1e-15
        if moved.any():
            sign = np.where(ds[moved] < 0, -1.0, 1.0)[:, None]
            new_pts, new_hd, _ = _rk4_step(self.field, pts[moved], sign * tangents[moved],
                                           np.abs(ds[moved])[:, None])
            pts[moved] = new_pts
            tangents[moved] = sign * new_hd
        return pts, tangents

    def _nearest(self, pts, which, last, near=None):
        """Index of each point's nearest node of its row (which, last: each
        point's row and that row's last node index), and the squared
        distances (m, 3) from the point to the nodes before, at and after it
        (meaningful where the node is interior).

        Without hints every node of the row is searched.  With node hints
        ``near``, clipped to the row, only the nodes within WINDOW of the
        hint are; a point whose nearest of them sits on an inner edge of
        that window is searched again over its whole row."""
        if near is None:
            # one row broadcasts its nodes; several are gathered per point
            nodes = self.points[:1] if len(self.params) == 1 else self.points[which]
        else:
            near = np.minimum(np.maximum(near, 0), last)
            lo, hi = np.maximum(near - WINDOW, 0), np.minimum(near + WINDOW, last)
            cols = np.minimum(lo[:, None] + np.arange(2 * WINDOW + 1), hi[:, None])
            cols += (which * self.points.shape[1])[:, None]  # into the flattened rows
            nodes = np.take(self.points.reshape(-1, 2), cols, axis=0)
        # each coordinate's difference squared, the two squares added as np.sum
        # over a last axis of length 2 adds them, but without that reduction
        d2 = (pts[:, None, 0] - nodes[..., 0]) ** 2 + (pts[:, None, 1] - nodes[..., 1]) ** 2
        col = d2.argmin(axis=1)
        # the table's entries at col - 1, col and col + 1 of each point's row
        at = np.arange(0, d2.size, d2.shape[1]) + col
        around = np.take(d2, at[:, None] + np.arange(-1, 2), mode="clip")
        if near is None:
            return col, around
        idx = np.minimum(lo + col, hi)
        edge = np.flatnonzero(((col == 0) & (lo > 0)) | ((idx == hi) & (hi < last)))
        if len(edge):
            idx[edge], around[edge] = self._nearest(pts[edge], which[edge], last[edge])
        return idx, around

    def project(self, pts, which=0, near=None):
        """Return (s, signed_distance, tangent) for points pts of shape (m, 2),
        point i projected onto row which[i] (one index may serve all).

        Nearest-node search plus parabolic refinement of the squared
        distance; exact for straight leaves.  ``near`` (one node index per
        point, or None) hints where each nearest node is: the search then
        covers the 2 WINDOW + 1 nodes around the hint and falls back to the
        whole row only for points whose nearest of them is on an inner edge
        of that window, so a hint changes the cost, never the result.  The
        foot is linearly interpolated along the nearest node's heading,
        accurate to O(step^2): enough to bracket a crossing, which
        ``_hermite_crossings`` then solves.  Each point gets the result of a
        projection onto its own row alone.
        """
        which = np.broadcast_to(which, (len(pts),))
        last = self.last[which]
        idx, around = self._nearest(pts, which, last, near)
        h = self.step[which]
        node = self.points[which, idx]
        head = self.headings[which, idx]
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
        n_vec = head[:, ::-1] * (-1.0, 1.0)  # the normal (-head_y, head_x)
        return self.params[which, idx] + shift, np.einsum("ni,ni->n", pts - foot, n_vec), head


# the name bench/spans.py wraps for the projection's span
CurveProjector = LeafBundle


def integrate_leaves(field: LineField, starts, lengths, step: float = DEFAULT_STEP,
                     centered=False, tags=None) -> LeafBundle:
    """Fixed-step RK4 integration of the line field through each start (a
    float array (n, 2)), all leaves in one batched ``_flow``; returns the
    bundle whose row i is the leaf through starts[i].

    Leaf i has signed length lengths[i].  A ``centered`` leaf (one flag for
    every leaf or one per leaf) covers parameters [-|length|/2, |length|/2]
    with the anchor at 0, and runs as two flow rows, its forward and
    backward halves; any other leaf covers [0, length] as one flow row.
    The initial heading is the field's canonical direction at the start; a
    negative length integrates against it.  A flow row of length L takes
    max(1, round(L / step)) steps of the size that spreads them evenly, so
    each leaf is bit-identical to ``integrate_leaf`` of it alone.  ``tags``
    (one per leaf) name the leaves of a SignAmbiguity.
    """
    count = len(starts)
    lengths = np.broadcast_to(np.asarray(lengths, dtype=float), (count,))
    centered = np.broadcast_to(centered, (count,))
    heading = field.direction_at(np.mod(starts, 1.0))
    # divide by the norm as the 1-D np.linalg.norm computes it, a BLAS dot;
    # a stacked 1x2 @ 2x1 matmul is that dot per row, while
    # np.linalg.norm(axis=1) rounds the last bit differently
    heading = heading / np.sqrt(heading[:, None, :] @ heading[:, :, None])[:, 0]

    # one flow row per one-sided leaf, a forward and a backward one per centered one
    leaf, sign, row_len = [], [], []
    for i in range(count):
        if centered[i]:
            half = abs(lengths[i]) / 2.0
            leaf += [i, i]
            sign += [1.0, -1.0]
            row_len += [half, half]
        else:
            leaf.append(i)
            sign.append(1.0 if lengths[i] >= 0 else -1.0)
            row_len.append(abs(lengths[i]))
    counts = np.array([max(1, int(round(length / step))) for length in row_len])
    traj, heads = _flow(field, starts[leaf], np.array(sign)[:, None] * heading[leaf], counts,
                        np.array(row_len) / counts, _row_tags(tags, leaf))

    def march(r):  # flow row r's nodes, signed, in increasing parameter order
        n = counts[r]
        params = sign[r] * np.linspace(0.0, row_len[r], n + 1)
        points, heads_r = traj[:n + 1, r], sign[r] * heads[:n + 1, r]
        if sign[r] < 0:
            return params[::-1], points[::-1], heads_r[::-1]
        return params, points, heads_r

    # a leaf's last node index is the step count of its flow rows together
    last = np.bincount(leaf, counts).astype(int)
    shape = (count, int(last.max()) + 1)
    params = np.full(shape, np.inf)
    points = np.full(shape + (2,), np.inf)
    headings = np.zeros(shape + (2,))
    r = 0
    for i in range(count):
        if centered[i]:
            bwd, fwd = march(r + 1), march(r)
            row = [np.concatenate([b, f[1:]]) for b, f in zip(bwd, fwd)]
            r += 2
        else:
            row = march(r)
            r += 1
        params[i, :last[i] + 1], points[i, :last[i] + 1], headings[i, :last[i] + 1] = row
    # n_steps rounding makes the realized node spacing differ slightly
    # from the requested step; record the actual spacing for lookups
    return LeafBundle(params, points, headings, last, np.abs(params[:, 1] - params[:, 0]),
                      field)


def integrate_leaf(field: LineField, x, length: float, step: float = DEFAULT_STEP,
                   centered: bool = False) -> LeafBundle:
    """Fixed-step RK4 integration of the line field through the point x (a
    float array (2,)): the one-row bundle of ``integrate_leaves``.

    With ``centered`` the leaf covers parameters [-length/2, length/2]
    with the anchor at 0; otherwise [0, length].  The initial heading is
    the field's canonical direction at x; negative ``length`` integrates
    against it.
    """
    return integrate_leaves(field, x[None], [length], step=step, centered=centered)


def _cross_to_target(field: LineField, starts, targets: LeafBundle, budget, step: float,
                     which=0, tags=None, leaf=None):
    """March leaves of ``field`` until each row crosses its target.

    Row r marches the leaf through starts[leaf[r]] (by default its own
    start, leaf[r] = r) toward the target row which[r] for at most
    ``budget[r]`` of arc length (``which`` and ``budget`` may be one value
    for every row), starting in the direction in which its fast signed
    distance (``LeafBundle.project``) shrinks.  Rows with the same leaf
    index and heading share one march: that leaf takes RK4 steps while any
    of its rows is live, and a row's bracket states are its leaf's states
    at the row's stop step.  A row stops at the first step whose fast
    signed distance changes sign, so a start on the target brackets in its
    first step.

    A row projects a state only where it or the next one can change sign.
    The fast distance moves by at most LIPSCHITZ * step per step, so with
    D_j the distance at the row's last projected state j, a state k can
    differ in sign from D_j only if LIPSCHITZ * step * (k - j) >= |D_j|.
    State i + 1 is projected when that holds for k = i + 2.  So the state
    before each sign change is itself projected, and a row stops at the
    step, with the bracket, that a march projecting every state finds.
    Each projection is hinted with the node nearest the row's last foot
    parameter advanced by the row's displacement since its last projection
    along the target's tangent there, so it searches a window of nodes
    instead of the whole target row, also after skipped projections.
    After the march one ``_hermite_crossings`` call solves the crossings of
    all stopped rows, before any escape or tangency check.  Every row gets
    what a call with that row alone gives it.

    Returns (s_prime, crossing_angle) arrays.  Raises SignAmbiguity naming
    every live row of a leaf whose field direction flips, LeafEscaped when
    a row exhausts its budget, TangencySuspected for shallow crossings;
    ``tags`` (one per row) name the failing rows.
    """
    leaf = np.arange(len(starts)) if leaf is None else np.asarray(leaf)
    m = len(leaf)
    which = np.broadcast_to(which, (m,))
    budget = np.broadcast_to(np.asarray(budget, dtype=float), (m,))
    foot, dist, tang = targets.project(starts[leaf], which=which)
    # headings pointing so the signed distance to the target row shrinks
    hd = field.direction_at(np.mod(starts, 1.0))
    rate = np.einsum("ni,ni->n", hd[leaf], np.stack([-tang[:, 1], tang[:, 0]], axis=1))
    sign = -np.sign(dist * rate)
    sign[sign == 0] = 1.0
    seen = starts[leaf]  # each row's state at its last projection
    # one march per (leaf, heading); row r rides march[r]
    keys, march = np.unique(2 * leaf + (sign > 0), return_inverse=True)
    pts = starts[keys // 2]
    hd = hd[keys // 2] * np.where(keys % 2, 1.0, -1.0)[:, None]
    active = np.ones(m, dtype=bool)
    projected = np.zeros(m)  # the step of each row's last projected state
    n_steps = np.ceil(budget / step)
    # node, heading, fast distance and foot parameter at the start and at the
    # end of the step in which each row crossed
    before = (np.empty((m, 2)), np.empty((m, 2)), np.empty(m), np.empty(m))
    after = (np.empty((m, 2)), np.empty((m, 2)), np.empty(m), np.empty(m))
    for i in range(int(n_steps.max())):
        live = active & (n_steps > i)
        marches = np.unique(march[live])
        if len(marches) == 0:
            break
        stepped, hd_step, worst = _rk4_step(field, pts[marches], hd[marches], step)
        rough = worst < math.cos(SIGN_CONTINUITY_LIMIT)
        if rough.any():
            raise _failure(SignAmbiguity, "field too rough along holonomy leaf",
                           np.flatnonzero(live & np.isin(march, marches[rough])), tags)
        rows = np.flatnonzero(live & (LIPSCHITZ * step * (i + 2 - projected) >= np.abs(dist)))
        if len(rows):
            w, mr = which[rows], march[rows]
            at = np.searchsorted(marches, mr)  # each row's march in this step's batch
            new_pts, new_hd = stepped[at], hd_step[at]
            # the last foot advanced by the row's displacement since, along the target there
            ahead = foot[rows] + np.einsum("ni,ni->n", new_pts - seen[rows], tang[rows])
            near = np.rint((ahead - targets.params[w, 0]) / targets.step[w]).astype(int)
            new_foot, new_dist, new_tang = targets.project(new_pts, which=w, near=near)
            hit = np.sign(new_dist) != np.sign(dist[rows])
            if hit.any():
                r = rows[hit]
                for kept, now in zip(before, (pts[mr[hit]], hd[mr[hit]], dist[r], foot[r])):
                    kept[r] = now
                for kept, now in zip(after, (new_pts, new_hd, new_dist, new_foot)):
                    kept[r] = now[hit]
                active[r] = False
            dist[rows], foot[rows], projected[rows] = new_dist, new_foot, i + 1
            seen[rows], tang[rows] = new_pts, new_tang
        pts[marches], hd[marches] = stepped, hd_step
    s_out = np.full(m, np.nan)
    ang_out = np.full(m, np.nan)
    c = np.flatnonzero(~active)
    if len(c):
        nodes, heads, dists, feet = ((b[c], a[c]) for b, a in zip(before, after))
        _, s_out[c], ang_out[c], _ = _hermite_crossings(
            field, nodes, heads, np.full(len(c), step), dists, feet, targets, which[c],
            _row_tags(tags, c))
    if active.any():
        raise _failure(LeafEscaped,
                       f"{int(active.sum())} leaves did not reach the transversal "
                       f"within budget {float(budget[active].max())}",
                       np.flatnonzero(active), tags)
    shallow = ang_out < TANGENCY_THRESHOLD
    if shallow.any():
        raise _failure(TangencySuspected,
                       f"min crossing angle {np.nanmin(ang_out):.4f} rad below {TANGENCY_THRESHOLD}",
                       np.flatnonzero(shallow), tags)
    return s_out, ang_out


def _hermite_segments(field: LineField, p0, p1, h0, h1, spacing):
    """Power-form coefficients (c0, c1, c2, c3), each (m, 2), of the cubic
    Hermite segments t -> c0 + c1 t + c2 t^2 + c3 t^3, t in [0, 1], from p0
    to p1, spacing apart in arc length, with the field's directions there
    signed like the headings h0 and h1: one batched lookup."""
    m = len(p0)
    d, _ = _aligned_direction(field, np.concatenate([p0, p1]), np.concatenate([h0, h1]))
    d0, d1 = spacing[:, None] * d[:m], spacing[:, None] * d[m:]
    return p0, d0, 3 * (p1 - p0) - 2 * d0 - d1, d1 + d0 - 2 * (p1 - p0)


def _cubic_at(coef, t):
    """Points and t-derivatives, each (m, 2), of the cubics ``coef`` at t (m,)."""
    c0, c1, c2, c3 = coef
    t = t[:, None]
    return c0 + t * (c1 + t * (c2 + t * c3)), c1 + t * (2 * c2 + 3 * t * c3)


def _intersect(mover, target, sigma, tau):
    """Newton in (sigma, tau) on mover(sigma) = target(tau): a fixed number
    of steps, each a batched 2x2 solve, so no row depends on its batchmates."""
    for _ in range(HERMITE_NEWTON_STEPS):
        (m_pt, m_d), (t_pt, t_d) = _cubic_at(mover, sigma), _cubic_at(target, tau)
        delta = _inv2(np.stack([m_d, -t_d], axis=2), m_pt - t_pt)
        sigma, tau = sigma - delta[:, 0], tau - delta[:, 1]
    return sigma, tau


def _hermite_crossings(field: LineField, nodes, heads, spacing, dist, foot,
                       targets: LeafBundle, which, tags=None):
    """Crossings of leaf steps of ``field`` with their target rows, row i
    against target row which[i], as intersections of two cubic Hermite
    segments (Hairer, Norsett & Wanner, Solving ODEs I, II.6).

    Row i's mover runs from nodes[0][i] to nodes[1][i], spacing[i] apart,
    with headings heads[0][i] and heads[1][i]; there its fast signed
    distances to the target, dist[0][i] and dist[1][i], differ in sign, and
    foot[0][i] and foot[1][i] are its fast foot parameters.  The target
    segment joins the two stored target nodes around the foot interpolated
    at the linear zero of the distance.  When the solve leaves that segment
    it moves once to the adjacent one.

    Returns (sigma, s_prime, crossing_angle, point): the mover's fraction
    of its step, the target parameter, the angle between the two curves and
    the crossing point.  Raises SignAmbiguity, naming the rows by ``tags``,
    for a crossing on neither segment.
    """
    mover = _hermite_segments(field, *nodes, *heads, spacing)
    sigma = dist[0] / (dist[0] - dist[1])
    guess = foot[0] + sigma * (foot[1] - foot[0])
    t_step = targets.step[which]
    top = targets.last[which] - 1
    node = np.clip(np.floor((guess - targets.params[which, 0]) / t_step), 0, top).astype(int)
    tau = (guess - targets.params[which, node]) / t_step
    angle, point = np.empty(len(which)), np.empty((len(which), 2))
    rows = np.arange(len(which))
    for moves in range(2):
        sub = tuple(c[rows] for c in mover)
        ends, w = (node[rows], node[rows] + 1), which[rows]
        target = _hermite_segments(targets.field, *(targets.points[w, e] for e in ends),
                                   *(targets.headings[w, e] for e in ends), t_step[rows])
        sigma[rows], tau[rows] = _intersect(sub, target, sigma[rows], tau[rows])
        point[rows], m_d = _cubic_at(sub, sigma[rows])
        angle[rows] = line_angle(m_d, _cubic_at(target, tau[rows])[1])
        rows = rows[~(np.abs(tau[rows] - 0.5) <= 0.5 + SEGMENT_SLACK)]
        if len(rows) == 0 or moves:
            break
        moved = np.clip(node[rows] + np.where(tau[rows] < 0.5, -1, 1), 0, top[rows])
        tau[rows] -= moved - node[rows]
        node[rows] = moved
    if len(rows):
        raise _failure(SignAmbiguity, "crossing outside the target segment of its bracket "
                       "and the adjacent one", rows, tags)
    return sigma, targets.params[which, node] + tau * t_step, angle, point


def holonomies(field: LineField, tau1: LeafBundle, tau2s: LeafBundle, budgets,
               step: float = DEFAULT_STEP, *, span, tags=None) -> list:
    """Holonomies of ``field`` from the one-row tau1 to each row j of tau2s,
    every pair in one march; returns one MonotoneCubic per pair.

    25 sample points of tau1, over the parameter interval ``span``, slide
    along the leaves of ``field`` until each crosses tau2s row j within arc
    length budgets[j]: one ``_cross_to_target`` call, with one row per
    (sample, pair) and the sample as its leaf index.  So each of the 25
    leaves marches once per heading whatever the number of pairs, and a
    row projects onto its target only where it can cross it; the crossings
    are solved together in one Hermite solve.  Before any leaf moves,
    every transversal is checked to make an angle of at least 0.1 rad with
    the field.  ``tags`` (one per pair) name the failing pairs of an error;
    a tau1 that is not transverse fails every pair.
    """
    count = len(tau2s.params)
    # every stored node of tau1, then of tau2s, row by row
    inside = [np.arange(b.params.shape[1]) <= b.last[:, None] for b in (tau1, tau2s)]
    angle = line_angle(
        np.concatenate([b.headings[k] for b, k in zip((tau1, tau2s), inside)]),
        field.direction_at(np.mod(np.concatenate(
            [b.points[k] for b, k in zip((tau1, tau2s), inside)]), 1.0)))
    row_starts = np.cumsum(np.r_[0, tau1.last + 1, tau2s.last + 1])[:-1]
    worst = np.minimum.reduceat(angle, row_starts)
    # tau1 then tau2s, each per pair
    worst = np.concatenate([np.repeat(worst[:1], count), worst[1:]])
    skew = np.flatnonzero(worst < 0.1)
    if len(skew):
        first = skew[0]
        raise _failure(TangencySuspected,
                       f"{'tau1' if first < count else 'tau2'} not transverse to the field "
                       f"(min angle {worst[first]:.3f} rad)", skew % count, tags)
    s_values = np.linspace(*span, 25)
    pair = np.repeat(np.arange(count), 25)
    starts, _ = tau1.evaluate(s_values)
    s_primes, _ = _cross_to_target(field, starts, tau2s, np.repeat(budgets, 25), step,
                                   which=pair, tags=_row_tags(tags, pair),
                                   leaf=np.tile(np.arange(25), count))
    return [MonotoneCubic(s_values, row, "holonomy") for row in s_primes.reshape(count, 25)]


def holonomy(field: LineField, tau1: LeafBundle, tau2: LeafBundle,
             budget: float = 3.0, step: float = DEFAULT_STEP, *, span) -> MonotoneCubic:
    """Holonomy of ``field`` from the one-row tau1 to the one-row tau2 over
    the tau1 parameters ``span``: the one-pair case of ``holonomies``.

    Slides 25 sample points of tau1 along the leaves of ``field`` until
    it crosses tau2; crossings are bracketed by sign change of the fast
    signed distance, then solved together as intersections of cubic
    Hermite segments after the march (``_cross_to_target``).
    """
    return holonomies(field, tau1, tau2, [budget], step=step, span=span)[0]


def _graph_map(u, s) -> HermiteCubic:
    """Local graph of one foliation's leaf over a transverse leaf frame:
    s as the not-a-knot cubic spline in u through the samples (u, s) that
    lie in the chart u in [-eps, eps], taken in increasing u.

    Fewer than the spline's 4 samples raise ChartOverflow, and a repeated
    u raises NonMonotoneG.
    """
    if len(u) < 4:
        raise ChartOverflow(f"local graph has {len(u)} samples in [-eps, eps], "
                            "short of the 4 its spline needs")
    order = np.argsort(u)
    u, s = u[order], s[order]
    repeat = np.flatnonzero(np.diff(u) <= 0)
    if len(repeat):
        raise NonMonotoneG(f"local graph samples repeat u = {u[repeat[0]]:.6g}")
    return not_a_knot_spline(u, s)


def _graph_plan(bases, frame_u: LineField, target: LineField, eps: float, tags=None):
    """Frame-axis length and target-leaf lengths of local graphs at ``bases``.

    The axes and the crossing budgets have length 3 * 2 eps.  Each target
    leaf covers u in [-eps, eps]: length 2 eps / cos of the angle between
    target and frame_u at its base, padded.  Raises TangencySuspected,
    naming the bases by ``tags``, where that angle is below 0.05 rad;
    this runs before any leaf is integrated.
    """
    pts = np.mod(bases, 1.0)
    angle = line_angle(target.direction_at(pts), frame_u.direction_at(pts))
    skew = np.flatnonzero(angle < 0.05)
    if len(skew):
        raise _failure(TangencySuspected, f"target not transverse to frame_u at z "
                       f"(angle {angle[skew[0]]:.3f})", skew, tags)
    reach = 2 * eps * 3.0
    return reach, [2 * eps / max(math.cos(min(a, 1.0)), 0.3) * 1.5 for a in angle]


def _graphs_on_leaves(frame_u: LineField, frame_s: LineField, axes_u: LeafBundle,
                      axes_s: LeafBundle, leaves: LeafBundle, eps: float, reach: float,
                      step: float, tags=None) -> list:
    """Local graphs from integrated frame axes and target leaves, graph g
    over row g of axes_u, axes_s and leaves; returns one spline each.

    21 sample points of every target leaf are projected onto the frame
    axes by integrating frame leaves to their crossings, within arc length
    ``reach``: one stacked ``_cross_to_target`` call per frame field for
    all graphs.  Raises ChartOverflow, naming the graphs by ``tags``, for
    graphs whose samples do not cover u in [-eps, eps].
    """
    count = len(leaves.params)
    graph = np.repeat(np.arange(count), 21)
    row_tags = _row_tags(tags, graph)
    t_vals = np.linspace(leaves.params[:, 0], leaves.params[np.arange(count), leaves.last], 21,
                         axis=1).ravel()
    pts, _ = leaves.evaluate(t_vals, graph)
    u_vals, _ = _cross_to_target(frame_s, pts, axes_u, reach, step, which=graph, tags=row_tags)
    s_vals, _ = _cross_to_target(frame_u, pts, axes_s, reach, step, which=graph, tags=row_tags)
    u_vals = u_vals.reshape(count, 21)
    s_vals = s_vals.reshape(count, 21)
    short = np.flatnonzero((u_vals.max(axis=1) < eps) | (u_vals.min(axis=1) > -eps))
    if len(short):
        u = u_vals[short[0]]
        raise _failure(ChartOverflow, f"target leaf covers u in [{u.min():.4f}, {u.max():.4f}], "
                       f"short of [-{eps}, {eps}]", short, tags)
    keep = np.abs(u_vals) <= eps * 1.0001
    return [_graph_map(u[k], s[k]) for u, s, k in zip(u_vals, s_vals, keep)]


def local_graph(z, frame_u: LineField, frame_s: LineField, target: LineField,
                eps: float, step: float = DEFAULT_STEP) -> HermiteCubic:
    """Graph map of the target leaf through z in the (frame_u, frame_s)
    leaf coordinates at z.

    Each of 21 sample points of the target leaf is projected onto the frame
    axes by integrating frame leaves to their crossings; the axes and the
    crossing budgets have length 3 * 2 eps.  This is the one-graph case of
    the phases ``_graph_plan``, ``integrate_leaves`` and
    ``_graphs_on_leaves``, which ``rigidity.tangency_propagation_check``
    runs for all of its graphs together.
    """
    z = np.asarray(z, dtype=float)
    reach, (leaf_len,) = _graph_plan(z[None], frame_u, target, eps)
    axis_u = integrate_leaf(frame_u, z, reach, step=step, centered=True)
    axis_s = integrate_leaf(frame_s, z, reach, step=step, centered=True)
    leaf = integrate_leaf(target, z, leaf_len, step=step, centered=True)
    return _graphs_on_leaves(frame_u, frame_s, axis_u, axis_s, leaf, eps, reach, step)[0]


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

    u_param: float         # a: arc length along the unstable leaf from z
    s_param: float         # b: arc length along the stable leaf from z
    lattice: tuple         # the integer vector k of the cover equation
    lift: np.ndarray       # the point on the lift of the unstable leaf from z
    lift_s: np.ndarray     # the point on the lift of the stable leaf from z: lift - k


def heteroclinic_points(z, e1, radius: int, field_u: LineField | None = None,
                        field_s: LineField | None = None, step: float = DEFAULT_STEP):
    """Transverse intersections of the unstable and stable leaves through z.

    Solves a v_u = b v_s + k over integer k with |k|_inf <= radius
    (k = 0 excluded as the trivial basepoint); each point's lifts on the
    unstable and stable leaves from z are then z + a v_u and z + b v_s.
    When nonlinear fields are supplied, each linear seed is refined by
    intersecting the integrated leaves of the nonlinear map through z: one
    stable and one unstable leaf serve every k, and one Hermite solve finds
    all crossings, whose points are the unstable lifts; the stable lifts
    are those less k (``_refine_heteroclinic``).
    """
    z = np.asarray(z, dtype=float)
    if not 1 <= radius <= MAX_RADIUS:
        raise RadiusOutOfRange(f"radius {radius} outside [1, {MAX_RADIUS}]")
    v_u, v_s = e1.vu, e1.vs
    basis = np.column_stack([v_u, -v_s])
    ks = [(k1, k2) for k1 in range(-radius, radius + 1)
          for k2 in range(-radius, radius + 1) if (k1, k2) != (0, 0)]
    seeds = [np.linalg.solve(basis, np.array(k, dtype=float)) for k in ks]
    if field_u is None:
        out = [HeteroclinicPoint(float(a), float(b), k, z + a * v_u, z + float(b) * v_s)
               for k, (a, b) in zip(ks, seeds)]
    else:
        out = _refine_heteroclinic(z, ks, seeds, field_u, field_s, step)
    out.sort(key=lambda h: h.lattice)
    return out


def _refine_heteroclinic(z, ks, seeds, field_u, field_s, step):
    """Intersect, for each lattice vector k, the integrated unstable leaf
    through z with the k-translated stable leaf.

    One stable and one unstable leaf through z are integrated, each at
    the longest length any k needs, and serve every k: row k of the
    targets is the stable leaf translated by k, and row k of the movers
    is the unstable leaf.  A scan of the fast signed distance of the
    unstable leaf's nodes to each target, one k at a time, finds the sign
    change nearest the linear prediction; its nodes x nodes distance table
    is the largest array of the check.  One ``_hermite_crossings`` call
    then solves every crossing, giving both arc lengths a and b and the
    crossing point on the unstable leaf's lift.  Errors name the failing
    k; a leaf that serves every k names them all.
    """
    pad = 1.3
    tags = [f"heteroclinic leaf k={k}" for k in ks]
    count = len(ks)
    leaf_tags = ["; ".join(tags)]
    stable = integrate_leaves(field_s, z[None], max(2 * abs(b) * pad + 0.2 for _, b in seeds),
                              step=step, centered=True, tags=leaf_tags)
    unstable = integrate_leaves(field_u, z[None], max(2 * abs(a) * pad + 0.2 for a, _ in seeds),
                                step=step, centered=True, tags=leaf_tags)
    targets = stable.take([0] * count).translated(np.array(ks, dtype=float))
    movers = unstable.take([0] * count)
    cand, near = [], []
    for i in range(count):
        feet, dists, _ = targets.take([i]).project(unstable.points[0])
        sign_change = np.where(np.sign(dists[:-1]) != np.sign(dists[1:]))[0]
        if len(sign_change) == 0:
            raise _failure(LeafEscaped, "no stable-leaf crossing", [i], tags)
        # pick the crossing closest to the linear prediction
        c = sign_change[np.argmin(np.abs(unstable.params[0, sign_change] - seeds[i][0]))]
        cand.append(c)
        near.append((dists[c:c + 2], feet[c:c + 2]))
    every = np.arange(count)
    ends = (np.array(cand), np.array(cand) + 1)
    dist, foot = np.transpose(near, (1, 2, 0))
    sigma, b_ref, _, pts = _hermite_crossings(
        field_u, [movers.points[every, e] for e in ends],
        [movers.headings[every, e] for e in ends], movers.step, dist, foot, targets,
        every, tags)
    a_ref = movers.params[every, ends[0]] + sigma * movers.step
    return [HeteroclinicPoint(float(a), float(b), k, pt, pt - np.array(k, dtype=float))
            for pt, a, b, k in zip(pts, a_ref, b_ref, ks)]


def verify_graph_transport(theta_z: HermiteCubic, theta_zp: HermiteCubic,
                           hol_s: MonotoneCubic, hol_u: MonotoneCubic) -> float:
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
    s_mid = theta_z(u_back[ok])
    h_lo, h_hi = hol_u.domain
    inner = (s_mid >= h_lo) & (s_mid <= h_hi)
    if not inner.any():
        raise DomainMismatch("empty common domain for graph transport")
    predicted = hol_u(s_mid[inner])
    measured = theta_zp(t[ok][inner])
    return float(np.max(np.abs(predicted - measured)))
