"""Leaf bundles against serial references.

The references below are the one-leaf, one-target, one-lattice-vector
versions of leaf integration, crossing (one Hermite solve per leaf),
holonomy, local graphs,
heteroclinic points and the tangency-propagation loop.  A bundle does the
same arithmetic per row, so every comparison asserts equality bit for
bit, not closeness.  A projection with node hints is compared with the
whole-row search the same way.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from anosov_lab.errors import (
    AnosovLabError,
    ChartOverflow,
    LeafEscaped,
    SignAmbiguity,
    TangencySuspected,
)
from anosov_lab import foliations
from anosov_lab.foliations import (
    LIPSCHITZ,
    SIGN_CONTINUITY_LIMIT,
    TANGENCY_THRESHOLD,
    WINDOW,
    HeteroclinicPoint,
    LeafBundle,
    LineField,
    _cross_to_target,
    _graph_map,
    _hermite_crossings,
    _rk4_step,
    heteroclinic_points,
    holonomies,
    holonomy,
    integrate_leaf,
    integrate_leaves,
    line_fields,
    local_graph,
    verify_graph_transport,
)
from anosov_lab.interp import MonotoneCubic
from anosov_lab.lattice import line_angle
from anosov_lab.fourier import FourierPerturbation
from anosov_lab.maps import ConjugatedMap, Diffeo
from anosov_lab.rigidity import PropagationRow, tangency_propagation_check

from strategies import BOUNDS, TWO_MODES, two_mode_diffeo

STEP = 4e-3


# --- serial references ------------------------------------------------------

def _ref_march(field, x, heading, length, step):
    n_steps = max(1, int(round(length / step)))
    h = length / n_steps
    pts = x[None, :].copy()
    hd = heading[None, :].copy()
    hd /= np.linalg.norm(hd, axis=1, keepdims=True)
    traj = [pts[0]]
    heads = [hd[0]]
    for i in range(n_steps):
        pts, hd, worst = _rk4_step(field, pts, hd, h)
        if worst.min() < math.cos(SIGN_CONTINUITY_LIMIT):
            raise SignAmbiguity(f"field direction flipped at step {i}")
        traj.append(pts[0])
        heads.append(hd[0])
    return np.linspace(0.0, length, n_steps + 1), np.array(traj), np.array(heads)


def _ref_integrate_leaf(field, x, length, step=1e-3, centered=False):
    x = np.asarray(x, dtype=float)
    heading = field.direction_at(np.mod(x, 1.0)[None])[0]
    heading = heading / np.linalg.norm(heading)
    if centered:
        half = abs(length) / 2.0
        fwd = _ref_march(field, x, heading, half, step)
        bwd = _ref_march(field, x, -heading, half, step)
        params = np.concatenate([-bwd[0][::-1], fwd[0][1:]])
        points = np.concatenate([bwd[1][::-1], fwd[1][1:]])
        heads = np.concatenate([-bwd[2][::-1], fwd[2][1:]])
    else:
        sign = 1.0 if length >= 0 else -1.0
        params, points, heads = _ref_march(field, x, sign * heading, abs(length), step)
        params = sign * params
        heads = sign * heads
        if sign < 0:
            params, points, heads = params[::-1], points[::-1], heads[::-1]
    return LeafBundle(params=params[None], points=points[None], headings=heads[None],
                      last=np.array([len(params) - 1]),
                      step=np.array([abs(params[1] - params[0])]), field=field)


def _ref_cross_to_target(field, starts, tau2, budget, step, record=None):
    """One target: every leaf marches together and projects every state,
    crossings solved after.  ``record``, a dict, receives each row's stop
    step ('stop', -1 for a row that escapes), its bracket ('bracket':
    nodes and fast distances before and after the stop step), 's' and
    'angle', and the largest |change of the fast distance| in one step
    over the step ('jump'), all as they stand when the march ends."""
    pts = np.atleast_2d(np.asarray(starts, dtype=float)).copy()
    m = len(pts)
    prev_foot, prev_dist, tang = tau2.project(pts)
    hd = field.direction_at(np.mod(pts, 1.0))
    sign = -np.sign(prev_dist * np.einsum("ni,ni->n", hd, np.stack([-tang[:, 1], tang[:, 0]], axis=1)))
    sign[sign == 0] = 1.0
    prev_pts, prev_hd = pts, hd * sign[:, None]
    s_out = np.full(m, np.nan)
    ang_out = np.full(m, np.nan)
    active = np.ones(m, dtype=bool)
    stop = np.full(m, -1)
    bracket = (np.full((m, 2), np.nan), np.full((m, 2), np.nan), np.full(m, np.nan),
               np.full(m, np.nan))
    jump = 0.0
    for k in range(int(math.ceil(budget / step))):
        if not active.any():
            break
        new_pts = prev_pts.copy()
        new_hd = prev_hd.copy()
        stepped, hd_step, worst = _rk4_step(field, prev_pts[active], prev_hd[active], step)
        if worst.min() < math.cos(SIGN_CONTINUITY_LIMIT):
            raise SignAmbiguity("field too rough along holonomy leaf")
        new_pts[active] = stepped
        new_hd[active] = hd_step
        new_foot, new_dist, _ = tau2.project(new_pts)
        jump = max(jump, float(np.max(np.abs(new_dist - prev_dist)[active])) / step)
        for i in np.flatnonzero(active & (np.sign(new_dist) != np.sign(prev_dist))):
            _, s_c, ang_c, _ = _hermite_crossings(
                field, (prev_pts[i:i + 1], new_pts[i:i + 1]), (prev_hd[i:i + 1], new_hd[i:i + 1]),
                np.array([step]), np.array([[prev_dist[i]], [new_dist[i]]]),
                np.array([[prev_foot[i]], [new_foot[i]]]), tau2, np.zeros(1, dtype=int))
            s_out[i], ang_out[i] = s_c[0], ang_c[0]
            stop[i] = k
            for kept, now in zip(bracket, (prev_pts[i], new_pts[i], prev_dist[i], new_dist[i])):
                kept[i] = now
            active[i] = False
        prev_pts, prev_hd, prev_dist, prev_foot = new_pts, new_hd, new_dist, new_foot
    if record is not None:
        record.update(stop=stop, bracket=bracket, s=s_out, angle=ang_out, jump=jump)
    if active.any():
        raise LeafEscaped(f"{int(active.sum())} leaves did not reach the transversal")
    if np.any(ang_out < TANGENCY_THRESHOLD):
        raise TangencySuspected("shallow crossing")
    return s_out, ang_out


def _ref_holonomy(field, tau1, tau2, budget, step, span):
    for seg in (tau1, tau2):
        angle = line_angle(seg.headings[0], field.direction_at(np.mod(seg.points[0], 1.0)))
        if float(angle.min()) < 0.1:
            raise TangencySuspected("transversal not transverse to the field")
    s_values = np.linspace(span[0], span[1], 25)
    starts, _ = tau1.evaluate(s_values)
    s_primes, _ = _ref_cross_to_target(field, starts, tau2, budget, step)
    return MonotoneCubic(s_values, s_primes, "holonomy")


def _ref_local_graph(z, frame_u, frame_s, target, eps, step):
    z = np.asarray(z, dtype=float)
    reach = 2 * eps * 3.0
    axis_u = _ref_integrate_leaf(frame_u, z, reach, step=step, centered=True)
    axis_s = _ref_integrate_leaf(frame_s, z, reach, step=step, centered=True)
    angle = line_angle(target.direction_at(np.mod(z, 1.0)[None])[0],
                       frame_u.direction_at(np.mod(z, 1.0)[None])[0])
    if angle < 0.05:
        raise TangencySuspected("target not transverse to frame_u")
    leaf_len = 2 * eps / max(math.cos(min(angle, 1.0)), 0.3) * 1.5
    leaf = _ref_integrate_leaf(target, z, leaf_len, step=step, centered=True)
    t_vals = np.linspace(leaf.params[0, 0], leaf.params[0, -1], 21)
    pts, _ = leaf.evaluate(t_vals)
    u_vals, _ = _ref_cross_to_target(frame_s, pts, axis_u, reach, step)
    s_vals, _ = _ref_cross_to_target(frame_u, pts, axis_s, reach, step)
    if u_vals.max() < eps or u_vals.min() > -eps:
        raise ChartOverflow("target leaf does not cover the chart")
    keep = np.abs(u_vals) <= eps * 1.0001
    return _graph_map(u_vals[keep], s_vals[keep])


def _ref_refine_heteroclinic(z, a, k, stable, unstable, field_u):
    """The crossing of the unstable leaf through z with the stable one
    translated by k, nearest the linear prediction a."""
    target = stable.translated(np.array([k], dtype=float))
    feet, dists, _ = target.project(unstable.points[0])
    sign_change = np.where(np.sign(dists[:-1]) != np.sign(dists[1:]))[0]
    if len(sign_change) == 0:
        raise LeafEscaped(f"no stable-leaf crossing for lattice vector {k}")
    c = sign_change[np.argmin(np.abs(unstable.params[0, sign_change] - a))]
    sigma, b_ref, _, pt = _hermite_crossings(
        field_u, unstable.points[:, [c, c + 1]].transpose(1, 0, 2),
        unstable.headings[:, [c, c + 1]].transpose(1, 0, 2), unstable.step,
        dists[c:c + 2, None], feet[c:c + 2, None], target, np.zeros(1, dtype=int))
    a_ref = unstable.params[0, c] + sigma[0] * unstable.step[0]
    return HeteroclinicPoint(float(a_ref), float(b_ref[0]), k, pt[0],
                             pt[0] - np.array(k, dtype=float))


def _ref_heteroclinic_points(z, e1, radius, field_u=None, field_s=None, step=1e-3):
    """One lattice vector at a time, against one stable and one unstable
    leaf through z of the longest length any k needs."""
    z = np.asarray(z, dtype=float)
    basis = np.column_stack([e1.vu, -e1.vs])
    seeds = {}
    for k1 in range(-radius, radius + 1):
        for k2 in range(-radius, radius + 1):
            if (k1, k2) != (0, 0):
                seeds[k1, k2] = np.linalg.solve(basis, np.array((k1, k2), dtype=float))
    if field_u is not None:
        pad = 1.3
        stable = _ref_integrate_leaf(field_s, z, max(2 * abs(b) * pad + 0.2
                                                     for _, b in seeds.values()),
                                     step=step, centered=True)
        unstable = _ref_integrate_leaf(field_u, z, max(2 * abs(a) * pad + 0.2
                                                       for a, _ in seeds.values()),
                                       step=step, centered=True)
    out = []
    for k, (a, b) in seeds.items():
        if field_u is None:
            out.append(HeteroclinicPoint(float(a), float(b), k, z + a * e1.vu,
                                         z + float(b) * e1.vs))
        else:
            out.append(_ref_refine_heteroclinic(z, a, k, stable, unstable, field_u))
    out.sort(key=lambda h: h.lattice)
    return out


def _ref_tangency_propagation_check(field_1u, field_1s, field_2s, z, e1, radius=1,
                                    eps=0.05, step=1e-3, nonlinear=False):
    """The check one lattice vector at a time."""
    z = np.asarray(z, dtype=float)
    fu = field_1u if nonlinear else None
    fs = field_1s if nonlinear else None
    hps = _ref_heteroclinic_points(z, e1, radius, field_u=fu, field_s=fs, step=step)
    theta_z = _ref_local_graph(z, field_1u, field_1s, field_2s, eps, step)
    axis_u_z = _ref_integrate_leaf(field_1u, z, 0.3, centered=True, step=step)
    axis_s_z = _ref_integrate_leaf(field_1s, z, 0.3, centered=True, step=step)
    rows = []
    for hp in hps:
        if nonlinear:
            zp_u_lift = hp.lift
            zp_s_lift = zp_u_lift - np.array(hp.lattice, dtype=float)
        else:
            zp_u_lift = z + hp.u_param * e1.vu
            zp_s_lift = z + hp.s_param * e1.vs
        theta_zp = _ref_local_graph(zp_u_lift, field_1u, field_1s, field_2s, eps, step)
        axis_u_zp = _ref_integrate_leaf(field_1u, zp_s_lift, 0.6, centered=True, step=step)
        axis_s_zp = _ref_integrate_leaf(field_1s, zp_u_lift, 0.6, centered=True, step=step)
        hol_s = _ref_holonomy(field_1s, axis_u_z, axis_u_zp, abs(hp.s_param) * 1.5 + 0.5,
                              step, (-eps, eps))
        hol_u = _ref_holonomy(field_1u, axis_s_z, axis_s_zp, abs(hp.u_param) * 1.5 + 0.5,
                              step, (-eps, eps))
        deviation = verify_graph_transport(theta_z, theta_zp, hol_s, hol_u)
        u0 = hol_s.inverse(0.0)
        predicted = hol_u.derivative(theta_z(u0)) * theta_z.derivative(u0) / hol_s.derivative(u0)
        dir_u = field_1u.direction_at(np.mod(zp_u_lift, 1.0)[None])[0]
        dir_2s = field_2s.direction_at(np.mod(zp_u_lift, 1.0)[None])[0]
        rows.append(PropagationRow(
            lattice=hp.lattice,
            angle=float(line_angle(dir_u, dir_2s)),
            measured_slope=float(theta_zp.derivative(0.0)),
            predicted_slope=float(predicted),
            transport_deviation=float(deviation),
        ))
    return rows


# --- comparisons ------------------------------------------------------------

@pytest.fixture(params=["linear", "conjugated"])
def fields(request):
    """f1u, f1s, f2s of the linear action, or of the action conjugated by
    phi = id + (0.02 sin 2 pi x2, 0)."""
    return request.getfixturevalue(
        "linear_fields" if request.param == "linear" else "conj_fields")


def _assert_same_segment(got, want):
    assert np.array_equal(got.params, want.params)
    assert np.array_equal(got.points, want.points)
    assert np.array_equal(got.headings, want.headings)
    assert got.step == want.step


def test_integrate_leaves_matches_serial_reference(fields):
    f1u = fields["f1u"]
    starts = np.array([[0.3, 0.6], [0.71, 0.12], [0.3, 0.6], [0.05, 0.9],
                       [0.44, 0.2], [0.44, 0.2], [0.9, 0.35]])
    # mixed lengths, a negative length, centered and one-sided leaves; the
    # one-sided leaves of 0.1 and 0.1 + STEP take 25 and 26 steps
    lengths = [0.5, -0.3, 0.21, 0.1, 0.1, 0.1 + STEP, 2 * 0.05]
    centered = [True, False, True, False, False, False, True]
    segs = integrate_leaves(f1u, starts, lengths, step=STEP, centered=centered)
    counts = set()
    for i, (x, length, c) in enumerate(zip(starts, lengths, centered)):
        seg = segs.take([i])
        _assert_same_segment(seg, _ref_integrate_leaf(f1u, x, length, step=STEP, centered=c))
        _assert_same_segment(integrate_leaf(f1u, x, length, step=STEP, centered=c), seg)
        counts.add(seg.params.shape[1])
    assert {26, 27} <= counts


def test_project_ignores_padded_nodes(fields):
    f1u = fields["f1u"]
    # rows of 51, 151 and 101 nodes: the first and the last are padded, and
    # no row passes within 0.02 of the origin
    rows = integrate_leaves(f1u, np.array([[0.05, 0.1], [0.1, -0.05], [0.2, 0.2]]),
                            [0.2, 0.6, 0.4], step=STEP, centered=True)
    assert list(rows.last) == [50, 150, 100]
    pts = np.random.default_rng(5).uniform(-0.01, 0.01, (12, 2))
    which = np.arange(12) % 3
    got = rows.project(pts, which=which)
    for i, t in enumerate(which):
        want = rows.take([t]).project(pts[i:i + 1])
        for g, w in zip(got, want):
            assert np.array_equal(g[i:i + 1], w)


def test_cross_to_target_stacked_matches_per_target(fields):
    f1u, f1s = fields["f1u"], fields["f1s"]
    # two targets with equal node counts and one with more
    targets = integrate_leaves(f1u, np.array([[0.3, 0.6], [0.5, 0.2], [0.1, 0.4]]),
                               [0.8, 0.8, 1.1],
                               step=STEP, centered=True)
    groups, which, budgets = [], [], []
    for t, budget in enumerate((0.5, 0.35, 0.6)):
        tau = targets.take([t])
        near = _ref_integrate_leaf(f1s, tau.evaluate([0.1])[0][0], 0.5, step=1e-3, centered=True)
        starts = near.evaluate(np.linspace(-0.2, 0.2, 7 + t))[0]
        groups.append(starts)
        which += [t] * len(starts)
        budgets += [budget] * len(starts)
    s, angle = _cross_to_target(f1s, np.concatenate(groups), targets, np.array(budgets),
                                STEP, which=np.array(which))
    at = 0
    for t, (starts, budget) in enumerate(zip(groups, (0.5, 0.35, 0.6))):
        tau = targets.take([t])
        s_ref, angle_ref = _ref_cross_to_target(f1s, starts, tau, budget, STEP)
        assert np.array_equal(s[at:at + len(starts)], s_ref)
        assert np.array_equal(angle[at:at + len(starts)], angle_ref)
        at += len(starts)


def test_cross_to_target_row_budget_escape(fields):
    f1u, f1s = fields["f1u"], fields["f1s"]
    tau = integrate_leaf(f1u, np.zeros(2), 0.6, step=STEP, centered=True)
    near = integrate_leaf(f1s, np.zeros(2), 0.5, step=1e-3, centered=True)
    starts = near.evaluate(np.array([0.05, -0.1, 0.15]))[0]
    budgets = np.array([0.2, 0.2, 0.2])
    s, _ = _cross_to_target(f1s, starts, tau.take([0, 0]), budgets, STEP, which=[0, 1, 0])
    assert np.array_equal(s, _ref_cross_to_target(f1s, starts, tau, 0.2, STEP)[0])
    # the third leaf is 0.15 from the transversal; with 0.1 of budget it escapes
    budgets[2] = 0.1
    with pytest.raises(LeafEscaped, match=r"^1 leaves did not reach .* within budget 0\.1 \[c\]$"):
        _cross_to_target(f1s, starts, tau, budgets, STEP, tags=["a", "b", "c"])


def test_holonomies_match_serial_reference(fields):
    f1u, f1s = fields["f1u"], fields["f1s"]
    tau1 = integrate_leaf(f1u, np.zeros(2), 0.3, step=STEP, centered=True)
    tau2s = integrate_leaves(f1u, np.array([[0.02, 0.31], [0.2, -0.15], [-0.25, 0.1]]),
                             [0.6, 0.6, 0.8],
                             step=STEP, centered=True)
    budgets = [0.9, 0.8, 1.2]
    hols = holonomies(f1s, tau1, tau2s, budgets, step=STEP, span=(-0.05, 0.05))
    for j, (hol, budget) in enumerate(zip(hols, budgets)):
        tau2 = tau2s.take([j])
        ref = _ref_holonomy(f1s, tau1, tau2, budget, STEP, (-0.05, 0.05))
        one = holonomy(f1s, tau1, tau2, budget=budget, step=STEP, span=(-0.05, 0.05))
        for got in (hol, one):
            assert np.array_equal(got.x, ref.x) and np.array_equal(got.y, ref.y)


def test_local_graph_matches_serial_reference(fields):
    args = (fields["f1u"], fields["f1s"], fields["f2s"], 0.05)
    for z in (np.zeros(2), np.array([0.37, 0.81])):
        got = local_graph(z, *args, step=STEP)
        want = _ref_local_graph(z, *args, STEP)
        assert np.array_equal(got.x, want.x)
        assert np.array_equal(got.c, want.c)


def test_heteroclinic_points_match_serial_reference(conj_fields, e1):
    got = heteroclinic_points(np.zeros(2), e1, 1, field_u=conj_fields["f1u"],
                              field_s=conj_fields["f1s"], step=STEP)
    want = _ref_heteroclinic_points(np.zeros(2), e1, 1, field_u=conj_fields["f1u"],
                                    field_s=conj_fields["f1s"], step=STEP)
    assert [h.lattice for h in got] == [h.lattice for h in want]
    for g, w in zip(got, want):
        assert np.array_equal(g.lift, w.lift)
        assert np.array_equal(g.lift_s, w.lift_s)
        assert (g.u_param, g.s_param) == (w.u_param, w.s_param)


def _assert_same_rows(got, want):
    assert len(got) == len(want) == 8
    for g, w in zip(got, want):
        assert g.to_dict() == w.to_dict()


def test_propagation_rows_match_serial_loop_linear(linear_fields, e1):
    f = linear_fields
    args = (f["f1u"], f["f1s"], f["f2s"], np.zeros(2), e1)
    _assert_same_rows(tangency_propagation_check(*args, radius=1, step=STEP),
                      _ref_tangency_propagation_check(*args, radius=1, step=STEP))


def test_propagation_rows_match_serial_loop_nonlinear(conj_fields, e1):
    f = conj_fields
    args = (f["f1u"], f["f1s"], f["f2s"], np.zeros(2), e1)
    _assert_same_rows(
        tangency_propagation_check(*args, radius=1, step=STEP),
        _ref_tangency_propagation_check(*args, radius=1, step=STEP, nonlinear=True))


# --- projections with node hints against the whole-row search -------------

def _assert_same_bits(got, want):
    """(s, signed distance, tangent) equal bit for bit, sign bits included."""
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(np.ascontiguousarray(g).view(np.uint64),
                              np.ascontiguousarray(w).view(np.uint64))


def _assert_hints_change_nothing(bundle, pts, which, near):
    _assert_same_bits(bundle.project(pts, which=which, near=near),
                      bundle.project(pts, which=which))


def _around_nodes(bundle, t, nodes):
    """Points on, beside and past the given nodes of row t: each node, the
    node moved 1e-3 to either side of the row, and, at the row's ends, the
    node moved two node spacings further along the row."""
    p, hd = bundle.points[t, nodes], bundle.headings[t, nodes]
    normal = np.stack([-hd[:, 1], hd[:, 0]], axis=1)
    out = [p, p + 1e-3 * normal, p - 1e-3 * normal]
    along = np.where(nodes == 0, -2.0, np.where(nodes == bundle.last[t], 2.0, 0.0))
    out.append(p + (along * bundle.step[t])[:, None] * hd + 5e-4 * normal)
    return np.concatenate(out)


@pytest.mark.parametrize("nodes", [2, 5])
def test_hinted_projection_on_a_row_shorter_than_the_window(fields, nodes):
    row = integrate_leaf(fields["f1u"], np.array([0.3, 0.6]), (nodes - 1) * STEP, step=STEP)
    assert row.last[0] == nodes - 1 < 2 * WINDOW
    pts = _around_nodes(row, 0, np.arange(nodes))
    # every hint, and hints past either end, which the window clips to the row
    for hint in range(-2, nodes + 2):
        _assert_hints_change_nothing(row, pts, 0, np.full(len(pts), hint))


def test_hinted_projection_on_padded_rows(fields):
    # rows of 51, 151 and 101 nodes: the first and the last are padded
    rows = integrate_leaves(fields["f1u"], np.array([[0.05, 0.1], [0.1, -0.05], [0.2, 0.2]]),
                            [0.2, 0.6, 0.4], step=STEP, centered=True)
    assert list(rows.last) == [50, 150, 100]
    pts, which, near = [], [], []
    for t, last in enumerate(rows.last):
        nodes = np.array([0, 1, 2, 4, last // 2, last - 4, last - 1, last])
        p = _around_nodes(rows, t, nodes)
        for shift in range(-WINDOW - 1, WINDOW + 2):
            pts.append(p)
            which += [t] * len(p)
            near.append(np.tile(nodes, 4) + shift)
    _assert_hints_change_nothing(rows, np.concatenate(pts), np.array(which),
                                 np.concatenate(near))


def test_hint_far_from_the_nearest_node_falls_back_to_the_whole_row(fields):
    row = integrate_leaf(fields["f1u"], np.zeros(2), 0.6, step=STEP, centered=True)
    last = int(row.last[0])
    nodes = np.array([20, 75, 130])
    pts = _around_nodes(row, 0, nodes)
    nearest = np.tile(nodes, 4)
    # hints at both ends of the row and 10 nodes off to either side: the
    # window misses the nearest node, and its nearest is on an inner edge
    for near in (np.zeros_like(nearest), np.full_like(nearest, last), nearest - 10,
                 nearest + 10):
        _assert_hints_change_nothing(row, pts, 0, near)


def _hinted_projections(run):
    """Every projection with node hints that ``run()`` makes, as (bundle,
    points, rows, hints); an AnosovLabError ends ``run`` early."""
    calls = []
    project = LeafBundle.project

    def recording(self, pts, which=0, near=None):
        if near is not None:
            calls.append((self, pts.copy(), np.copy(which), near.copy()))
        return project(self, pts, which, near)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LeafBundle, "project", recording)
        try:
            run()
        except AnosovLabError:
            pass
    return calls


def _assert_march_hints_change_nothing(f, e1):
    calls = _hinted_projections(lambda: tangency_propagation_check(
        f["f1u"], f["f1s"], f["f2s"], np.zeros(2), e1, radius=1, step=STEP))
    assert calls
    for bundle, pts, which, near in calls:
        _assert_hints_change_nothing(bundle, pts, which, near)


@pytest.mark.parametrize("name", ["linear_fields", "conj_fields"])
def test_every_march_projection_is_the_whole_row_projection(request, e1, name):
    _assert_march_hints_change_nothing(request.getfixturevalue(name), e1)


@pytest.mark.parametrize("step", [4e-3, 8e-3])
def test_march_hints_keep_every_nearest_node_in_the_window(conj_fields, e1, step):
    # on phi 0.02 the last foot, unmoved, was more than WINDOW nodes from the
    # nearest node for 456 of 6,028 hinted points at 4e-3 and 170 of 5,196
    # at 8e-3; advanced along the target by the row's displacement, none is
    points = {"hinted": 0, "searched again": 0}
    hinted = [False]
    nearest = LeafBundle._nearest

    def counting(self, pts, which, last, near=None):
        if hinted[0]:
            points["searched again"] += len(pts)
        if near is None:
            return nearest(self, pts, which, last)
        points["hinted"] += len(pts)
        hinted[0] = True
        try:
            return nearest(self, pts, which, last, near)
        finally:
            hinted[0] = False

    f = conj_fields
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LeafBundle, "_nearest", counting)
        tangency_propagation_check(f["f1u"], f["f1s"], f["f2s"], np.zeros(2), e1, step=step)
    assert points["hinted"] > 5_000
    assert points["searched again"] == 0


@settings(max_examples=5, derandomize=True, deadline=None)
@given(modes=TWO_MODES, bound=BOUNDS)
def test_march_projections_of_drawn_two_mode_diffeo(e1, e2, modes, bound):
    phi = two_mode_diffeo(modes, bound)
    if phi is None:
        return
    fields = line_fields((ConjugatedMap(phi, e1), ConjugatedMap(phi, e2)),
                         ("f1u", "f1s", "f2s"), 32, 40)
    _assert_march_hints_change_nothing(fields, e1)


# --- errors of stacked calls name their lattice vectors and kinds ---------

def test_stacked_tangency_names_local_graphs(linear_fields, e1):
    f = linear_fields
    # a target field equal to frame_u is tangent to it at every base point
    with pytest.raises(TangencySuspected,
                       match=r"\[local graph at z; local graph k=\(-1, -1\); .*"
                             r"local graph k=\(1, 1\)\]$"):
        tangency_propagation_check(f["f1u"], f["f1s"], f["f1u"], np.zeros(2), e1, step=STEP)


def test_stacked_chart_overflow_names_local_graphs(linear_fields, e1):
    f = linear_fields
    # target leaves along frame_s itself all meet the u-axis at u = 0
    with pytest.raises(ChartOverflow, match=r"\[local graph at z; .*local graph k=\(1, 1\)\]$"):
        tangency_propagation_check(f["f1u"], f["f1s"], f["f1s"], np.zeros(2), e1, step=STEP)


def test_stacked_escape_names_heteroclinic_leaf(conj_fields, e1):
    f = conj_fields
    # "unstable" leaves along the stable field never meet a stable translate
    with pytest.raises(LeafEscaped, match=r"^no stable-leaf crossing \[heteroclinic leaf k=\(-1, -1\)\]$"):
        tangency_propagation_check(f["f1s"], f["f1s"], f["f2s"], np.zeros(2), e1, step=STEP)


def test_stacked_sign_ambiguity_names_rows(linear_fields, e1):
    f = linear_fields
    # a field of random directions flips within a step on some leaf
    rough = LineField(None, np.random.default_rng(3).random((128, 128)) * math.pi)
    with pytest.raises(SignAmbiguity,
                       match=r"\[(holonomy axis at z|(local graph|holonomy) (at z|k=\(-?\d, -?\d\)))"
                             r"(; (holonomy axis at z|(local graph|holonomy) (at z|k=\(-?\d, -?\d\))))*\]$"):
        tangency_propagation_check(f["f1u"], rough, f["f2s"], np.zeros(2), e1, step=STEP)



# --- shared leaves and skipped projections against every-step marches ------

def _march_setup(field_u, field_s, z=(0.3, 0.6)):
    """Starts on an unstable axis through z, and unstable target rows
    through the points of the stable leaf through z at arc lengths 0.12,
    -0.2, 0.3 and 0: stable leaves from each start cross every target, on
    either side, and each start sits on the last target."""
    z = np.asarray(z, dtype=float)
    axis = integrate_leaf(field_u, z, 0.3, step=STEP, centered=True)
    starts = axis.evaluate(np.linspace(-0.1, 0.1, 7))[0]
    bases = _offsets_along(field_s, z, [0.12, -0.2, 0.3, 0.0])
    return starts, integrate_leaves(field_u, bases, 0.8, step=STEP, centered=True)


def _offsets_along(field, base, dists):
    """Points at the given arc lengths from base along the leaf of field."""
    leaf = integrate_leaf(field, base, 2.2 * max(abs(d) for d in dists), step=1e-3,
                          centered=True)
    return leaf.evaluate(np.asarray(dists, dtype=float))[0]


def _stacked_march(field, starts, targets, budgets, which, leaf):
    """``_cross_to_target`` on stacked rows with shared leaves, tagged by row
    number: (s, angle, brackets, escaped rows).  The brackets, nodes and
    fast distances before and after each crossing row's stop step, are
    those of its Hermite solve; with escaped rows, s and angle are NaN but
    for the rows the solve reached."""
    m = len(leaf)
    solves = []

    def capturing(field, nodes, heads, spacing, dist, foot, targets, which, tags=None):
        out = hermite(field, nodes, heads, spacing, dist, foot, targets, which, tags)
        solves.append(([np.copy(nodes[0]), np.copy(nodes[1]), np.copy(dist[0]),
                        np.copy(dist[1])], [int(t) for t in tags], out))
        return out

    hermite = foliations._hermite_crossings
    escaped = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(foliations, "_hermite_crossings", capturing)
        try:
            _cross_to_target(field, starts, targets, budgets, STEP, which=which,
                             tags=[str(r) for r in range(m)], leaf=leaf)
        except LeafEscaped as exc:
            escaped = [int(t) for t in str(exc).rsplit("[", 1)[1][:-1].split("; ")]
    (bracket, crossed, (_, s_c, ang_c, _)), = solves
    s, angle = np.full(m, np.nan), np.full(m, np.nan)
    s[crossed], angle[crossed] = s_c, ang_c
    return s, angle, dict(zip(crossed, zip(*bracket))), escaped


def _assert_march_matches_every_step_reference(field, starts, targets, budgets, which, leaf):
    """Each row of the stacked march stops at the step, with the bracket, s
    and angle, of the every-step reference and of ``_cross_to_target``
    marching that row alone."""
    s, angle, brackets, escaped = _stacked_march(field, starts, targets, budgets, which, leaf)
    for r, (x, t, budget) in enumerate(zip(starts[leaf], which, budgets)):
        record = {}
        try:
            _ref_cross_to_target(field, x[None], targets.take([t]), budget, STEP, record)
        except LeafEscaped:
            pass
        if record["stop"][0] < 0:
            assert r in escaped
            continue
        assert r not in escaped and record["stop"][0] >= 0
        for got, want in zip(brackets[r], record["bracket"]):
            assert np.array_equal(got, want[0])
        assert (s[r], angle[r]) == (record["s"][0], record["angle"][0])
        alone = _cross_to_target(field, x[None], targets.take([t]), budget, STEP)
        assert (s[r], angle[r]) == (alone[0][0], alone[1][0])
    return escaped


def _all_pairs(starts, targets, budget):
    """Every (start, target) row, rows of one start sharing its leaf index."""
    n, count = len(starts), len(targets.params)
    return np.full(n * count, budget), np.tile(np.arange(count), n), np.repeat(np.arange(n), count)


@pytest.fixture(scope="module")
def curved_fields(e1, e2):
    """f1u and f1s of the action conjugated by phi = id + (0, 0.03 sin 2 pi x1),
    the most curved leaves among the measured actions."""
    phi = Diffeo(FourierPerturbation.from_sin_cos([((1, 0), (0.0, 0.03), None)]))
    return line_fields((ConjugatedMap(phi, e1), ConjugatedMap(phi, e2)), ("f1u", "f1s"), 128, 30)


def test_skipped_projections_match_every_step_march_on_curved_leaves(curved_fields):
    f1u, f1s = curved_fields["f1u"], curved_fields["f1s"]
    starts, targets = _march_setup(f1u, f1s)
    assert not _assert_march_matches_every_step_reference(
        f1s, starts, targets, *_all_pairs(starts, targets, 0.5))


def test_skipped_projections_match_every_step_march_past_a_budget(curved_fields):
    f1u, f1s = curved_fields["f1u"], curved_fields["f1s"]
    starts, targets = _march_setup(f1u, f1s)
    # 0.25 of arc length reaches the targets at 0.12, -0.2 and 0 from every
    # start, but not the one at 0.3
    budgets, which, leaf = _all_pairs(starts, targets, 0.25)
    escaped = _assert_march_matches_every_step_reference(f1s, starts, targets, budgets, which,
                                                         leaf)
    assert list(which[escaped]) == [2] * len(starts)


@settings(max_examples=5, derandomize=True, deadline=None)
@given(modes=TWO_MODES, bound=BOUNDS)
def test_skipped_projections_match_every_step_march_of_drawn_two_mode_diffeo(e1, e2, modes,
                                                                              bound):
    phi = two_mode_diffeo(modes, bound)
    if phi is None:
        return
    fields = line_fields((ConjugatedMap(phi, e1), ConjugatedMap(phi, e2)), ("f1u", "f1s"), 32, 40)
    starts, targets = _march_setup(fields["f1u"], fields["f1s"])
    _assert_march_matches_every_step_reference(fields["f1s"], starts, targets,
                                               *_all_pairs(starts, targets, 0.5))


@pytest.mark.parametrize("step", [4e-3, 8e-3])
@pytest.mark.parametrize("name", ["linear_fields", "conj_fields"])
def test_fast_distance_moves_at_most_a_step_per_step_along_lemma3_marches(request, e1, name,
                                                                           step):
    fields = request.getfixturevalue(name)
    # every march of the default check, once more through the every-step
    # reference, which records the largest change of the fast distance
    jumps = []

    def every_step(field, starts, targets, budget, step, which=0, tags=None, leaf=None):
        s, angle = cross(field, starts, targets, budget, step, which, tags, leaf)
        rows = starts if leaf is None else starts[leaf]
        which = np.broadcast_to(which, (len(rows),))
        for t in np.unique(which):
            record = {}
            _ref_cross_to_target(field, rows[which == t], targets.take([t]),
                                 float(np.max(budget)), step, record)
            assert np.array_equal(s[which == t], record["s"])
            assert np.array_equal(angle[which == t], record["angle"])
            jumps.append(record["jump"])
        return s, angle

    cross = foliations._cross_to_target
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(foliations, "_cross_to_target", every_step)
        tangency_propagation_check(fields["f1u"], fields["f1s"], fields["f2s"], np.zeros(2), e1,
                                   step=step)
    # local graphs at z and at 8 points z', each through both frame fields,
    # and both holonomies of each z'
    assert len(jumps) == 2 * 9 + 2 * 8
    # within a factor 2 / 1.1 of LIPSCHITZ, whose skipping rests on this bound
    assert max(jumps) <= 1.1
    assert LIPSCHITZ >= 1.8 * max(jumps)


def _count_march_rows(run):
    """The rows of each ``_rk4_step`` call ``run()`` makes."""
    rows = []
    step = foliations._rk4_step

    def counting(field, pts, headings, h):
        rows.append(len(pts))
        return step(field, pts, headings, h)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(foliations, "_rk4_step", counting)
        run()
    return rows


def test_twin_rows_share_a_march_and_only_the_escaped_row_is_named(linear_fields):
    f1u, f1s = linear_fields["f1u"], linear_fields["f1s"]
    z = np.array([0.3, 0.6])
    # two targets on one side of z: both rows take one heading on one leaf
    targets = integrate_leaves(f1u, _offsets_along(f1s, z, [0.08, 0.2]), 0.6, step=STEP,
                               centered=True)

    def run():
        with pytest.raises(LeafEscaped,
                           match=r"^1 leaves did not reach .* within budget 0\.1 \[b\]$"):
            _cross_to_target(f1s, z[None], targets, [0.3, 0.1], STEP, which=[0, 1],
                             tags=["a", "b"], leaf=[0, 0])

    rows = _count_march_rows(run)
    assert set(rows) == {1}
    s, angle = _cross_to_target(f1s, z[None], targets, [0.3, 0.3], STEP, which=[0, 1],
                                leaf=[0, 0])
    for t in range(2):
        alone = _cross_to_target(f1s, z[None], targets.take([t]), 0.3, STEP)
        assert (s[t], angle[t]) == (alone[0][0], alone[1][0])


def test_rows_of_one_start_with_opposite_headings_march_apart(linear_fields):
    f1u, f1s = linear_fields["f1u"], linear_fields["f1s"]
    z = np.array([0.3, 0.6])
    targets = integrate_leaves(f1u, _offsets_along(f1s, z, [0.1, -0.15]), 0.6, step=STEP,
                               centered=True)
    got = []
    rows = _count_march_rows(lambda: got.extend(_cross_to_target(
        f1s, z[None], targets, 0.3, STEP, which=[0, 1], leaf=[0, 0])))
    # two marches until the nearer target is crossed, then one
    assert rows[0] == 2 and rows[-1] == 1
    s, angle = got
    for t in range(2):
        alone = _cross_to_target(f1s, z[None], targets.take([t]), 0.3, STEP)
        assert (s[t], angle[t]) == (alone[0][0], alone[1][0])


def test_rough_shared_leaf_names_every_row_on_it(linear_fields, e1):
    f1u = linear_fields["f1u"]
    # the stable direction everywhere but in a patch around (0.5, 0.5), where
    # neighbouring nodes alternate between horizontal and vertical
    n = 128
    theta = np.full((n, n), math.atan2(e1.vs[1], e1.vs[0]) % math.pi)
    i, j = np.meshgrid(np.arange(56, 72), np.arange(56, 72), indexing="ij")
    theta[i, j] = (i + j) % 2 * (math.pi / 2)
    rough = LineField(None, theta)
    starts = np.array([[0.5, 0.5], [0.1, 0.1]])
    targets = integrate_leaves(f1u, starts + 0.05 * np.asarray(e1.vs), 0.6, step=STEP,
                               centered=True)
    with pytest.raises(SignAmbiguity, match=r"^field too rough along holonomy leaf \[a; c\]$"):
        _cross_to_target(rough, starts, targets.take([0, 1, 1]), 0.3, 0.01, which=[0, 1, 2],
                         tags=["a", "b", "c"], leaf=[0, 1, 0])
