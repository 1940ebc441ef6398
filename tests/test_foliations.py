import itertools
import math

import numpy as np
import pytest

from anosov_lab.errors import (
    AnosovLabError,
    DomainMismatch,
    LeafEscaped,
    NonMonotoneG,
    NotConverged,
    RadiusOutOfRange,
    SignAmbiguity,
    TangencySuspected,
)
from anosov_lab.foliations import (
    HERMITE_NEWTON_STEPS,
    SEGMENT_SLACK,
    SIGN_CONTINUITY_LIMIT,
    TANGENCY_THRESHOLD,
    LineField,
    _aligned_direction,
    _cross_to_target,
    _hermite_crossings,
    _pushed_seeds,
    _rk4_step,
    compute_line_field,
    heteroclinic_points,
    holonomy,
    integrate_leaf,
    local_graph,
    min_transversality_angle,
)
from anosov_lab.interp import MonotoneCubic
from anosov_lab.lattice import eigen_data, grid_points, line_angle


def test_constant_field_leaves_are_straight(e1, linear_fields):
    seg = integrate_leaf(linear_fields["f1u"], np.array([0.2, 0.3]), 1.0)
    chords = seg.points[0] - seg.points[0, 0]
    v = np.asarray(e1.vu)
    cross = chords[:, 0] * v[1] - chords[:, 1] * v[0]
    assert np.max(np.abs(cross)) < 1e-12
    # arc-length parametrization: node spacing == parameter spacing
    lens = np.linalg.norm(np.diff(seg.points[0], axis=0), axis=1)
    assert np.allclose(lens, np.diff(seg.params[0]), atol=1e-12)


def test_leaf_point_at_interpolates(linear_fields, e1):
    seg = integrate_leaf(linear_fields["f1u"], np.zeros(2), 1.0, centered=True)
    v = np.asarray(e1.vu)
    for s in (-0.35, -0.1234, 0.0, 0.2718, 0.45):
        assert np.allclose(seg.evaluate([s])[0][0], s * v, atol=1e-12)


def test_leaf_reversal(linear_fields):
    x = np.array([0.6, 0.1])
    fwd = integrate_leaf(linear_fields["f1s"], x, 0.5)
    bwd = integrate_leaf(linear_fields["f1s"], x, -0.5)
    # symmetric points are reflections through x
    assert np.allclose(fwd.evaluate([0.3])[0][0] + bwd.evaluate([-0.3])[0][0], 2 * x, atol=1e-10)


def test_line_field_invariance(conj_fields):
    for field in conj_fields.values():
        assert field.invariance_error() < 1e-6


def test_line_field_convergence_rate(conj_g1):
    # the change between depths d and d - 1 contracts like lambda_u^-2 = 0.146
    for handle in (conj_g1, conj_g1.inverse()):
        residuals = [r for _, r in itertools.islice(_pushed_seeds(handle, grid_points(64)), 12)]
        ratios = np.array(residuals[1:]) / np.array(residuals[:-1])
        assert np.all((ratios >= 0.08) & (ratios <= 0.25)), ratios


def test_line_field_depth_grows_as_tol_shrinks(conj_g1):
    tols = (1e-4, 1e-6, 1e-8, 1e-10)
    fields = [compute_line_field(conj_g1, "unstable", n=64, iters=40, tol=tol) for tol in tols]
    depths = [f.depth for f in fields]
    assert depths == sorted(set(depths)), depths
    # each depth d is the first whose change is within its tol
    changes = [r for _, r in itertools.islice(_pushed_seeds(conj_g1, grid_points(64)),
                                              max(depths))]
    for d, tol in zip(depths, tols):
        assert changes[d - 1] <= tol, (d, tol)
        assert d == 1 or changes[d - 2] > tol, (d, tol)


def test_line_field_not_converged_at_the_cap_names_it(conj_g1):
    with pytest.raises(NotConverged, match=r"> 1\.0e-08 at the depth cap "
                       r"resolution\.field_iters = 3"):
        compute_line_field(conj_g1, "unstable", n=16, iters=3)


def _ref_line_field_theta(g, label, n, iters):
    """The line-field transport with one inverse solve for the orbit and
    another inside each jacobian, pushed forward from depth ``iters``."""
    handle = g if label == "unstable" else g.inverse()
    seed_dir = eigen_data(handle.linear_part).vu
    orbit = [grid_points(n)]
    for _ in range(iters):
        orbit.append(handle.inverse().apply(orbit[-1]))
    v = np.broadcast_to(seed_dir, orbit[0].shape).copy()
    for j in range(iters, 0, -1):
        v = np.einsum("nij,nj->ni", handle.jacobian(orbit[j]), v)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    return np.mod(np.arctan2(v[:, 1], v[:, 0]), math.pi).reshape(n, n)


def _angle_gap(a, b):
    d = np.abs(a - b)
    return float(np.max(np.minimum(d, math.pi - d)))


def _assert_matches_full_depth_transport(g, label):
    # stopped at the first depth within tol = 1e-8, the field is within
    # about 0.17 tol of the depth-40 push
    field = compute_line_field(g, label, n=32, iters=40)
    assert 2 <= field.depth < 40
    assert _angle_gap(field.theta, _ref_line_field_theta(g, label, 32, 40)) < 2e-9


@pytest.mark.parametrize("label", ["unstable", "stable"])
def test_line_field_shared_inverse_matches_two_solves(conj_g1, label):
    # one phi^{-1} solve walks the whole orbit in phi's chart
    _assert_matches_full_depth_transport(conj_g1, label)


@pytest.mark.parametrize("label", ["unstable", "stable"])
def test_perturbed_line_field_matches_full_depth_transport(perturbed_g1, label):
    # the stable field steps the forward map and inverts its jacobian
    _assert_matches_full_depth_transport(perturbed_g1, label)


@pytest.mark.parametrize("label", ["unstable", "stable"])
def test_linear_line_field_is_the_full_depth_transport(linear_g1, label):
    # A v_u is along v_u, so the transport stops at depth 1 on the bits of
    # the depth-40 push
    field = compute_line_field(linear_g1, label, n=16, iters=40)
    assert field.depth == 1
    assert np.array_equal(field.theta, _ref_line_field_theta(linear_g1, label, 16, 40))


def test_leaf_invariance_under_map(conj_g1, conj_fields):
    # the image of an unstable leaf point stays on the unstable leaf
    # through the image basepoint: compare field directions along images
    seg = integrate_leaf(conj_fields["f1u"], np.array([0.15, 0.67]), 0.2)
    img = conj_g1.lift(seg.points[0])
    d = conj_fields["f1u"].direction_at(np.mod(img, 1.0))
    chords = np.diff(img, axis=0)
    chords = chords / np.linalg.norm(chords, axis=1, keepdims=True)
    dots = np.abs(np.einsum("ni,ni->n", chords, d[:-1]))
    assert np.min(dots) > 1.0 - 1e-4


def test_holonomy_identity_for_parallel_transversals(linear_fields, e1):
    v_s = np.asarray(e1.vs)
    tau1 = integrate_leaf(linear_fields["f1u"], np.zeros(2), 0.8, centered=True)
    tau2 = integrate_leaf(linear_fields["f1u"], 0.3 * v_s, 0.8, centered=True)
    hol = holonomy(linear_fields["f1s"], tau1, tau2, span=(-0.25, 0.25))
    s = np.linspace(-0.2, 0.2, 11)
    assert np.max(np.abs(hol(s) - s)) < 1e-10


def test_holonomy_composition(linear_fields, e1):
    v_s = np.asarray(e1.vs)
    taus = [integrate_leaf(linear_fields["f1u"], c * v_s, 0.8, centered=True)
            for c in (0.0, 0.15, 0.3)]
    h01 = holonomy(linear_fields["f1s"], taus[0], taus[1], span=(-0.25, 0.25))
    h12 = holonomy(linear_fields["f1s"], taus[1], taus[2], span=(-0.25, 0.25))
    h02 = holonomy(linear_fields["f1s"], taus[0], taus[2], span=(-0.25, 0.25))
    s = np.linspace(-0.2, 0.2, 11)
    assert np.max(np.abs(h12(h01(s)) - h02(s))) < 1e-8


def test_holonomy_derivative_positive(conj_fields):
    tau1 = integrate_leaf(conj_fields["f1u"], np.array([0.1, 0.1]), 0.6, centered=True)
    tau2 = integrate_leaf(conj_fields["f1u"], np.array([0.25, 0.05]), 0.8, centered=True)
    hol = holonomy(conj_fields["f1s"], tau1, tau2, span=(-0.2, 0.2), budget=1.5)
    s = np.linspace(-0.15, 0.15, 9)
    assert np.all(hol.derivative(s) > 0)


def test_min_transversality_oracle(linear_fields):
    angle, _ = min_transversality_angle(linear_fields["f1u"], linear_fields["f2s"])
    assert math.degrees(angle) == pytest.approx(63.43494882, abs=0.01)


def test_min_transversality_rejects_different_grids():
    f2 = LineField(None, np.zeros((2, 2)))
    f4 = LineField(None, np.full((4, 4), math.pi / 2))
    with pytest.raises(DomainMismatch) as info:
        min_transversality_angle(f2, f4)
    assert isinstance(info.value, AnosovLabError)


def test_holonomy_map_rejects_non_monotone_samples():
    with pytest.raises(NonMonotoneG) as info:
        MonotoneCubic(np.array([0.0, 0.1, 0.2]), np.array([0.0, 0.2, 0.1]), "holonomy")
    assert str(info.value) == "holonomy samples are not strictly monotone"
    assert isinstance(info.value, AnosovLabError)


def test_tangency_raises_for_parallel_fields(linear_fields, e1):
    v_u = np.asarray(e1.vu)
    tau1 = integrate_leaf(linear_fields["f1u"], np.zeros(2), 0.5, centered=True)
    tau2 = integrate_leaf(linear_fields["f1u"], 0.2 * v_u + np.array([0.0, 0.3]), 0.5, centered=True)
    with pytest.raises(TangencySuspected):
        holonomy(linear_fields["f1u"], tau1, tau2, span=(-0.2, 0.2))


def test_local_graph_slope_oracle(linear_fields):
    # the second stable direction expressed in the first eigen-frame:
    # v_2^s = a v_1^u + b v_1^s with slope b/a = 2 for the standard pair
    theta = local_graph(np.zeros(2), linear_fields["f1u"], linear_fields["f1s"],
                        linear_fields["f2s"], 0.05)
    assert float(theta.derivative(0.0)) == pytest.approx(2.0, abs=1e-8)
    assert theta(0.0) == pytest.approx(0.0, abs=1e-10)


def test_heteroclinic_count_radius_one(e1):
    pts = heteroclinic_points(np.zeros(2), e1, 1)
    assert len(pts) == 8  # all k in {-1,0,1}^2 except k = 0


@pytest.mark.parametrize("radius", [0, 4])
def test_heteroclinic_radius_out_of_range(e1, radius):
    with pytest.raises(RadiusOutOfRange) as info:
        heteroclinic_points(np.zeros(2), e1, radius)
    assert isinstance(info.value, AnosovLabError)


def test_heteroclinic_solves_lattice_equation(e1):
    v_u, v_s = np.asarray(e1.vu), np.asarray(e1.vs)
    for hp in heteroclinic_points(np.zeros(2), e1, 1):
        k = np.asarray(hp.lattice, dtype=float)
        resid = hp.u_param * v_u - hp.s_param * v_s - k
        assert np.linalg.norm(resid) < 1e-10


def test_heteroclinic_lifts_differ_by_the_lattice_vector(conj_fields, e1):
    # closed form, as on the linear action: z + a v_u and z + b v_s
    for hp in heteroclinic_points(np.zeros(2), e1, 3):
        assert np.max(np.abs(hp.lift - hp.lift_s - hp.lattice)) <= 1e-15
    # refined: the crossing point on the unstable leaf, less k exactly; the
    # difference back is k to rounding (one ulp off at k = (-2, 2))
    refined = heteroclinic_points(np.zeros(2), e1, 2, field_u=conj_fields["f1u"],
                                  field_s=conj_fields["f1s"], step=4e-3)
    for hp in refined:
        assert np.array_equal(hp.lift_s, hp.lift - np.array(hp.lattice, dtype=float))
        assert np.max(np.abs(hp.lift - hp.lift_s - hp.lattice)) <= 1e-15


def test_graph_transport_linear(linear_fields, e1):
    from anosov_lab.rigidity import tangency_propagation_check
    rows = tangency_propagation_check(
        linear_fields["f1u"], linear_fields["f1s"], linear_fields["f2s"],
        np.zeros(2), e1, radius=1, step=4e-3)
    assert len(rows) == 8
    assert max(r.transport_deviation for r in rows) < 1e-8
    assert max(r.slope_difference for r in rows) < 1e-6


def test_graph_transport_smooth(conj_fields, e1):
    from anosov_lab.rigidity import tangency_propagation_check
    # at the default propagation step 8e-3 and at half of it
    for step in (4e-3, 8e-3):
        rows = tangency_propagation_check(
            conj_fields["f1u"], conj_fields["f1s"], conj_fields["f2s"],
            np.zeros(2), e1, radius=1, step=step)
        assert len(rows) == 8
        # the spline maps and the chain-rule slope put both at the leaves' accuracy
        assert max(r.transport_deviation for r in rows) <= 1e-9, step
        assert max(r.slope_difference for r in rows) <= 1e-7, step
        assert min(r.angle for r in rows) > 0.05


# --- Scalar reference for the batched leaf evaluation, projection and
# crossing solve, one point at a time.  The batched code does the same
# arithmetic per point, so results must be equal bit for bit, not merely
# close.

def _ref_at(seg, s):
    params, points, headings = seg.params[0], seg.points[0], seg.headings[0]
    s0 = params[0]
    idx = int(np.clip(np.floor((s - s0) / seg.step[0] + 1e-12), 0, len(params) - 1))
    ds = s - params[idx]
    if abs(ds) < 1e-15:
        return points[idx].copy(), headings[idx].copy()
    pt = points[idx][None, :]
    hd = headings[idx][None, :]
    if ds < 0:
        new_pt, new_hd, _ = _rk4_step(seg.field, pt, -hd, -ds)
        return new_pt[0], -new_hd[0]
    new_pt, new_hd, _ = _rk4_step(seg.field, pt, hd, ds)
    return new_pt[0], new_hd[0]


def _ref_project(proj, x):
    """Nearest node, parabolic offset and linear foot, point by point."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    params, points, headings = proj.params[0], proj.points[0], proj.headings[0]
    h, last = proj.step[0], proj.last[0]
    s = np.empty(len(pts))
    dist = np.empty(len(pts))
    tang = np.empty((len(pts), 2))
    for i, p in enumerate(pts):
        d2 = [(p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 for q in points]
        k = int(np.argmin(d2))
        node, head = points[k], headings[k]
        if 0 < k < last:
            denom = d2[k - 1] - 2 * d2[k] + d2[k + 1]
            offset = 0.5 * (d2[k - 1] - d2[k + 1]) / denom if abs(denom) > 1e-30 else 0.0
            offset = min(max(offset, -1.0), 1.0)
        else:
            offset = ((p[0] - node[0]) * head[0] + (p[1] - node[1]) * head[1]) / h
            offset = min(offset, 0.0) if k == 0 else max(offset, 0.0)
        s[i] = params[k] + offset * h
        foot = node + (offset * h) * head
        dist[i] = (p[0] - foot[0]) * -head[1] + (p[1] - foot[1]) * head[0]
        tang[i] = head
    return s, dist, tang


def _ref_cubic(field, p0, p1, h0, h1, spacing):
    d, _ = _aligned_direction(field, np.array([p0, p1]), np.array([h0, h1]))
    d0, d1 = spacing * d[0], spacing * d[1]
    chord = p1 - p0
    return p0, d0, 3 * chord - 2 * d0 - d1, d1 + d0 - 2 * chord


def _ref_cubic_at(coef, t):
    c0, c1, c2, c3 = coef
    return c0 + t * (c1 + t * (c2 + t * c3)), c1 + t * (2 * c2 + 3 * t * c3)


def _ref_newton(mover, target, sigma, tau):
    for _ in range(HERMITE_NEWTON_STEPS):
        (mx, my), (mdx, mdy) = _ref_cubic_at(mover, sigma)
        (tx, ty), (tdx, tdy) = _ref_cubic_at(target, tau)
        rx, ry = mx - tx, my - ty
        det = mdx * -tdy - -tdx * mdy
        sigma = sigma - (-tdy * rx - -tdx * ry) / det
        tau = tau - (-mdy * rx + mdx * ry) / det
    return sigma, tau


def _ref_hermite_crossing(field, p0, p1, h0, h1, spacing, dist, foot, proj):
    """The crossing of one mover step with the one-row proj."""
    mover = _ref_cubic(field, p0, p1, h0, h1, spacing)
    sigma = dist[0] / (dist[0] - dist[1])
    guess = foot[0] + sigma * (foot[1] - foot[0])
    t_step, last = proj.step[0], proj.last[0]

    def target_at(node):
        return _ref_cubic(proj.field, proj.points[0, node], proj.points[0, node + 1],
                          proj.headings[0, node], proj.headings[0, node + 1], t_step)

    node = int(np.clip(np.floor((guess - proj.params[0, 0]) / t_step), 0, last - 1))
    tau = (guess - proj.params[0, node]) / t_step
    sigma, tau = _ref_newton(mover, target_at(node), sigma, tau)
    if not abs(tau - 0.5) <= 0.5 + SEGMENT_SLACK:
        moved = int(np.clip(node + (-1 if tau < 0.5 else 1), 0, last - 1))
        sigma, tau = _ref_newton(mover, target_at(moved), sigma, tau - (moved - node))
        node = moved
        if not abs(tau - 0.5) <= 0.5 + SEGMENT_SLACK:
            raise SignAmbiguity("crossing outside the target segments")
    m_d = _ref_cubic_at(mover, sigma)[1]
    t_d = _ref_cubic_at(target_at(node), tau)[1]
    s_prime = proj.params[0, node] + tau * t_step
    return s_prime, line_angle(m_d[None, :], t_d[None, :])[0]


def _ref_cross_to_target(field, starts, tau2, budget, step,
                         tangency_threshold=TANGENCY_THRESHOLD):
    proj = tau2
    pts = np.atleast_2d(np.asarray(starts, dtype=float)).copy()
    m = len(pts)
    prev_foot, prev_dist, tang = _ref_project(proj, pts)
    hd = np.atleast_2d(field.direction_at(np.mod(pts, 1.0)))
    for i in range(m):
        rate = hd[i, 0] * -tang[i, 1] + hd[i, 1] * tang[i, 0]
        hd[i] *= -np.sign(prev_dist[i] * rate) or 1.0
    s_out = np.full(m, np.nan)
    ang_out = np.full(m, np.nan)
    active = np.ones(m, dtype=bool)
    prev_pts, prev_hd = pts.copy(), hd
    for _ in range(int(math.ceil(budget / step))):
        if not active.any():
            break
        new_pts = prev_pts.copy()
        new_hd = prev_hd.copy()
        stepped, hd_step, worst = _rk4_step(field, prev_pts[active], prev_hd[active], step)
        if worst.min() < math.cos(SIGN_CONTINUITY_LIMIT):
            raise SignAmbiguity("field too rough along holonomy leaf")
        new_pts[active] = stepped
        new_hd[active] = hd_step
        new_foot, new_dist, _ = _ref_project(proj, new_pts)
        flipped = active & (np.sign(new_dist) != np.sign(prev_dist))
        for i in np.where(flipped)[0]:
            s_out[i], ang_out[i] = _ref_hermite_crossing(
                field, prev_pts[i], new_pts[i], prev_hd[i], new_hd[i], step,
                (prev_dist[i], new_dist[i]), (prev_foot[i], new_foot[i]), proj)
            active[i] = False
        prev_pts, prev_hd, prev_dist, prev_foot = new_pts, new_hd, new_dist, new_foot
    if active.any():
        raise LeafEscaped(f"{int(active.sum())} leaves did not reach the transversal")
    if np.any(ang_out < tangency_threshold):
        raise TangencySuspected("shallow crossing")
    return s_out, ang_out


@pytest.fixture(params=["linear", "conjugated"])
def frame_fields(request):
    """Unstable and stable fields of the first generator, linear or
    conjugated by phi = id + (0.02 sin 2 pi x2, 0)."""
    fields = request.getfixturevalue(
        "linear_fields" if request.param == "linear" else "conj_fields")
    return fields["f1u"], fields["f1s"]


def test_leaf_evaluate_matches_scalar_reference(frame_fields):
    f1u, _ = frame_fields
    seg = integrate_leaf(f1u, np.array([0.3, 0.6]), 0.5, step=4e-3, centered=True)
    lo, hi = seg.params[0, 0], seg.params[0, -1]
    s = np.array([
        seg.params[0, 17],            # exactly on an interior node
        seg.params[0, 17] + 0.37 * seg.step[0],
        -0.1234,
        0.2718,
        lo,                           # the end nodes themselves
        hi,
        lo - 0.3 * seg.step[0],       # clipped to the first node: negative ds
        lo - 2.5 * seg.step[0],
        hi + 0.4 * seg.step[0],       # clipped to the last node
        hi + 3.0 * seg.step[0],
    ])
    pts, tangents = seg.evaluate(s)
    ref = [_ref_at(seg, si) for si in s]
    assert np.array_equal(pts, np.array([r[0] for r in ref]))
    assert np.array_equal(tangents, np.array([r[1] for r in ref]))
    assert np.array_equal(pts[0], seg.points[0, 17])
    for si, (p, t) in zip(s, ref):
        one_p, one_t = seg.evaluate([si])
        assert np.array_equal(one_p[0], p)
        assert np.array_equal(one_t[0], t)


def test_project_refine_matches_scalar_reference(frame_fields):
    # the parabolic refinement of the nearest-node offset and the linear foot
    f1u, f1s = frame_fields
    tau = integrate_leaf(f1u, np.array([0.3, 0.6]), 0.5, step=4e-3, centered=True)
    across = integrate_leaf(f1s, tau.evaluate([0.05])[0][0], 0.2, step=1e-3, centered=True)
    x = np.concatenate([across.points[0, ::7], tau.points[0, 5:8], tau.points[0, [0, -1]] + 0.01])
    for got, want in zip(tau.project(x), _ref_project(tau, x)):
        assert np.array_equal(got, want)


def _steps_around_crossing(f1u, f1s, step, offsets):
    """Steps of ``step`` along stable leaves through points of an unstable
    transversal, each starting ``offset * step`` before its crossing
    (negative: past it) with headings toward the transversal: both ends'
    nodes and headings, (2, m, 2) each, and fast distances and foot
    parameters, (2, m) each; and the transversal."""
    tau = integrate_leaf(f1u, np.array([0.3, 0.6]), 0.6, step=4e-3, centered=True)
    nodes, heads = [], []
    for k, a in enumerate(offsets):
        base = tau.evaluate([-0.2 + 0.037 * k])[0][0]
        leaf = integrate_leaf(f1s, base, 0.1, step=step, centered=True)
        p, t = leaf.evaluate([-a * step])
        nodes.append(p[0])
        heads.append(t[0])
    nodes, heads = np.array(nodes), np.array(heads)
    ends, end_heads, _ = _rk4_step(f1s, nodes, heads, step)
    foot, dist = np.empty((2, len(offsets))), np.empty((2, len(offsets)))
    for e, p in enumerate((nodes, ends)):
        foot[e], dist[e], _ = tau.project(p)
    return np.array([nodes, ends]), np.array([heads, end_heads]), dist, foot, tau


def test_refine_crossings_matches_scalar_reference(frame_fields):
    # the Hermite solve of bracketed crossings
    f1u, f1s = frame_fields
    step = 4e-3
    # inside [0, step], and 0.3 and 0.7 step past the crossing
    offsets = [0.5, 0.05, 0.93, -0.3, -0.7, 0.25]
    nodes, heads, dist, foot, tau = _steps_around_crossing(f1u, f1s, step, offsets)
    m = len(offsets)
    sigma, s, angle, point = _hermite_crossings(f1s, nodes, heads, np.full(m, step), dist,
                                                foot, tau, np.zeros(m, dtype=int))
    ref = [_ref_hermite_crossing(f1s, nodes[0, i], nodes[1, i], heads[0, i], heads[1, i], step,
                                 dist[:, i], foot[:, i], tau) for i in range(m)]
    assert np.array_equal(s, np.array([r[0] for r in ref]))
    assert np.array_equal(angle, np.array([r[1] for r in ref]))
    # a foot guess one target node too far: the first solve leaves the
    # target segment, and the second, on the adjacent one, finds the crossing
    far = foot[:, :1] + tau.step[0]
    _, s_far, _, _ = _hermite_crossings(f1s, nodes[:, :1], heads[:, :1], np.array([step]),
                                        dist[:, :1], far, tau, np.zeros(1, dtype=int))
    ref_far = _ref_hermite_crossing(f1s, nodes[0, 0], nodes[1, 0], heads[0, 0], heads[1, 0],
                                    step, dist[:, 0], far[:, 0], tau)[0]
    assert s_far[0] == ref_far
    assert abs(s_far[0] - s[0]) < 1e-12
    # the crossing point is the transversal's point at s, sigma of a step along the mover
    assert np.max(np.abs(tau.evaluate(s)[0] - point)) < 1e-10
    assert np.all((sigma > -1.0) & (sigma < 2.0))


def test_cross_to_target_matches_scalar_reference(frame_fields):
    f1u, f1s = frame_fields
    tau2 = integrate_leaf(f1u, np.array([0.3, 0.6]), 0.8, step=4e-3, centered=True)
    near = integrate_leaf(f1s, tau2.evaluate([0.1])[0][0], 0.5, step=1e-3, centered=True)
    # starts on both sides of tau2, and one on it
    starts = np.concatenate([near.evaluate(np.linspace(-0.2, 0.2, 9))[0],
                             tau2.points[0, [60]]])
    for step in (4e-3, 1e-3):
        s, angle = _cross_to_target(f1s, starts, tau2, budget=0.5, step=step)
        s_ref, angle_ref = _ref_cross_to_target(f1s, starts, tau2, budget=0.5, step=step)
        assert np.array_equal(s, s_ref)
        assert np.array_equal(angle, angle_ref)


def _offsets_along(field, base, dists):
    """Points at the given arc lengths from base along the leaf of field."""
    leaf = integrate_leaf(field, base, 2.2 * max(abs(d) for d in dists), step=1e-3,
                          centered=True)
    return leaf.evaluate(np.asarray(dists, dtype=float))[0]


def test_cross_to_target_reports_escaped_leaf_count(linear_fields):
    tau2 = integrate_leaf(linear_fields["f1u"], np.zeros(2), 0.6, centered=True)
    starts = _offsets_along(linear_fields["f1s"], np.zeros(2), [0.05, -0.1, 0.15, 0.3, -0.4])
    with pytest.raises(LeafEscaped, match="^2 leaves did not reach"):
        _cross_to_target(linear_fields["f1s"], starts, tau2, budget=0.2, step=1e-3)


def test_cross_to_target_shallow_crossing_raises(e1, linear_fields):
    v_u = np.asarray(e1.vu)
    tilt = math.atan2(v_u[1], v_u[0]) + 0.005
    shallow = LineField(None, np.full((2, 2), tilt))
    tau2 = integrate_leaf(linear_fields["f1u"], np.zeros(2), 0.6, centered=True)
    starts = _offsets_along(linear_fields["f1s"], np.zeros(2), [5e-4, -3e-4])
    with pytest.raises(TangencySuspected):
        _cross_to_target(shallow, starts, tau2, budget=0.3, step=1e-3)


def test_cross_to_target_crossing_off_target_raises(e1, linear_fields):
    # the fast distance extends the transversal's end nodes along their
    # headings, so a leaf crossing that extension 0.05 past the last node
    # brackets a crossing that no target segment holds
    f1s = linear_fields["f1s"]
    v_u, v_s = np.asarray(e1.vu), np.asarray(e1.vs)
    tau2 = integrate_leaf(linear_fields["f1u"], np.zeros(2), 0.2, step=4e-3, centered=True)
    # inside, past the end, and out of reach
    starts = np.array([0.02 * v_u + 0.05 * v_s, 0.15 * v_u + 0.05 * v_s, -0.05 * v_u + 0.5 * v_s])
    with pytest.raises(SignAmbiguity):
        _ref_cross_to_target(f1s, starts[1:2], tau2, budget=0.2, step=4e-3)
    # the crossing solve runs before the escape check
    with pytest.raises(SignAmbiguity, match=r"^crossing outside .*\[b\]$"):
        _cross_to_target(f1s, starts, tau2, budget=0.2, step=4e-3, tags=["a", "b", "c"])
