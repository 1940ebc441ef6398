import math

import numpy as np
import pytest

from anosov_lab.errors import (
    AnosovLabError,
    DomainMismatch,
    NonMonotoneG,
    NotConverged,
    RadiusOutOfRange,
    TangencySuspected,
)
from anosov_lab import foliations
from anosov_lab.foliations import (
    LineField,
    _line,
    _orbit_row,
    compute_line_field,
    heteroclinic_points,
    holonomy,
    integrate_leaf,
    local_graph,
    min_transversality_angle,
)
from anosov_lab.interp import MonotoneCubic
from anosov_lab.lattice import grid_points, line_angle, wrap_point
from anosov_lab.rigidity import tangency_propagation_check


def test_constant_field_leaves_are_straight(e1, linear_g1):
    seg = integrate_leaf(linear_g1.inverse(), np.array([0.2, 0.3]), 1.0)
    chords = seg.points - seg.points[0]
    v = np.asarray(e1.vu)
    cross = chords[:, 0] * v[1] - chords[:, 1] * v[0]
    assert np.max(np.abs(cross)) < 1e-12
    # arc-length parametrization: node spacing == parameter spacing
    lens = np.linalg.norm(np.diff(seg.points, axis=0), axis=1)
    assert np.allclose(lens, np.diff(seg.params), atol=1e-12)


def test_leaf_point_at_interpolates(linear_g1, e1):
    # the node at arc length s of the centered linear leaf is s v_u, its
    # heading v_u, and the nodes run from -0.5 to 0.5 at spacing 1e-3
    seg = integrate_leaf(linear_g1.inverse(), np.zeros(2), 1.0, centered=True)
    v = np.asarray(e1.vu)
    assert seg.last == 1000 and seg.step == pytest.approx(1e-3, abs=1e-15)
    assert seg.params[0] == -0.5 and seg.params[-1] == 0.5
    assert np.max(np.abs(seg.points - seg.params[:, None] * v)) < 1e-12
    assert np.max(np.abs(seg.headings - v)) < 1e-15


def test_leaf_reversal(linear_g1, e1):
    x = np.array([0.6, 0.1])
    fwd = integrate_leaf(linear_g1, x, 0.5)
    bwd = integrate_leaf(linear_g1, x, -0.5)
    assert fwd.params[300] == pytest.approx(0.3, abs=1e-15)
    assert bwd.params[200] == pytest.approx(-0.3, abs=1e-15)
    # symmetric points are reflections through x, and s grows along v_s
    assert np.allclose(fwd.points[300] + bwd.points[200], 2 * x, atol=1e-12)
    assert (fwd.points[300] - x) @ np.asarray(e1.vs) == pytest.approx(0.3, abs=1e-12)


def test_line_field_invariance(conj_fields):
    # the stored grid directions pushed by D g against the field read at
    # their images: measured up to 3.5e-14 (f1s, whose angle errors D g
    # stretches by about lambda_u^2 = 6.9), a margin of about 3
    for field in conj_fields.values():
        assert field.invariance_error() < 1e-13


@pytest.mark.parametrize("kind", ["linear_fields", "conj_fields"])
def test_grid_angles_are_the_angles_read_at_the_grid_points(request, kind):
    # the grid is the one orbit read at every node, so no lookup of a node
    # differs from its stored angle
    for key, field in request.getfixturevalue(kind).items():
        n = field.grid_size
        assert np.array_equal(field.theta, field.angle_at(grid_points(n)).reshape(n, n)), key


def test_line_field_convergence_rate(conj_g1):
    # the kernel of l . D G^m moves by a factor of about lambda_u^-2 = 0.146
    # less from m to m + 1 than from m - 1 to m
    for handle in (conj_g1, conj_g1.inverse()):
        rows = [_orbit_row(handle, grid_points(64), m) for m in range(1, 13)]
        changes = [float(np.max(line_angle(a, b))) for a, b in zip(rows, rows[1:])]
        ratios = np.array(changes[1:]) / np.array(changes[:-1])
        assert np.all((ratios >= 0.08) & (ratios <= 0.25)), ratios


def test_line_field_not_converged_names_the_change(conj_g1, monkeypatch):
    # the phi 0.02 field moves by about 3e-12 from orbit length 12 to 16
    field = compute_line_field(conj_g1, "unstable", n=16)
    assert 0 < field.change <= foliations.FIELD_TOL
    monkeypatch.setattr(foliations, "FIELD_TOL", 1e-13)
    with pytest.raises(NotConverged, match=r"^angular change \S+ rad between orbit lengths "
                       r"12 and 16 above 1\.0e-13$"):
        compute_line_field(conj_g1, "unstable", n=16)


def _ref_line_field_theta(g, label, n, iters):
    """The line-field transport with one inverse solve for the orbit and
    another inside each jacobian, pushed forward from depth ``iters``."""
    handle = g if label == "unstable" else g.inverse()
    seed_dir = handle.element.vu
    orbit = [grid_points(n)]
    for _ in range(iters):
        orbit.append(wrap_point(handle.inverse().lift(orbit[-1])))
    v = np.broadcast_to(seed_dir, orbit[0].shape).copy()
    for j in range(iters, 0, -1):
        v = np.einsum("nij,nj->ni", handle.jacobian(orbit[j]), v)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    return np.mod(np.arctan2(v[:, 1], v[:, 0]), math.pi).reshape(n, n)


def _angle_gap(a, b):
    d = np.abs(a - b)
    return float(np.max(np.minimum(d, math.pi - d)))


def _assert_matches_full_depth_transport(g, label):
    # the kernel at orbit length 16 is within lambda_u^-32 = 4e-14 of the
    # limit, as the depth-40 push is (measured up to 2.7e-14)
    field = compute_line_field(g, label, n=32)
    assert field.change <= foliations.FIELD_TOL
    assert _angle_gap(field.theta, _ref_line_field_theta(g, label, 32, 40)) < 1e-12


@pytest.mark.parametrize("label", ["unstable", "stable"])
def test_line_field_shared_inverse_matches_two_solves(conj_g1, label):
    # one phi^{-1} solve gives the whole orbit in phi's chart
    _assert_matches_full_depth_transport(conj_g1, label)


@pytest.mark.parametrize("label", ["unstable", "stable"])
def test_perturbed_line_field_matches_full_depth_transport(perturbed_g1, label):
    # the unstable field steps the Newton inverse of the forward map
    _assert_matches_full_depth_transport(perturbed_g1, label)


@pytest.mark.parametrize("label", ["unstable", "stable"])
def test_linear_line_field_is_the_full_depth_transport(linear_g1, label):
    # the orbits are exact powers of A, so each field is its eigenline, v_u
    # or v_s, to rounding
    field = compute_line_field(linear_g1, label, n=16)
    eigen = linear_g1.element
    line = eigen.vu if label == "unstable" else eigen.vs
    eigenline = np.full((16, 16), math.atan2(line[1], line[0]) % math.pi)
    assert field.change < 1e-15
    assert _angle_gap(field.theta, eigenline) < 1e-15
    assert _angle_gap(field.theta, _ref_line_field_theta(linear_g1, label, 16, 40)) < 1e-15


def test_leaf_invariance_under_map(conj_g1, conj_fields):
    # the image of an unstable leaf point stays on the unstable leaf
    # through the image basepoint: compare field directions along images
    seg = integrate_leaf(conj_g1.inverse(), np.array([0.15, 0.67]), 0.2)
    img = conj_g1.lift(seg.points)
    d = conj_fields["f1u"].direction_at(np.mod(img, 1.0))
    chords = np.diff(img, axis=0)
    chords = chords / np.linalg.norm(chords, axis=1, keepdims=True)
    dots = np.abs(np.einsum("ni,ni->n", chords, d[:-1]))
    assert np.min(dots) > 1.0 - 1e-4


def _lines(origin, direction, m):
    """m rows of the straight transversal origin + t direction."""
    return _line(np.broadcast_to(np.asarray(origin, dtype=float), (m, 2)),
                 np.broadcast_to(np.asarray(direction, dtype=float), (m, 2)))


def test_holonomy_identity_for_parallel_transversals(linear_g1, e1):
    # stable leaves from the unstable line through 0 to the one through
    # 0.3 v_s keep the parameter along v_u
    v_u, v_s = np.asarray(e1.vu), np.asarray(e1.vs)
    s = np.linspace(-0.2, 0.2, 11)
    t = holonomy(linear_g1, s[:, None] * v_u, _lines(0.3 * v_s, v_u, 11), np.zeros(11))
    assert np.max(np.abs(t - s)) < 1e-14


def test_holonomy_composition(conj_g1):
    # three tilted straight transversals, none of them a leaf
    lines = [(np.array([0.0, 0.0]), np.array([0.8, 0.6])),
             (np.array([0.1, -0.15]), np.array([0.9, 0.3])),
             (np.array([0.18, -0.3]), np.array([0.7, 0.7]) / math.sqrt(0.98))]
    s = np.linspace(-0.2, 0.2, 11)

    def hol(a, b, t):
        (oa, da), (ob, db) = lines[a], lines[b]
        return holonomy(conj_g1, oa + t[:, None] * da, _lines(ob, db, len(t)), t)

    assert np.max(np.abs(hol(1, 2, hol(0, 1, s)) - hol(0, 2, s))) < 1e-14


def test_holonomy_derivative_positive(conj_g1, e1):
    s = np.linspace(-0.2, 0.2, 25)
    t = holonomy(conj_g1, np.array([0.1, 0.1]) + s[:, None] * np.asarray(e1.vu),
                 _lines(np.array([0.25, 0.05]), e1.vu, 25), s)
    assert np.all(MonotoneCubic(s, t, "holonomy").derivative(s[2:-2]) > 0)


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


def test_integrate_leaf_names_non_monotone_arc_lengths(linear_g1, monkeypatch):
    # the leaf's nodes are read off the inverse of its arc lengths alone
    s = np.array([0.0, 0.3, 0.2, 0.6, 1.0])
    monkeypatch.setattr(foliations, "leaf_arc_lengths", lambda *a: (np.linspace(0.0, 1.0, 5), [s]))
    with pytest.raises(NonMonotoneG, match="^leaf arc length samples are not strictly monotone$"):
        integrate_leaf(linear_g1.inverse(), np.zeros(2), 1.0)


def test_tangency_raises_for_parallel_fields(linear_g1, e1):
    # a target transversal along the stable leaves themselves
    v_u, v_s = np.asarray(e1.vu), np.asarray(e1.vs)
    s = np.linspace(-0.2, 0.2, 5)
    with pytest.raises(TangencySuspected,
                       match=r"^min crossing angle 0\.0000 rad below 0\.01 \[a; b\]$"):
        holonomy(linear_g1, s[:, None] * v_u, _lines(0.2 * v_u, v_s, 5), s,
                 tags=["a", "a", "b", "a", "a"])


def test_leaf_that_misses_its_target_is_named_unconverged(conj_g1, e1):
    # a target circle of radius 0.01, given with its derivative dy/dt: the
    # stable leaf of the near start crosses it at t = -1.0482, and that of
    # a far start misses it, so Newton wanders off (last step 1.076e+02)
    def circle(t):
        return (np.array([0.3, 0.2]) + 0.01 * np.stack([np.cos(t), np.sin(t)], axis=1),
                0.01 * np.stack([-np.sin(t), np.cos(t)], axis=1))

    near = np.array([[0.3, 0.2]])
    assert holonomy(conj_g1, near, circle, np.array([0.0]))[0] == pytest.approx(-1.0482, abs=1e-4)
    with pytest.raises(NotConverged, match=r"^last Newton step \S+ above 1e-10 \[far\]$"):
        holonomy(conj_g1, np.vstack([near, near + 0.5 * np.asarray(e1.vu)]), circle,
                 np.array([0.0, 0.0]), tags=["near", "far"])


def test_shooting_stopped_short_names_its_rows(monkeypatch, linear_g1, e1):
    # one Newton step at the last orbit length, from the landing and from
    # 0.05 off it: the step that lands the second row is its last
    monkeypatch.setattr(foliations, "ORBIT_LENGTHS", (16,))
    monkeypatch.setattr(foliations, "NEWTON_STEPS", 1)
    v_u, v_s = np.asarray(e1.vu), np.asarray(e1.vs)
    s = np.array([0.0, 0.1])
    with pytest.raises(NotConverged, match=r"^last Newton step \S+ above 1e-10 \[off\]$"):
        holonomy(linear_g1, s[:, None] * v_u, _lines(0.3 * v_s, v_u, 2), s + [0.0, 0.05],
                 tags=["on", "off"])


def test_local_graph_slope_oracle(linear_g1, linear_g2, e1, e2):
    # the second stable direction expressed in the first eigen-frame:
    # v_2^s = a v_1^u + b v_1^s with slope b/a = 2 for the standard pair
    axes = np.array([[e1.vu, e1.vs]])
    theta, = local_graph(np.zeros((1, 2)), axes, np.array([e2.vs]), linear_g1, linear_g2, 0.05)
    assert float(theta.derivative(0.0)) == pytest.approx(2.0, abs=1e-13)
    assert abs(float(theta(0.0))) < 1e-16
    assert np.array_equal(theta.domain, (-0.05, 0.05))


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


def test_heteroclinic_lifts_differ_by_the_lattice_vector(conj_g1, e1):
    # closed form, as on the linear action: z + a v_u and z + b v_s
    for hp in heteroclinic_points(np.zeros(2), e1, 3):
        assert np.max(np.abs(hp.lift - hp.lift_s - hp.lattice)) <= 1e-15
    # shot: the stable lift plus k
    for hp in heteroclinic_points(np.zeros(2), e1, 2, conj_g1):
        assert np.array_equal(hp.lift, hp.lift_s + np.array(hp.lattice, dtype=float))
        assert np.max(np.abs(hp.lift - hp.lift_s - hp.lattice)) <= 1e-15


def test_perturbed_heteroclinic_points_lie_on_both_leaves(perturbed_g1, e1):
    # the defining separations of the stable leaf through z and the unstable
    # leaf through z - k, read at orbit length 20, past the solve's 16,
    # in units of lambda_u^20: at most 4.6e-16 on g = A + p
    z = np.array([0.2, 0.7])
    for g, ref in ((perturbed_g1, lambda hp: z), (perturbed_g1.inverse(),
                                                 lambda hp: z - np.array(hp.lattice))):
        ell = g.element.wu
        for hp in heteroclinic_points(z, e1, 1, perturbed_g1):
            apart = g.orbit(np.array([hp.lift_s, ref(hp)]), 20)[0] @ ell
            assert abs(apart[0] - apart[1]) <= 1e-13 * e1.lambda_u ** 20, hp.lattice


def test_graph_transport_linear(linear_fields):
    rows = tangency_propagation_check(
        linear_fields["f1u"], linear_fields["f1s"], linear_fields["f2s"],
        np.zeros(2), radius=1)
    assert len(rows) == 8
    # the holonomies and graphs are exact to rounding: 1.8e-15 and 2.9e-13
    assert max(r.transport_deviation for r in rows) <= 1e-14
    assert max(r.slope_difference for r in rows) <= 2e-12


def test_graph_transport_smooth(conj_fields):
    rows = tangency_propagation_check(
        conj_fields["f1u"], conj_fields["f1s"], conj_fields["f2s"],
        np.zeros(2), radius=1)
    assert len(rows) == 8
    # the splines of the shot samples set both: 1.6e-12 and 7.0e-10
    assert max(r.transport_deviation for r in rows) <= 1e-11
    assert max(r.slope_difference for r in rows) <= 5e-9
    assert min(r.angle for r in rows) > 0.05


# --- Scalar reference for the batched leaf projection, one point at a
# time.  The batched code does the same arithmetic per point, so results
# must be equal bit for bit, not merely close.

def _ref_project(proj, x):
    """Nearest node, parabolic offset and linear foot, point by point."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    params, points, headings = proj.params, proj.points, proj.headings
    h, last = proj.step, proj.last
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


@pytest.fixture(params=["linear", "conjugated"])
def frame_map(request):
    """The first generator's map, linear or conjugated by
    phi = id + (0.02 sin 2 pi x2, 0)."""
    return request.getfixturevalue("linear_g1" if request.param == "linear" else "conj_g1")


def test_project_refine_matches_scalar_reference(frame_map):
    # the parabolic refinement of the nearest-node offset and the linear foot
    tau = integrate_leaf(frame_map.inverse(), np.array([0.3, 0.6]), 0.5, centered=True)
    across = integrate_leaf(frame_map, tau.points[300], 0.2, centered=True)
    x = np.concatenate([across.points[::7], tau.points[5:8], tau.points[[0, -1]] + 0.01])
    for got, want in zip(tau.project(x), _ref_project(tau, x)):
        assert np.array_equal(got, want)
