"""Leaves and leaf crossings against closed forms.

For the linear action every leaf is straight, so a crossing is exact up to
rounding.  For an action conjugated by phi = id + q every leaf is the
phi-image of a straight line: the leaf of E^u through phi(x) is
t -> phi(x + t v_u), and likewise for E^s.  So heteroclinic points and
holonomy landings are phi-images of intersections of lines, and the
shooting solve finds them to rounding (measured at most 2.3e-14 from the
phi-images at phi = id + (0.15 sin 2 pi x2, 0), 2.2e-15 at 0.02).
Shot leaves (``integrate_leaf``) map under phi^-1 onto straight lines to
rounding, at the arc lengths of the phi-images of those lines, and the
holonomy factorization is the phi-image of one of lines.
"""

import json
import math

import numpy as np
from hypothesis import given, settings

from anosov_lab.cli import main as cli_main
from anosov_lab.foliations import (
    LeafBundle,
    _line,
    chord_arc_length,
    heteroclinic_points,
    holonomy,
    integrate_leaf,
)
from anosov_lab.fourier import FourierPerturbation
from anosov_lab.maps import ConjugatedMap, Diffeo
from anosov_lab.rigidity import factor_translation_linear, factor_translation_numeric

from strategies import BOUNDS, TWO_MODES, two_mode_diffeo

ORACLE = 1e-13


def _phi(a):
    """phi = id + (a sin 2 pi x2, 0)."""
    return Diffeo(FourierPerturbation.from_sin_cos([((0, 1), (a, 0.0), None)]))


def _inverse(phi, y):
    """phi^-1(y) to rounding: two Newton steps past the stop of
    ``Diffeo.inverse_lift``, whose residual may be up to 1e-12."""
    w = phi.inverse_lift(y)[0]
    for _ in range(2):
        w = w - np.linalg.solve(phi.derivative(w), (phi.lift(w) - y)[..., None])[..., 0]
    return w


def _heteroclinic_gap(phi, e1, radius):
    """Largest distance of the shot heteroclinic lifts of g = phi A phi^-1
    through phi(x0) from the phi-images of the linear ones through x0."""
    x0 = np.array([0.13, 0.4])
    linear = heteroclinic_points(x0, e1, radius)
    got = heteroclinic_points(phi.lift(x0[None])[0], e1, radius, ConjugatedMap(phi, e1))
    assert [h.lattice for h in got] == [h.lattice for h in linear]
    return max(float(np.max(np.abs(np.array([getattr(h, lift) for h in got])
                                   - phi.lift(np.array([getattr(h, lift) for h in linear])))))
               for lift in ("lift", "lift_s"))


def _holonomy_gap(phi, e1):
    """Largest distance, along the normal of v_s, of phi^-1 of the landings
    of the stable leaves through phi(x0 + u v_u) on a straight line through
    phi(x0 + 0.2 v_s) from the lines x0 + u v_u + R v_s."""
    x0 = np.array([0.13, 0.4])
    u = np.linspace(-0.1, 0.1, 25)
    starts = phi.lift(x0 + u[:, None] * e1.vu)
    origin = np.broadcast_to(phi.lift((x0 + 0.2 * np.asarray(e1.vs))[None]), starts.shape)
    direction = np.broadcast_to(np.array([0.8, 0.6]), starts.shape)
    t = holonomy(ConjugatedMap(phi, e1), starts, _line(origin, direction), u)
    back = _inverse(phi, origin + t[:, None] * direction) - (x0 + u[:, None] * e1.vu)
    return float(np.max(np.abs(back @ np.array([-e1.vs[1], e1.vs[0]]))))


def test_conjugated_heteroclinic_points_are_phi_images(e1):
    for radius in (1, 2):
        assert _heteroclinic_gap(_phi(0.02), e1, radius) <= ORACLE, radius


def test_strongly_conjugated_heteroclinic_points_are_phi_images(e1):
    # |D q| = 0.94
    for radius in (1, 2):
        assert _heteroclinic_gap(_phi(0.15), e1, radius) <= ORACLE, radius


def test_conjugated_holonomy_lands_on_line_intersection(e1):
    for a in (0.02, 0.15):
        assert _holonomy_gap(_phi(a), e1) <= ORACLE, a


@settings(max_examples=5, derandomize=True, deadline=None)
@given(modes=TWO_MODES, bound=BOUNDS)
def test_drawn_two_mode_crossings_are_phi_images(e1, modes, bound):
    phi = two_mode_diffeo(modes, bound)
    if phi is None:
        return
    assert _heteroclinic_gap(phi, e1, 1) <= ORACLE
    assert _holonomy_gap(phi, e1) <= ORACLE


def test_linear_factorization_is_exact(linear_g1, linear_g2):
    for s in (1.0, -0.5):
        num = factor_translation_numeric(linear_g1, linear_g2, s)
        assert num.numeric_deviation <= 1e-13, s


# --- Arc length along phi-images of lines, by composite Gauss-Legendre
# quadrature of |D phi(x + r d) d| on panels of width at most 0.02

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _gl_arc(phi, x, d, r):
    """Signed arc length of rho -> phi(x + rho d) over [0, r], for each r of
    the 1-D array r and x (2,) or one row of x per r: the panels of [0, r]
    summed from 0."""
    n = np.maximum(1, np.ceil(np.abs(r) / 0.02)).astype(int)
    total = np.zeros(len(r))
    for k in range(int(n.max())):
        a, b = r * (np.minimum(k, n) / n), r * (np.minimum(k + 1, n) / n)
        rho = (a + b)[:, None] / 2 + (b - a)[:, None] / 2 * GL_NODES
        pts = (np.broadcast_to(x, (len(r), 2))[:, None] + rho[:, :, None] * d).reshape(-1, 2)
        speed = np.linalg.norm(np.einsum("nij,j->ni", phi.derivative(pts), d), axis=1)
        total += (b - a) / 2 * (speed.reshape(rho.shape) @ GL_WEIGHTS)
    return total


def _leaf_oracle(phi, leaf, x, d):
    """Largest distance of phi^-1 of the leaf's nodes from the line
    x + R d, and largest gap of the nodes' s from the arc length of
    phi(x + rho d) up to their coordinates rho along d."""
    back = _inverse(phi, leaf.points) - x
    normal = np.array([-d[1], d[0]])
    rho = back @ d
    gap = np.max(np.abs(_gl_arc(phi, x, d, rho) - leaf.params))
    return float(np.max(np.abs(back @ normal))), float(gap)


def test_gl_arc_of_a_line_is_its_length():
    phi = Diffeo(FourierPerturbation.zero())
    d = np.array([0.6, 0.8])
    r = np.array([-1.3, -0.01, 0.0, 0.2, 1.5])
    np.testing.assert_allclose(_gl_arc(phi, np.zeros(2), d, r), r, rtol=0, atol=1e-15)


def test_conjugated_leaves_are_phi_images_of_lines(e1):
    # every node of a shot leaf of length 3.0 lies on the phi-image of its
    # line, at the arc length of that image: measured up to 3.6e-13 on the
    # unstable leaves and 4.3e-12 on the stable ones at phi 0.15, whose
    # graphs over v_s are steeper, so that the chord sums' dr^4 error is
    # larger there
    for a in (0.02, 0.15):
        phi = _phi(a)
        g = ConjugatedMap(phi, e1)
        for x in (np.array([0.13, 0.4]), np.array([0.9, 0.05])):
            for handle, d, arc_tol in ((g.inverse(), e1.vu, 1e-12), (g, e1.vs, 1e-11)):
                leaf = integrate_leaf(handle, phi.lift(x[None])[0], 3.0, centered=True)
                off, gap = _leaf_oracle(phi, leaf, x, np.asarray(d))
                assert off <= 1e-12 and gap <= arc_tol, (a, x, d, off, gap)


def test_foliation_leaf_table_is_a_phi_image(tmp_path, e1):
    # leaf-f1u.csv: the unstable leaf of g1 through 0, of length 1.0
    for a in (0.02, 0.15):
        out = tmp_path / str(a)
        assert cli_main(["foliation", "--set", "action.kind=conjugated",
                         "--set", f'action.diffeo=[{{"k":[0,1],"sin":[{a},0]}}]',
                         "--set", "resolution.field_n=16", "--out", str(out)]) == 0
        table = np.loadtxt(out / "leaf-f1u.csv", delimiter=",", skiprows=1)
        assert len(table) == 1001
        leaf = LeafBundle(table[:, 0], table[:, 3:], None, None)
        off, gap = _leaf_oracle(_phi(a), leaf, np.zeros(2), np.asarray(e1.vu))
        assert off <= 1e-12 and gap <= 1e-12, (a, off, gap)


def test_chord_arc_length_is_fourth_order():
    # the unit circle through angles [0, 1]: its arc length is the angle
    errors = []
    for n in (8, 16, 32):
        angle = np.linspace(0.0, 1.0, 2 * n + 1)
        s = chord_arc_length(np.column_stack([np.cos(angle), np.sin(angle)]))
        errors.append(float(np.max(np.abs(s - angle[::2]))))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(3.9 <= p <= 4.1 for p in orders), (errors, orders)


def _factorization_oracle(phi, e1, e2, s):
    """(t, deviation) of the slide of the 9 samples phi(r v_1^u) at arc
    lengths y in [-0.1, 0.1] along phi(r v_1^u + R v_1^s) by arc length
    s |v_1^s| (first-coordinate-1 normalization), then along
    phi(. + R v_2^s) back to phi(R v_1^u): every leaf is the phi-image of a
    line, so the landing is the phi-image of the lines' intersection."""
    vu, vs, vs2 = (np.asarray(v) for v in (e1.vu, e1.vs, e2.vs))
    lin = factor_translation_linear(e1, e2, s)
    scale_1s, scale_1u = 1.0 / abs(vs[0]), 1.0 / abs(vu[0])
    y = np.linspace(-0.1, 0.1, 9)

    def coordinate_at(x, d, arc):
        """rho with arc length ``arc`` (9,) along phi(x + rho d), x (9, 2),
        by Newton on the Gauss-Legendre arc length."""
        rho = arc.copy()
        for _ in range(8):
            length = _gl_arc(phi, x, d, rho)
            speed = np.linalg.norm(np.einsum("nij,j->ni", phi.derivative(x + rho[:, None] * d),
                                             d), axis=1)
            rho -= (length - arc) / speed
        return rho

    r = coordinate_at(np.zeros((9, 2)), vu, y)
    rho = coordinate_at(r[:, None] * vu, vs, np.full(9, s * scale_1s))
    # r v_u + rho v_s + mu v_s2 = r' v_u
    r_land = np.linalg.solve(np.column_stack([vu, -vs2]), (r[:, None] * vu + rho[:, None] * vs).T)[0]
    landed = _gl_arc(phi, np.zeros(2), vu, r_land)
    pred = lin.translation_t * scale_1u
    return float(np.mean(landed - y)) / scale_1u, float(np.max(np.abs(landed - (y + pred))))


def test_strongly_conjugated_factorization_is_a_phi_image(tmp_path, e1, e2):
    # at |D q| = 0.94 D phi v_s has a negative first coordinate near
    # x2 = 0, so a slide that took the stable field's canonical sign at
    # each start slid backwards (t = +0.7746 at s = 1); measured within
    # 2.1e-11 of the oracle
    phi = _phi(0.15)
    for s in (1.0, -1.0, -0.5):
        out = tmp_path / str(s)
        cli_main(["factorize", "--set", "action.kind=conjugated",
                  "--set", 'action.diffeo=[{"k":[0,1],"sin":[0.15,0]}]',
                  "--set", f"experiment.slide_s={s}", "--out", str(out)])
        diag = json.loads((out / "factorize-report.json").read_text())["diagnostics"]
        t, deviation = _factorization_oracle(phi, e1, e2, s)
        assert np.sign(diag["numeric"]["t"]) == np.sign(diag["linear"]["t"]), (s, diag)
        assert abs(diag["numeric"]["t"] - t) <= 1e-10, (s, diag, t)
        assert abs(diag["numeric"]["deviation"] - deviation) <= 1e-10, (s, diag, deviation)
