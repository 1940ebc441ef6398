"""Leaves and leaf crossings against closed forms.

For the linear action every leaf is straight, so a crossing is exact up to
rounding.  For an action conjugated by phi = id + q every leaf is the
phi-image of a straight line: the leaf of E^u through phi(x) is
t -> phi(x + t v_u), and likewise for E^s.  So heteroclinic points and
holonomy landings are phi-images of intersections of lines, and the
shooting solve finds them to rounding (measured at most 2.3e-14 from the
phi-images at phi = id + (0.15 sin 2 pi x2, 0), 2.2e-15 at 0.02).
Integrated leaves map under phi^-1 onto straight lines to the accuracy of
the line field.
"""

import math

import numpy as np
from hypothesis import given, settings

from anosov_lab.foliations import _line, heteroclinic_points, holonomy, integrate_leaf
from anosov_lab.fourier import FourierPerturbation
from anosov_lab.maps import ConjugatedMap, Diffeo
from anosov_lab.rigidity import factor_translation_numeric

from strategies import BOUNDS, TWO_MODES, two_mode_diffeo

STEPS = (4e-3, 8e-3)
ORACLE = 1e-13


def _phi(a):
    """phi = id + (a sin 2 pi x2, 0)."""
    return Diffeo(FourierPerturbation.from_sin_cos([((0, 1), (a, 0.0), None)]))


def _inverse(phi, y):
    """phi^-1(y) to rounding: two Newton steps past the stop of
    ``Diffeo.inverse_lift``, whose residual may be up to 1e-12."""
    w = phi.inverse_lift(y)
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


def test_linear_factorization_is_exact(linear_fields, e1, e2):
    tau = integrate_leaf(linear_fields["f1u"], np.zeros(2), 3.0, step=1e-3, centered=True)
    for step in STEPS:
        num = factor_translation_numeric(linear_fields["f1s"], linear_fields["f2s"], tau, e1,
                                         e2, 1.0, step=step)
        assert num.numeric_deviation <= 1e-13, step


def _leaf_gap(field, phi, vu, step):
    """Largest distance of phi^-1 of the nodes of leaves of ``field``
    through phi(x) from the lines x + t v_u, over four x; each leaf is
    centered, of length 1.6."""
    xs = np.array([[0.1, 0.2], [0.37, 0.81], [0.6, 0.45], [0.9, 0.05]])
    normal = np.array([-vu[1], vu[0]])
    return max(float(np.max(np.abs(
        (phi.inverse_lift(integrate_leaf(field, phi.lift(x[None])[0], 1.6, step=step,
                                         centered=True).points[0]) - x) @ normal)))
        for x in xs)


def test_conjugated_leaves_are_phi_images_of_lines(conj_fields, phi02, e1):
    vu = np.asarray(e1.vu)
    # at the propagation steps the field's own error sets the gap (1.9e-10)
    for step in STEPS:
        assert _leaf_gap(conj_fields["f1u"], phi02, vu, step) < 5e-10, step
    # at coarse steps RK4's step^4 error dominates it (1.4e-6 at step 0.2)
    gaps = [_leaf_gap(conj_fields["f1u"], phi02, vu, h) for h in (0.4, 0.2, 0.1)]
    orders = [math.log2(a / b) for a, b in zip(gaps, gaps[1:])]
    assert all(3.5 <= p <= 4.5 for p in orders), (gaps, orders)
