"""Leaves and leaf crossings against closed forms.

For the linear action every leaf is straight, so a crossing is exact up to
rounding.  For the action conjugated by phi = id + (0.02 sin 2 pi x2, 0)
every leaf is the phi-image of a straight line: the leaf of E^u through
phi(x) is t -> phi(x + t v_u), and likewise for E^s.  So integrated leaves
map under phi^-1 onto straight lines, and heteroclinic points and holonomy
landing points are phi-images of intersections of lines.  The bounds leave
about a factor of two over the measured errors, at the default
propagation step 8e-3 and at half of it.
"""

import math

import numpy as np

from anosov_lab.foliations import heteroclinic_points, holonomy, integrate_leaf, integrate_leaves
from anosov_lab.rigidity import factor_translation_numeric

STEPS = (4e-3, 8e-3)


def _torus_gap(x, y):
    d = np.abs(x - y) % 1.0
    return np.max(np.minimum(d, 1.0 - d))


def test_conjugated_heteroclinic_points_are_phi_images(conj_fields, phi02, e1):
    linear = heteroclinic_points(np.zeros(2), e1, 2)
    exact = phi02.lift(np.array([h.lift for h in linear]))
    for step in STEPS:
        got = heteroclinic_points(np.zeros(2), e1, 2, field_u=conj_fields["f1u"],
                                  field_s=conj_fields["f1s"], step=step)
        assert [h.lattice for h in got] == [h.lattice for h in linear] and len(got) == 24
        # the points, and their lifts on the unstable leaf through phi(0) = 0
        gaps = [_torus_gap(np.mod(h.lift, 1.0), x) for h, x in zip(got, exact)]
        assert max(gaps) < 5e-10, step
        assert np.max(np.abs(np.array([h.lift for h in got]) - exact)) < 5e-10, step


def test_linear_factorization_is_exact(linear_fields, e1, e2):
    tau = integrate_leaf(linear_fields["f1u"], np.zeros(2), 3.0, step=1e-3, centered=True)
    for step in STEPS:
        num = factor_translation_numeric(linear_fields["f1s"], linear_fields["f2s"], tau, e1,
                                         e2, 1.0, step=step)
        assert num.numeric_deviation <= 1e-13, step


def test_conjugated_holonomy_lands_on_line_intersection(conj_fields, phi02, e1):
    # tau1 and tau2 are the unstable leaves through phi(0) = 0 and phi(w),
    # w = 0.2 v_s; the stable leaf through phi(x), x on the first line,
    # meets tau2 at phi(x + w)
    w = 0.2 * e1.vs
    for step in STEPS:
        tau1 = integrate_leaf(conj_fields["f1u"], np.zeros(2), 0.6, step=step, centered=True)
        tau2 = integrate_leaf(conj_fields["f1u"], phi02.lift(w[None])[0], 0.8, step=step,
                              centered=True)
        hol = holonomy(conj_fields["f1s"], tau1, tau2, span=(-0.1, 0.1), step=step)
        starts, _ = tau1.evaluate(hol.x)
        landed, _ = tau2.evaluate(hol.y)
        expected = phi02.inverse_lift(starts) + w
        assert np.max(np.abs(phi02.inverse_lift(landed) - expected)) < 1e-9, step


def _leaf_gap(field, phi, vu, step):
    """Largest distance of phi^-1 of the nodes of leaves of ``field``
    through phi(x) from the lines x + t v_u, over four x; each leaf is
    centered, of length 1.6."""
    xs = np.array([[0.1, 0.2], [0.37, 0.81], [0.6, 0.45], [0.9, 0.05]])
    leaves = integrate_leaves(field, phi.lift(xs), 1.6, step=step, centered=True)
    normal = np.array([-vu[1], vu[0]])
    return max(float(np.max(np.abs((phi.inverse_lift(leaves.points[i, :last + 1]) - x) @ normal)))
               for i, (x, last) in enumerate(zip(xs, leaves.last)))


def test_conjugated_leaves_are_phi_images_of_lines(conj_fields, phi02, e1):
    vu = np.asarray(e1.vu)
    # at the propagation steps the field's own error sets the gap (1.9e-10)
    for step in STEPS:
        assert _leaf_gap(conj_fields["f1u"], phi02, vu, step) < 5e-10, step
    # at coarse steps RK4's step^4 error dominates it (1.4e-6 at step 0.2)
    gaps = [_leaf_gap(conj_fields["f1u"], phi02, vu, h) for h in (0.4, 0.2, 0.1)]
    orders = [math.log2(a / b) for a, b in zip(gaps, gaps[1:])]
    assert all(3.5 <= p <= 4.5 for p in orders), (gaps, orders)
