"""Line fields against their closed form.

For g = phi A phi^{-1} with phi = id + q, the unstable field at x lies
along D phi(phi^{-1} x) v_u and the stable field along
D phi(phi^{-1} x) v_s, where v_u and v_s are the eigen-directions of A.
A field is the kernel of l . D G^16, within about lambda_u^-32 = 4e-14 of
its limit, and rounding adds about as much (measured up to 7e-14 at
phi 0.15); the bound is 1e-12.
"""

import numpy as np
from hypothesis import given, settings

from anosov_lab.foliations import _unit, line_fields
from anosov_lab.lattice import grid_points, line_angle
from anosov_lab.maps import ConjugatedMap

from strategies import BOUNDS, TWO_MODES, two_mode_diffeo

BOUND = 1e-12


def _oracle_errors(phi, e1, e2, n):
    """Largest angle from the closed form, per field key."""
    fields = line_fields((ConjugatedMap(phi, e1), ConjugatedMap(phi, e2)),
                         ("f1u", "f1s", "f2u", "f2s"), n)
    d = phi.derivative(phi.inverse_lift(grid_points(n))[0])
    eigen = {"1": e1, "2": e2}
    errors = {}
    for key, field in fields.items():
        e = eigen[key[1]]
        exact = d @ np.asarray(e.vu if key[2] == "u" else e.vs)
        errors[key] = float(np.max(line_angle(_unit(field.theta.ravel()), exact)))
    return errors


def test_conjugated_fields_are_dphi_images_of_eigenlines(phi02, e1, e2):
    errors = _oracle_errors(phi02, e1, e2, 128)
    assert max(errors.values()) < BOUND, errors


def test_directions_off_the_grid_are_dphi_images_of_eigenlines(conj_fields, phi02, e1, e2):
    # each direction is the kernel read at the point asked, not interpolated
    # from the grid: measured up to 4.4e-15 at 64 random points
    x = np.random.default_rng(7).random((64, 2))
    d = phi02.derivative(phi02.inverse_lift(x)[0])
    eigen = {"1": e1, "2": e2}
    for key, field in conj_fields.items():
        e = eigen[key[1]]
        exact = d @ np.asarray(e.vu if key[2] == "u" else e.vs)
        assert np.max(line_angle(field.direction_at(x), exact)) < 1e-13, key


@settings(max_examples=6, derandomize=True, deadline=None)
@given(modes=TWO_MODES, bound=BOUNDS)
def test_fields_of_drawn_two_mode_diffeo_are_dphi_images(e1, e2, modes, bound):
    phi = two_mode_diffeo(modes, bound)
    if phi is None:
        return
    errors = _oracle_errors(phi, e1, e2, 32)
    assert max(errors.values()) < BOUND, errors
