"""Hypothesis strategies shared by the closed-form oracle tests.

A drawn diffeomorphism is phi = id + q with q two Fourier modes of
wavevectors in [-2, 2]^2, rescaled so that its derivative bound is
``bound`` < 0.1.
"""

from hypothesis import strategies as st

from anosov_lab.fourier import FourierPerturbation
from anosov_lab.maps import Diffeo

_wavevector = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(lambda k: k != (0, 0))
_amplitude = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
TWO_MODES = st.lists(st.tuples(_wavevector, _amplitude, _amplitude), min_size=2, max_size=2)
BOUNDS = st.floats(0.01, 0.099)


def two_mode_diffeo(modes, bound):
    """phi = id + q for drawn ``modes`` scaled to derivative bound ``bound``,
    or None when the modes cancel or vanish."""
    q = FourierPerturbation.from_sin_cos(modes)
    if q.deriv_bound < 1e-3:
        return None
    return Diffeo(q.scaled(bound / q.deriv_bound))
