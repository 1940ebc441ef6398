import math

import pytest

from anosov_lab.config import load_config
from anosov_lab.fourier import FourierPerturbation
from anosov_lab.lattice import IntMatrix2, eigen_data
from anosov_lab.maps import ConjugatedMap, Diffeo, PerturbedMap
from anosov_lab.foliations import compute_line_field

GAMMA1 = ((2, 1), (1, 1))
GAMMA2 = ((1, 1), (1, 2))


@pytest.fixture(scope="session")
def e1():
    return eigen_data(IntMatrix2(*GAMMA1[0], *GAMMA1[1]))


@pytest.fixture(scope="session")
def e2():
    return eigen_data(IntMatrix2(*GAMMA2[0], *GAMMA2[1]))


@pytest.fixture(scope="session")
def linear_handles():
    # the default config's action: linear, generators GAMMA1 and GAMMA2
    return load_config().build_handles()


@pytest.fixture(scope="session")
def linear_g1(linear_handles):
    return linear_handles[0]


@pytest.fixture(scope="session")
def linear_g2(linear_handles):
    return linear_handles[1]


@pytest.fixture(scope="session")
def linear_fields(linear_g1, linear_g2):
    return {
        "f1u": compute_line_field(linear_g1, "unstable"),
        "f1s": compute_line_field(linear_g1, "stable"),
        "f2u": compute_line_field(linear_g2, "unstable"),
        "f2s": compute_line_field(linear_g2, "stable"),
    }


@pytest.fixture(scope="session")
def perturbed_g1(e1):
    # ||Dp||_inf = 0.03
    p = FourierPerturbation.from_sin_cos([((0, 1), (0.03 / (2 * math.pi), 0.0), None)])
    return PerturbedMap(e1, p)


@pytest.fixture(scope="session")
def phi02():
    # phi = id + (0.02 sin 2 pi x2, 0)
    q = FourierPerturbation.from_sin_cos([((0, 1), (0.02, 0.0), None)])
    return Diffeo(q)


@pytest.fixture(scope="session")
def conj_g1(phi02, e1):
    return ConjugatedMap(phi02, e1)


@pytest.fixture(scope="session")
def conj_g2(phi02, e2):
    return ConjugatedMap(phi02, e2)


@pytest.fixture(scope="session")
def conj_fields(conj_g1, conj_g2):
    return {
        "f1u": compute_line_field(conj_g1, "unstable"),
        "f1s": compute_line_field(conj_g1, "stable"),
        "f2s": compute_line_field(conj_g2, "stable"),
    }
