"""Exception types shared across the lab."""


class AnosovLabError(Exception):
    """Base class for all structured failures."""


class NotHyperbolic(AnosovLabError):
    """Matrix has |trace| <= 2, so it has no hyperbolic splitting."""


class NotInSL2Z(AnosovLabError, ValueError):
    """Integer-matrix entries are not integers or the determinant is not 1.

    Also a ValueError, so library callers that catch ValueError still do."""


class NotADiffeo(AnosovLabError):
    """id + q fails the derivative bound that guarantees invertibility."""


class SolverDiverged(AnosovLabError):
    """Conjugacy fixed-point iteration stopped making progress, on the grid
    or on the periodic points of A."""


class NotConverged(AnosovLabError):
    """An iteration stopped short of its tolerance: a line field that still
    moves by more than its tolerance between its two orbit lengths, or a
    shooting solve whose last Newton step is too large."""


class TangencySuspected(AnosovLabError):
    """Crossing angle below the tangency threshold."""


class PeriodOutOfRange(AnosovLabError):
    """Requested period lies outside the desk-scale range of the orbit finder."""


class RadiusOutOfRange(AnosovLabError):
    """Requested lattice radius lies outside the desk-scale range of the
    heteroclinic search."""


class SeedEnumerationFailed(AnosovLabError):
    """The exact lattice seeds of A^n - I could not be enumerated."""


class ChartOverflow(AnosovLabError):
    """The predicted landings of a slide leave the transversal's parameters."""


class DomainMismatch(AnosovLabError):
    """Inputs do not share a domain: composed maps with empty common domain,
    a point outside the interval it must lie in, or fields on different grids."""


class NonMonotoneG(AnosovLabError):
    """Samples that must be strictly monotone are not: the integrated
    linearizing coordinate g, a translation profile, a holonomy or the u
    values of a local graph."""


class SingularSystem(AnosovLabError):
    """2x2 factorization system is singular."""


class ConfigError(AnosovLabError):
    """Experiment configuration failed validation."""

    def __init__(self, key, message):
        self.key = key
        super().__init__(f"config key '{key}': {message}")


class IoError(AnosovLabError):
    """Report emission failed for a path."""
