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
    """Conjugacy fixed-point iteration stopped making progress."""


class NotConverged(AnosovLabError):
    """Line-field iteration did not reach the angular tolerance."""


class SignAmbiguity(AnosovLabError):
    """Field direction jumped by more than pi/2 between integration steps."""


class LeafEscaped(AnosovLabError):
    """Leaf integration exhausted its length budget without a crossing."""


class TangencySuspected(AnosovLabError):
    """Crossing angle below the tangency threshold."""


class NewtonFailed(AnosovLabError):
    """Newton refinement failed to converge for a seed."""


class PeriodOutOfRange(AnosovLabError):
    """Requested period lies outside the desk-scale range of the orbit finder."""


class RadiusOutOfRange(AnosovLabError):
    """Requested lattice radius lies outside the desk-scale range of the
    heteroclinic search."""


class SeedEnumerationFailed(AnosovLabError):
    """The exact lattice seeds of A^n - I could not be enumerated."""


class ChartOverflow(AnosovLabError):
    """A leaf or translate left the local chart before the domain was covered."""


class DomainMismatch(AnosovLabError):
    """Inputs do not share a domain: composed maps with empty common domain,
    a point outside the interval it must lie in, or fields on different grids."""


class RootBracketFailed(AnosovLabError):
    """Could not bracket the root t(y) within the allowed range."""


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
