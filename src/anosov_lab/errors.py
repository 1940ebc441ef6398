"""Exception types shared across the lab."""


class AnosovLabError(Exception):
    """Base class for all structured failures."""


class NotHyperbolic(AnosovLabError):
    """Matrix has |trace| <= 2, so it has no hyperbolic splitting."""


class NotADiffeo(AnosovLabError):
    """id + q fails the derivative bound that guarantees invertibility."""


class SolverDiverged(AnosovLabError):
    """Conjugacy fixed-point iteration stopped making progress."""


class Inconclusive(AnosovLabError):
    """Cone-field margin too close to 1 to call either way."""


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


class SeedEnumerationFailed(AnosovLabError):
    """The exact lattice seeds of A^n - I could not be enumerated."""


class ChartOverflow(AnosovLabError):
    """A leaf or translate left the local chart before the domain was covered."""


class DomainMismatch(AnosovLabError):
    """Composed maps have empty common domain."""


class RootBracketFailed(AnosovLabError):
    """Could not bracket the root t(y) within the allowed range."""


class NonMonotoneG(AnosovLabError):
    """Integrated linearizing coordinate failed strict monotonicity."""


class SingularSystem(AnosovLabError):
    """2x2 factorization system is singular."""


class ConfigError(AnosovLabError):
    """Experiment configuration failed validation."""

    def __init__(self, key, message):
        self.key = key
        super().__init__(f"config key '{key}': {message}")


class IoError(AnosovLabError):
    """Report emission failed for a path."""
