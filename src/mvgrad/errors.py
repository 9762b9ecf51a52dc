"""Exception types shared across the package."""


class MVGradError(Exception):
    """Base class for all package-specific errors."""


class SingularDiffusion(MVGradError):
    """The diffusion matrix a = sigma sigma* is singular or too ill-conditioned."""


class NonFinite(MVGradError):
    """A NaN/Inf appeared, or a trajectory exceeded the blow-up guard.

    The integrators name the step in the message ("... at step k").
    """


class UnequalSupport(MVGradError):
    """Two empirical measures with different sample counts were paired."""


class SizeCap(MVGradError):
    """Exact assignment was requested above the configured size cap."""


class UnknownFamily(MVGradError):
    """Unrecognized initial-law or coefficient family name."""


class GridMismatch(MVGradError):
    """A terminal time does not match the time grid."""


class ScheduleMismatch(MVGradError):
    """A weighting schedule's terminal time disagrees with the path grid."""


class MeasureDependence(MVGradError):
    """A measure-dependent drift was passed where none is allowed."""


class MissingGradSigma(MVGradError):
    """State-dependent diffusion without a supplied derivative."""


class UnsupportedScenario(MVGradError):
    """No closed-form reference is available for the requested combination."""


class MemoryBudgetExceeded(MVGradError):
    """Retained path storage would exceed the configured memory budget."""


class ConfigError(MVGradError):
    """Experiment configuration failed to parse or validate."""
