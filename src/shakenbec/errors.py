"""Exception hierarchy.

Every error raised by this package derives from :class:`ShakenBecError`,
split into two broad families: bad inputs (:class:`DomainError`,
:class:`ConfigError`) and runtime numerical trouble
(:class:`NumericalError`).  The CLI maps the families to exit codes.
"""

from __future__ import annotations


class ShakenBecError(Exception):
    """Base class for all package errors."""


class DomainError(ShakenBecError, ValueError):
    """An argument is outside the physically or mathematically valid range."""


class ConfigError(ShakenBecError):
    """A run configuration is missing keys, malformed, or inconsistent."""


class NumericalError(ShakenBecError):
    """A numerical procedure failed to reach its accuracy contract."""


class ConvergenceError(NumericalError):
    """An iterative computation did not converge at the requested cutoff."""


class InvertedBandError(DomainError):
    """The effective band curvature is negative at the requested momentum.

    Raised for a drive amplitude k0 at or past the first zero of J0,
    where the time-averaged hopping J J0(k0) stops being positive and the
    q = 0 condensate is no longer the energy minimum.
    """


class SingularModeError(DomainError):
    """A Bogoliubov frame was requested at a gapless point (q = 0)."""


class IntegratorToleranceError(NumericalError):
    """A mode integration violated its conservation-law tolerance."""


class BlowUpError(NumericalError):
    """Field amplitudes left the representable range (non-finite values)."""


class InsufficientDataError(DomainError):
    """Too few usable samples inside the fit window."""


class BootstrapUnstableError(NumericalError):
    """Too many bootstrap resamples failed to produce a rate."""


class NoCriticalAmplitudeError(DomainError):
    """No critical drive amplitude exists (interaction exceeds drive quantum)."""


class CalibrationError(DomainError):
    """A calibration input is incompatible with the model (e.g. cusp below band edge)."""
