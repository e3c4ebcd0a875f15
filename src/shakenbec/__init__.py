"""Parametric instabilities of periodically shaken lattice condensates.

The package covers three layers that cross-check each other:

* closed-form theory (:mod:`shakenbec.analytics`): cusp frequencies,
  most unstable modes, growth rates;
* linearized mode dynamics (:mod:`shakenbec.bdg`): time-dependent
  Bogoliubov pairs on momentum grids;
* classical-field simulation (:mod:`shakenbec.twa`): truncated-Wigner
  ensembles of the driven Gross-Pitaevskii equation.

Everything runs in hbar = 1 units with the lattice spacing as the
length unit; energies and rates are angular frequencies.
"""

from .analytics import (
    ClosedFormScan,
    CuspData,
    InstabilityResult,
    ModeScan,
    calibrate_g_from_cusp,
    critical_drive_amplitude,
    cusp_frequency,
    most_unstable_mode,
)
from .bdg import (
    BdgRunConfig,
    GridScanResult,
    ModeBatchTrajectory,
    evolve_modes,
    grid_instability_scan,
    init_mode,
)
from .errors import (
    BlowUpError,
    BootstrapUnstableError,
    CalibrationError,
    ConfigError,
    ConvergenceError,
    DomainError,
    InsufficientDataError,
    IntegratorToleranceError,
    InvertedBandError,
    NoCriticalAmplitudeError,
    NumericalError,
    ShakenBecError,
    SingularModeError,
)
from .fitting import (
    BootstrapRate,
    DecayTrace,
    FitMethod,
    FitResult,
    TraceKind,
    bootstrap_rate,
    fit_decay_rate,
    fit_exponential,
    fit_linear_fallback,
    windowed_log_slope,
)
from .model import (
    DriveSpec,
    Envelope,
    Grid,
    LatticeParams,
    Momentum,
    Regime,
    Trajectory,
    axis_energies,
    bogoliubov_transform,
    drive_shift,
    envelope_value,
)
from .specialmath import (
    BandProblem,
    band_energy,
    bessel_j,
    bessel_j0_inverse,
    hopping_from_depth,
    j0_first_zero,
    recoil_frequency_hz,
)
from .twa import (
    FieldState,
    ObservableTrace,
    TwaRunConfig,
    ensemble_run,
    run_trajectory,
    sample_initial,
)

__version__ = "0.1.0"
