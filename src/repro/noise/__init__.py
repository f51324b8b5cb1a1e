"""Static crosstalk-noise analysis with noise windows.

Implements the title paper's workload (Tseng & Kariat, DAC 2003) on top
of the extraction / VPEC / simulation stack:

- :mod:`repro.noise.windows` -- per-net switching windows and the
  interval algebra that decides which aggressors can align;
- :mod:`repro.noise.screening` -- vectorized closed-form peak-noise and
  noise-area estimators over all victim/aggressor pairs at once;
- :mod:`repro.noise.worst_case` -- worst-case aggressor alignment within
  the feasible overlap region, per-victim noise windows and margins;
- :mod:`repro.noise.receiver` -- nonlinear receiver (holding-strength)
  models replacing the fixed quarter-supply failure criterion;
- :mod:`repro.noise.engine` -- the tiered screen-then-simulate flow,
  planned over scenarios and producing
  :class:`~repro.noise.engine.NoiseScanReport` objects;
- :mod:`repro.noise.calibration` -- automated per-family refitting of
  the inductive screening envelope, with a loud conservatism check;
- :mod:`repro.noise.sweep` -- design-space scenario families run as one
  batched plan with distribution-level reporting.
"""

from repro.noise.windows import (
    Window,
    WindowSet,
    sensitive_windows,
    staggered_schedule,
    switching_windows,
)
from repro.noise.screening import (
    CalibrationRangeWarning,
    KappaEnvelope,
    ScreenConfig,
    ScreenEstimates,
    screen_pairs,
)
from repro.noise.receiver import ReceiverModel, resolve_threshold
from repro.noise.worst_case import Alignment, worst_case_alignment
from repro.noise.engine import (
    NoiseConfig,
    NoiseScanReport,
    VictimScanResult,
    run_noise_scan,
    scan_checksum,
)
from repro.noise.calibration import (
    CalibrationError,
    CalibrationResult,
    calibrate_family,
)
from repro.noise.sweep import (
    Scenario,
    ScenarioResult,
    SweepGrid,
    SweepReport,
    run_sweep,
    sweep_report_checksum,
)

__all__ = [
    "Alignment",
    "CalibrationError",
    "CalibrationRangeWarning",
    "CalibrationResult",
    "KappaEnvelope",
    "NoiseConfig",
    "NoiseScanReport",
    "ReceiverModel",
    "Scenario",
    "ScenarioResult",
    "ScreenConfig",
    "ScreenEstimates",
    "SweepGrid",
    "SweepReport",
    "VictimScanResult",
    "Window",
    "WindowSet",
    "calibrate_family",
    "resolve_threshold",
    "run_noise_scan",
    "run_sweep",
    "scan_checksum",
    "screen_pairs",
    "sensitive_windows",
    "staggered_schedule",
    "switching_windows",
    "sweep_report_checksum",
    "worst_case_alignment",
]
