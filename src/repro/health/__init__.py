"""Numerical health: diagnostics, fault-tolerant solvers, fault injection.

The robustness layer of the reproduction.  Near-singular, indefinite, or
corrupted inputs must surface as *typed* errors or *certified* fallback
results -- never as a bare ``numpy.linalg.LinAlgError`` (or silently
non-finite waveforms) escaping from deep inside an experiment run.

- :mod:`repro.health.errors` -- the exception taxonomy
  (:class:`SingularMatrixError`, :class:`PassivityViolationError`,
  :class:`ConvergenceError`, :class:`NonFiniteInputError`,
  :class:`WorkerLostError`);
- :mod:`repro.health.diagnostics` -- condition estimation, SPD checks,
  and passivity certificates as structured :class:`HealthReport`
  objects (the ``repro audit --health`` surface and CI artifact);
- :mod:`repro.health.solvers` -- the escalation chains (fast direct
  path -> Tikhonov-regularized retry -> iterative / spectral last
  resort) governed by an explicit :class:`FallbackPolicy`;
- :mod:`repro.health.iterative` -- batched Jacobi-preconditioned CG
  over wVPEC window stacks, with residual certification and direct
  holdout fallbacks;
- :mod:`repro.health.faults` -- deterministic fault injection proving
  in tests and CI that every degradation path actually fires.
"""

from repro.health.diagnostics import (
    CERT_RTOL,
    HealthReport,
    assert_passive,
    certify_passivity,
    check_spd,
    condition_estimate,
    reports_to_json,
)
from repro.health.errors import (
    ConvergenceError,
    NonFiniteInputError,
    NumericalHealthError,
    PassivityViolationError,
    SingularMatrixError,
    WorkerLostError,
)
from repro.health.faults import (
    FAULT_KINDS,
    flip_mutual_signs,
    inject_fault,
    inject_nan,
    rank_deficient,
)
from repro.health.iterative import WINDOW_CG_RTOL, stacked_jacobi_cg
from repro.health.solvers import (
    DEFAULT_POLICY,
    STRICT_POLICY,
    AttemptLog,
    FallbackPolicy,
    ResilientFactor,
    SolveAttempt,
    dense_solve,
    factorize,
    require_finite,
    spd_inverse,
)

__all__ = [
    "NumericalHealthError",
    "NonFiniteInputError",
    "SingularMatrixError",
    "PassivityViolationError",
    "ConvergenceError",
    "WorkerLostError",
    "HealthReport",
    "check_spd",
    "certify_passivity",
    "assert_passive",
    "condition_estimate",
    "reports_to_json",
    "CERT_RTOL",
    "FallbackPolicy",
    "DEFAULT_POLICY",
    "STRICT_POLICY",
    "AttemptLog",
    "SolveAttempt",
    "spd_inverse",
    "dense_solve",
    "factorize",
    "require_finite",
    "ResilientFactor",
    "WINDOW_CG_RTOL",
    "stacked_jacobi_cg",
    "FAULT_KINDS",
    "rank_deficient",
    "flip_mutual_signs",
    "inject_nan",
    "inject_fault",
]
