"""Typed numerical-error taxonomy of the health subsystem.

Every numerically delicate step of the flow -- SPD inversion of ``L``,
windowed approximate inverses, passivity of the sparsified ``Ghat``, the
MNA solves -- reports failure through one of these exceptions instead of
a bare ``numpy.linalg.LinAlgError`` (or, worse, silently non-finite
output).  The taxonomy is small and flat:

- :class:`NumericalHealthError` -- common base, carries a free-form
  ``context`` mapping for diagnostics (matrix name, condition estimate,
  attempted fallbacks, ...);
- :class:`NonFiniteInputError` -- NaN / infinity in an input matrix or
  vector (also a ``ValueError``: the input itself is invalid);
- :class:`SingularMatrixError` -- every direct factorization attempt
  failed (also a ``numpy.linalg.LinAlgError``, so legacy ``except``
  clauses keep working);
- :class:`PassivityViolationError` -- a ``Ghat`` that certification
  (:mod:`repro.health.diagnostics`) could not prove passive;
- :class:`ConvergenceError` -- the iterative last resort ran but did not
  reach its tolerance;
- :class:`WorkerLostError` -- a worker process died under a work item
  (killed, out of memory), so the item has no result at all.

Catching :class:`NumericalHealthError` therefore catches every failure
mode of the fault-tolerant solver chain (:mod:`repro.health.solvers`).
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

import numpy as np


class NumericalHealthError(Exception):
    """Base of the numerical-health taxonomy.

    ``context`` holds structured diagnostics (matrix name, shape,
    condition estimate, the fallback methods attempted) so callers can
    report *why* a solve failed without parsing the message.
    """

    def __init__(
        self, message: str, context: Optional[Mapping[str, Any]] = None
    ) -> None:
        super().__init__(message)
        self.context: Dict[str, Any] = dict(context or {})


class NonFiniteInputError(NumericalHealthError, ValueError):
    """An input carries NaN or infinity (e.g. corrupted parasitics)."""


class SingularMatrixError(NumericalHealthError, np.linalg.LinAlgError):
    """Every direct (and regularized) factorization attempt failed.

    Subclasses ``numpy.linalg.LinAlgError`` so callers written against
    the pre-taxonomy API -- ``except LinAlgError`` -- continue to work.
    """


class PassivityViolationError(NumericalHealthError):
    """A model matrix failed passivity certification."""


class ConvergenceError(NumericalHealthError):
    """The iterative last-resort solver did not converge."""


class WorkerLostError(NumericalHealthError):
    """A worker process died before its work item returned.

    Raised by the analysis service in place of the executor's untyped
    ``BrokenProcessPool``, once the broken pool has been replaced.
    """
