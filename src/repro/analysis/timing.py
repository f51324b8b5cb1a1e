"""Timing machinery: wall-clock helpers and net arrival-time estimates.

Two unrelated notions of "timing" live here on purpose:

- :class:`Timer` / :func:`time_call` measure *wall-clock* runtime for the
  benchmarks;
- :func:`elmore_delays` / :func:`arrival_times` estimate *circuit* timing
  -- per-net Elmore delays and arrival/slew figures -- which is what the
  static noise engine (:mod:`repro.noise`) turns into per-net switching
  windows.  The estimates use the standard lumped Elmore form for a
  driver-resistance-fed distributed RC line::

      tau = Rd (C_wire + C_load) + R_wire (C_wire / 2 + C_load)

  with ``C_wire`` the wire's total ground plus coupling capacitance
  (coupling counted once, the quiet-neighbor Miller factor of 1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Tuple, TypeVar

import numpy as np

from repro.constants import DRIVER_RESISTANCE, LOAD_CAPACITANCE
from repro.extraction.parasitics import Parasitics

T = TypeVar("T")

#: 10-90% slew of a single-pole response, in units of its time constant.
SLEW_FACTOR = float(np.log(9.0))


@dataclass(frozen=True)
class ArrivalTimes:
    """Per-wire switching-time estimates of a bus model.

    Attributes
    ----------
    delays:
        Elmore delay of each wire, seconds, shape ``(num_wires,)``.
    slews:
        10-90% output slew estimate (``ln 9`` time constants), seconds.
    launch:
        Input launch time of each wire's driver, seconds (all zero for
        the default simultaneous-launch assumption).
    """

    delays: np.ndarray
    slews: np.ndarray
    launch: np.ndarray

    @property
    def earliest(self) -> np.ndarray:
        """Earliest output-transition start per wire."""
        return self.launch

    @property
    def latest(self) -> np.ndarray:
        """Latest settled-output time per wire (delay plus slew)."""
        return self.launch + self.delays + self.slews


def wire_capacitance(parasitics: Parasitics) -> np.ndarray:
    """Total capacitance seen by each wire (ground plus coupling), farads."""
    system = parasitics.system
    totals = np.zeros(system.num_wires)
    wire_of = system.filament_wires()
    np.add.at(totals, wire_of, parasitics.ground_capacitance)
    for (i, j), value in parasitics.coupling_capacitance.items():
        totals[wire_of[i]] += value
        totals[wire_of[j]] += value
    return totals


def wire_resistance(parasitics: Parasitics) -> np.ndarray:
    """Total series resistance of each wire, ohms."""
    system = parasitics.system
    totals = np.zeros(system.num_wires)
    wire_of = system.filament_wires()
    np.add.at(totals, wire_of, parasitics.resistance)
    return totals


def elmore_delays(
    parasitics: Parasitics,
    driver_resistance: float = DRIVER_RESISTANCE,
    load_capacitance: float = LOAD_CAPACITANCE,
) -> np.ndarray:
    """Per-wire Elmore delay of the standard driven-bus configuration.

    The lumped form ``Rd (Cw + CL) + Rw (Cw / 2 + CL)`` -- exact for the
    one-pole model, the usual first-order estimate for the distributed
    line -- vectorized over every wire of the system.
    """
    if driver_resistance < 0 or load_capacitance < 0:
        raise ValueError("driver_resistance and load_capacitance must be >= 0")
    c_wire = wire_capacitance(parasitics)
    r_wire = wire_resistance(parasitics)
    return driver_resistance * (c_wire + load_capacitance) + r_wire * (
        c_wire / 2.0 + load_capacitance
    )


def arrival_times(
    parasitics: Parasitics,
    driver_resistance: float = DRIVER_RESISTANCE,
    load_capacitance: float = LOAD_CAPACITANCE,
    launch: "np.ndarray | None" = None,
) -> ArrivalTimes:
    """Arrival-time estimates for every wire of a parasitic model.

    ``launch`` optionally staggers the drivers' input transitions (the
    noise engine's switching schedules); by default all drivers launch
    at t = 0.
    """
    delays = elmore_delays(parasitics, driver_resistance, load_capacitance)
    if launch is None:
        starts = np.zeros_like(delays)
    else:
        starts = np.asarray(launch, dtype=float)
        if starts.shape != delays.shape:
            raise ValueError(
                f"launch must have one entry per wire "
                f"({delays.shape[0]}), got shape {starts.shape}"
            )
    return ArrivalTimes(delays=delays, slews=SLEW_FACTOR * delays, launch=starts)


class Timer:
    """Context manager measuring elapsed wall-clock seconds.

    >>> with Timer() as timer:
    ...     _ = sum(range(10))
    >>> timer.seconds >= 0.0
    True
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.seconds = time.perf_counter() - self._start


def time_call(func: Callable[..., T], *args: Any, **kwargs: Any) -> Tuple[T, float]:
    """Call ``func`` and return ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = func(*args, **kwargs)
    return result, time.perf_counter() - start
