"""Analysis result containers and waveform utilities."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np


@dataclass
class Waveform:
    """A sampled scalar signal ``v(t)`` (or ``v(f)`` for AC magnitudes).

    Thin wrapper over two aligned numpy arrays with the interpolation and
    resampling helpers the comparison metrics need.
    """

    t: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=float)
        self.v = np.asarray(self.v)
        if self.t.shape != self.v.shape:
            raise ValueError("time and value arrays must have the same shape")
        if self.t.size < 2:
            raise ValueError("a waveform needs at least two samples")
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("time axis must be strictly increasing")

    def at(self, t: np.ndarray) -> np.ndarray:
        """Linear interpolation onto a new time axis."""
        return np.interp(t, self.t, np.real(self.v))

    def resampled_like(self, other: "Waveform") -> "Waveform":
        """This waveform interpolated onto ``other``'s time axis."""
        return Waveform(other.t.copy(), self.at(other.t))

    @property
    def peak(self) -> float:
        """Maximum absolute value (the "noise peak" of the paper)."""
        return float(np.max(np.abs(self.v)))

    def __len__(self) -> int:
        return self.t.size


@dataclass
class TransientResult:
    """Time-domain solution: probed node voltages and branch currents."""

    times: np.ndarray
    node_voltages: Dict[str, np.ndarray] = field(default_factory=dict)
    branch_currents: Dict[str, np.ndarray] = field(default_factory=dict)
    method: str = "trapezoidal"
    dt: float = 0.0
    #: The full solution vector at the last sample: the ``x0`` a march
    #: resumed from there starts with.
    state: Optional[np.ndarray] = None

    def voltage(self, node: str) -> Waveform:
        """Waveform of a probed node voltage."""
        if node == "0":
            return Waveform(self.times, np.zeros_like(self.times))
        try:
            return Waveform(self.times, self.node_voltages[node])
        except KeyError:
            raise KeyError(
                f"node {node!r} was not probed; available: "
                f"{sorted(self.node_voltages)}"
            ) from None

    def current(self, element: str) -> Waveform:
        """Waveform of a probed branch current."""
        try:
            return Waveform(self.times, self.branch_currents[element])
        except KeyError:
            raise KeyError(
                f"branch {element!r} was not probed; available: "
                f"{sorted(self.branch_currents)}"
            ) from None


@dataclass
class ACResult:
    """Frequency-domain solution: probed complex node voltages."""

    frequencies: np.ndarray
    node_voltages: Dict[str, np.ndarray] = field(default_factory=dict)
    branch_currents: Dict[str, np.ndarray] = field(default_factory=dict)

    def voltage(self, node: str) -> np.ndarray:
        """Complex phasor response of a probed node."""
        if node == "0":
            return np.zeros_like(self.frequencies, dtype=complex)
        try:
            return self.node_voltages[node]
        except KeyError:
            raise KeyError(
                f"node {node!r} was not probed; available: "
                f"{sorted(self.node_voltages)}"
            ) from None

    def magnitude(self, node: str) -> Waveform:
        """|V(f)| as a waveform over the frequency axis."""
        return Waveform(self.frequencies, np.abs(self.voltage(node)))

    def magnitude_db(self, node: str, floor: float = 1e-18) -> Waveform:
        """20 log10 |V(f)|, floored to avoid log of zero."""
        mag = np.maximum(np.abs(self.voltage(node)), floor)
        return Waveform(self.frequencies, 20.0 * np.log10(mag))


@dataclass
class DCSolution:
    """Operating point: all node voltages and branch currents by name."""

    node_voltages: Dict[str, float]
    branch_currents: Dict[str, float]

    def voltage(self, node: str) -> float:
        if node == "0":
            return 0.0
        return self.node_voltages[node]

    def current(self, element: str) -> float:
        return self.branch_currents[element]
