"""Sparse-MNA circuit simulation substrate (the HSPICE substitute).

Public API
----------
- :class:`~repro.circuit.netlist.Circuit` and the element records in
  :mod:`repro.circuit.elements`;
- source stimuli in :mod:`repro.circuit.sources`
  (:func:`step`, :func:`pulse`, :func:`dc`, :func:`ac_unit`);
- analyses: :func:`~repro.circuit.dc.dc_operating_point`,
  :func:`~repro.circuit.ac.ac_analysis`,
  :func:`~repro.circuit.transient.transient_analysis`;
- results: :class:`~repro.circuit.waveform.Waveform`,
  :class:`~repro.circuit.waveform.TransientResult`,
  :class:`~repro.circuit.waveform.ACResult`;
- export: :func:`~repro.circuit.spice_writer.write_spice`,
  :func:`~repro.circuit.spice_writer.netlist_size_bytes`.
"""

from repro.circuit.ac import ac_analysis, ac_analysis_multi, logspace_frequencies
from repro.circuit.dc import dc_operating_point
from repro.circuit.elements import (
    CCCS,
    CCVS,
    GROUND,
    VCCS,
    VCVS,
    Capacitor,
    CurrentSource,
    Element,
    Inductor,
    MutualInductance,
    Resistor,
    SusceptanceSet,
    VoltageSource,
)
from repro.circuit.mna import MnaSystem, build_mna
from repro.circuit.netlist import Circuit
from repro.circuit.sources import Stimulus, ac_unit, dc, pulse, step
from repro.circuit.spice_parser import (
    ParsedNetlist,
    SpiceParseError,
    parse_spice,
    parse_value,
)
from repro.circuit.spice_writer import netlist_size_bytes, write_spice
from repro.circuit.transient import transient_analysis, transient_analysis_multi
from repro.circuit.waveform import ACResult, DCSolution, TransientResult, Waveform

__all__ = [
    "Circuit",
    "GROUND",
    "Element",
    "Resistor",
    "Capacitor",
    "Inductor",
    "MutualInductance",
    "SusceptanceSet",
    "VoltageSource",
    "CurrentSource",
    "VCVS",
    "VCCS",
    "CCCS",
    "CCVS",
    "Stimulus",
    "dc",
    "ac_unit",
    "step",
    "pulse",
    "build_mna",
    "MnaSystem",
    "dc_operating_point",
    "ac_analysis",
    "ac_analysis_multi",
    "logspace_frequencies",
    "transient_analysis",
    "transient_analysis_multi",
    "parse_spice",
    "parse_value",
    "ParsedNetlist",
    "SpiceParseError",
    "Waveform",
    "TransientResult",
    "ACResult",
    "DCSolution",
    "write_spice",
    "netlist_size_bytes",
]
