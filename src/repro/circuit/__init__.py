"""SPICE-like circuit simulation substrate (DESIGN.md S3/S4).

Quick tour::

    from repro.circuit import Circuit, Mosfet, dc_operating_point
    from repro.technology import get_node

    tech = get_node("90nm")
    ckt = Circuit("diode-connected nmos")
    ckt.voltage_source("vdd", "vdd", "0", tech.vdd)
    ckt.resistor("rbias", "vdd", "d", 10e3)
    ckt.mosfet(Mosfet.from_technology(
        "m1", "d", "d", "0", "0", tech, "n", w_m=1e-6, l_m=tech.lmin_m))
    op = dc_operating_point(ckt)
    print(op.voltage("d"), op.device_op("m1").ids_a)

Analyses: :func:`dc_operating_point`, :func:`dc_sweep`,
:func:`transient`, :func:`ac_analysis`.
"""

from repro.circuit.ac import AcResult, ac_analysis, logspace_frequencies
from repro.circuit.batch import (
    BatchDcEngine,
    BatchMosfetGroup,
    BatchStamper,
    BatchUnsupportedError,
    batch_engine,
    batched_dc_sweep,
    batched_sweeps,
    can_batch,
)
from repro.circuit.batch_transient import batched_transient
from repro.circuit.hierarchy import clone_element, flatten_instance_names, instantiate
from repro.circuit.parser import (
    NetlistError,
    canonical_cards,
    format_value,
    parse_netlist,
    parse_value,
    write_netlist,
)
from repro.circuit.dc import (
    DcSolution,
    NewtonOptions,
    dc_operating_point,
    dc_sweep,
    newton_solve,
    sweep_voltages,
)
from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    DcSpec,
    Diode,
    Element,
    Inductor,
    PulseSpec,
    PwlSpec,
    Resistor,
    SineSpec,
    SourceSpec,
    Vccs,
    Vcvs,
    VoltageSource,
)
from repro.circuit.mna import (
    ConvergenceError,
    ConvergenceReport,
    SingularCircuitError,
    SolverError,
    SparsityPlan,
    Stamper,
    StrategyAttempt,
    sparse_mode,
)
from repro.circuit.mosfet import (
    DeviceDegradation,
    DeviceVariation,
    Mosfet,
    MosfetParams,
    OperatingPoint,
)
from repro.circuit.netlist import Circuit, is_ground
from repro.circuit.transient import TransientResult, transient
from repro.circuit.waveform import Waveform

__all__ = [
    "AcResult",
    "BatchDcEngine",
    "BatchMosfetGroup",
    "BatchStamper",
    "BatchUnsupportedError",
    "Capacitor",
    "Circuit",
    "ConvergenceError",
    "ConvergenceReport",
    "CurrentSource",
    "DcSolution",
    "DcSpec",
    "DeviceDegradation",
    "DeviceVariation",
    "Diode",
    "Element",
    "Inductor",
    "Mosfet",
    "MosfetParams",
    "NetlistError",
    "NewtonOptions",
    "OperatingPoint",
    "PulseSpec",
    "PwlSpec",
    "Resistor",
    "SineSpec",
    "SingularCircuitError",
    "SolverError",
    "SourceSpec",
    "SparsityPlan",
    "Stamper",
    "StrategyAttempt",
    "TransientResult",
    "Vccs",
    "Vcvs",
    "VoltageSource",
    "Waveform",
    "ac_analysis",
    "batch_engine",
    "batched_dc_sweep",
    "batched_sweeps",
    "batched_transient",
    "can_batch",
    "canonical_cards",
    "clone_element",
    "dc_operating_point",
    "flatten_instance_names",
    "format_value",
    "dc_sweep",
    "instantiate",
    "is_ground",
    "logspace_frequencies",
    "newton_solve",
    "parse_netlist",
    "parse_value",
    "sparse_mode",
    "sweep_voltages",
    "transient",
    "write_netlist",
]
