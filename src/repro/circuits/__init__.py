"""Reference circuit library (victims and testbenches).

Builders return :class:`CircuitFixture` objects (circuit + landmark
node/device names + numeric metadata):

* :mod:`repro.circuits.references` — current mirrors, the Fig 3
  filtered current reference, β-multiplier, resistive divider;
* :mod:`repro.circuits.digital` — inverter, ring oscillator, 6T SRAM,
  plus VTC/noise-margin/delay/frequency/SNM metrics;
* :mod:`repro.circuits.analog` — differential pair, 5T OTA, offset and
  gain metrics.

Exports resolve lazily (:mod:`repro._lazy`): ``from repro.circuits
import differential_pair`` loads the analog library alone, so an
offset Monte-Carlo never compiles the digital, gate or op-amp builders.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "analog": ("comparator", "comparator_threshold_v", "dc_gain",
               "differential_pair", "five_transistor_ota",
               "input_referred_offset_v", "unity_gain_bandwidth_hz"),
    "digital": ("cycle_jitter", "cycle_periods", "inverter", "is_bistable",
                "noise_margins", "oscillation_frequency",
                "propagation_delay", "ring_oscillator", "sram_cell",
                "sram_hold_butterfly", "sram_read_butterfly",
                "sram_write_trip_voltage", "static_noise_margin",
                "switching_threshold", "vtc"),
    "gates": ("gate_is_functional", "gate_truth_table", "nand2", "nor2"),
    "opamp": ("open_loop_gain", "phase_margin_deg", "two_stage_opamp",
              "unity_gain_frequency_hz"),
    "references": ("CircuitFixture", "beta_multiplier_reference",
                   "emc_hardened_current_reference",
                   "filtered_current_reference", "resistor_divider_bias",
                   "simple_current_mirror", "solve_beta_multiplier"),
})

__all__ = [
    "CircuitFixture",
    "comparator",
    "comparator_threshold_v",
    "gate_is_functional",
    "gate_truth_table",
    "nand2",
    "nor2",
    "open_loop_gain",
    "phase_margin_deg",
    "two_stage_opamp",
    "unity_gain_bandwidth_hz",
    "unity_gain_frequency_hz",
    "beta_multiplier_reference",
    "cycle_jitter",
    "cycle_periods",
    "dc_gain",
    "differential_pair",
    "emc_hardened_current_reference",
    "filtered_current_reference",
    "five_transistor_ota",
    "input_referred_offset_v",
    "inverter",
    "is_bistable",
    "noise_margins",
    "oscillation_frequency",
    "propagation_delay",
    "resistor_divider_bias",
    "ring_oscillator",
    "simple_current_mirror",
    "solve_beta_multiplier",
    "sram_cell",
    "sram_hold_butterfly",
    "sram_read_butterfly",
    "sram_write_trip_voltage",
    "static_noise_margin",
    "switching_threshold",
    "vtc",
]
