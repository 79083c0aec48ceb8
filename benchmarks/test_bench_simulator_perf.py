"""Simulator-substrate performance benchmarks.

Not a paper experiment — these track the throughput of the layers every
E1–E12 bench is built on, so regressions in the simulator show up as
numbers, not as mysteriously slower experiment benches:

* DC operating point (Newton) on a nonlinear mirror;
* DC sweep with continuation (per-point cost);
* one transient timestep on a switching ring oscillator;
* one Monte-Carlo yield sample (sampling + sweep-based metric);
* the same sample on the batched ensemble engine (sweep points as
  lanes of one Newton loop — see ``repro.circuit.batch``);
* a DC sweep over a system large enough to route through the sparse
  (CSC/splu) factorisation path instead of dense LAPACK;
* compact-model evaluation (drain_current + linearize).
"""

import numpy as np

from repro.circuit import dc_operating_point, dc_sweep, transient
from repro.circuits import (
    differential_pair,
    input_referred_offset_v,
    ring_oscillator,
    simple_current_mirror,
)
from repro.variability import MismatchSampler


def test_perf_dc_operating_point(benchmark, tech90):
    fx = simple_current_mirror(tech90)

    def solve():
        return dc_operating_point(fx.circuit).voltage("din")

    value = benchmark(solve)
    assert 0.2 < value < 1.2


def test_perf_dc_sweep(benchmark, tech90):
    fx = simple_current_mirror(tech90)
    values = np.linspace(0.0, tech90.vdd, 25)

    def sweep():
        return dc_sweep(fx.circuit, "vout", values)

    sols = benchmark(sweep)
    assert len(sols) == 25


def test_perf_transient_ring(benchmark, tech90):
    fx = ring_oscillator(tech90, n_stages=3)

    def run():
        return transient(fx.circuit, t_stop=0.5e-9, dt=5e-12)

    result = benchmark(run)
    assert result.states.shape[0] == 101


def _sparse_ladder(n_rungs=96, r_ohms=1e3, vdd_v=1.2):
    """A resistive ladder big enough (97 unknowns) to clear the default
    sparse-path threshold, so the sweep below measures the splu path."""
    from repro.circuit import Circuit

    ckt = Circuit(f"bench-ladder-{n_rungs}")
    ckt.voltage_source("vdd", "n0", "0", vdd_v)
    for k in range(n_rungs):
        lower = f"n{k + 1}" if k < n_rungs - 1 else "0"
        ckt.resistor(f"r{k}", f"n{k}", lower, r_ohms)
    return ckt


def test_perf_dc_sweep_sparse(benchmark, tech90):
    from repro.circuit.dc import dc_engine

    ckt = _sparse_ladder()
    values = np.linspace(0.6, tech90.vdd, 13)

    def sweep():
        return dc_sweep(ckt, "vdd", values, batch=False)

    sols = benchmark(sweep)
    assert len(sols) == 13
    assert dc_engine(ckt).sparsity_plan is not None


def test_perf_mc_yield_sample(benchmark, tech90):
    fx = differential_pair(tech90, w_m=4e-6, l_m=0.4e-6)
    sampler = MismatchSampler(tech90, np.random.default_rng(1))

    def one_sample():
        sampler.assign(fx.circuit)
        return input_referred_offset_v(fx)

    offset = benchmark(one_sample)
    assert abs(offset) < 0.05
    sampler.clear(fx.circuit)


def test_perf_mc_yield_batched(benchmark, tech90):
    # Same workload as test_perf_mc_yield_sample, but the extractor's
    # DC sweep runs as ONE batched Newton ensemble (all sweep points as
    # lanes) — the per-die cost the batched MC mode pays.
    from repro.circuit import batched_sweeps

    fx = differential_pair(tech90, w_m=4e-6, l_m=0.4e-6)
    sampler = MismatchSampler(tech90, np.random.default_rng(1))

    def one_sample():
        sampler.assign(fx.circuit)
        with batched_sweeps():
            return input_referred_offset_v(fx)

    offset = benchmark(one_sample)
    assert abs(offset) < 0.05
    sampler.clear(fx.circuit)


def test_profiler_overhead_bound(tech90):
    # The sampling profiler must stay out of the way: with the default
    # 5 ms interval, profiling the mc_yield_sample workload may cost at
    # most 5% wall time.  Best-of-N timing on both sides keeps the
    # check robust against shared-machine noise.
    import timeit

    from repro.obs.profiler import profiling

    fx = differential_pair(tech90, w_m=4e-6, l_m=0.4e-6)
    sampler = MismatchSampler(tech90, np.random.default_rng(1))

    def one_sample():
        sampler.assign(fx.circuit)
        return input_referred_offset_v(fx)

    def workload():
        for _ in range(20):
            one_sample()

    workload()  # warm caches/JIT-free, but pay the import cost up front
    baseline_s = min(timeit.repeat(workload, number=1, repeat=5))
    with profiling():
        profiled_s = min(timeit.repeat(workload, number=1, repeat=5))
    sampler.clear(fx.circuit)
    overhead = profiled_s / baseline_s - 1.0
    print(f"\nprofiler overhead: baseline {baseline_s * 1e3:.1f} ms, "
          f"profiled {profiled_s * 1e3:.1f} ms ({overhead * 100:+.1f}%)")
    assert overhead <= 0.05, \
        f"sampling profiler costs {overhead * 100:.1f}% (> 5% bound)"


def test_perf_model_evaluation(benchmark, tech90):
    from repro.circuit import Mosfet

    device = Mosfet.from_technology("m", "d", "g", "s", "b", tech90, "n",
                                    w_m=1e-6, l_m=0.09e-6)

    def evaluate():
        total = 0.0
        for vgs in (0.3, 0.6, 0.9, 1.2):
            ids, gm, gds, gmb = device.linearize(vgs, 0.6, 0.0)
            total += ids + gm
        return total

    total = benchmark(evaluate)
    assert total > 0.0
