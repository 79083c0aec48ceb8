"""SRAM probe circuits are built once per fixture and reused.

``sram_hold_butterfly``/``sram_read_butterfly``, ``sram_write_trip_voltage``
and ``is_bistable`` solve a probe circuit: the cell's elements plus an
appended forcing source.  The probe (and so its cached DC engine) is
built once per base circuit and topology; these tests pin that reuse to
the answers of a probe built fresh on every call, and check the
high-sigma engine no longer builds an engine per full solve.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.circuit import dc
from repro.circuit.mosfet import DeviceVariation
from repro.circuit.netlist import Circuit
from repro.circuits import digital, is_bistable, sram_cell, sram_write_trip_voltage
from repro.core import HighSigmaYield, Specification
from repro.variability import MismatchSampler
from repro.workloads import sram_snm

N_POINTS = 21


def _fresh_probe(base, kind, value=0.0):
    """A new probe on every call — the construction before probes were
    cached."""
    title, node = digital._PROBE_KINDS[kind]
    probe = Circuit(title)
    for element in base.elements:
        probe.add(element)
    if node is None:
        probe.voltage_source("vprobe", "q", "0", value)
    else:
        probe.voltage_source("vforce", node, "0", value)
        probe.resistor("rforce", node, "q", 1.0)
    return probe


def _metrics(fx):
    return (sram_snm(fx, n_points=N_POINTS), is_bistable(fx),
            sram_write_trip_voltage(fx, n_points=N_POINTS))


def _dies(tech, n, seed=3):
    fx = sram_cell(tech, cell_ratio=1.2)
    sampler = MismatchSampler(tech, np.random.default_rng(seed))
    dies = []
    for _ in range(n):
        sampler.assign(fx.circuit)
        dies.append([m.variation for m in fx.circuit.mosfets])
    return dies


def _apply(fx, die):
    for device, variation in zip(fx.circuit.mosfets, die):
        device.variation = variation


def _probes_of(base):
    entry = digital._PROBES.get(base)
    return {} if entry is None else dict(entry[1])


class TestProbeReuse:
    def test_resampled_dies_match_fresh_probes(self, tech65, monkeypatch):
        dies = _dies(tech65, 5)
        fx = sram_cell(tech65, cell_ratio=1.2)
        cached = []
        for die in dies:
            _apply(fx, die)
            cached.append(_metrics(fx))
            if len(cached) == 1:
                probes = _probes_of(fx.circuit)
        assert set(probes) == {"butterfly", "write", "bistable"}
        # Every later die reused the first die's probes.
        assert _probes_of(fx.circuit) == probes
        monkeypatch.setattr(digital, "_sram_probe", _fresh_probe)
        ref = sram_cell(tech65, cell_ratio=1.2)
        fresh = []
        for die in dies:
            _apply(ref, die)
            fresh.append(_metrics(ref))
        assert cached == fresh

    def test_degradation_and_params_swap_match_fresh_probes(
            self, tech65, monkeypatch):
        def age(fx):
            pd = fx.circuit["mn_l"]
            pd.degradation.delta_vt_v = 0.04
            pd.degradation.beta_factor = 0.9
            pu = fx.circuit["mp_r"]
            pu.params = dataclasses.replace(pu.params, temperature_k=380.0)

        fx = sram_cell(tech65, cell_ratio=1.2)
        before = _metrics(fx)  # builds the probes on fresh devices
        age(fx)
        cached = _metrics(fx)
        monkeypatch.setattr(digital, "_sram_probe", _fresh_probe)
        ref = sram_cell(tech65, cell_ratio=1.2)
        assert _metrics(ref) == before
        age(ref)
        assert cached == _metrics(ref)
        assert cached != before

    def test_probe_engine_survives_across_calls(self, tech65):
        fx = sram_cell(tech65, cell_ratio=1.2)
        sram_snm(fx, n_points=N_POINTS)
        probe = _probes_of(fx.circuit)["butterfly"]
        engine = dc._ENGINES[probe]
        for die in _dies(tech65, 3):
            _apply(fx, die)
            sram_snm(fx, n_points=N_POINTS)
        assert _probes_of(fx.circuit)["butterfly"] is probe
        assert dc._ENGINES[probe] is engine

    def test_adding_an_element_rebuilds_the_probe(self, tech65, monkeypatch):
        fx = sram_cell(tech65, cell_ratio=1.2)
        sram_snm(fx, n_points=N_POINTS)
        old = _probes_of(fx.circuit)["butterfly"]
        fx.circuit.resistor("rleak", "qb", "0", 2e5)
        leaky = sram_snm(fx, n_points=N_POINTS)
        new = _probes_of(fx.circuit)["butterfly"]
        assert new is not old
        assert "rleak" in new and "rleak" not in old
        monkeypatch.setattr(digital, "_sram_probe", _fresh_probe)
        ref = sram_cell(tech65, cell_ratio=1.2)
        ref.circuit.resistor("rleak", "qb", "0", 2e5)
        assert leaky == sram_snm(ref, n_points=N_POINTS)

    def test_probe_node_map_starts_with_the_base(self, tech65):
        fx = sram_cell(tech65, cell_ratio=1.2)
        _metrics(fx)
        base_nodes = fx.circuit.node_names
        for kind, probe in _probes_of(fx.circuit).items():
            assert probe.node_names[:len(base_nodes)] == base_nodes, kind
            assert probe.elements[:len(fx.circuit)] == fx.circuit.elements

    def test_probe_source_is_set_per_call(self, tech65):
        fx = sram_cell(tech65, cell_ratio=1.2)
        vdd = fx.circuit["vdd"].spec.dc_value()
        assert is_bistable(fx)
        # The last forced target of is_bistable is VDD; a fresh call
        # must start from 0 V again and still see both states.
        bistable = _probes_of(fx.circuit)["bistable"]
        assert bistable["vforce"].spec.dc_value() == vdd
        assert is_bistable(fx)


class TestSamplerSigmaMemo:
    GEOMETRIES = [(0.2e-6, 0.065e-6), (0.5e-6, 0.1e-6), (0.2e-6, 0.065e-6),
                  (1e-6, 0.065e-6), (0.5e-6, 0.1e-6)]

    @pytest.mark.parametrize("include_ler", [False, True])
    def test_draws_the_formula_stream(self, tech65, include_ler):
        sampler = MismatchSampler(tech65, np.random.default_rng(11),
                                  include_ler=include_ler)
        rng = np.random.default_rng(11)
        pelgrom = sampler.pelgrom
        for w, l in self.GEOMETRIES * 3:
            got = sampler.sample_device(w, l)
            sigma_vt = sampler.sigma_single_vt_v(w, l)
            sigma_beta = pelgrom.sigma_single_beta_fraction(w, l)
            sigma_gamma = (pelgrom.sigma_delta_gamma_v(w, l) / np.sqrt(2.0)
                           / tech65.gamma_body_sqrt_v)
            want = DeviceVariation(
                delta_vt_v=float(rng.normal(0.0, sigma_vt)),
                beta_factor=max(float(1.0 + rng.normal(0.0, sigma_beta)),
                                0.05),
                gamma_factor=max(float(1.0 + rng.normal(0.0, sigma_gamma)),
                                 0.05))
            assert got == want

    def test_non_positive_geometry_raises_every_time(self, tech65):
        sampler = MismatchSampler(tech65, np.random.default_rng(0))
        sampler.sample_device(0.2e-6, 0.065e-6)
        for _ in range(3):
            with pytest.raises(ValueError, match="positive"):
                sampler.sample_device(0.0, 0.065e-6)
            with pytest.raises(ValueError, match="positive"):
                sampler.sample_device(0.2e-6, -1e-9)


def _sram_engine(tech, fx=None):
    fx = fx if fx is not None else sram_cell(tech, cell_ratio=1.2)
    spec = Specification("read_snm", lambda f: sram_snm(f, n_points=11),
                         lower=0.0667)
    return HighSigmaYield(fx, spec, tech)


class TestHighSigmaEngineBuilds:
    def test_at_most_two_engines_per_chunk(self, tech65):
        engine = _sram_engine(tech65)
        with telemetry.session() as sess:
            engine.run(64, seed=1, chunk_size=16, surrogate="off")
        builds = sess.metrics.counter("solver.dc.engine_builds")
        chunks = sess.metrics.counter("highsigma.chunks")
        solves = sess.metrics.counter("highsigma.full_solves")
        assert chunks == 4 and solves == 64
        assert 0 < builds <= 2 * chunks + 1


class TestSharedTemplate:
    """Runs that share one fixture (serve's shared lease) never see
    each other's probing: each equals its serial result."""

    N_THREADS = 4

    def _concurrently(self, fn, n):
        results = [None] * n
        errors = []
        barrier = threading.Barrier(n)

        def work(i):
            try:
                barrier.wait()
                results[i] = fn(i)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(n)]
        # Frequent thread switches: more interleavings per run.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        return results

    def test_concurrent_probe_direction_matches_serial(self, tech65):
        fx = sram_cell(tech65, cell_ratio=1.2)
        serial = _sram_engine(tech65, fx).probe_direction()
        for _trial in range(3):
            got = self._concurrently(
                lambda i: _sram_engine(tech65, fx).probe_direction(),
                self.N_THREADS)
            assert all(direction == serial for direction in got)
        assert all(m.variation == DeviceVariation()
                   for m in fx.circuit.mosfets)

    def test_concurrent_runs_match_serial(self, tech65):
        fx = sram_cell(tech65, cell_ratio=1.2)

        def run(seed):
            result = _sram_engine(tech65, fx).run(32, seed=seed,
                                                  surrogate="off")
            return (result.failure_probability, result.standard_error,
                    result.full_solver_calls)

        serial = [run(seed) for seed in range(self.N_THREADS)]
        assert self._concurrently(run, self.N_THREADS) == serial
