"""The run contract every chunked engine keeps, checked on each engine.

Both :class:`MonteCarloYield` and :class:`HighSigmaYield` run on
:func:`repro.runner.run_chunks`; each case below is parametrized over
the two engines:

* serial, thread and process runs give the same bits;
* a Ctrl-C on a checkpointed run resumes to the same bits;
* an expired budget without a checkpoint returns a partial result
  carrying a ``resilience:budget`` ledger record;
* an expired budget with a checkpoint raises ``RunInterrupted`` with
  ``reason="budget"``, and its resume gives the same bits;
* an existing checkpoint is refused without ``resume``, ``resume``
  without a checkpoint is refused, and a resume under another seed or
  ``batch_size`` is refused;
* through the CLI, a resume under another node, circuit, spec bound,
  transient step or extractor keyword is refused (exit 2), and an
  unchanged resume prints the same report;
* through the library, a resume under another extractor, template
  (degradation, temperature) or sampler setting is refused, and a
  checkpointed run of a lambda or closure extractor is refused at
  start.

Apart from the chunked engines, every engine that takes a fixture
(Monte-Carlo, high-sigma, aging ensemble, corners on each backend,
lifetime, reliability yield, guardband and breakdown) leaves it as the
caller set it (``TestFixtureUntouched``).

The high-sigma case uses the analytic linear-tail engine with a
surrogate, so a resume must also replay the pilot, the refined
proposal and the surrogate fit exactly.
"""

import functools
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from repro.checkpoint import CheckpointError, RunInterrupted
from repro.circuits import differential_pair, input_referred_offset_v
from repro.core import (
    HighSigmaYield,
    MonteCarloYield,
    Specification,
    SurrogateConfig,
)
from repro.faultinject import current_sample, interrupting_extractor
from repro.technology import get_node
from repro.verify.oracles import HighSigmaLinearOracle


@dataclass(frozen=True)
class _Slow:
    """Picklable extractor wrapper that sleeps inside every sample.  It
    computes what it wraps, and says so (``__wrapped__``), so a run
    slowed by it resumes with the plain extractor."""

    base: Callable
    delay_s: float

    @property
    def __wrapped__(self) -> Callable:
        return self.base

    def __call__(self, fixture) -> float:
        if current_sample() is not None:
            time.sleep(self.delay_s)
        return self.base(fixture)


class _Case:
    """One engine under the contract: build, run, compare."""

    name: str
    #: A sample whose extractor call is certain (interrupt target).
    interrupt_on: int
    #: Per-sample sleep that lets a 0.25 s budget finish a chunk or
    #: two, never the whole run.
    delay_s: float

    def slow(self, extractor: Callable) -> _Slow:
        return _Slow(extractor, self.delay_s)

    def engine(self, wrap: Callable = lambda f: f):
        raise NotImplementedError

    def run(self, engine, **kwargs):
        raise NotImplementedError

    def bits(self, result) -> dict:
        raise NotImplementedError

    def assert_identical(self, a, b) -> None:
        bits_a, bits_b = self.bits(a), self.bits(b)
        assert bits_a.keys() == bits_b.keys()
        for key in bits_a:
            np.testing.assert_array_equal(bits_a[key], bits_b[key],
                                          err_msg=key)


class _MonteCarlo(_Case):
    name = "mc"
    interrupt_on = 13
    delay_s = 0.02

    def __init__(self):
        self.tech = get_node("90nm")
        self.fixture = differential_pair(self.tech)

    def engine(self, wrap=lambda f: f):
        spec = Specification("offset", wrap(input_referred_offset_v),
                             lower=-5e-3, upper=5e-3)
        return MonteCarloYield(self.fixture, [spec], self.tech)

    def run(self, engine, **kwargs):
        kwargs = {"seed": 3, "n_samples": 24, "chunk_size": 4, **kwargs}
        return engine.run(**kwargs)

    def bits(self, result):
        return {"values": result.values["offset"],
                "passes": result.passes,
                "spec_passes": result.spec_passes["offset"],
                "ledger": result.ledger.quarantined_indices(),
                "failure_counts": sorted(result.failure_counts.items())}


class _HighSigma(_Case):
    name = "highsigma"
    # An audit sample of the main stage: always fully solved.
    interrupt_on = 96
    # The 32 pilot samples alone outlast the budget.
    delay_s = 0.01

    def __init__(self):
        self.base = HighSigmaLinearOracle(k_sigma=3.0)._engine()

    def engine(self, wrap=lambda f: f):
        spec = self.base.spec
        return HighSigmaYield(
            self.base.fixture,
            Specification(spec.name, wrap(spec.extractor), spec.lower,
                          spec.upper),
            self.base.tech)

    def run(self, engine, **kwargs):
        kwargs = {"seed": 3, "n_samples": 128, "chunk_size": 16, **kwargs}
        return engine.run(surrogate=SurrogateConfig(train_samples=32),
                          **kwargs)

    def bits(self, result):
        return {"values": result.values, "weights": result.weights,
                "fails": result.fails, "solved": result.solved,
                "shift_sigma": result.shift_sigma,
                "direction": sorted(result.direction.items()),
                "audits": (result.audit_count, result.audit_mismatches),
                "ledger": result.ledger.quarantined_indices()}


@pytest.fixture(scope="module", params=[_MonteCarlo, _HighSigma],
                ids=lambda cls: cls.name)
def case(request):
    return request.param()


@pytest.fixture(scope="module")
def reference(case):
    return case.run(case.engine())


class TestRunContract:
    def test_backends_bit_identical(self, case, reference):
        engine = case.engine()
        for backend in ("serial", "thread", "process"):
            result = case.run(engine, jobs=2, backend=backend)
            case.assert_identical(result, reference)
            assert not result.is_degraded

    def test_interrupt_then_resume_bit_identical(self, case, reference,
                                                 tmp_path):
        ckpt = tmp_path / "ck"
        interrupted = case.engine(lambda f: interrupting_extractor(
            f, interrupt_on=case.interrupt_on))
        with pytest.raises(RunInterrupted) as excinfo:
            case.run(interrupted, checkpoint=ckpt)
        stop = excinfo.value
        assert stop.reason == "interrupt"
        assert stop.checkpoint_path == ckpt
        partial = stop.partial_result
        assert 0 < partial.n_evaluated < partial.n_samples
        assert partial.is_degraded
        resumed = case.run(case.engine(), checkpoint=ckpt, resume=True)
        case.assert_identical(resumed, reference)
        assert not resumed.is_degraded

    def test_budget_without_checkpoint_returns_partial(self, case):
        result = case.run(case.engine(case.slow), budget=0.25)
        assert result.is_degraded
        assert result.n_evaluated < result.n_samples
        assert any(r.label == "resilience:budget"
                   for r in result.ledger.records)

    def test_budget_with_checkpoint_interrupts_then_resumes(
            self, case, reference, tmp_path):
        ckpt = tmp_path / "ck"
        with pytest.raises(RunInterrupted) as excinfo:
            case.run(case.engine(case.slow), checkpoint=ckpt,
                     budget=0.25)
        stop = excinfo.value
        assert stop.reason == "budget"
        assert stop.checkpoint_path == ckpt
        assert stop.partial_result.n_evaluated \
            < stop.partial_result.n_samples
        resumed = case.run(case.engine(), checkpoint=ckpt, resume=True)
        case.assert_identical(resumed, reference)

    def test_existing_checkpoint_refused_without_resume(self, case,
                                                        tmp_path):
        ckpt = tmp_path / "ck"
        engine = case.engine()
        case.run(engine, checkpoint=ckpt)
        with pytest.raises(CheckpointError, match="resume"):
            case.run(engine, checkpoint=ckpt)

    def test_resume_without_checkpoint_refused(self, case, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            case.run(case.engine(), checkpoint=tmp_path / "absent",
                     resume=True)

    def test_mismatched_resume_refused(self, case, tmp_path):
        ckpt = tmp_path / "ck"
        engine = case.engine()
        case.run(engine, checkpoint=ckpt)
        for changed, message in [
                ({"seed": 4}, "mismatch on 'seed'"),
                ({"n_samples": 256}, "mismatch on 'n_samples'"),
                ({"chunk_size": 8}, "mismatch on 'chunk_size'"),
                ({"batch_size": 4}, "accelerator configuration mismatch")]:
            with pytest.raises(CheckpointError, match=message):
                case.run(engine, checkpoint=ckpt, resume=True, **changed)


# ----------------------------------------------------------------------
# The checkpoint records what the run computes on, not only its seed
# ----------------------------------------------------------------------

_MC = ["mc", "--samples", "24", "--seed", "3"]
_RING = ["mc", "--workload", "ring", "--samples", "8", "--seed", "3"]
_HS = ["highsigma", "--samples", "64", "--seed", "3", "--snm-min-mv",
       "66.7", "--train-samples", "32"]


@pytest.mark.parametrize("base, changed", [
    pytest.param(_MC, ["--tech", "45nm"], id="mc-tech"),
    pytest.param(_MC, ["--w-um", "2"], id="mc-w-um"),
    pytest.param(_MC, ["--limit-mv", "3"], id="mc-limit-mv"),
    pytest.param(_RING, ["--ring-dt", "2e-12"], id="ring-dt"),
    pytest.param(_HS, ["--tech", "90nm"], id="highsigma-tech"),
    pytest.param(_HS, ["--snm-points", "21"], id="highsigma-snm-points"),
    pytest.param(_HS, ["--snm-min-mv", "70"], id="highsigma-snm-min-mv"),
])
def test_cli_resume_refuses_another_configuration(base, changed, tmp_path,
                                                  capsys):
    from repro.cli import main

    argv = base + ["--quiet", "--checkpoint", str(tmp_path / "ck")]
    assert main(argv) == 0
    reference = capsys.readouterr().out
    assert main(argv + ["--resume"]) == 0
    assert capsys.readouterr().out == reference
    assert main(argv + ["--resume"] + changed) == 2
    assert "checkpoint refused" in capsys.readouterr().err


def _scaled_offset(fixture, scale: float) -> float:
    return scale * input_referred_offset_v(fixture)


def test_resume_refuses_other_extractor_keywords(tmp_path):
    tech = get_node("90nm")
    fixture = differential_pair(tech)

    def engine(scale):
        spec = Specification("offset",
                             functools.partial(_scaled_offset, scale=scale),
                             lower=-5e-3, upper=5e-3)
        return MonteCarloYield(fixture, [spec], tech)

    ckpt = tmp_path / "ck"
    engine(1.0).run(n_samples=8, chunk_size=4, seed=3, checkpoint=ckpt)
    with pytest.raises(CheckpointError, match="specs"):
        engine(2.0).run(n_samples=8, chunk_size=4, seed=3,
                        checkpoint=ckpt, resume=True)
    engine(1.0).run(n_samples=8, chunk_size=4, seed=3, checkpoint=ckpt,
                    resume=True)


def _snm_engine(n_points: int) -> HighSigmaYield:
    from repro.circuits import sram_cell
    from repro.workloads import SnmExtractor

    tech = get_node("65nm")
    spec = Specification("read_snm", SnmExtractor(n_points), lower=0.0667)
    return HighSigmaYield(sram_cell(tech, cell_ratio=1.2), spec, tech)


def test_snm_identity_is_its_class_and_grid():
    # The sram checkpoint names the extractor's class and its grid, so
    # a partial of sram_snm, which computes the same values through
    # another function, is another identity.
    from repro.runner import run_identity
    from repro.workloads import sram_snm

    engine = _snm_engine(41)
    partial = Specification("read_snm",
                            functools.partial(sram_snm, n_points=41),
                            lower=0.0667)
    mine = run_identity(engine.fixture, [engine.spec], engine.tech)
    assert mine["specs"][0]["extractor"] == {
        "__class__": "repro.workloads:SnmExtractor", "n_points": 41}
    assert mine["specs"] != run_identity(engine.fixture, [partial],
                                         engine.tech)["specs"]


def test_resume_refuses_another_offset_grid(tmp_path):
    # The identity names the grid; a wrapper that says what it wraps
    # (``__wrapped__``) has its base's identity.  A resume under another
    # grid is refused instead of splicing chunks of two grids.
    from repro.runner import run_identity
    from repro.workloads import OffsetExtractor

    tech = get_node("90nm")
    fx = differential_pair(tech)

    def engine(extractor):
        spec = Specification("offset", extractor, lower=-5e-3, upper=5e-3)
        return MonteCarloYield(fx, [spec], tech)

    default = run_identity(fx, engine(OffsetExtractor()).specs, tech)
    assert default["specs"][0]["extractor"] == {
        "__class__": "repro.workloads:OffsetExtractor", "n_points": 81,
        "search_range_v": "0.2"}
    assert default == run_identity(fx, engine(_Slow(OffsetExtractor(),
                                                    0.0)).specs, tech)
    ckpt = tmp_path / "ck"
    kwargs = dict(n_samples=8, chunk_size=4, seed=3, checkpoint=ckpt)
    reference = engine(OffsetExtractor(n_points=81)).run(**kwargs)
    with pytest.raises(CheckpointError, match="specs"):
        engine(OffsetExtractor(n_points=41)).run(resume=True, **kwargs)
    resumed = engine(OffsetExtractor()).run(resume=True, **kwargs)
    np.testing.assert_array_equal(resumed.values["offset"],
                                  reference.values["offset"])


def test_resume_refuses_another_netlist_node(tmp_path):
    # Same netlist, spec name and bounds: only the node read differs,
    # and the identity names it, so the resume is refused.
    from repro.workloads import NodeVoltageExtractor, netlist_fixture

    tech = get_node("90nm")
    fx = netlist_fixture("""two stages
vdd vdd 0 dc 1.2
vg g 0 dc 0.55
r1 vdd a 20k
m1 a g 0 0 n w=1u l=0.1u
r2 vdd out 15k
m2 out a 0 0 n w=2u l=0.1u
.end
""", tech)

    def engine(node):
        spec = Specification("v", NodeVoltageExtractor(node), lower=0.05,
                             upper=1.15)
        return MonteCarloYield(fx, [spec], tech)

    ckpt = tmp_path / "ck"
    kwargs = dict(n_samples=8, chunk_size=4, seed=3, checkpoint=ckpt)
    reference = engine("out").run(**kwargs)
    with pytest.raises(CheckpointError, match="specs"):
        engine("a").run(resume=True, **kwargs)
    resumed = engine("out").run(resume=True, **kwargs)
    np.testing.assert_array_equal(resumed.values["v"],
                                  reference.values["v"])


def test_resume_refuses_another_snm_grid(tmp_path):
    # One shift direction for both grids: only the grid differs.
    ckpt = tmp_path / "ck"
    kwargs = dict(n_samples=64, chunk_size=32, seed=3, surrogate=None,
                  direction={"mn_r": -0.6, "mn_axr": -0.8},
                  checkpoint=ckpt)
    reference = _snm_engine(41).run(**kwargs)
    with pytest.raises(CheckpointError, match="specs"):
        _snm_engine(81).run(resume=True, **kwargs)
    resumed = _snm_engine(41).run(resume=True, **kwargs)
    np.testing.assert_array_equal(resumed.values, reference.values)


def _doubled_offset(fixture) -> float:
    return 2.0 * input_referred_offset_v(fixture)


def _aged(fixture) -> None:
    for device in fixture.circuit.mosfets:
        device.degradation.delta_vt_v = 0.02


def _hot(fixture) -> None:
    from dataclasses import replace

    for device in fixture.circuit.mosfets:
        device.params = replace(device.params, temperature_k=400.0)


def _placements():
    from repro.variability import Placement

    return {"m1": Placement(0.0, 0.0), "m2": Placement(50e-6, 0.0)}


@pytest.mark.parametrize("changed, key", [
    pytest.param({"extractor": _doubled_offset}, "specs", id="extractor"),
    pytest.param({"template": _aged}, "fixture", id="degraded"),
    pytest.param({"template": _hot}, "fixture", id="temperature"),
    pytest.param({"include_ler": True}, "sampler", id="include-ler"),
    pytest.param({"placements": _placements}, "sampler", id="placements"),
])
def test_resume_refuses_another_computation(changed, key, tmp_path):
    # Same spec name, bounds, seed and circuit cards: only what the
    # dies compute on differs, and the resume is refused on it.
    tech = get_node("90nm")

    def engine(extractor=input_referred_offset_v, template=None,
               include_ler=False, placements=None):
        fx = differential_pair(tech)
        if template is not None:
            template(fx)
        spec = Specification("offset", extractor, lower=-5e-3, upper=5e-3)
        return MonteCarloYield(fx, [spec], tech, include_ler=include_ler,
                               placements=placements and placements())

    ckpt = tmp_path / "ck"
    kwargs = dict(n_samples=8, chunk_size=4, seed=3, checkpoint=ckpt)
    reference = engine().run(**kwargs)
    with pytest.raises(CheckpointError, match=f"mismatch on {key!r}"):
        engine(**changed).run(resume=True, **kwargs)
    resumed = engine().run(resume=True, **kwargs)
    np.testing.assert_array_equal(resumed.values["offset"],
                                  reference.values["offset"])


def test_high_sigma_resume_refuses_another_include_ler(tmp_path):
    # A given direction skips the probe, so only the sampler differs.
    base = HighSigmaLinearOracle(k_sigma=3.0)._engine()
    ckpt = tmp_path / "ck"
    kwargs = dict(n_samples=32, chunk_size=16, seed=3, surrogate=None,
                  direction={"m1": -0.8, "m2": 0.6}, checkpoint=ckpt)
    HighSigmaYield(base.fixture, base.spec, base.tech).run(**kwargs)
    with pytest.raises(CheckpointError, match="mismatch on 'sampler'"):
        HighSigmaYield(base.fixture, base.spec, base.tech,
                       include_ler=True).run(resume=True, **kwargs)


def _local_extractor():
    def offset(fixture):
        return input_referred_offset_v(fixture)
    return offset


@pytest.mark.parametrize("extractor", [
    pytest.param(lambda fixture: input_referred_offset_v(fixture),
                 id="lambda"),
    pytest.param(_local_extractor(), id="locals"),
])
def test_checkpoint_needs_a_named_extractor(extractor, tmp_path):
    # A lambda or closure names nothing a resume could match: refused
    # before any die runs.  Without a checkpoint it runs as before.
    tech = get_node("90nm")
    engine = MonteCarloYield(
        differential_pair(tech),
        [Specification("offset", extractor, lower=-5e-3, upper=5e-3)],
        tech)
    ckpt = tmp_path / "ck"
    with pytest.raises(CheckpointError, match="spec 'offset'"):
        engine.run(n_samples=4, chunk_size=4, seed=3, checkpoint=ckpt)
    assert not ckpt.exists()
    assert engine.run(n_samples=4, chunk_size=4, seed=3).n_evaluated == 4


# ----------------------------------------------------------------------
# Every engine treats the fixture it is handed as a read-only template
# ----------------------------------------------------------------------

def _aging():
    from repro.aging import HciModel, NbtiModel
    from repro.core import MissionProfile

    tech = get_node("90nm")
    return ([HciModel(tech.aging), NbtiModel(tech.aging)],
            MissionProfile(n_epochs=2))


def _corners(backend):
    def run(fx, tech):
        from repro.core import CornerAnalysis

        spec = Specification("offset", input_referred_offset_v,
                             lower=-5e-3, upper=5e-3)
        CornerAnalysis(fx, [spec], tech, vdd_scales=(1.0,),
                       temperatures_k=(300.0,)).run(
            jobs=1 if backend == "serial" else 2, backend=backend)
    return run


def _monte_carlo(fx, tech):
    spec = Specification("offset", input_referred_offset_v, lower=-5e-3,
                         upper=5e-3)
    MonteCarloYield(fx, [spec], tech).run(n_samples=4, seed=1)


def _high_sigma(fx, tech):
    spec = Specification("offset", input_referred_offset_v, lower=-5e-3,
                         upper=5e-3)
    HighSigmaYield(fx, spec, tech).run(8, shift_sigma=1.0, seed=1,
                                       adapt=False)


def _aging_ensemble(fx, tech):
    from repro.core import aging_ensemble

    mechanisms, profile = _aging()
    aging_ensemble(fx, mechanisms, profile,
                   {"offset": input_referred_offset_v}, tech, n_samples=2)


def _lifetime(fx, tech):
    from repro.core import LifetimeEstimator

    mechanisms, profile = _aging()
    LifetimeEstimator(fx, mechanisms, tech, input_referred_offset_v,
                      lower=-1.0, upper=1.0).run(profile, n_samples=2)


def _reliability_yield(fx, tech):
    from repro.core import reliability_yield

    mechanisms, profile = _aging()
    reliability_yield(fx, mechanisms, tech, input_referred_offset_v,
                      profile, n_samples=2, lower=-1.0, upper=1.0)


def _guardband(fx, tech):
    from repro.core import guardband_analysis

    mechanisms, profile = _aging()
    guardband_analysis(fx, lambda f: 1.0 + input_referred_offset_v(f),
                       tech, mechanisms=mechanisms, profile=profile,
                       n_mc_samples=2)


def _breakdown(fx, tech):
    from repro.aging import TddbModel
    from repro.core import BreakdownSimulator

    BreakdownSimulator(fx, TddbModel(tech.aging)).run(
        n_samples=3, horizon_s=1e12)


class TestFixtureUntouched:
    """A run leaves every device's params, variation and degradation,
    and every source's value, as the caller set them.  The fixture
    carries a non-default temperature, a mismatch and a degradation, so
    an engine that resets to nominal is caught too."""

    @staticmethod
    def _state(fx):
        from dataclasses import replace

        devices = [(m.name, m.params, m.variation, replace(m.degradation))
                   for m in fx.circuit.mosfets]
        sources = [(e.name, e.spec) for e in fx.circuit
                   if hasattr(e, "spec")]
        return devices, sources

    @pytest.mark.parametrize("run", [
        _monte_carlo, _high_sigma, _aging_ensemble, _corners("serial"),
        _corners("thread"), _corners("process"), _lifetime,
        _reliability_yield, _guardband, _breakdown,
    ], ids=["mc", "highsigma", "aging_ensemble", "corners-serial",
            "corners-thread", "corners-process", "lifetime",
            "reliability_yield", "guardband", "breakdown"])
    def test_engine_leaves_fixture_as_given(self, run):
        from dataclasses import replace

        from repro.circuit.mosfet import DeviceVariation

        tech = get_node("90nm")
        fx = differential_pair(tech)
        for device in fx.circuit.mosfets:
            device.params = replace(device.params, temperature_k=350.0)
            device.variation = DeviceVariation(delta_vt_v=4e-3)
            device.degradation.delta_vt_v = 2e-3
        before = self._state(fx)
        run(fx, tech)
        assert self._state(fx) == before
