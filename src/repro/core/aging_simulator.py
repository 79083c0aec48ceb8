"""Waveform-driven circuit aging simulation (the §5-intro "analysis
tools at design time").

The simulator alternates **simulate → extract stress → degrade** over
log-spaced mission epochs, exactly the structure the paper calls for
("it should then be straightforward to implement this model in a
circuit simulator", §3.1; "CAD tools to simulate the ageing of a
circuit due to hot carriers have already been developed", §3.2):

1. apply the currently accumulated degradation to every device;
2. simulate the circuit — a DC operating point for static (analog
   bias) operation or a short periodic transient for switching
   operation — and extract each device's :class:`DeviceStress`;
3. advance every mechanism's damage state by the epoch duration
   (equivalent-time accumulation, so stress may change between epochs);
4. re-apply degradation and record the user's performance metrics.

Log-spaced epochs capture the t^n front-loading of NBTI/HCI without
wasting simulations on the flat tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry, units
from repro.aging.base import AgingMechanism, DeviceStress, MechanismState
from repro.circuit.dc import DcSolution, dc_operating_point
from repro.circuit.transient import transient
from repro.circuits.references import CircuitFixture
from repro.parallel import ParallelMap, replicate, spawn_seed_sequences

MetricFn = Callable[[CircuitFixture], float]


@dataclass(frozen=True)
class MissionPhase:
    """One repeating operating phase of a duty-cycled mission.

    Real products alternate between operating and off/standby states —
    a car is parked most of its life.  During a powered-off phase the
    devices see no electrical stress and the NBTI recoverable component
    relaxes (§3.3); temperature usually differs too.
    """

    fraction: float
    """Share of every epoch spent in this phase (phases sum to 1)."""

    temperature_k: float
    """Junction temperature during the phase [K]."""

    powered: bool = True
    """Whether the circuit is biased (False = relaxation phase)."""

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("phase fraction must be in (0, 1]")
        if self.temperature_k <= 0.0:
            raise ValueError("temperature must be positive")


@dataclass
class MissionProfile:
    """How the circuit is operated over its lifetime."""

    duration_s: float = units.years_to_seconds(10.0)
    """Mission length [s] (default: the canonical 10-year life)."""

    n_epochs: int = 12
    """Number of log-spaced aging epochs."""

    t_first_epoch_s: float = 1e3
    """End of the first epoch [s] (log spacing starts here)."""

    temperature_k: float = units.celsius_to_kelvin(105.0)
    """Junction temperature [K] (default: hot automotive-ish 105 °C)."""

    stress_mode: str = "dc"
    """``"dc"`` (static bias) or ``"transient"`` (periodic switching)."""

    transient_t_stop_s: float = 10e-9
    """Length of the representative activity window (transient mode)."""

    transient_dt_s: float = 20e-12
    """Timestep of the activity window (transient mode)."""

    transient_method: str = "backward_euler"
    """Integration method for stress extraction.  Backward Euler by
    default: its numerical damping suppresses the trapezoidal ringing
    that would otherwise inflate the hot-carrier stress estimate (the
    lucky-electron factor is exponentially sensitive to overshoot)."""

    phases: Optional[Tuple[MissionPhase, ...]] = None
    """Optional duty-cycle decomposition of every epoch.  ``None`` means
    continuously powered at ``temperature_k``.  With phases, each epoch
    interval is split per the phase fractions; unpowered phases apply
    zero stress (NBTI relaxes, HCI freezes)."""

    def __post_init__(self) -> None:
        if self.duration_s <= 0.0:
            raise ValueError("mission duration must be positive")
        if self.n_epochs < 1:
            raise ValueError("need at least one epoch")
        if not 0.0 < self.t_first_epoch_s <= self.duration_s:
            raise ValueError("t_first_epoch_s must fall inside the mission")
        if self.stress_mode not in ("dc", "transient"):
            raise ValueError(f"unknown stress mode {self.stress_mode!r}")
        if self.phases is not None:
            total = sum(p.fraction for p in self.phases)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(
                    f"phase fractions must sum to 1, got {total}")
            if not any(p.powered for p in self.phases):
                raise ValueError("at least one phase must be powered")

    def epoch_times_s(self) -> np.ndarray:
        """Log-spaced epoch end times, finishing at the mission end."""
        if self.n_epochs == 1:
            return np.array([self.duration_s])
        return np.logspace(math.log10(self.t_first_epoch_s),
                           math.log10(self.duration_s), self.n_epochs)


@dataclass
class AgingReport:
    """Time trajectories produced by a :class:`ReliabilitySimulator` run."""

    times_s: np.ndarray
    """Epoch end times [s]; index 0 is the FRESH (t = 0) point."""

    metrics: Dict[str, np.ndarray]
    """Metric name → trajectory (same length as ``times_s``)."""

    device_delta_vt_v: Dict[str, np.ndarray]
    """Device name → accumulated |ΔV_T| trajectory."""

    def metric(self, name: str) -> np.ndarray:
        """Trajectory of one metric."""
        return self.metrics[name]

    def drift(self, name: str) -> float:
        """Relative end-of-life drift of a metric (signed fraction)."""
        traj = self.metrics[name]
        if traj[0] == 0.0:
            raise ZeroDivisionError(f"metric {name!r} starts at zero")
        return float((traj[-1] - traj[0]) / traj[0])


class ReliabilitySimulator:
    """Simulate → stress → degrade loop over a mission profile."""

    def __init__(self, fixture: CircuitFixture,
                 mechanisms: Sequence[AgingMechanism]):
        if not mechanisms:
            raise ValueError("at least one aging mechanism is required")
        self.fixture = fixture
        self.mechanisms = list(mechanisms)
        self._states: Dict[Tuple[str, str], MechanismState] = {}

    # ------------------------------------------------------------------
    # Stress extraction
    # ------------------------------------------------------------------
    def _extract_stresses_dc(self, profile: MissionProfile
                             ) -> Dict[str, DeviceStress]:
        op = dc_operating_point(self.fixture.circuit)
        stresses = {}
        for device in self.fixture.circuit.mosfets:
            dev_op = device.operating_point(op.x)
            stresses[device.name] = DeviceStress.static(
                dev_op.vgs_v, dev_op.vds_v, profile.temperature_k)
        return stresses

    def _extract_stresses_transient(self, profile: MissionProfile
                                    ) -> Dict[str, DeviceStress]:
        result = transient(self.fixture.circuit,
                           t_stop=profile.transient_t_stop_s,
                           dt=profile.transient_dt_s,
                           method=profile.transient_method)
        stresses = {}
        for device in self.fixture.circuit.mosfets:
            bias = result.device_bias(device.name)
            stresses[device.name] = DeviceStress.from_waveforms(
                bias["vgs"], bias["vds"], bias["ids"],
                temperature_k=profile.temperature_k)
        return stresses

    def extract_stresses(self, profile: MissionProfile
                         ) -> Dict[str, DeviceStress]:
        """One round of stress extraction under the current degradation."""
        if profile.stress_mode == "dc":
            return self._extract_stresses_dc(profile)
        return self._extract_stresses_transient(profile)

    # ------------------------------------------------------------------
    # Degradation bookkeeping
    # ------------------------------------------------------------------
    def _state(self, device_name: str, mechanism: AgingMechanism
               ) -> MechanismState:
        key = (device_name, mechanism.name)
        if key not in self._states:
            self._states[key] = MechanismState()
        return self._states[key]

    def _apply_degradation(self) -> None:
        """Recompute every device's degradation from the damage states."""
        for device in self.fixture.circuit.mosfets:
            device.degradation.reset()
            for mechanism in self.mechanisms:
                if not mechanism.affects(device):
                    continue
                state = self._state(device.name, mechanism)
                mechanism.contribute(device, state)

    def reset(self) -> None:
        """Forget all accumulated damage (devices back to fresh)."""
        self._states.clear()
        for device in self.fixture.circuit.mosfets:
            device.degradation.reset()

    def total_delta_vt(self, device_name: str) -> float:
        """Accumulated ΔV_T of one device across mechanisms [V]."""
        return sum(state.delta_vt_v
                   for (dev, _), state in self._states.items()
                   if dev == device_name)

    def apply_epoch(self, profile: MissionProfile, dt_s: float,
                    operating_stresses: Dict[str, DeviceStress]) -> None:
        """Advance every mechanism by one ``dt_s``-second epoch under the
        extracted stresses (honouring the duty-cycle phases) and re-apply
        the accumulated degradation to the devices.

        This is the degrade half of the simulate→stress→degrade loop
        that :meth:`run` drives epoch by epoch.
        """
        devices = self.fixture.circuit.mosfets
        if profile.phases is None:
            schedule = [(dt_s, operating_stresses)]
        else:
            # Duty-cycled epoch: powered phases see the extracted
            # stress (at the phase temperature); unpowered phases see
            # zero bias — NBTI relaxes, HCI freezes.
            schedule = []
            for phase in profile.phases:
                if phase.powered:
                    phase_stresses = {
                        name: DeviceStress(
                            vgs_v=s.vgs_v, vds_v=s.vds_v,
                            temperature_k=phase.temperature_k,
                            vgs_waveform=s.vgs_waveform,
                            vds_waveform=s.vds_waveform,
                            ids_waveform=s.ids_waveform)
                        for name, s in operating_stresses.items()
                    }
                else:
                    phase_stresses = {
                        device.name: DeviceStress.static(
                            0.0, 0.0, phase.temperature_k)
                        for device in devices
                    }
                schedule.append((phase.fraction * dt_s, phase_stresses))
        for dt_phase, stresses in schedule:
            for device in devices:
                stress = stresses[device.name]
                for mechanism in self.mechanisms:
                    if not mechanism.affects(device):
                        continue
                    state = self._state(device.name, mechanism)
                    mechanism.advance(device, stress, state, dt_phase)
        self._apply_degradation()

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, profile: MissionProfile,
            metrics: Optional[Dict[str, MetricFn]] = None) -> AgingReport:
        """Run the full mission and record metric trajectories.

        ``metrics`` maps names to functions of the fixture, evaluated
        FRESH (index 0) and after every epoch.  The fixture is left in
        its end-of-life state afterwards (call :meth:`reset` to refresh).
        """
        metric_fns = metrics if metrics is not None else {}
        epoch_ends = profile.epoch_times_s()
        times = np.concatenate(([0.0], epoch_ends))
        trajectories = {name: np.empty(len(times)) for name in metric_fns}
        devices = self.fixture.circuit.mosfets
        delta_vt = {d.name: np.zeros(len(times)) for d in devices}

        with telemetry.span("aging.mission", n_epochs=profile.n_epochs,
                            stress_mode=profile.stress_mode,
                            duration_s=profile.duration_s):
            self._apply_degradation()
            for name, fn in metric_fns.items():
                trajectories[name][0] = fn(self.fixture)

            session = telemetry.active()
            t_prev = 0.0
            for k, t_end in enumerate(epoch_ends, start=1):
                if session is not None:
                    session.metrics.inc("engine.aging_epochs")
                with telemetry.span("aging.epoch", epoch=k,
                                    t_end_s=float(t_end)):
                    dt = t_end - t_prev
                    operating_stresses = self.extract_stresses(profile)
                    self.apply_epoch(profile, dt, operating_stresses)
                    for device in devices:
                        delta_vt[device.name][k] = \
                            self.total_delta_vt(device.name)
                    for name, fn in metric_fns.items():
                        trajectories[name][k] = fn(self.fixture)
                    t_prev = t_end

        return AgingReport(times_s=times, metrics=trajectories,
                           device_delta_vt_v=delta_vt)


@dataclass(frozen=True)
class _MissionSample:
    """One :func:`aging_ensemble` die: ``(index, seed_seq) -> (report
    or quarantined exception, telemetry payload)``.  A module-level
    callable, so the process backend can pickle it."""

    fixture: CircuitFixture
    mechanisms: Sequence[AgingMechanism]
    profile: MissionProfile
    metrics: Dict[str, MetricFn]
    tech: object
    include_ler: bool
    quarantine: bool
    trace: bool
    records: bool

    def __call__(self, task):
        from repro.core.yield_analysis import QUARANTINE_ERRORS
        from repro.faultinject import set_current_sample
        from repro.variability.sampler import MismatchSampler

        index, seed_seq = task
        # Each sample collects into a private worker session (span tree
        # ``sample → aging.mission → aging.epoch → solve.*``) shipped
        # back with the outcome, mirroring the Monte-Carlo chunks.
        with telemetry.worker_session(self.trace, f"s{index}.",
                                      self.records) as tsession:
            sample_ctx = telemetry.NULL_SPAN if tsession is None else \
                tsession.tracer.span("sample", index=index,
                                     worker=telemetry.worker_label())
            try:
                with sample_ctx:
                    fx, mechs = replicate((self.fixture, self.mechanisms))
                    sampler = MismatchSampler(
                        self.tech, np.random.default_rng(seed_seq),
                        include_ler=self.include_ler)
                    set_current_sample(index)
                    sampler.assign(fx.circuit)
                    outcome = ReliabilitySimulator(fx, list(mechs)).run(
                        self.profile, metrics=self.metrics)
            except QUARANTINE_ERRORS as exc:
                if not self.quarantine:
                    raise
                outcome = exc
            finally:
                set_current_sample(None)
            payload = None if tsession is None else tsession.export()
            return outcome, payload


def aging_ensemble(fixture: CircuitFixture,
                   mechanisms: Sequence[AgingMechanism],
                   profile: MissionProfile,
                   metrics: Dict[str, MetricFn],
                   tech,
                   n_samples: int,
                   seed: int = 0,
                   jobs: int = 1,
                   backend: str = "auto",
                   include_ler: bool = False,
                   quarantine: bool = False):
    """Monte-Carlo aging: mission trajectories over sampled mismatch.

    The paper's §2 and §3 interact — a die's time-zero mismatch shifts
    its bias point, which changes its stress, which changes how it
    ages.  This helper runs the full simulate→stress→degrade mission on
    ``n_samples`` virtual dies, each with fresh
    :class:`~repro.variability.MismatchSampler` variations, and returns
    one :class:`AgingReport` per die (in sample order).

    Every sample evaluates a private replica of ``(fixture,
    mechanisms)`` seeded from its own ``SeedSequence.spawn`` child, so
    results are bit-identical for any ``jobs``/``backend`` choice and
    the caller's fixture is never mutated.

    With ``quarantine=True`` the return value is ``(reports, ledger)``:
    a die whose mission fails (non-convergence at some epoch, singular
    system, timeout) gets a ``None`` placeholder instead of aborting the
    ensemble, and the :class:`~repro.parallel.FailureLedger` records the
    sample index and diagnostics.  The default (``False``) keeps the
    historical contract: a plain report list, failures propagate.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    seeds = spawn_seed_sequences(seed, n_samples)
    session = telemetry.active()
    trace = session is not None
    evaluate = _MissionSample(
        fixture, mechanisms, profile, metrics, tech, include_ler,
        quarantine, trace, trace and session.tracer.keeps_records)
    mapper = ParallelMap(backend=backend, n_jobs=jobs)
    tasks = list(enumerate(seeds))
    run_ctx = telemetry.NULL_SPAN if session is None else \
        session.tracer.span("run", kind="aging-ensemble",
                            n_samples=n_samples, jobs=jobs, backend=backend)
    with run_ctx as run_span:
        outcomes = []
        for outcome, payload in mapper.map(evaluate, tasks):
            if session is not None:
                session.merge_worker(payload, run_span)
                session.metrics.inc("engine.samples")
            outcomes.append(outcome)
        if not quarantine:
            return outcomes

        from repro import resilience
        from repro.parallel import FailureLedger

        reports: List[Optional[AgingReport]] = []
        ledger = FailureLedger()
        for index, outcome in enumerate(outcomes):
            if isinstance(outcome, BaseException):
                reports.append(None)
                ledger.add(index, outcome, label="mission")
            else:
                reports.append(outcome)
        resilience.supervisor().drain_into(ledger)
        ledger.dedupe_run_level()
        return reports, ledger
