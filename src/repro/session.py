"""Top-level simulation entry points.

:func:`simulate` is the main public API: run one workload under one caching
policy -- static, or *online adaptive* when an
:class:`~repro.adaptive.config.AdaptiveConfig` is supplied -- and return a
:class:`~repro.stats.report.RunReport`.  A
:class:`~repro.topology.config.TopologyConfig` additionally composes the
single-device model into a multi-device NUMA system: the workload is
partitioned across the devices and the hierarchy is assembled with
distributed L2 slices, per-device DRAM partitions and an inter-device
fabric.
Passing ``streams=...`` (a :class:`~repro.streams.config.ServingMix` or a
sequence of :class:`~repro.streams.config.StreamConfig`) switches the
session into multi-tenant serving mode: every stream runs its own workload
concurrently on the one GPU, kernel-boundary synchronization is scoped to
the finishing stream's cache lines, and the report carries per-stream
sub-counters (``stream<i>.*``) for interference analysis.
:class:`SimulationSession` is the underlying object for callers that want
access to the assembled components (hierarchy, GPU, statistics, and for
adaptive runs the dynamic controller) -- the examples and some tests use it
directly.
"""

from __future__ import annotations

import time
from dataclasses import replace as dc_replace
from typing import Optional, Sequence, Union

from repro.accel.config import SamplingConfig, ShardConfig
from repro.accel.sampling import KernelSampler
from repro.adaptive.config import AdaptiveConfig
from repro.adaptive.controller import DynamicPolicyController, DynamicPolicyEngine
from repro.adaptive.phase import PhaseDetector
from repro.config import SystemConfig, default_config
from repro.core.policies import PolicySpec, policy_by_name
from repro.core.policy_engine import PolicyEngine
from repro.core.reuse_predictor import PredictorConfig
from repro.engine import Simulator
from repro.faults.config import FaultPlan
from repro.faults.injector import FaultInjector
from repro.fingerprint import fingerprint
from repro.gpu.gpu import Gpu
from repro.memory.address_mapping import AddressMapping, DeviceInterleave
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs.alerts import detect_anomalies
from repro.obs.config import ObsConfig
from repro.obs.ledger import RunLedger, component_digests, run_entry
from repro.stats import RunReport, StatsCollector
from repro.streams.address_space import isolate_traces
from repro.telemetry import MetricsSampler, SimProfiler, TelemetryConfig, TraceRecorder
from repro.streams.config import ServingMix, StreamConfig
from repro.topology.config import TopologyConfig
from repro.topology.partition import partition_trace
from repro.workloads.base import Workload
from repro.workloads.registry import get_workload
from repro.workloads.trace import WorkloadTrace

#: accepted forms of the ``streams`` argument
StreamsSpec = Union[ServingMix, Sequence[StreamConfig]]

__all__ = ["SimulationSession", "simulate"]


class SimulationSession:
    """One fully assembled simulated system ready to run a workload.

    Args:
        policy: the caching policy (a :class:`PolicySpec` or its name).
            Ignored when ``adaptive`` is given -- the adaptive
            configuration's candidates govern the run.
        config: system configuration; defaults to the scaled 8-CU system.
            With a multi-device topology the configuration describes *one
            device*: the hardware grows with the device count while the
            workload stays fixed (strong scaling).
        predictor_config: optional reuse-predictor geometry override.
        dbi_max_rows: optional dirty-block-index capacity bound.
        adaptive: when given, build the online adaptive subsystem instead
            of a static policy engine: a set-dueling monitor on the L2, a
            phase detector on the event queue, and a dynamic controller
            swapping the follower-set policy at kernel boundaries (and
            optionally mid-kernel).  The run report's policy label is the
            adaptive configuration's display name.
        topology: when given (and ``num_devices > 1``), assemble a
            multi-device NUMA system: one L2 slice + DRAM partition per
            device joined by a fabric, address interleaving across the
            partitions, device-affine wavefront dispatch, and workload
            partitioning at :meth:`run`.  A one-device topology is
            bit-identical to no topology at all.
        streams: when given (a :class:`~repro.streams.config.ServingMix`
            or a sequence of :class:`~repro.streams.config.StreamConfig`),
            run in multi-tenant serving mode: every stream's workload is
            resolved from the registry and executed concurrently under the
            mix's CU share policy, kernel boundaries are stream-scoped,
            and per-stream counters are recorded.  :meth:`run` then takes
            no workload argument.  A single-entry stream list is
            bit-identical to the plain run of that workload (modulo the
            extra ``stream0.*`` counters).
        faults: when given, a :class:`~repro.faults.config.FaultPlan`
            whose events (link degradation/outage, device failure with
            evacuation, DRAM spikes, tenant kill/restart) are injected
            deterministically during the run; the report then carries
            ``faults.*`` resilience counters.  The empty plan injects
            nothing and is bit-identical to ``faults=None``.
        sampling: when given (an enabled
            :class:`~repro.accel.config.SamplingConfig`), fast-forward
            steady-state kernel repeats: after a few measured instances
            per kernel signature the remaining repeats are skipped and
            their counters extrapolated with warmup correction, with
            per-counter error bounds on ``report.error_estimates`` and a
            summary on ``report.sampling``.  Sampling requires
            unambiguous delta attribution, so it rejects adaptive runs,
            fault plans with events, and serving mixes with more than
            one stream.  A disabled config is bit-identical to
            ``sampling=None`` (exact mode).
        telemetry: when given (a
            :class:`~repro.telemetry.TelemetryConfig`), attach the enabled
            observers -- trace recorder, metrics sampler, host profiler
            (exposed as ``session.recorder`` / ``session.sampler`` /
            ``session.profiler``).  Observers never write counters or
            change timing, so the report's results are unaffected;
            ``telemetry=None`` is the exact historical code path.
        obs: when given (a :class:`~repro.obs.ObsConfig`), attach the
            cross-run observability layer: after the run finishes, record
            a provenance entry into the run ledger and/or run the anomaly
            detectors and attach their findings to ``report.alerts``.
            Everything happens *after* ``sim.run()`` on the finished
            report, so simulated results are untouched; ``obs=None`` is
            the exact historical code path.
    """

    def __init__(
        self,
        policy: PolicySpec | str | None = None,
        config: Optional[SystemConfig] = None,
        predictor_config: Optional[PredictorConfig] = None,
        dbi_max_rows: Optional[int] = None,
        adaptive: Optional[AdaptiveConfig] = None,
        topology: Optional[TopologyConfig] = None,
        streams: Optional[StreamsSpec] = None,
        faults: Optional[FaultPlan] = None,
        sampling: Optional[SamplingConfig] = None,
        telemetry: Optional[TelemetryConfig] = None,
        obs: Optional[ObsConfig] = None,
    ) -> None:
        if policy is None and adaptive is None:
            raise ValueError("a session needs a policy or an adaptive configuration")
        self.config = config or default_config()
        self.adaptive = adaptive
        self.topology = topology
        if streams is None:
            self.streams: Optional[tuple[StreamConfig, ...]] = None
            self.streams_label = ""
        elif isinstance(streams, ServingMix):
            self.streams = streams.streams
            self.streams_label = streams.name
        else:
            self.streams = tuple(streams)
            self.streams_label = "+".join(s.display for s in self.streams)
        if self.streams is not None and not self.streams:
            raise ValueError("a serving session needs at least one stream")
        self.sim = Simulator()
        self.stats = StatsCollector()
        num_devices = topology.num_devices if topology is not None else 1
        #: address -> monitored-L2-set override for the dueling engine;
        #: stays None on the single-device path (plain global formula)
        address_to_set = None
        if num_devices == 1:
            mapping = AddressMapping(self.config.dram, line_bytes=self.config.l2.line_bytes)
            row_of = mapping.row_id
        else:
            # globally-unique row ids over the partitioned address space;
            # the per-slice components use their own local mappings (see
            # MemoryHierarchy), this one serves engine-level consumers
            interleave = DeviceInterleave(
                num_devices,
                line_bytes=self.config.l2.line_bytes,
                chunk_lines=topology.interleave_lines,
            )
            local_mapping = AddressMapping(
                self.config.dram, line_bytes=self.config.l2.line_bytes
            )

            def row_of(address: int) -> int:
                return interleave.global_row_id(local_mapping, address)

            # the slices see re-addressed local partition addresses, so
            # the duel must key leader lookups by the slice-local set
            # index -- the same one the slice hooks charge
            line_bytes = self.config.l2.line_bytes
            num_sets = self.config.l2.num_sets
            to_local = interleave.to_local

            def address_to_set(address: int) -> int:
                return (to_local(address) // line_bytes) % num_sets

        self.controller: Optional[DynamicPolicyController] = None
        self.phase_detector: Optional[PhaseDetector] = None
        if adaptive is not None:
            self.policy = adaptive.initial_policy
            self.policy_label = adaptive.name
            engine = DynamicPolicyEngine(
                adaptive,
                l2_config=self.config.l2,
                stats=self.stats,
                row_of=row_of,
                predictor_config=predictor_config,
                dbi_max_rows=dbi_max_rows,
                address_to_set=address_to_set,
            )
            self.policy_engine: PolicyEngine = engine
        else:
            self.policy = policy_by_name(policy) if isinstance(policy, str) else policy
            self.policy_label = self.policy.name
            self.policy_engine = PolicyEngine(
                self.policy,
                row_of=row_of,
                predictor_config=predictor_config,
                dbi_max_rows=dbi_max_rows,
            )

        self.hierarchy = MemoryHierarchy(
            self.config, self.sim, self.stats, self.policy_engine, topology=topology
        )
        if num_devices == 1:
            gpu_config = self.config
            cus_per_device = None
        else:
            gpu_config = dc_replace(
                self.config,
                gpu=dc_replace(self.config.gpu, num_cus=self.hierarchy.total_cus),
            )
            cus_per_device = self.config.gpu.num_cus
        self.gpu = Gpu(
            gpu_config, self.sim, self.stats, self.hierarchy, cus_per_device=cus_per_device
        )

        if adaptive is not None:
            engine = self.policy_engine
            assert isinstance(engine, DynamicPolicyEngine)
            # the duel observes the shared L2 (leader sets are L2 sets); in
            # a multi-device system every slice reports to the one monitor,
            # so leader constituencies sample all partitions
            for l2 in self.hierarchy.l2s:
                l2.set_monitor = engine.monitor
            self.phase_detector = PhaseDetector(
                self.sim,
                self.stats,
                epoch_cycles=adaptive.epoch_cycles,
                min_requests=adaptive.phase_min_requests,
                intensity_delta=adaptive.phase_intensity_delta,
                hit_rate_delta=adaptive.phase_hit_rate_delta,
                write_fraction_delta=adaptive.phase_write_fraction_delta,
            )
            self.controller = DynamicPolicyController(
                engine, self.phase_detector, self.sim, self.stats
            )
            self.hierarchy.add_kernel_boundary_hook(self.controller.on_kernel_boundary)

        self.faults = faults
        self.injector: Optional[FaultInjector] = None
        if faults is not None:
            # validates the plan against the assembled system and schedules
            # every event; the empty plan schedules nothing and is
            # bit-identical to faults=None (pinned by the equivalence tests)
            self.injector = FaultInjector(
                faults,
                self.sim,
                self.stats,
                self.gpu,
                self.hierarchy,
                num_streams=len(self.streams) if self.streams is not None else 0,
            )

        # fast-forward sampling: a disabled config is exact mode (the
        # FaultPlan normalization idiom), so only an *enabled* one pays
        # the one-None-test-per-launch filter hook
        self.sampling = sampling if sampling is not None and not sampling.empty else None
        self.kernel_sampler: Optional[KernelSampler] = None
        if self.sampling is not None:
            if adaptive is not None:
                raise ValueError(
                    "phase-sampled fast-forward does not compose with adaptive "
                    "policy control: the controller must observe every kernel "
                    "boundary, and skipped kernels have none"
                )
            if self.streams is not None and len(self.streams) > 1:
                raise ValueError(
                    "phase-sampled fast-forward needs unambiguous per-kernel "
                    "counter attribution, so it supports at most one stream; "
                    "shard a multi-stream run with one stream per shard instead"
                )
            if faults is not None and not faults.empty:
                raise ValueError(
                    "phase-sampled fast-forward does not compose with fault "
                    "injection: killed/restarted kernels break repeat measurement"
                )
            self.kernel_sampler = KernelSampler(self.sampling, self.sim, self.stats)
            self.gpu.kernel_filter = self.kernel_sampler.filter

        # observability: strictly observers (no counter writes, no timing
        # changes); telemetry=None leaves every component's trace hook at
        # its None default -- the exact historical code path
        self.telemetry = telemetry
        self.recorder: Optional[TraceRecorder] = None
        self.sampler: Optional[MetricsSampler] = None
        self.profiler: Optional[SimProfiler] = None
        if telemetry is not None and telemetry.enabled:
            if telemetry.trace:
                self.recorder = TraceRecorder(
                    self.sim, max_events=telemetry.max_trace_events
                )
                self.gpu.attach_trace(self.recorder)
                self.hierarchy.trace = self.recorder
                if self.controller is not None:
                    self.controller.trace = self.recorder
                if self.phase_detector is not None:
                    self.phase_detector.add_listener(self.recorder.phase_change)
                if self.injector is not None:
                    self.injector.trace = self.recorder
                self.sim.on_finish(self.recorder.finish)
            if telemetry.metrics_interval:
                self.sampler = MetricsSampler(
                    self.sim, self.stats, telemetry.metrics_interval
                )
                self.sim.on_finish(self.sampler.finalize)
            if telemetry.profile:
                self.profiler = SimProfiler()
                self.sim.profiler = self.profiler

        # cross-run observability: post-run only (ledger append + anomaly
        # detection on the finished report); obs=None skips everything
        self.obs = obs

    # ------------------------------------------------------------------
    def run(self, workload: Workload | WorkloadTrace | None = None) -> RunReport:
        """Execute the workload (or the serving streams) and return the report."""
        self.begin(workload)
        self.sim.run()
        return self.finish()

    def begin(self, workload: Workload | WorkloadTrace | None = None) -> None:
        """Schedule the run without advancing simulated time.

        :meth:`run` is ``begin(); sim.run(); finish()``; callers that
        drive the event queue themselves use the pieces directly.
        """
        if self.streams is not None:
            if workload is not None:
                raise ValueError(
                    "a serving session derives its workloads from the stream "
                    "configurations; run() takes no workload argument"
                )
            self._begin_streams()
            return
        if workload is None:
            raise ValueError("run() needs a workload (or a session with streams)")
        self._wall_start = time.perf_counter()
        trace = workload.build_trace() if isinstance(workload, Workload) else workload
        if self.topology is not None:
            trace = partition_trace(
                trace, self.topology, line_bytes=self.config.l2.line_bytes
            )
        self._run_label = trace.name
        self._finished: list[int] = []
        self.gpu.run_workload(trace, on_complete=self._on_complete)
        if self.controller is not None:
            self.controller.start(lambda: self.gpu.running)
        if self.sampler is not None:
            self.sampler.start(lambda: self.gpu.running)

    def _begin_streams(self) -> None:
        """Schedule every configured stream for concurrent execution."""
        self._wall_start = time.perf_counter()
        line_bytes = self.config.l2.line_bytes
        traces = []
        for stream in self.streams:
            trace = get_workload(stream.workload, scale=stream.scale).build_trace()
            if self.topology is not None:
                trace = partition_trace(trace, self.topology, line_bytes=line_bytes)
            traces.append(trace)
        # tenants own disjoint address spaces: rebase each stream past the
        # previous ones, aligned to the interleave period so a line's home
        # device is unaffected (identity for a single stream)
        alignment = line_bytes
        if self.topology is not None:
            alignment *= self.topology.interleave_lines * self.topology.num_devices
        traces = isolate_traces(traces, alignment)
        self.hierarchy.enable_stream_accounting(len(self.streams))
        self._run_label = self.streams_label
        self._finished = []
        self.gpu.run_streams(traces, self.streams, on_complete=self._on_complete)
        if self.controller is not None:
            self.controller.start(lambda: self.gpu.running)
        if self.sampler is not None:
            self.sampler.start(lambda: self.gpu.running)

    def _on_complete(self) -> None:
        self._finished.append(self.sim.now)
        if self.injector is not None:
            self.injector.finalize()

    def finish(self) -> RunReport:
        """Build the run report after the event queue has drained."""
        if not self._finished:
            if self.streams is not None:
                raise RuntimeError(
                    f"serving simulation of {self.streams_label!r} under "
                    f"{self.policy_label} did not complete; the event queue drained "
                    "with work outstanding (model deadlock)"
                )
            raise RuntimeError(
                f"simulation of {self._run_label!r} under {self.policy_label} did not complete; "
                "the event queue drained with work outstanding (model deadlock)"
            )
        cycles = self._finished[0]
        extrapolation = None
        if self.kernel_sampler is not None:
            extrapolation = self.kernel_sampler.finalize()
            cycles += extrapolation.cycle_addition
        report = RunReport.from_stats(
            workload=self._run_label,
            policy=self.policy_label,
            cycles=cycles,
            stats=self.stats,
            config=self.config,
            metrics=self.sampler.windows if self.sampler is not None else None,
        )
        if extrapolation is not None:
            self._apply_sampling(report, extrapolation)
        return self._observe(report, time.perf_counter() - self._wall_start)

    def _apply_sampling(self, report: RunReport, extrapolation) -> None:
        """Fold the fast-forward corrections into the finished report."""
        counters = report.counters
        for name, addition in extrapolation.counter_additions.items():
            if addition:
                counters[name] = counters.get(name, 0) + addition
        # absolute cycle marks follow the corrected clock, they are never
        # extrapolated additively
        if "gpu.finish_cycle" in counters:
            counters["gpu.finish_cycle"] = report.cycles
        if self.streams is not None and len(self.streams) == 1:
            if "stream0.finish_cycle" in counters:
                counters["stream0.finish_cycle"] = report.cycles
            if "stream0.cycles" in counters:
                counters["stream0.cycles"] = report.cycles - self.streams[0].launch_cycle
        estimates: dict[str, float] = {}
        for name, absolute in extrapolation.error_bounds_abs.items():
            final = report.cycles if name == "cycles" else counters.get(name, 0)
            estimates[name] = absolute / max(abs(final), 1)
        report.error_estimates = estimates
        executed_events = self.sim.queue.executed
        report.sampling = {
            "mode": "phase_sampled",
            "executed_kernels": extrapolation.executed_kernels,
            "skipped_kernels": extrapolation.skipped_kernels,
            "skipped_fraction": round(extrapolation.skipped_fraction, 6),
            "signatures": extrapolation.signatures,
            "executed_events": executed_events,
            "represented_events": executed_events + extrapolation.event_addition,
        }

    # ------------------------------------------------------------------
    # cross-run observability (post-run; never touches simulated results)
    # ------------------------------------------------------------------
    @property
    def shared_dispatch(self) -> bool:
        """Whether the run's tenants contend for shared CU dispatch.

        Partitioned tenants own their CUs and cannot crowd each other out,
        so the starvation detector is gated on this.
        """
        return self.streams is None or any(
            stream.cu_share == "shared" for stream in self.streams
        )

    def run_fingerprint(self, workload: str) -> str:
        """Stable identity of this run for the ledger.

        Covers the workload name, the policy label, and the digests of
        every configuration component -- the same inputs that decide what
        the deterministic simulator will compute -- so re-running the same
        cell yields the same fingerprint and ``diff`` can pair entries.
        """
        return fingerprint(
            {
                "workload": workload,
                "policy": self.policy_label,
                "digests": self._component_digests(),
            },
            kind="SessionRun",
        )

    def _component_digests(self) -> dict[str, Optional[str]]:
        return component_digests(
            config=self.config,
            adaptive=self.adaptive,
            topology=self.topology,
            streams=self.streams,
            faults=self.faults,
        )

    def _observe(self, report: RunReport, wall_seconds: float) -> RunReport:
        """Apply the configured observers to the finished report.

        Anomaly detection mutates only ``report.alerts`` (touched-gated in
        serialization); the ledger append writes only to the ledger file.
        Counters, cycles and metrics windows pass through untouched, so an
        observed run reports counter-for-counter identical results to a
        plain one (pinned by the equivalence suites).
        """
        obs = self.obs
        if obs is None or not obs.enabled:
            return report
        if obs.alerts is not None:
            alerts = detect_anomalies(
                report, obs.alerts, shared_dispatch=self.shared_dispatch
            )
            report.alerts = [alert.as_dict() for alert in alerts]
            if self.recorder is not None:
                for alert in alerts:
                    self.recorder.alert_event(
                        alert.kind, alert.severity, alert.message, alert.cycle
                    )
        if obs.ledger_path is not None:
            digests = self._component_digests()
            telemetry = None
            if self.telemetry is not None and self.telemetry.enabled:
                telemetry = {
                    "trace": self.recorder is not None,
                    "trace_truncated": (
                        self.recorder.truncated if self.recorder is not None else False
                    ),
                    "metrics_windows": len(report.metrics),
                    "profile": self.profiler is not None,
                }
            entry = run_entry(
                kind="run",
                fingerprint_hex=self.run_fingerprint(report.workload),
                workload=report.workload,
                policy=report.policy,
                cycles=report.cycles,
                counters=report.counters,
                digests=digests,
                wall_seconds=wall_seconds,
                events=self.sim.queue.executed,
                telemetry=telemetry,
                alerts=report.alerts or None,
                source="session",
            )
            RunLedger(obs.ledger_path).record(entry)
        return report


def simulate(
    workload: Workload | WorkloadTrace | None = None,
    policy: PolicySpec | str | None = None,
    config: Optional[SystemConfig] = None,
    predictor_config: Optional[PredictorConfig] = None,
    dbi_max_rows: Optional[int] = None,
    adaptive: Optional[AdaptiveConfig] = None,
    topology: Optional[TopologyConfig] = None,
    streams: Optional[StreamsSpec] = None,
    faults: Optional[FaultPlan] = None,
    sampling: Optional[SamplingConfig] = None,
    shards: Optional[ShardConfig] = None,
    telemetry: Optional[TelemetryConfig] = None,
    obs: Optional[ObsConfig] = None,
) -> RunReport:
    """Run one workload under one caching policy and return its report.

    This is the primary public entry point::

        from repro import simulate, get_workload, CACHE_RW
        report = simulate(get_workload("FwFc"), CACHE_RW)
        print(report.cycles, report.dram_accesses)

    Pass ``adaptive=AdaptiveConfig(...)`` instead of a policy to let the
    online controller pick (and re-pick) the policy while the workload
    runs, and/or ``topology=TopologyConfig(num_devices=...)`` to simulate
    a multi-device NUMA system.  Pass ``streams=...`` (and no workload) to
    run a multi-tenant serving mix of concurrent streams instead of a
    single workload::

        from repro import simulate, CACHE_RW, mix_by_name
        report = simulate(policy=CACHE_RW, streams=mix_by_name("mha+fwlstm"))
        print(report.per_stream)

    The fast simulation modes compose here too: ``sampling=`` enables
    phase-sampled fast-forward inside each simulated process, and
    ``shards=`` (with ``num_shards > 1``) runs the partitioned streams of
    a serving mix as independent worker processes and merges their
    reports.  Both default to exact mode, which is bit-identical to
    omitting them.
    """
    if shards is not None and not shards.empty:
        # imported lazily: the shard coordinator imports this module
        from repro.accel.shard import run_sharded

        return run_sharded(
            workload=workload,
            policy=policy,
            config=config,
            predictor_config=predictor_config,
            dbi_max_rows=dbi_max_rows,
            adaptive=adaptive,
            topology=topology,
            streams=streams,
            faults=faults,
            sampling=sampling,
            shards=shards,
            telemetry=telemetry,
            obs=obs,
        )
    session = SimulationSession(
        policy=policy,
        config=config,
        predictor_config=predictor_config,
        dbi_max_rows=dbi_max_rows,
        adaptive=adaptive,
        topology=topology,
        streams=streams,
        faults=faults,
        sampling=sampling,
        telemetry=telemetry,
        obs=obs,
    )
    return session.run(workload)
