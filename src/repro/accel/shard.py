"""Sharded multi-process simulation: independent jobs plus a merge.

Partitioned tenants of a serving mix share no simulated state: each owns
its CUs and a fixed slice of the machine.  :func:`run_sharded` splits the
streams into ``ShardConfig.num_shards`` groups, describes each group as a
streams :class:`~repro.experiments.jobs.JobSpec` on a proportional slice
of the machine (CUs, L2 capacity, DRAM channels and L2 banks scale with
the shard's stream share, mirroring :func:`repro.config.scaled_config`),
runs each shard's :class:`~repro.session.SimulationSession` to completion
in its own worker process, and merges the reports: counters summed,
per-stream counters remapped to their global stream index, cycles the
slowest shard's.  Every stream must use ``cu_share="partitioned"``:
shared dispatch couples tenants through the CU scheduler, which a
process boundary cannot reproduce.

:func:`repro.session.simulate` dispatches here only for a non-empty
:class:`~repro.accel.config.ShardConfig`; one shard is exact mode.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace as dc_replace
from typing import Optional, Sequence, Union

from repro.accel.config import SamplingConfig, ShardConfig
from repro.config import SystemConfig, default_config
from repro.core.policies import PolicySpec, policy_by_name
from repro.core.reuse_predictor import PredictorConfig
from repro.experiments.jobs import JobSpec, _failure
from repro.session import SimulationSession
from repro.stats.report import RunReport
from repro.streams.config import ServingMix, StreamConfig

__all__ = ["ShardExecutionError", "run_sharded"]

#: per-stream counters with absolute (not additive) semantics; they are
#: remapped to the stream's global index but never summed
_STREAM_PREFIX = "stream"


class ShardExecutionError(RuntimeError):
    """A shard failed (crash, deadlock, bad input) during a sharded run.

    :attr:`failures` holds one :class:`~repro.experiments.jobs.JobFailure`
    per failed shard -- the contract sweep backends use, so a failed
    shard reads like a failed job.
    """

    def __init__(self, message: str, failures: Sequence[object]) -> None:
        super().__init__(message)
        self.failures = list(failures)


def _run_shard(job: JobSpec) -> tuple[dict[str, object], int]:
    """Worker side: run one shard to completion, ship its report back."""
    session = SimulationSession(
        policy=job.policy,
        config=job.config,
        predictor_config=job.predictor_config,
        dbi_max_rows=job.dbi_max_rows,
        streams=job.streams,
        sampling=job.sampling,
    )
    report = session.run()
    return report.to_dict(), session.sim.queue.executed


def _share_config(config: SystemConfig, share: int, total: int) -> SystemConfig:
    """The slice of the machine a shard owning ``share`` of ``total`` CUs
    gets: shared resources scale proportionally with the same floors as
    :func:`repro.config.scaled_config`, per-CU resources are unchanged."""
    if share == total:
        return config
    ratio = share / total
    return SystemConfig(
        gpu=dc_replace(config.gpu, num_cus=share),
        l1=config.l1,
        l2=dc_replace(
            config.l2, size_bytes=max(64 * 1024, int(config.l2.size_bytes * ratio))
        ),
        dram=dc_replace(
            config.dram, channels=max(2, int(math.ceil(config.dram.channels * ratio)))
        ),
        interconnect=dc_replace(
            config.interconnect,
            l2_banks=max(2, int(math.ceil(config.interconnect.l2_banks * ratio))),
        ),
    )


def _shard_jobs(job: JobSpec, num_shards: int) -> tuple[list[JobSpec], list[list[int]]]:
    """Split ``job``'s streams into one job per shard, plus each shard's
    global stream indices.  Every check that can fail runs here, in the
    coordinator, before any worker process exists."""
    streams, config, sampling = job.streams, job.config, job.sampling
    num_streams = len(streams)
    if num_shards > num_streams:
        raise ValueError(
            f"cannot split {num_streams} stream(s) into {num_shards} "
            "shards; each shard needs at least one stream"
        )
    if any(stream.cu_share != "partitioned" for stream in streams):
        raise ValueError(
            "streams-axis sharding requires cu_share='partitioned' on every "
            "stream: shared dispatch couples tenants through the CU "
            "scheduler, which a process boundary cannot reproduce"
        )
    total_cus = config.gpu.num_cus
    if total_cus % num_streams:
        raise ValueError(
            f"{total_cus} CUs do not divide evenly among {num_streams} "
            "partitioned streams; sharding needs the exact per-stream share"
        )
    assignment = [
        list(range(shard_id, num_streams, num_shards)) for shard_id in range(num_shards)
    ]
    if sampling is not None and any(len(indices) > 1 for indices in assignment):
        raise ValueError(
            f"phase-sampled fast-forward supports one stream per shard, but "
            f"{num_streams} streams on {num_shards} shards puts several on "
            f"one; use num_shards={num_streams}"
        )
    cus_per_stream = total_cus // num_streams
    jobs = [
        dc_replace(
            job,
            workload="+".join(streams[index].display for index in indices),
            config=_share_config(config, cus_per_stream * len(indices), total_cus),
            streams=tuple(streams[index] for index in indices),
        )
        for indices in assignment
    ]
    return jobs, assignment


def _remap_stream_counter(name: str, local_to_global: dict[int, int]) -> str:
    """``stream<local>.x`` -> ``stream<global>.x`` (identity otherwise)."""
    if not name.startswith(_STREAM_PREFIX):
        return name
    head, _, tail = name.partition(".")
    digits = head[len(_STREAM_PREFIX):]
    if not digits.isdigit() or not tail:
        return name
    return f"{_STREAM_PREFIX}{local_to_global[int(digits)]}.{tail}"


def _merge_reports(
    results: list[tuple[dict[str, object], int]],
    assignment: list[list[int]],
    label: str,
    config: SystemConfig,
) -> RunReport:
    reports = [RunReport.from_dict(payload) for payload, _ in results]
    counters: dict[str, int] = {}
    error_estimates: dict[str, float] = {}
    executed_kernels = skipped_kernels = 0
    executed_events = represented_events = 0
    sampled = False
    for indices, (_, shard_events), report in zip(assignment, results, reports):
        local_to_global = dict(enumerate(indices))
        for name, value in report.counters.items():
            merged_name = _remap_stream_counter(name, local_to_global)
            if merged_name == "gpu.finish_cycle":
                counters[merged_name] = max(counters.get(merged_name, 0), value)
            else:
                # per-stream counters live in exactly one shard, so plain
                # summation is also a remap-preserving copy for them
                counters[merged_name] = counters.get(merged_name, 0) + value
        for name, value in report.error_estimates.items():
            merged_name = _remap_stream_counter(name, local_to_global)
            error_estimates[merged_name] = max(error_estimates.get(merged_name, 0.0), value)
        executed_events += shard_events
        if report.sampling:
            sampled = True
            executed_kernels += int(report.sampling.get("executed_kernels", 0))
            skipped_kernels += int(report.sampling.get("skipped_kernels", 0))
            represented_events += int(
                report.sampling.get("represented_events", shard_events)
            )
        else:
            executed_kernels += report.get("gpu.kernels_launched")
            represented_events += shard_events
    cycles = max(report.cycles for report in reports)
    counters["gpu.finish_cycle"] = max(counters.get("gpu.finish_cycle", 0), cycles)
    counters["shard.count"] = len(results)
    total_kernels = executed_kernels + skipped_kernels
    merged = RunReport(
        workload=label,
        policy=reports[0].policy,
        cycles=cycles,
        counters=counters,
        clock_ghz=config.gpu.clock_ghz,
        wavefront_size=config.gpu.wavefront_size,
    )
    merged.error_estimates = error_estimates
    merged.sampling = {
        "mode": "phase_sampled+sharded" if sampled else "sharded",
        "shards": len(results),
        "executed_kernels": executed_kernels,
        "skipped_kernels": skipped_kernels,
        "skipped_fraction": skipped_kernels / total_kernels if total_kernels else 0.0,
        "executed_events": executed_events,
        "represented_events": represented_events,
    }
    return merged


def run_sharded(
    workload=None,
    policy: Union[PolicySpec, str, None] = None,
    config: Optional[SystemConfig] = None,
    predictor_config: Optional[PredictorConfig] = None,
    dbi_max_rows: Optional[int] = None,
    adaptive=None,
    topology=None,
    streams: Union[ServingMix, Sequence[StreamConfig], None] = None,
    faults=None,
    sampling: Optional[SamplingConfig] = None,
    shards: Optional[ShardConfig] = None,
    telemetry=None,
    obs=None,
) -> RunReport:
    """Run each shard of a partitioned serving mix as its own job and merge.

    Mirrors :func:`repro.session.simulate`'s signature (it dispatches
    here when ``shards`` is non-empty); inputs that a process boundary
    cannot split -- a single workload, a topology, adaptive control,
    fault plans with events, telemetry observers, the obs layer -- are
    rejected before any worker starts.
    """
    if shards is None or shards.empty:
        raise ValueError("run_sharded needs a ShardConfig with num_shards > 1")
    if topology is not None:
        raise ValueError(
            "a topology cannot be sharded: only a serving mix's partitioned "
            "streams split into independent shards"
        )
    if streams is None or workload is not None:
        raise ValueError(
            "sharding needs a serving mix (streams=...) and no workload: "
            "each shard derives its workloads from its streams"
        )
    global_state = {
        "adaptive policy control": adaptive is not None,
        "fault injection": faults is not None and not faults.empty,
        "telemetry observers": telemetry is not None and telemetry.enabled,
        "the obs layer": obs is not None and obs.enabled,
    }
    for subsystem, present in global_state.items():
        if present:
            raise ValueError(
                f"sharded execution does not compose with {subsystem}: its "
                "state spans the whole run, which a process boundary splits"
            )
    if policy is None:
        raise ValueError("a sharded run needs a policy")
    if isinstance(streams, ServingMix):
        stream_tuple, label = streams.streams, streams.name
    else:
        stream_tuple = tuple(streams)
        label = "+".join(stream.display for stream in stream_tuple)
    config = config or default_config()
    template = JobSpec(
        workload=label,
        policy=policy_by_name(policy) if isinstance(policy, str) else policy,
        config=config,
        predictor_config=predictor_config,
        dbi_max_rows=dbi_max_rows,
        streams=stream_tuple,
        sampling=sampling if sampling is not None and not sampling.empty else None,
    )
    jobs, assignment = _shard_jobs(template, shards.num_shards)
    pool = ProcessPoolExecutor(max_workers=len(jobs))
    try:
        futures = [pool.submit(_run_shard, job) for job in jobs]
        results = []
        for index, (job, future) in enumerate(zip(jobs, futures)):
            try:
                results.append(future.result())
            except BaseException as exc:
                raise ShardExecutionError(
                    f"shard {index} failed: {exc!r}",
                    [_failure(job, index, exc, attempts=1)],
                ) from exc
    finally:
        # released without waiting: a failed or stuck shard must never
        # leak its worker process past this run
        pool.shutdown(wait=False, cancel_futures=True)
    return _merge_reports(results, assignment, label, config)
