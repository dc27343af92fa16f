"""Job-based sweep execution: one job per (workload, policy) grid cell.

The experiment drivers used to run every simulation inline and serially.
This module splits the *what* from the *how*:

* :class:`JobSpec` names one simulation -- workload, scale, policy, system
  configuration -- and derives a stable content fingerprint from those
  inputs, which doubles as the key in the persistent
  :class:`~repro.experiments.store.ResultStore`.
* Backends turn a batch of jobs into reports: :class:`SerialBackend` runs
  them in-process (no overhead, deterministic ordering), while
  :class:`ProcessPoolBackend` fans independent jobs out across worker
  processes with :class:`concurrent.futures.ProcessPoolExecutor`.  Grid
  cells share no state, so the parallel speedup is essentially linear
  until the machine runs out of cores.
* :class:`SweepExecutor` composes a backend with an optional store:
  store hits are loaded, misses are simulated on the backend and written
  back, and both counts are tracked so callers can assert cache
  effectiveness.

Every simulation is deterministic, so a report loaded from the store (or
computed in a worker process) is bit-identical to one computed inline.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Protocol, Sequence

from repro.accel.config import SamplingConfig, ShardConfig
from repro.adaptive.config import AdaptiveConfig
from repro.config import SystemConfig, default_config
from repro.core.policies import PolicySpec
from repro.core.reuse_predictor import PredictorConfig
from repro.experiments.store import ResultStore
from repro.faults.config import FaultPlan
from repro.fingerprint import SCHEMA_VERSION, fingerprint
from repro.ioutil import atomic_write_json
from repro.log import get_logger
from repro.obs.ledger import RunLedger, run_entry
from repro.session import simulate
from repro.stats.report import RunReport
from repro.streams.config import StreamConfig
from repro.topology.config import TopologyConfig
from repro.workloads.registry import get_workload

__all__ = [
    "JobSpec",
    "JobFailure",
    "ExecutorStats",
    "SerialBackend",
    "ProcessPoolBackend",
    "SweepCheckpoint",
    "SweepExecutor",
    "execute_job",
]

#: run-scoped structured logger (silent unless repro.log.configure ran)
_log = get_logger("executor")


@dataclass(frozen=True)
class JobSpec:
    """Complete, picklable description of one simulation run.

    Attributes:
        workload: registry name of the workload (paper figure label).
        policy: the caching policy to simulate under.  For adaptive jobs
            this records the *initial* policy (the candidates are in the
            adaptive configuration).
        scale: workload scale factor passed to the trace generator.
        config: full system configuration.
        predictor_config: optional reuse-predictor geometry override.
        dbi_max_rows: optional dirty-block-index capacity bound.
        adaptive: when given, the run uses the online adaptive subsystem
            (set dueling + phase-aware dynamic policy selection) instead of
            the static ``policy``.
        topology: when given, the run simulates a multi-device NUMA system
            (``config`` then describes one device); the topology is part
            of the fingerprint, so runs at different device counts or
            fabric parameters never share a store entry.
        streams: when given, the run is a multi-tenant serving mix: each
            :class:`~repro.streams.config.StreamConfig` names its own
            workload/scale/arrival/CU-share, executed concurrently.
            ``workload`` is then a display label and ``scale`` is ignored
            (per-stream scales govern); the stream configurations are part
            of the fingerprint, so two mixes differing in any tenant
            parameter never share a store entry.
        faults: when given, the run injects this
            :class:`~repro.faults.config.FaultPlan`'s events.  The event
            schedule is part of the fingerprint, so chaos sweeps cache
            like healthy ones; the *empty* plan fingerprints identically
            to no plan at all (it is bit-identical by construction), so
            the healthy baseline of a resilience sweep shares its store
            entry with ordinary serving runs.
        sampling: when given (and enabled), the run fast-forwards
            steady-state kernel repeats and extrapolates their counters
            (:mod:`repro.accel.sampling`).  Sampled results are
            approximations, so the sampling parameters are part of the
            fingerprint: a sampled run can never collide with an exact
            one in the store.  A *disabled* config fingerprints
            identically to no config (exact mode is bit-identical by
            construction), so exact baselines keep their warm cells.
        shards: when given (and ``num_shards > 1``), the partitioned
            streams run as independent worker processes whose reports
            are merged (:mod:`repro.accel.shard`).  Each shard simulates
            its tenants alone on its slice of the machine, so merged
            reports differ from monolithic ones; the shard geometry is
            fingerprinted the same way: a single-shard config hashes as
            ``None``.
    """

    workload: str
    policy: PolicySpec
    scale: float = 1.0
    config: SystemConfig = field(default_factory=default_config)
    predictor_config: Optional[PredictorConfig] = None
    dbi_max_rows: Optional[int] = None
    adaptive: Optional[AdaptiveConfig] = None
    topology: Optional[TopologyConfig] = None
    streams: Optional[tuple[StreamConfig, ...]] = None
    faults: Optional[FaultPlan] = None
    sampling: Optional[SamplingConfig] = None
    shards: Optional[ShardConfig] = None

    def fingerprint(self) -> str:
        """Stable key over every input that can affect the result.

        Same inputs always hash to the same key (across processes and
        sessions); changing the workload, scale, policy, system
        configuration or any optional override changes it.
        """
        return fingerprint(
            {
                # for serving jobs the per-stream configs are authoritative;
                # the workload label must not split identical mixes
                "workload": self.workload if self.streams is None else None,
                "scale": self.scale if self.streams is None else None,
                "policy": self.policy,
                "config": self.config,
                "predictor_config": self.predictor_config,
                "dbi_max_rows": self.dbi_max_rows,
                "adaptive": self.adaptive,
                # physical parameters only: the display name must not
                # split identical simulations across store entries
                "topology": None if self.topology is None else self.topology.describe(),
                "streams": (
                    None
                    if self.streams is None
                    else [stream.describe() for stream in self.streams]
                ),
                # the empty plan is bit-identical to no plan: both hash as
                # None so resilience baselines reuse healthy store entries
                "faults": (
                    None
                    if self.faults is None or self.faults.empty
                    else self.faults.describe()
                ),
                # same idiom for the fast modes: exact mode (sampling
                # disabled, one shard) hashes as None, so sampled/sharded
                # runs never collide with exact baselines in the store
                "sampling": (
                    None
                    if self.sampling is None or self.sampling.empty
                    else self.sampling.describe()
                ),
                "shards": (
                    None
                    if self.shards is None or self.shards.empty
                    else self.shards.describe()
                ),
            },
            kind="JobSpec",
        )

    def summary(self) -> dict[str, object]:
        """Human-readable inputs, stored next to cached blobs for auditing."""
        summary: dict[str, object] = {
            "workload": self.workload,
            "policy": self.policy.name,
            "scale": self.scale,
            "num_cus": self.config.gpu.num_cus,
        }
        if self.adaptive is not None:
            summary["adaptive"] = self.adaptive.name
            summary["candidates"] = [p.name for p in self.adaptive.candidates]
        if self.topology is not None:
            summary["topology"] = self.topology.label
            summary["num_devices"] = self.topology.num_devices
        if self.streams is not None:
            summary["streams"] = [stream.describe() for stream in self.streams]
        if self.faults is not None and not self.faults.empty:
            summary["faults"] = self.faults.label
            summary["fault_events"] = len(self.faults.events)
        if self.sampling is not None and not self.sampling.empty:
            summary["sampling"] = self.sampling.describe()
        if self.shards is not None and not self.shards.empty:
            summary["shards"] = self.shards.describe()
        return summary


def execute_job(job: JobSpec) -> RunReport:
    """Simulate one job to completion (the unit of work for all backends)."""
    if job.streams is not None:
        return simulate(
            policy=job.policy,
            config=job.config,
            predictor_config=job.predictor_config,
            dbi_max_rows=job.dbi_max_rows,
            adaptive=job.adaptive,
            topology=job.topology,
            streams=job.streams,
            faults=job.faults,
            sampling=job.sampling,
            shards=job.shards,
        )
    workload = get_workload(job.workload, scale=job.scale)
    return simulate(
        workload,
        job.policy,
        config=job.config,
        predictor_config=job.predictor_config,
        dbi_max_rows=job.dbi_max_rows,
        adaptive=job.adaptive,
        topology=job.topology,
        faults=job.faults,
        sampling=job.sampling,
        shards=job.shards,
    )


def _execute_job_payload(job: JobSpec) -> dict[str, object]:
    """Worker-side entry point: ship the report back as primitives.

    Returning ``to_dict()`` output instead of the dataclass keeps the
    parent<->worker contract identical to the store's JSON contract, so a
    report that crossed a process boundary compares equal to one that was
    simulated inline or loaded from disk.  The worker also measures its own
    wall time -- queueing and pickling excluded -- which feeds the sweep
    telemetry's worker-utilization accounting.
    """
    started = time.perf_counter()
    report = execute_job(job).to_dict()
    return {"report": report, "elapsed_seconds": time.perf_counter() - started}


#: per-result callback: (index within the batch, finished report)
ResultCallback = Callable[[int, RunReport], None]


@dataclass(frozen=True)
class JobFailure:
    """Structured record of one job that a backend could not complete.

    Backends keep the batch draining when a worker dies, times out or
    raises; every job still unfinished after the final retry becomes one
    of these on ``backend.failures`` (and, via the executor, on
    ``ExecutorStats.failures``) -- a worker crash is data, not a silent
    hole in the sweep.
    """

    #: position of the job in the submitted batch
    index: int
    #: the job's store fingerprint (joins failures to grid cells)
    fingerprint: str
    #: human-readable job inputs (:meth:`JobSpec.summary`)
    job: dict[str, object]
    #: ``repr`` of the final exception (a TimeoutError for hung jobs)
    error: str
    #: batch attempts made before giving up (1 = no retries)
    attempts: int

    def as_dict(self) -> dict[str, object]:
        return {
            "index": self.index,
            "fingerprint": self.fingerprint,
            "job": dict(self.job),
            "error": self.error,
            "attempts": self.attempts,
        }


class SweepBackend(Protocol):
    """Anything that can turn a batch of jobs into reports, in order.

    ``on_result`` (when given) is invoked in the *calling* process as each
    job finishes, before the batch completes -- the executor uses it to
    persist results incrementally, so an interrupted sweep keeps every
    cell that finished.
    """

    def run_jobs(
        self, jobs: Sequence[JobSpec], on_result: Optional[ResultCallback] = None
    ) -> list[RunReport]:
        ...  # pragma: no cover - protocol


def _failure(job: JobSpec, index: int, exc: BaseException, attempts: int) -> JobFailure:
    return JobFailure(
        index=index,
        fingerprint=job.fingerprint(),
        job=job.summary(),
        error=repr(exc),
        attempts=attempts,
    )


class SerialBackend:
    """Run every job in the calling process, one after another.

    A raising job still stops the batch (serial runs are the debugging
    path; fail fast, keep the traceback), but the failure is recorded on
    :attr:`failures` first so the executor can account for it.
    """

    def __init__(self) -> None:
        #: structured records of jobs that raised, reset per batch
        self.failures: list[JobFailure] = []
        #: per-batch wall seconds of each finished job, by batch index
        self.job_seconds: dict[int, float] = {}
        #: batch attempts of the last run (serial never retries)
        self.last_attempts = 1

    def run_jobs(
        self, jobs: Sequence[JobSpec], on_result: Optional[ResultCallback] = None
    ) -> list[RunReport]:
        self.failures = []
        self.job_seconds = {}
        reports = []
        for index, job in enumerate(jobs):
            started = time.perf_counter()
            try:
                report = execute_job(job)
            except BaseException as exc:
                self.failures.append(_failure(job, index, exc, attempts=1))
                raise
            self.job_seconds[index] = time.perf_counter() - started
            if on_result is not None:
                on_result(index, report)
            reports.append(report)
        return reports

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialBackend()"


class ProcessPoolBackend:
    """Fan independent jobs out across worker processes.

    Args:
        max_workers: worker process count (``None`` lets
            :class:`~concurrent.futures.ProcessPoolExecutor` use one per
            core).
        timeout: wall-clock seconds the whole batch may go without any job
            finishing before the remaining jobs are declared hung and the
            pool abandoned (``None`` waits forever).  Hung jobs are
            retried like crashed ones.
        retries: extra whole-pool attempts for jobs that crash, hang or
            raise.  A worker killed by the OS (OOM, SIGKILL) poisons the
            entire pool, so each retry starts a fresh pool containing only
            the still-unfinished jobs.
        retry_backoff: base seconds slept before retry ``n`` (exponential:
            ``retry_backoff * 2**(n-1)``); ``0`` retries immediately.

    The pool is created per attempt rather than held open: sweep batches
    are coarse (each job is a whole simulation), so the fork cost is noise,
    a short-lived pool cannot leak workers into test runners or the CLI,
    and a broken pool (dead worker) never contaminates the retry.

    After every batch, jobs that still failed after the final attempt are
    recorded on :attr:`failures` as :class:`JobFailure` entries; the first
    error is then re-raised so callers that expect exceptions keep working.
    Finished jobs were already delivered through ``on_result``, so a sweep
    with a persistent store loses nothing but the failed cells.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        timeout: Optional[float] = None,
        retries: int = 0,
        retry_backoff: float = 0.5,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if retry_backoff < 0:
            raise ValueError(f"retry_backoff must be >= 0, got {retry_backoff}")
        self.max_workers = max_workers
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        #: structured records of jobs unfinished after the final attempt
        self.failures: list[JobFailure] = []
        #: per-batch worker-side wall seconds of each finished job
        self.job_seconds: dict[int, float] = {}
        #: pool attempts the last batch needed (1 = no retries)
        self.last_attempts = 1

    def _sleep_before_retry(self, attempt: int) -> None:
        if self.retry_backoff > 0:
            time.sleep(self.retry_backoff * (2 ** (attempt - 1)))

    def run_jobs(
        self, jobs: Sequence[JobSpec], on_result: Optional[ResultCallback] = None
    ) -> list[RunReport]:
        jobs = list(jobs)
        self.failures = []
        self.job_seconds = {}
        self.last_attempts = 1
        if not jobs:
            return []
        if len(jobs) == 1:
            return self._run_single(jobs[0], on_result)
        reports: list[Optional[RunReport]] = [None] * len(jobs)
        pending = list(range(len(jobs)))
        errors: dict[int, BaseException] = {}
        attempt = 0
        while pending:
            attempt += 1
            self.last_attempts = attempt
            if attempt > 1:
                self._sleep_before_retry(attempt - 1)
            errors_now = self._run_attempt(
                jobs, pending, reports, on_result, attempt
            )
            errors.update(errors_now)
            pending = sorted(errors_now)
            if pending and _log.enabled:
                _log.warning(
                    "batch_attempt_failed",
                    attempt=attempt,
                    failed=len(pending),
                    retries_left=max(0, self.retries + 1 - attempt),
                    first_error=repr(errors[pending[0]]),
                )
            if attempt >= self.retries + 1:
                break
        if pending:
            for index in pending:
                self.failures.append(
                    _failure(jobs[index], index, errors[index], attempts=attempt)
                )
            _log.error(
                "jobs_failed",
                count=len(pending),
                attempts=attempt,
                error=repr(errors[pending[0]]),
            )
            raise errors[pending[0]]
        assert all(report is not None for report in reports)
        return reports  # type: ignore[return-value]

    def _run_single(
        self, job: JobSpec, on_result: Optional[ResultCallback]
    ) -> list[RunReport]:
        # a pool fork for a single job is pure overhead: run in-process,
        # still honouring the retry budget (timeouts need a pool; a single
        # in-process job cannot be interrupted, so none is enforced here)
        attempt = 0
        while True:
            attempt += 1
            self.last_attempts = attempt
            started = time.perf_counter()
            try:
                report = execute_job(job)
                break
            except BaseException as exc:
                if attempt >= self.retries + 1:
                    self.failures.append(_failure(job, 0, exc, attempts=attempt))
                    _log.error("job_failed", attempts=attempt, error=repr(exc))
                    raise
                _log.warning(
                    "job_retry",
                    attempt=attempt,
                    retries_left=self.retries + 1 - attempt,
                    error=repr(exc),
                )
                self._sleep_before_retry(attempt)
        self.job_seconds[0] = time.perf_counter() - started
        if on_result is not None:
            on_result(0, report)
        return [report]

    def _run_attempt(
        self,
        jobs: Sequence[JobSpec],
        pending: Sequence[int],
        reports: list[Optional[RunReport]],
        on_result: Optional[ResultCallback],
        attempt: int,
    ) -> dict[int, BaseException]:
        """One fresh pool over the still-unfinished jobs; returns its errors."""
        workers = self.max_workers
        if workers is not None:
            workers = min(workers, len(pending))
        errors: dict[int, BaseException] = {}
        abandon = False
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            # submit + as_completed (rather than pool.map) so the callback
            # fires the moment any job lands, in completion order -- a slow
            # or failing early job cannot hold finished results hostage
            futures = {
                pool.submit(_execute_job_payload, jobs[index]): index
                for index in pending
            }
            try:
                for future in as_completed(futures, timeout=self.timeout):
                    index = futures[future]
                    try:
                        payload = future.result()
                        report = RunReport.from_dict(payload["report"])
                    except BaseException as exc:  # keep draining the batch
                        errors[index] = exc
                        continue
                    self.job_seconds[index] = float(
                        payload.get("elapsed_seconds", 0.0)
                    )
                    reports[index] = report
                    if on_result is not None:
                        on_result(index, report)
            except FuturesTimeoutError:
                abandon = True
                for index in futures.values():
                    if reports[index] is None and index not in errors:
                        errors[index] = FuturesTimeoutError(
                            f"job did not finish within {self.timeout}s "
                            f"(attempt {attempt})"
                        )
            except BaseException:
                # a non-job exception escaping the drain loop (an
                # on_result callback raising, KeyboardInterrupt, ...)
                # must not wait on still-running -- possibly stuck --
                # workers either; abandon the pool and let it propagate
                abandon = True
                raise
        finally:
            # never hold the sweep hostage for a pool being discarded:
            # on timeout or any escaping exception, shut down without
            # waiting and let a fresh pool run the retry
            pool.shutdown(wait=not abandon, cancel_futures=True)
        return errors

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProcessPoolBackend(max_workers={self.max_workers}, "
            f"timeout={self.timeout}, retries={self.retries})"
        )


@dataclass
class ExecutorStats:
    """Where the executor's reports came from (cumulative), plus the sweep
    telemetry: batch and per-job wall time, retry pressure, and the worker
    utilization they imply."""

    runs_simulated: int = 0
    runs_loaded: int = 0
    runs_failed: int = 0
    #: structured records behind :attr:`runs_failed` (cumulative)
    failures: list[JobFailure] = field(default_factory=list)
    #: backend batches dispatched (store-only sweeps dispatch none)
    batches: int = 0
    #: wall seconds spent inside backend batches, end to end
    batch_seconds: float = 0.0
    #: summed per-job wall seconds (worker-side, so pool overhead excluded)
    job_seconds: float = 0.0
    #: jobs with a recorded wall time (failed jobs have none)
    jobs_timed: int = 0
    #: slowest single job observed (the sweep's straggler)
    max_job_seconds: float = 0.0
    #: extra batch attempts beyond the first (crashes, hangs, retries)
    retry_attempts: int = 0

    @property
    def total(self) -> int:
        return self.runs_simulated + self.runs_loaded

    @property
    def mean_job_seconds(self) -> float:
        return self.job_seconds / self.jobs_timed if self.jobs_timed else 0.0

    def worker_utilization(self, workers: int = 1) -> float:
        """Fraction of the worker-pool's batch capacity spent simulating.

        ``sum(job time) / (batch wall time * workers)``: 1.0 means every
        worker simulated the whole batch; low values expose pool overhead,
        stragglers or an oversized pool.  0.0 before any batch ran.
        """
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        capacity = self.batch_seconds * workers
        return self.job_seconds / capacity if capacity > 0 else 0.0

    def as_dict(self) -> dict[str, int]:
        return {
            "runs_simulated": self.runs_simulated,
            "runs_loaded": self.runs_loaded,
            "runs_failed": self.runs_failed,
        }

    def telemetry(self, workers: int = 1) -> dict[str, object]:
        """JSON-ready sweep profile (the ``--telemetry-out`` artifact)."""
        return {
            "runs_simulated": self.runs_simulated,
            "runs_loaded": self.runs_loaded,
            "runs_failed": self.runs_failed,
            "store_hit_rate": self.runs_loaded / self.total if self.total else 0.0,
            "batches": self.batches,
            "batch_seconds": self.batch_seconds,
            "job_seconds": self.job_seconds,
            "jobs_timed": self.jobs_timed,
            "mean_job_seconds": self.mean_job_seconds,
            "max_job_seconds": self.max_job_seconds,
            "retry_attempts": self.retry_attempts,
            "workers": workers,
            "worker_utilization": self.worker_utilization(workers),
        }


class SweepCheckpoint:
    """Crash-safe progress record for one sweep: which cells finished.

    The persistent :class:`~repro.experiments.store.ResultStore` already
    holds every finished report; what it cannot say is *which sweep* those
    entries belong to or how far that sweep got.  A checkpoint records the
    sweep's identity (a fingerprint over its sorted job keys) and the set
    of completed keys, rewritten atomically after every completion -- so a
    SIGKILLed sweep re-run with the same checkpoint path resumes exactly
    where it died: already-done cells come back as store hits and the
    checkpoint proves none of them were re-simulated.

    A checkpoint file for a *different* sweep (or a torn/alien file) is
    ignored and overwritten rather than trusted: resuming is an
    optimization, never a correctness hazard.
    """

    def __init__(self, path: str | os.PathLike[str], keys: Sequence[str]) -> None:
        self.path = Path(path)
        unique = sorted(set(keys))
        self.sweep_id = fingerprint(unique, kind="SweepCheckpoint")
        self.total = len(unique)
        self._keys = set(unique)
        self.done: set[str] = set()
        #: True when a prior run's progress was loaded from ``path``
        self.resumed = False
        self._load()

    def _load(self) -> None:
        try:
            blob = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return  # missing or torn: start fresh
        if not isinstance(blob, dict) or blob.get("schema") != SCHEMA_VERSION:
            return
        if blob.get("sweep") != self.sweep_id:
            return  # different sweep: do not inherit its progress
        done = blob.get("done")
        if not isinstance(done, list):
            return
        self.done = {str(key) for key in done} & self._keys
        self.resumed = bool(self.done)

    @property
    def complete(self) -> bool:
        return len(self.done) >= self.total

    @property
    def remaining(self) -> int:
        return self.total - len(self.done)

    def mark_done(self, key: str) -> None:
        """Record one finished cell and persist the file atomically."""
        if key in self.done:
            return
        self.done.add(key)
        self.write()

    def write(self) -> None:
        blob = {
            "schema": SCHEMA_VERSION,
            "sweep": self.sweep_id,
            "total": self.total,
            "done": sorted(self.done),
            "completed": self.complete,
        }
        atomic_write_json(
            self.path,
            blob,
            indent=None,
            sort_keys=True,
            trailing_newline=False,
            tmp_prefix=self.path.name + ".",
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SweepCheckpoint({str(self.path)!r}, done={len(self.done)}/"
            f"{self.total}, resumed={self.resumed})"
        )


class SweepExecutor:
    """A backend plus an optional persistent store, with hit accounting.

    Args:
        backend: how cache-missing jobs are simulated (default: serial).
        store: persistent result store consulted before simulating and
            updated afterwards; ``None`` disables persistence.
        ledger: run ledger every *simulated* cell is recorded into as it
            finishes (store hits are provenance the ledger already has --
            they ride on the sweep-level entry instead, so a warm sweep
            does not duplicate its whole history).  ``None`` disables
            recording.

    One executor may be shared by any number of
    :class:`~repro.experiments.runner.ExperimentRunner` instances (the
    benchmark harness does exactly that), in which case its statistics
    aggregate across all of them.
    """

    def __init__(
        self,
        backend: Optional[SweepBackend] = None,
        store: Optional[ResultStore] = None,
        ledger: Optional[RunLedger] = None,
    ) -> None:
        self.backend: SweepBackend = backend or SerialBackend()
        self.store = store
        self.ledger = ledger
        self.stats = ExecutorStats()

    def _record_failures(self) -> None:
        """Harvest the backend's per-batch failure records into the stats."""
        failures = getattr(self.backend, "failures", None)
        if failures:
            self.stats.failures.extend(failures)
            self.stats.runs_failed += len(failures)

    def _record_batch(self, seconds: float) -> None:
        """Harvest one batch's timing telemetry into the stats.

        Tolerant of third-party backends: a backend without ``job_seconds``
        / ``last_attempts`` still gets batch-level accounting.
        """
        stats = self.stats
        stats.batches += 1
        stats.batch_seconds += seconds
        job_seconds = getattr(self.backend, "job_seconds", None)
        if job_seconds:
            for value in job_seconds.values():
                stats.job_seconds += value
                stats.jobs_timed += 1
                if value > stats.max_job_seconds:
                    stats.max_job_seconds = value
        attempts = getattr(self.backend, "last_attempts", 1)
        stats.retry_attempts += max(0, attempts - 1)

    def run(
        self,
        jobs: Sequence[JobSpec],
        checkpoint: Optional[SweepCheckpoint] = None,
    ) -> list[RunReport]:
        """Resolve every job to a report, in input order.

        Store hits are loaded; the rest are simulated on the backend in one
        batch (the parallel fan-out point) and written back to the store as
        each one finishes, so even an interrupted sweep keeps its completed
        cells.  Duplicate jobs within a batch are simulated only once.

        When ``checkpoint`` is given, every completion (loaded or
        simulated) is recorded in it as it happens; an interrupted sweep
        re-run against the same checkpoint path resumes with its finished
        cells as store hits.  Failed jobs are recorded on
        ``stats.failures`` before the error propagates.
        """
        jobs = list(jobs)
        reports: list[Optional[RunReport]] = [None] * len(jobs)
        loaded: dict[str, RunReport] = {}
        pending: dict[str, list[int]] = {}
        for index, job in enumerate(jobs):
            key = job.fingerprint()
            if key in loaded:  # duplicate of a store hit: no re-read, no recount
                reports[index] = loaded[key]
                continue
            if key in pending:  # duplicate within this batch
                pending[key].append(index)
                continue
            cached = self.store.load(key) if self.store is not None else None
            if cached is not None:
                loaded[key] = cached
                reports[index] = cached
                self.stats.runs_loaded += 1
                if checkpoint is not None:
                    checkpoint.mark_done(key)
            else:
                pending[key] = [index]
        if pending:
            keys = list(pending)
            batch = [jobs[pending[key][0]] for key in keys]

            def persist(batch_index: int, report: RunReport) -> None:
                self.stats.runs_simulated += 1
                key = keys[batch_index]
                if self.store is not None:
                    self.store.save(key, report, job=batch[batch_index].summary())
                if checkpoint is not None:
                    checkpoint.mark_done(key)
                if self.ledger is not None:
                    # both backends set job_seconds[batch_index] before the
                    # callback fires, so wall time is available here
                    seconds = getattr(self.backend, "job_seconds", {}).get(batch_index)
                    self.ledger.record(
                        run_entry(
                            kind="job",
                            fingerprint_hex=key,
                            workload=report.workload,
                            policy=report.policy,
                            cycles=report.cycles,
                            counters=report.counters,
                            wall_seconds=seconds,
                            source="executor",
                            extra={"job": batch[batch_index].summary()},
                        )
                    )

            batch_started = time.perf_counter()
            try:
                fresh = self.backend.run_jobs(batch, on_result=persist)
            finally:
                self._record_failures()
                self._record_batch(time.perf_counter() - batch_started)
            for key, report in zip(keys, fresh):
                for index in pending[key]:
                    reports[index] = report
        elif checkpoint is not None and not checkpoint.done and not jobs:
            checkpoint.write()
        assert all(report is not None for report in reports)
        return reports  # type: ignore[return-value]

    def run_one(self, job: JobSpec) -> RunReport:
        """Convenience wrapper for a single job."""
        return self.run([job])[0]

    def record_sweep(
        self, label: str = "sweep", workers: int = 1
    ) -> Optional[dict[str, object]]:
        """Append one sweep-level aggregate entry to the ledger.

        Carries the executor telemetry (simulated/loaded/failed counts,
        store hit rate, batch and job wall time, retry pressure, worker
        utilization) -- the fleet-level record of how the sweep *executed*,
        complementing the per-cell ``job`` entries of what it computed.
        Returns the recorded entry, or ``None`` without a ledger.
        """
        if self.ledger is None:
            return None
        return self.ledger.record(
            run_entry(
                kind="sweep",
                fingerprint_hex=None,
                workload=label,
                policy="*",
                telemetry=self.stats.telemetry(workers),
                source="executor",
            )
        )
