"""The benchmark's workloads.

Each workload is a fixed set of cells.  The seed fixes only the order the
cells run in and, on serve-sampled, the tenants' launch cycles; the
composition never changes.  Every workload is closed-loop: one cell after
another from one process.

A workload provides:

* ``setup()`` -- the work users pay before the first simulated event that
  is not part of the run itself (trace build where the workload builds
  traces outside the run);
* ``cold_jobs(store)`` -- the simulation phase, as ``(cell, job)`` pairs,
  each job returning the cell's report;
* ``warm_job(store)`` -- paper-grid only: re-reading the cells from the
  populated result store with a fresh ``ExperimentRunner``;
* ``traced_jobs()`` -- the in-process cells the traced run observes.
"""

from __future__ import annotations

import random
from statistics import geometric_mean
from typing import Callable

from repro import (
    CACHE_RW,
    OPTIMIZED_POLICIES,
    STATIC_POLICIES,
    UNCACHED,
    SamplingConfig,
    ShardConfig,
    SimulationSession,
    StreamConfig,
    TopologyConfig,
    get_workload,
    scaled_config,
    simulate,
)
from repro.experiments import ExperimentRunner
from repro.stats import RunReport

__all__ = ["WORKLOADS", "Workload"]

#: the paper's four sensitivity classes: memory-insensitive (SGEMM),
#: reuse-sensitive and store-heavy (BwBN), 24 kernels with kernel-boundary
#: flushes (FwLSTM), throughput-sensitive with a stall-retry storm under
#: caching (FwAct)
PROGRAMS = ("SGEMM", "BwBN", "FwLSTM", "FwAct")
POLICIES = tuple(STATIC_POLICIES) + tuple(OPTIMIZED_POLICIES)

Job = Callable[[], RunReport]


class Workload:
    """One named benchmark workload (see the module docstring)."""

    name = ""
    #: registry names whose trace builders the traced run wraps
    programs: tuple[str, ...] = PROGRAMS

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def setup(self) -> None:
        """Build what the workload builds outside the run."""

    def cold_jobs(self, store: str) -> list[tuple[str, Job]]:
        raise NotImplementedError

    def warm_job(self, store: str) -> Callable[[], tuple[dict[str, RunReport], int]] | None:
        """A job returning the re-read reports and the store hits it took;
        None where the workload has no warm re-read."""
        return None

    def traced_jobs(self, store: str) -> list[tuple[str, Job]]:
        return self.cold_jobs(store)


class PaperGrid(Workload):
    """The four programs under all six policies through ``ExperimentRunner``."""

    name = "paper-grid"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed)
        self.scale = 0.05 if tiny else 0.25
        self.config = scaled_config(8)
        self.cells = [(program, policy) for program in PROGRAMS for policy in POLICIES]
        self.rng.shuffle(self.cells)

    def _runner(self, store: str) -> ExperimentRunner:
        return ExperimentRunner(
            scale=self.scale, config=self.config, workload_names=PROGRAMS, cache_dir=store
        )

    def cold_jobs(self, store: str) -> list[tuple[str, Job]]:
        runner = self._runner(store)
        return [
            (f"{program}/{policy.name}", lambda p=program, q=policy: runner.run_one(p, q))
            for program, policy in self.cells
        ]

    def warm_job(self, store: str):
        runner = self._runner(store)

        def job():
            reports = {
                f"{program}/{policy.name}": runner.run_one(program, policy)
                for program, policy in self.cells
            }
            return reports, runner.runs_loaded

        return job

    def opt_gap(self, reports: dict[str, RunReport]) -> float:
        """Geomean over programs of CacheRW-PCby cycles / best static cycles."""
        ratios = []
        for program in PROGRAMS:
            best = min(reports[f"{program}/{policy.name}"].cycles for policy in STATIC_POLICIES)
            ratios.append(reports[f"{program}/{OPTIMIZED_POLICIES[-1].name}"].cycles / best)
        return geometric_mean(ratios)


class NumaUncached(Workload):
    """The four programs under Uncached on two devices of four CUs each."""

    name = "numa-uncached"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed)
        self.scale = 0.05 if tiny else 0.25
        self.config = scaled_config(4)
        self.topology = TopologyConfig(num_devices=2)
        self.order = list(PROGRAMS)
        self.rng.shuffle(self.order)
        self.traces = {}

    def setup(self) -> None:
        self.traces = {
            program: get_workload(program, scale=self.scale).build_trace()
            for program in self.order
        }

    def _session_job(self, program: str) -> Job:
        def job():
            session = SimulationSession(UNCACHED, config=self.config, topology=self.topology)
            return session.run(self.traces[program])

        return job

    def cold_jobs(self, store: str) -> list[tuple[str, Job]]:
        return [(program, self._session_job(program)) for program in self.order]


class ServeSampled(Workload):
    """Two partitioned RNN tenants, phase-sampled and sharded along streams."""

    name = "serve-sampled"
    programs = ("FwLSTM", "FwGRU")
    policy = CACHE_RW

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed)
        scale = 2.0 if tiny else 8.0
        self.config = scaled_config(16)
        self.tenant_config = scaled_config(8)
        self.streams = tuple(
            StreamConfig(
                program,
                scale=scale,
                launch_cycle=self.rng.randrange(0, 4096),
                cu_share="partitioned",
            )
            for program in self.programs
        )
        self.label = "+".join(stream.display for stream in self.streams)
        self.sampling = SamplingConfig(warmup_instances=1, measure_instances=1)
        self.shards = ShardConfig(num_shards=2, axis="streams")

    def cold_jobs(self, store: str) -> list[tuple[str, Job]]:
        def job():
            return simulate(
                policy=self.policy,
                config=self.config,
                streams=self.streams,
                sampling=self.sampling,
                shards=self.shards,
            )

        return [(self.label, job)]

    def exact_report(self, sharded: bool) -> RunReport:
        """The same tenants without sampling.

        Sharded, it is the run the declared error bounds are stated
        against; in one session, it also holds the error sharding adds.
        """
        shards = self.shards if sharded else None
        return simulate(
            policy=self.policy, config=self.config, streams=self.streams, shards=shards
        )

    def traced_jobs(self, store: str) -> list[tuple[str, Job]]:
        return self.serial_jobs()

    def serial_jobs(self) -> list[tuple[str, Job]]:
        """Each tenant alone on its shard's half of the machine, in-process.

        This is exactly the session each shard worker runs, so its spans
        and callback split stand for the sharded run, whose workers are
        out of reach of in-process hooks.  Run one after another, the
        tenants are also the serial baseline of ``shard.speedup_vs_serial``.
        """

        def tenant_job(stream):
            return lambda: simulate(
                policy=self.policy,
                config=self.tenant_config,
                streams=[stream],
                sampling=self.sampling,
            )

        return [(f"{stream.display}@serial", tenant_job(stream)) for stream in self.streams]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PaperGrid, NumaUncached, ServeSampled)
}
