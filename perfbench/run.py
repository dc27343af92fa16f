"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with every observer off;
``--trace 1`` repeats the same untraced measurement and adds a profiled
pass and a span pass, which give the per-layer metrics.  Both modes check
every simulated cell (see :class:`Checker`).  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, holding exactly the
metrics ``BENCHMARK.json`` lists for the mode.  The exit code is 0 only
when every check passed.

Host times (``run_s``, ``events_per_s``, ``setup_s``) are stated at a fixed
reference host speed: each measured time is rescaled by the time a fixed
pure-Python loop (:class:`HostSpeed`) takes right before and right after
it, so that the host getting slower or faster between runs cancels out.
The unscaled times are printed as well (``run_wall_s``, ``setup_wall_s``).

The metric definitions, the workloads' rationale and the layer map are in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import multiprocessing
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path
from statistics import geometric_mean, median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT / "src"))

try:
    import repro  # noqa: F401  (timed by the set-up probe)
except ImportError as exc:
    print(f"perfbench: cannot import the simulator from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)

from grid import WORKLOADS, PaperGrid, ServeSampled  # noqa: E402
from spans import EventTap, Profiling, Spans  # noqa: E402

#: a pass is repeated at least this often, so per-cell medians exist
MIN_PASSES = 3
#: fresh-interpreter set-ups per run; setup_s is their median
SETUP_PROBES = 11
#: warm re-reads of the last cold pass's store, each through a fresh runner
WARM_REPS = 10
#: untraced repetitions of the serial tenants (serve-sampled, --trace 1)
SERIAL_REPS = 5


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def digest(report) -> str:
    blob = json.dumps({"cycles": report.cycles, "counters": report.counters}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


class Checker:
    """Runs cells and checks every report it sees.

    A cell fails when it raises (a model deadlock raises too), when its
    counters differ from the first report of the same cell -- across
    repetitions, store round trips and the traced passes, which is what
    proves the observers passive -- or when a counter identity breaks.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._digests: dict[str, str] = {}

    def fail(self, cell: str, problem: str) -> None:
        self.failed += 1
        self.problems.append(f"{cell}: {problem}")

    def run(self, cell: str, job):
        """(report, seconds) of one cell, or (None, 0.0) when it raised."""
        started = perf_counter()
        try:
            report = job()
        except Exception as exc:  # a failed cell is counted, the run goes on
            self.attempted += 1
            traceback.print_exc(file=sys.stderr)
            self.fail(cell, f"raised {exc!r}")
            return None, 0.0
        seconds = perf_counter() - started
        self.check(cell, report)
        return report, seconds

    def check(self, cell: str, report) -> None:
        self.attempted += 1
        problems = []
        seen = digest(report)
        if self._digests.setdefault(cell, seen) != seen:
            problems.append("counters differ from the cell's first run")
        counters = report.counters
        loads_stores = counters.get("gpu.load_requests", 0) + counters.get("gpu.store_requests", 0)
        if counters.get("gpu.mem_requests", 0) != loads_stores:
            problems.append("gpu.mem_requests != gpu.load_requests + gpu.store_requests")
        reads_writes = counters.get("dram.reads", 0) + counters.get("dram.writes", 0)
        if counters.get("dram.accesses", 0) != reads_writes:
            problems.append("dram.accesses != dram.reads + dram.writes")
        if problems:
            self.fail(cell, "; ".join(problems))

    def check_sampled(self, cell: str, sampled, exact) -> float:
        """Hold a sampled report to its declared error bounds.

        Returns the largest observed relative error of any counter against
        ``exact`` divided by its declared (non-zero) bound.
        """
        self.attempted += 1
        declared = sampled.error_estimates
        values = dict(sampled.counters, cycles=sampled.cycles)
        references = dict(exact.counters, cycles=exact.cycles)
        over, uses = [], [0.0]
        for name in set(declared) | {"cycles", "dram.accesses"}:
            value = values.get(name, 0)
            error = abs(value - references.get(name, 0))
            bound = declared.get(name, 0.0)
            if error > bound * max(abs(value), 1) + 1e-9:
                over.append(name)
            if bound > 0:
                uses.append(error / max(abs(value), 1) / bound)
        if over:
            self.fail(cell, f"sampled counters outside their declared error bounds: {sorted(over)}")
        return max(uses)


def relative_error(sampled, exact) -> float:
    """Largest relative error of cycles and DRAM accesses against ``exact``."""
    return max(
        abs(sampled.cycles - exact.cycles) / exact.cycles,
        abs(sampled.dram_accesses - exact.dram_accesses) / max(exact.dram_accesses, 1),
    )


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
class _Entry:
    __slots__ = ("key", "uses")

    def __init__(self, key: int) -> None:
        self.key = key
        self.uses = 0

    def touch(self) -> int:
        self.uses += 1
        return self.uses


class HostSpeed:
    """The host's speed right now, from a fixed pure-Python event loop.

    One sample pops and pushes :attr:`EVENTS` timed events on a heap and
    looks each one up in a table of small objects -- the operations a
    discrete-event simulator spends its host time on -- and shares no code
    with the simulator, so a change to the simulator leaves it alone.  On
    a shared host the speed drifts by tens of percent over seconds and
    minutes, and the simulator's time moves with the sample's; rescaling a
    measured time by the samples around it leaves what the simulator
    itself costs.
    """

    #: a sample's time on the reference host; rescaled times are stated
    #: for it (about the median on the 2-core x86_64 host of the README)
    NOMINAL_S = 0.03
    EVENTS = 20_000
    KEYS = 1 << 14

    def __init__(self) -> None:
        self.table = {key: _Entry(key) for key in range(self.KEYS)}
        self.samples: list[float] = []

    def sample(self) -> float:
        """Seconds one run of the loop takes now."""
        started = perf_counter()
        rng = random.Random(2)
        table, mask = self.table, self.KEYS - 1
        heap = [(rng.random(), seq, rng.randrange(self.KEYS)) for seq in range(2000)]
        heapq.heapify(heap)
        for seq in range(2000, 2000 + self.EVENTS):
            when, _seq, key = heapq.heappop(heap)
            table[key].touch()
            heapq.heappush(heap, (when + rng.random(), seq, (key * 40503 + seq) & mask))
        seconds = perf_counter() - started
        self.samples.append(seconds)
        return seconds

    def rescale(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` measured between samples ``before`` and ``after``,
        stated at the reference host speed."""
        return seconds * self.NOMINAL_S * 2.0 / (before + after)


def reap_children(timeout: float = 60.0) -> None:
    """Wait until every worker process this run started has ended."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join(5)
            break
        time.sleep(0.02)


def fresh_store() -> str:
    OUT.mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(prefix="store-", dir=OUT)


class Measurement:
    """The untraced loop: cold passes back to back, then warm re-reads of
    the last pass's result store where the workload has them."""

    def __init__(self, workload, checker: Checker, host: HostSpeed) -> None:
        self.workload = workload
        self.checker = checker
        self.host = host
        #: per cell, measured and rescaled cold times
        self.cell_seconds: dict[str, list[float]] = defaultdict(list)
        self.cell_scaled: dict[str, list[float]] = defaultdict(list)
        self.cell_events: dict[str, int] = {}
        self.reports: dict[str, object] = {}
        self.warm_seconds: list[float] = []
        self.warm_hit_rates: list[float] = []
        self.passes = 0

    def run(self, seconds: float) -> None:
        """Cold passes until the next one would end after ``seconds``."""
        started = perf_counter()
        store = None
        try:
            with EventTap() as tap:
                while True:
                    if store is not None:
                        shutil.rmtree(store, ignore_errors=True)
                    store = fresh_store()
                    pass_started = perf_counter()
                    self.one_pass(tap, store)
                    reap_children()
                    now = perf_counter()
                    elapsed, last_pass = now - started, now - pass_started
                    if self.passes >= MIN_PASSES and elapsed + last_pass > seconds:
                        break
            if self.workload.warm_job(store) is not None:
                for _ in range(WARM_REPS):
                    self.warm(store)
        finally:
            if store is not None:
                shutil.rmtree(store, ignore_errors=True)

    def one_pass(self, tap, store: str) -> None:
        speed_after = self.host.sample()
        for cell, job in self.workload.cold_jobs(store):
            before, speed_before = tap.events, speed_after
            report, seconds = self.checker.run(cell, job)
            speed_after = self.host.sample()
            if report is None:
                continue
            self.cell_seconds[cell].append(seconds)
            self.cell_scaled[cell].append(self.host.rescale(seconds, speed_before, speed_after))
            sampled = report.sampling.get("executed_events") if report.sampling else None
            self.cell_events[cell] = sampled if sampled is not None else tap.events - before
            self.reports[cell] = report
        self.passes += 1

    def warm(self, store: str) -> None:
        expected = len(self.reports)
        job = self.workload.warm_job(store)
        started = perf_counter()
        try:
            reports, hits = job()
        except Exception as exc:  # counted as a failure of every cell re-read
            traceback.print_exc(file=sys.stderr)
            for _ in range(expected):
                self.checker.attempted += 1
                self.checker.fail("warm pass", f"raised {exc!r}")
            return
        self.warm_seconds.append(perf_counter() - started)
        self.warm_hit_rates.append(hits / max(expected, 1))
        if hits != expected:
            self.checker.fail("warm pass", f"{hits} of {expected} cells came from the store")
        for cell, report in reports.items():
            self.checker.check(cell, report)

    # -- end-to-end values ---------------------------------------------
    @property
    def run_s(self) -> float:
        """Sum over cells of the cell's median rescaled cold time."""
        return sum(median(times) for times in self.cell_scaled.values())

    @property
    def run_wall_s(self) -> float:
        """Sum over cells of the cell's median measured cold time."""
        return sum(median(times) for times in self.cell_seconds.values())

    @property
    def events(self) -> int:
        return sum(self.cell_events.values())


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def probe_setup(args, host: HostSpeed) -> tuple[float, float]:
    """Seconds from a fresh interpreter's launch until it is ready to
    simulate the workload's first cell, measured and rescaled."""
    command = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        command.append("--tiny")
    speed_before = host.sample()
    started = perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        line = child.stdout.readline()
        ready = perf_counter() - started
        child.communicate(timeout=60)
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {child.returncode}, said {line!r})")
    return ready, host.rescale(ready, speed_before, host.sample())


def setup_and_wait(args) -> None:
    """The probe's side: set up, say so, clean up."""
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    workload.setup()
    store = fresh_store()
    workload.cold_jobs(store)
    print("ready", flush=True)
    shutil.rmtree(store, ignore_errors=True)


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
class TracedRun:
    """The profiled pass and the span pass over the workload's traced jobs.

    Both run after the untraced loop, on the same cells, and every report
    they produce is checked against the untraced one.
    """

    def __init__(self, workload, checker: Checker, measurement: Measurement) -> None:
        self.workload = workload
        self.checker = checker
        self.measurement = measurement
        if isinstance(workload, ServeSampled):
            # the serial baseline, untraced: the tenants one after another
            self.untraced_s = median(
                sum(checker.run(cell, job)[1] for cell, job in workload.serial_jobs())
                for _ in range(SERIAL_REPS)
            )
        else:
            self.untraced_s = measurement.run_wall_s
        self.profile = self.profiled_pass()
        self.spans, self.events, self.traced_s = self.span_pass()

    def profiled_pass(self) -> Profiling:
        store = fresh_store()
        try:
            with Profiling() as profile:
                for cell, job in self.workload.traced_jobs(store):
                    self.checker.run(cell, job)
        finally:
            shutil.rmtree(store, ignore_errors=True)
        return profile

    def span_pass(self) -> tuple[Spans, int, float]:
        workload, checker = self.workload, self.checker
        store = fresh_store()
        cells = []
        traced_s = 0.0
        try:
            with Spans(workload.programs) as spans, EventTap() as tap:
                workload.setup()
                for index, (cell, job) in enumerate(workload.traced_jobs(store)):
                    spans.cell = index
                    cells.append(cell)
                    traced_s += checker.run(cell, job)[1]
                warm_job = workload.warm_job(store)
                if warm_job is not None:
                    spans.cell = len(cells)
                    cells.append("warm pass")
                    reports, _hits = warm_job()
                    for cell, report in reports.items():
                        checker.check(cell, report)
        finally:
            shutil.rmtree(store, ignore_errors=True)
        spans.write(OUT, workload.name, cells)
        return spans, tap.events, traced_s


def layer_metrics(traced: TracedRun) -> dict[str, float]:
    """The per-layer metrics of one traced run."""
    workload, measurement = traced.workload, traced.measurement
    prof, spans = traced.profile, traced.spans
    reports = list(measurement.reports.values())

    def total(name: str) -> int:
        return sum(report.counters.get(name, 0) for report in reports)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: dict[str, float] = {}
    metrics["engine.events"] = measurement.events
    metrics["engine.ns_per_event"] = ratio(prof.wall_s * 1e9, prof.events)
    metrics["engine.loop_overhead_frac"] = ratio(prof.wall_s - prof.callback_s, prof.wall_s)
    for level in ("l1", "l2"):
        calls, inclusive, own = spans.stats(f"cache.{level}.access")
        metrics[f"cache.{level}.calls"] = calls
        metrics[f"cache.{level}.ns_per_call"] = inclusive
        metrics[f"cache.{level}.self_ns"] = own
        metrics[f"cache.{level}.hit_rate"] = ratio(total(f"{level}.hits"), total(f"{level}.accesses"))
    metrics["cache.callback_s"] = prof.component("Cache")
    metrics["cache.share"] = ratio(prof.component("Cache"), prof.callback_s)
    metrics["cache.l2.stall_cycles"] = total("l2.stall_cycles")
    metrics["cache.l2.blocked"] = total("l2.blocked_mshr_full") + total("l2.blocked_set_busy")
    allocated = spans.stats("mshr.allocate")[0]
    coalesced = spans.stats("mshr.coalesce")[0]
    metrics["mshr.allocate_calls"] = allocated
    metrics["mshr.coalesce_ratio"] = ratio(coalesced, allocated + coalesced)
    calls, inclusive, _own = spans.stats("link.send")
    metrics["link.send_calls"] = calls
    metrics["link.ns_per_call"] = inclusive
    metrics["link.callback_s"] = prof.component("Link")
    metrics["topology.remote_frac"] = ratio(
        total("topo.remote_requests"), total("topo.remote_requests") + total("topo.local_requests")
    )
    metrics["topology.partition_s"] = spans.seconds("topology.partition_trace")
    metrics["directory.calls"] = spans.stats("directory.access")[0]
    metrics["directory.callback_s"] = prof.component("Directory")
    metrics["dram.calls"] = spans.stats("dram.access")[0]
    metrics["dram.callback_s"] = prof.component("Dram")
    metrics["dram.row_hit_rate"] = ratio(total("dram.row_hits"), total("dram.accesses"))
    metrics["gpu.wavefront_callback_s"] = prof.component("Wavefront")
    metrics["gpu.mem_requests"] = total("gpu.mem_requests")
    metrics["stats.adds_per_event"] = ratio(spans.counter_adds, traced.events)
    metrics["workloads.build_s"] = spans.seconds("workloads.build_trace")
    metrics["session.init_s"] = spans.seconds("session.init")
    metrics["experiments.fingerprint_ns"] = spans.stats("experiments.fingerprint")[1]
    metrics["experiments.store_load_ns"] = spans.stats("experiments.store_load")[1]
    metrics["experiments.store_save_ns"] = spans.stats("experiments.store_save")[1]
    metrics["experiments.store_hit_rate"] = median(measurement.warm_hit_rates or [0.0])
    metrics["trace.overhead_frac"] = ratio(traced.traced_s, traced.untraced_s) - 1.0
    metrics["opt_gap"] = (
        workload.opt_gap(measurement.reports) if isinstance(workload, PaperGrid) else 0.0
    )
    sampling = {}
    metrics["shard.speedup_vs_serial"] = 0.0
    if isinstance(workload, ServeSampled):
        (sampled,) = reports
        sampling = sampled.sampling
        metrics["shard.speedup_vs_serial"] = ratio(traced.untraced_s, measurement.run_wall_s)
    metrics["sampling.executed_events"] = sampling.get("executed_events", 0)
    metrics["sampling.skipped_frac"] = sampling.get("skipped_fraction", 0.0)
    return metrics


# ----------------------------------------------------------------------
def declared_metrics() -> dict[str, list[dict]]:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {"0": spec["end_to_end"], "1": spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for perfbench/selfcheck.py")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        setup_and_wait(args)
        return 0

    declared = declared_metrics()[args.trace]
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    checker = Checker()
    host = HostSpeed()
    workload.setup()
    measurement = Measurement(workload, checker, host)
    try:
        measurement.run(args.seconds)
        values: dict[str, float] = {}
        values["sample_err_max"] = values["sampling.bound_use_max"] = 0.0
        if isinstance(workload, ServeSampled):
            sampled = measurement.reports[workload.label]
            values["sampling.bound_use_max"] = checker.check_sampled(
                workload.label, sampled, workload.exact_report(sharded=True)
            )
            if args.trace == "1":
                values["sample_err_max"] = relative_error(
                    sampled, workload.exact_report(sharded=False)
                )
        reap_children()
        reports = list(measurement.reports.values())
        values.update(
            run_s=measurement.run_s,
            run_wall_s=measurement.run_wall_s,
            events_per_s=measurement.events / measurement.run_s,
            warm_s=median(measurement.warm_seconds or [0.0]),
            sim_cycles_gm=geometric_mean(report.cycles for report in reports),
            dram_accesses_gm=geometric_mean(report.dram_accesses for report in reports),
            peak_rss_mb=peak_rss_mb(),
        )
        if args.trace == "1":
            values.update(layer_metrics(TracedRun(workload, checker, measurement)))
        else:
            probes = [probe_setup(args, host) for _ in range(SETUP_PROBES)]
            values["setup_wall_s"] = median(wall for wall, _scaled in probes)
            values["setup_s"] = median(scaled for _wall, scaled in probes)
        values["host.calib_s"] = median(host.samples)
    finally:
        reap_children()

    print(f"# {args.workload} seed={args.seed} passes={measurement.passes} "
          f"cells={len(measurement.cell_seconds)} trace={args.trace}")
    for name in sorted(values):
        print(f"{name:32s} {values[name]:.6g}")
    print(f"{'failed_frac':32s} {checker.failed / max(checker.attempted, 1):.6g}")
    for metric in declared:
        if metric["name"] not in values:
            checker.problems.append(f"metric {metric['name']} was not measured")
    for problem in checker.problems:
        print(f"FAILED {problem}")
    correct = not checker.problems
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in declared
            if metric["name"] in values
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
