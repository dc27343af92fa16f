"""Command-line interface.

Installed as ``repro-gpu-cache`` (see ``pyproject.toml``) and runnable as
``python -m repro.cli``.  Subcommands:

* ``list``      -- show the available workloads, policies, adaptive
  candidates and registered topologies (``--json`` for scripts and CI).
* ``run``       -- simulate one workload under one policy (optionally on a
  registered multi-device topology) and print the report.
* ``sweep``     -- simulate a workload under several policies and print a
  normalized comparison.
* ``sweep-all`` -- materialize the full (workload x policy) grid once and
  print every figure derived from it.
* ``adaptive``  -- run the online dynamic-policy study (Figure 14): every
  workload under set-dueling + phase-aware policy selection, compared with
  the static envelope and the paper's optimization stack.
* ``topology``  -- run the device-scaling study: policies across 1/2/4-device
  NUMA systems (speedup + remote-traffic fraction per cell).
* ``serve``     -- run the multi-tenant interference study: serving mixes of
  concurrent streams under shared vs partitioned CU dispatch (per-tenant
  slowdown + unfairness per cell).
* ``faults``    -- run the resilience study: serving mixes under deterministic
  fault plans (link brownouts, device outages, DRAM storms, tenant churn),
  reporting slowdown + availability per cell.
* ``trace``     -- record one fully instrumented run: a Chrome/Perfetto
  trace timeline (``--out``), optional windowed counter metrics, and
  host-side simulator profiling (always on; ``--telemetry-out``).
* ``figure``    -- regenerate one of the paper's figures (4-13) as a text table.
* ``table``     -- print Table 1 (system configuration) or Table 2 (workloads).
* ``cache``     -- persistent result-store lifecycle: ``stats``, ``clear``,
  ``prune --max-age-days N``.
* ``ledger``    -- cross-run provenance registry: ``list`` recent runs,
  ``show`` one entry, ``prune`` old ones.  Runs and sweeps append to it via
  ``--ledger`` (or ``$REPRO_LEDGER``).
* ``diff``      -- counter-for-counter comparison of two runs (report files,
  store fingerprints or ledger references); ``--fail-on-drift`` for CI.
* ``bench``     -- the regression sentinel: ``record`` a median-of-N
  throughput measurement into ``BENCH_history.jsonl``, ``check`` it against
  the committed baseline and the history's robust (median - k*MAD) floor.

``--alerts`` (on ``run``/``serve``/``faults``/``trace``) runs the anomaly
detectors -- L2 hit-rate cliffs, per-tenant starvation under shared
dispatch, availability-budget breaches -- over the run and surfaces the
findings in the report/summary.  ``--log-level``/``--log-file``/
``--log-json`` enable run-scoped structured logging (executor retries,
fault strikes); logging is off by default and changes no results.

The global ``--jobs N`` flag fans independent simulations out across ``N``
worker processes, and ``--cache-dir`` points sweeps at a persistent result
store so repeated invocations never re-simulate a finished grid cell
(``sweep-all`` defaults to the conventional ``~/.cache/repro-gpu-cache``
store; pass ``--no-cache`` to opt out).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import Sequence

from repro.adaptive import AdaptiveConfig
from repro.config import default_config, scaled_config
from repro.core.policies import ALL_POLICIES, STATIC_POLICIES, policy_by_name
from repro.experiments import (
    ExperimentRunner,
    adaptive_summary,
    figure14_adaptive,
    figure4_gvops,
    figure5_gmrs,
    figure6_execution_time,
    figure7_dram_accesses,
    figure8_cache_stalls,
    figure9_row_hit_rate,
    figure10_execution_time,
    figure11_dram_accesses,
    figure12_cache_stalls,
    figure13_row_hit_rate,
    render_series_table,
    table1_system_configuration,
    table2_workloads,
)
from repro.experiments.render import render_kv_table
from repro.experiments.scaling import (
    SCALING_DEVICES,
    SCALING_WORKLOADS,
    figure_scaling,
    scaling_artifact,
    scaling_series,
    scaling_summary,
)
from repro.experiments.interference import (
    CU_MODES,
    INTERFERENCE_POLICIES,
    figure_interference,
    interference_artifact,
    interference_series,
    interference_summary,
    mix_is_partitionable,
)
from repro.experiments.resilience import (
    DEFAULT_RESILIENCE_MIXES,
    DEFAULT_RESILIENCE_PLANS,
    RESILIENCE_POLICIES,
    figure_resilience,
    plan_is_runnable,
    resilience_artifact,
    resilience_series,
    resilience_summary,
)
from repro.experiments.store import ResultStore, default_cache_dir
from repro.faults import FAULT_PLAN_NAMES, FAULT_PLANS, fault_plan_by_name
from repro.ioutil import atomic_write_json
from repro.log import configure as configure_logging
from repro.accel import SamplingConfig
from repro.obs import (
    CORE_BENCHMARK,
    EFFECTIVE_BENCHMARK,
    AlertConfig,
    ObsConfig,
    RunLedger,
    append_history,
    committed_baseline,
    default_history_path,
    diff_reports,
    evaluate_measurement,
    load_history,
    measure_core_throughput,
    measure_effective_throughput,
    render_diff_markdown,
    render_diff_table,
    resolve_report,
)
from repro.session import SimulationSession, simulate
from repro.telemetry import TelemetryConfig, validate_trace
from repro.streams import MIX_NAMES, SERVING_MIXES, mix_by_name
from repro.topology import TOPOLOGIES, TOPOLOGY_NAMES, TopologyConfig, topology_by_name
from repro.workloads.registry import WORKLOAD_NAMES, get_workload

__all__ = ["main", "build_parser"]

_FIGURES = {
    "4": ("Figure 4: compute bandwidth (GVOPS), CacheR", figure4_gvops, "{:.1f}"),
    "5": ("Figure 5: memory request bandwidth (GMR/s), CacheR", figure5_gmrs, "{:.3f}"),
    "6": ("Figure 6: execution time normalized to Uncached", figure6_execution_time, "{:.3f}"),
    "7": ("Figure 7: DRAM accesses normalized to Uncached", figure7_dram_accesses, "{:.3f}"),
    "8": ("Figure 8: cache stalls per memory request", figure8_cache_stalls, "{:.3f}"),
    "9": ("Figure 9: DRAM row-buffer hit ratio", figure9_row_hit_rate, "{:.3f}"),
    "10": ("Figure 10: execution time normalized to best static", figure10_execution_time, "{:.3f}"),
    "11": ("Figure 11: DRAM accesses normalized to Uncached", figure11_dram_accesses, "{:.3f}"),
    "12": ("Figure 12: cache stalls per memory request", figure12_cache_stalls, "{:.3f}"),
    "13": ("Figure 13: DRAM row-buffer hit ratio", figure13_row_hit_rate, "{:.3f}"),
}


def _add_executor_options(parser: argparse.ArgumentParser) -> None:
    """Accept the executor flags after the subcommand as well.

    ``SUPPRESS`` keeps an unset subcommand-level flag from clobbering the
    value the global parser already recorded, so both
    ``repro-gpu-cache --jobs 4 sweep-all`` and
    ``repro-gpu-cache sweep-all --jobs 4`` work.
    """
    parser.add_argument(
        "--jobs",
        type=int,
        default=argparse.SUPPRESS,
        metavar="N",
        help="worker processes for sweeps (default: 1, serial)",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=argparse.SUPPRESS,
        metavar="SECS",
        help="with --jobs > 1, abandon a batch's stragglers after SECS seconds",
    )
    parser.add_argument(
        "--job-retries",
        type=int,
        default=argparse.SUPPRESS,
        metavar="N",
        help="with --jobs > 1, retry dead or hung jobs N times on a fresh pool",
    )
    parser.add_argument(
        "--cache-dir",
        default=argparse.SUPPRESS,
        metavar="DIR",
        help="persistent result store directory",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        default=argparse.SUPPRESS,
        help="disable the persistent result store",
    )
    parser.add_argument(
        "--telemetry-out",
        default=argparse.SUPPRESS,
        metavar="FILE",
        help="write executor telemetry (per-job wall times, worker "
        "utilization, store hits, retries) as JSON",
    )
    parser.add_argument(
        "--ledger",
        default=argparse.SUPPRESS,
        metavar="FILE",
        help="append provenance entries for every simulated cell (plus a "
        "sweep aggregate) to this JSONL run ledger",
    )


def _add_trace_options(parser: argparse.ArgumentParser, replay: bool = False) -> None:
    """The per-run telemetry flags ``run``/``serve``/``faults`` share.

    On the study commands (``replay=True``) the flags drive an inline
    traced replay of the study's first runnable cell after the sweep
    itself finishes -- sweep cells execute in worker processes (and may be
    served from the store), so the trace comes from one designated
    re-simulation instead.
    """
    target = "a traced replay of the first runnable cell" if replay else "the run"
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help=f"record a Chrome/Perfetto trace of {target} into FILE",
    )
    parser.add_argument(
        "--metrics-interval", type=int, default=None, metavar="CYCLES",
        help="sample windowed counter time-series every CYCLES cycles "
        + (
            "(embedded in the trace artifact; needs --trace-out)"
            if replay
            else "(attached to the report's 'metrics' field)"
        ),
    )
    parser.add_argument(
        "--alerts", action="store_true",
        help=f"run the anomaly detectors (hit-rate cliffs, tenant "
        f"starvation, availability breaches) over {target} and surface "
        "the findings (implies windowed metrics sampling)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for the CLI tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-gpu-cache",
        description="GPU cache-policy reproduction for MI workloads (IISWC 2019)",
    )
    parser.add_argument("--scale", type=float, default=1.0, help="workload scale factor")
    parser.add_argument("--cus", type=int, default=None, help="number of compute units")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for sweeps (default: 1, serial)",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECS",
        help="with --jobs > 1, abandon a batch's stragglers after SECS "
        "seconds (default: no timeout)",
    )
    parser.add_argument(
        "--job-retries",
        type=int,
        default=0,
        metavar="N",
        help="with --jobs > 1, retry dead or hung jobs N times on a "
        "fresh pool (default: 0)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent result store directory (default: none, except sweep-all)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result store even for sweep-all",
    )
    parser.add_argument(
        "--telemetry-out",
        default=None,
        metavar="FILE",
        help="write executor telemetry (per-job wall times, worker "
        "utilization, store hits, retries) as JSON",
    )
    parser.add_argument(
        "--ledger",
        default=None,
        metavar="FILE",
        help="append run/job provenance entries to this JSONL run ledger "
        "(inspect with the 'ledger' subcommand)",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        choices=["debug", "info", "warning", "error"],
        help="enable run-scoped structured logging at this severity "
        "(default: logging off; results are identical either way)",
    )
    parser.add_argument(
        "--log-file",
        default=None,
        metavar="FILE",
        help="append structured log lines to FILE (implies --log-level info)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="structured log lines as JSON objects, one per line",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list workloads, policies, adaptive candidates and topologies"
    )
    list_parser.add_argument(
        "--json", action="store_true",
        help="emit the registries as JSON (for scripts and CI)",
    )

    run = subparsers.add_parser("run", help="simulate one workload under one policy")
    run.add_argument("--workload", required=True, choices=list(WORKLOAD_NAMES))
    run.add_argument("--policy", required=True)
    run.add_argument(
        "--topology", default=None, choices=list(TOPOLOGY_NAMES),
        help="simulate on a registered multi-device topology",
    )
    run.add_argument(
        "--sampling", action="store_true",
        help="phase-sampled fast-forward: skip steady-state kernel repeats "
        "and extrapolate their counters (the report carries per-counter "
        "error estimates)",
    )
    run.add_argument("--json", action="store_true", help="emit the report as JSON")
    run.add_argument(
        "--ledger", default=argparse.SUPPRESS, metavar="FILE",
        help="append this run's provenance entry to the JSONL run ledger",
    )
    _add_trace_options(run)

    sweep = subparsers.add_parser("sweep", help="compare several policies on one workload")
    sweep.add_argument("--workload", required=True, choices=list(WORKLOAD_NAMES))
    sweep.add_argument(
        "--policies",
        nargs="+",
        default=[p.name for p in STATIC_POLICIES],
        help="policy names (default: the three static policies)",
    )
    _add_executor_options(sweep)

    sweep_all = subparsers.add_parser(
        "sweep-all",
        help="materialize the full workload x policy grid and print its figures",
    )
    sweep_all.add_argument(
        "--workloads", nargs="+", default=None, help="subset of workloads (default: all 17)"
    )
    sweep_all.add_argument(
        "--policies",
        nargs="+",
        default=[p.name for p in ALL_POLICIES],
        help="policy names (default: all six policies)",
    )
    sweep_all.add_argument(
        "--figures",
        nargs="+",
        default=sorted(_FIGURES, key=int),
        choices=sorted(_FIGURES, key=int),
        metavar="N",
        help="figures to print after the sweep (default: 4-13)",
    )
    _add_executor_options(sweep_all)

    adaptive = subparsers.add_parser(
        "adaptive",
        help="run the online dynamic-policy study (Figure 14)",
    )
    adaptive.add_argument(
        "--workloads", nargs="+", default=None,
        help="subset of workloads (default: all 18, including MHA)",
    )
    adaptive.add_argument(
        "--candidates",
        nargs="+",
        default=[p.name for p in STATIC_POLICIES],
        help="candidate policies the duel arbitrates (default: the static three)",
    )
    adaptive.add_argument(
        "--epoch-cycles", type=int, default=None, metavar="N",
        help="phase-sampling / duel-decision period in cycles",
    )
    adaptive.add_argument(
        "--leader-sets", type=int, default=None, metavar="N",
        help="L2 leader sets per candidate policy",
    )
    adaptive.add_argument(
        "--mid-kernel", action="store_true",
        help="also swap the policy mid-kernel when the phase detector fires",
    )
    adaptive.add_argument(
        "--json-out", default=None, metavar="FILE",
        help="write the figure data and geomean summary as JSON (CI artifact)",
    )
    _add_executor_options(adaptive)

    topology = subparsers.add_parser(
        "topology",
        help="run the device-scaling study (1/2/4-device NUMA systems)",
    )
    topology.add_argument(
        "--devices", nargs="+", type=int, default=list(SCALING_DEVICES), metavar="N",
        help="device counts to sweep (must include the 1-device baseline)",
    )
    topology.add_argument(
        "--workloads", nargs="+", default=None, choices=list(WORKLOAD_NAMES),
        help=f"subset of workloads (default: {' '.join(SCALING_WORKLOADS)})",
    )
    topology.add_argument(
        "--policies",
        nargs="+",
        default=[p.name for p in STATIC_POLICIES],
        help="policy names (default: the three static policies)",
    )
    topology.add_argument(
        "--fabric", default=None, choices=list(TOPOLOGY_NAMES), metavar="NAME",
        help="registered topology whose fabric parameters the sweep holds fixed",
    )
    topology.add_argument(
        "--remote-latency", type=int, default=None, metavar="CYCLES",
        help="one-way fabric latency override",
    )
    topology.add_argument(
        "--fabric-bandwidth", type=float, default=None, metavar="RPC",
        help="fabric link bandwidth override (requests/cycle)",
    )
    topology.add_argument(
        "--interleave-lines", type=int, default=None, metavar="N",
        help="cache lines per device interleave chunk",
    )
    topology.add_argument(
        "--replicate-weights", action="store_true",
        help="replicate shared read-only (weight) lines per device",
    )
    topology.add_argument(
        "--json-out", default=None, metavar="FILE",
        help="write the figure data and summary as JSON (CI artifact)",
    )
    _add_executor_options(topology)

    serve = subparsers.add_parser(
        "serve",
        help="run the multi-tenant interference study (concurrent serving mixes)",
    )
    serve.add_argument(
        "--mix", nargs="+", default=None, choices=list(MIX_NAMES),
        help="serving mixes to study (default: all registered mixes)",
    )
    serve.add_argument(
        "--policies",
        nargs="+",
        default=[p.name for p in INTERFERENCE_POLICIES],
        help="policy names (default: CacheRW plus the AB/CR optimizations)",
    )
    serve.add_argument(
        "--cu-partition", default="both", choices=[*CU_MODES, "both"],
        metavar="MODE",
        help="CU share mode(s): shared, partitioned, or both (default)",
    )
    serve.add_argument(
        "--json-out", default=None, metavar="FILE",
        help="write the figure data and summary as JSON (CI artifact)",
    )
    _add_trace_options(serve, replay=True)
    _add_executor_options(serve)

    faults = subparsers.add_parser(
        "faults",
        help="run the resilience study (serving mixes under fault plans)",
    )
    faults.add_argument(
        "--mix", nargs="+", default=None, choices=list(MIX_NAMES),
        help="serving mixes to chaos-test (default: "
        + ", ".join(DEFAULT_RESILIENCE_MIXES) + ")",
    )
    faults.add_argument(
        "--plans", nargs="+", default=None, choices=list(FAULT_PLAN_NAMES),
        help="fault plans to inject (default: the healthy baseline plus "
        "every single-cause plan; the baseline is always included)",
    )
    faults.add_argument(
        "--policies",
        nargs="+",
        default=[p.name for p in RESILIENCE_POLICIES],
        help="policy names (default: CacheRW plus the AB/CR optimizations)",
    )
    faults.add_argument(
        "--topology", default="dual-chiplet", choices=list(TOPOLOGY_NAMES),
        help="system topology (default: dual-chiplet -- the smallest "
        "system where every fault kind can fire)",
    )
    faults.add_argument(
        "--json-out", default=None, metavar="FILE",
        help="write the figure data and summary as JSON (CI artifact)",
    )
    faults.add_argument(
        "--checkpoint", default=None, metavar="FILE",
        help="sweep checkpoint file: an interrupted run re-invoked with "
        "the same path resumes without re-simulating finished cells",
    )
    _add_trace_options(faults, replay=True)
    _add_executor_options(faults)

    trace = subparsers.add_parser(
        "trace",
        help="record a Chrome/Perfetto trace of one instrumented run",
    )
    trace_source = trace.add_mutually_exclusive_group(required=True)
    trace_source.add_argument(
        "--workload", choices=list(WORKLOAD_NAMES),
        help="single workload to trace",
    )
    trace_source.add_argument(
        "--mix", choices=list(MIX_NAMES),
        help="serving mix to trace (concurrent streams)",
    )
    trace.add_argument(
        "--policy", default="CacheRW",
        help="policy name (default: CacheRW)",
    )
    trace.add_argument(
        "--topology", default=None, choices=list(TOPOLOGY_NAMES),
        help="trace on a registered multi-device topology",
    )
    trace.add_argument(
        "--plan", default=None, choices=list(FAULT_PLAN_NAMES),
        help="fault plan to inject during the traced run",
    )
    trace.add_argument(
        "--out", default="trace.json", metavar="FILE",
        help="trace artifact path (default: trace.json; open in "
        "https://ui.perfetto.dev or chrome://tracing)",
    )
    trace.add_argument(
        "--metrics-interval", type=int, default=None, metavar="CYCLES",
        help="also sample windowed counter time-series every CYCLES cycles "
        "(embedded in the trace artifact)",
    )
    trace.add_argument(
        "--telemetry-out", default=argparse.SUPPRESS, metavar="FILE",
        help="write the host-side profiling summary (events/sec, "
        "per-component attribution) as JSON",
    )
    trace.add_argument(
        "--json", action="store_true", help="emit the run summary as JSON"
    )
    trace.add_argument(
        "--ledger", default=argparse.SUPPRESS, metavar="FILE",
        help="append this run's provenance entry to the JSONL run ledger",
    )
    trace.add_argument(
        "--alerts", action="store_true",
        help="run the anomaly detectors over the traced run and surface "
        "the findings (alerts also land on the trace timeline)",
    )

    cache = subparsers.add_parser(
        "cache", help="persistent result-store lifecycle (stats/clear/prune)"
    )
    cache.add_argument("action", choices=["stats", "clear", "prune"])
    cache.add_argument(
        "--max-age-days", type=float, default=None, metavar="DAYS",
        help="prune: delete entries older than this many days (required)",
    )
    cache.add_argument("--json", action="store_true", help="emit the result as JSON")
    _add_executor_options(cache)

    figure = subparsers.add_parser("figure", help="regenerate one of the paper's figures")
    figure.add_argument("number", choices=sorted(_FIGURES, key=int))
    figure.add_argument(
        "--workloads", nargs="+", default=None, help="subset of workloads (default: all 17)"
    )
    _add_executor_options(figure)

    table = subparsers.add_parser("table", help="print Table 1 or Table 2")
    table.add_argument("number", choices=["1", "2"])

    ledger = subparsers.add_parser(
        "ledger", help="cross-run provenance ledger (list/show/prune)"
    )
    ledger.add_argument("action", choices=["list", "show", "prune"])
    ledger.add_argument(
        "ref", nargs="?", default="-1",
        help="show: entry reference -- an index (-1 is the newest, 0 the "
        "oldest) or a fingerprint hex prefix (default: -1)",
    )
    ledger.add_argument(
        "--ledger", default=argparse.SUPPRESS, metavar="FILE",
        help="ledger file (default: $REPRO_LEDGER or <cache dir>/ledger.jsonl)",
    )
    ledger.add_argument(
        "--count", type=int, default=10, metavar="N",
        help="list: how many recent entries to show (default: 10)",
    )
    ledger.add_argument(
        "--keep", type=int, default=None, metavar="N",
        help="prune: retain only the newest N entries",
    )
    ledger.add_argument(
        "--max-age-days", type=float, default=None, metavar="DAYS",
        help="prune: drop entries older than this many days",
    )
    ledger.add_argument("--json", action="store_true", help="emit the result as JSON")

    diff = subparsers.add_parser(
        "diff", help="counter-for-counter comparison of two runs"
    )
    diff.add_argument(
        "ref_a", metavar="A",
        help="run reference: a report JSON file, a store fingerprint "
        "(unique prefix), or a ledger index/fingerprint",
    )
    diff.add_argument("ref_b", metavar="B", help="second run reference (same forms)")
    diff.add_argument(
        "--threshold", type=float, default=0.0, metavar="FRAC",
        help="only list counters whose relative change is at least FRAC "
        "(default: 0, list every changed counter)",
    )
    diff.add_argument(
        "--fail-on-drift", action="store_true",
        help="exit 1 unless the runs are counter-for-counter identical (CI gate)",
    )
    diff_format = diff.add_mutually_exclusive_group()
    diff_format.add_argument("--json", action="store_true", help="emit the diff as JSON")
    diff_format.add_argument(
        "--markdown", action="store_true", help="emit the diff as Markdown tables"
    )
    _add_executor_options(diff)

    bench = subparsers.add_parser(
        "bench", help="throughput regression sentinel (record/check)"
    )
    bench.add_argument("action", choices=["record", "check"])
    bench.add_argument(
        "--benchmark", choices=["core", "effective"], default="core",
        help="which sentinel to measure: the exact core run, or the "
        "accelerated (sampled + sharded) effective-throughput run "
        "(default: core)",
    )
    bench.add_argument(
        "--samples", type=int, default=3, metavar="N",
        help="timed repetitions; the median is the measurement (default: 3)",
    )
    bench.add_argument(
        "--history", default=None, metavar="FILE",
        help="bench history file (default: $REPRO_BENCH_HISTORY or "
        "BENCH_history.jsonl at the repo root)",
    )
    bench.add_argument(
        "--use-last", action="store_true",
        help="check: judge the newest recorded history entry instead of "
        "re-measuring",
    )
    bench.add_argument(
        "--max-regression", type=float, default=0.25, metavar="FRAC",
        help="flat floor: fail below (1 - FRAC) x the committed baseline "
        "(default: 0.25)",
    )
    bench.add_argument(
        "--mad-factor", type=float, default=4.0, metavar="K",
        help="robust floor: fail below history median - K * 1.4826 * MAD "
        "(default: 4.0)",
    )
    bench.add_argument(
        "--min-history", type=int, default=5, metavar="N",
        help="history samples needed before the MAD gate arms (default: 5)",
    )
    bench.add_argument("--json", action="store_true", help="emit the verdict as JSON")

    return parser


def _system_config(args: argparse.Namespace):
    if args.cus is not None:
        return scaled_config(args.cus)
    return default_config()


def _cache_dir(args: argparse.Namespace, default_to_conventional: bool = False) -> str | None:
    """Resolve the store directory from --cache-dir / --no-cache."""
    if args.no_cache:
        return None
    if args.cache_dir is not None:
        return args.cache_dir
    if default_to_conventional:
        return str(default_cache_dir())
    return None


def _runner(
    args: argparse.Namespace, workload_names: Sequence[str] | None = None
) -> ExperimentRunner:
    """Build the experiment runner the sweep-style commands share."""
    return ExperimentRunner(
        scale=args.scale,
        config=_system_config(args),
        workload_names=workload_names,
        jobs=args.jobs,
        cache_dir=_cache_dir(args),
        job_timeout=args.job_timeout,
        job_retries=args.job_retries,
        ledger_path=args.ledger,
    )


def _telemetry_config(args: argparse.Namespace, profile: bool = False) -> TelemetryConfig | None:
    """The :class:`TelemetryConfig` the run-level flags request (or None)."""
    trace_out = getattr(args, "trace_out", None)
    interval = getattr(args, "metrics_interval", None) or 0
    if not interval and getattr(args, "alerts", False):
        # the anomaly detectors read windowed metrics, so --alerts without
        # an explicit --metrics-interval gets the detectors' default cadence
        interval = AlertConfig().default_metrics_interval
    if not trace_out and not interval and not profile:
        return None
    return TelemetryConfig(trace=bool(trace_out), metrics_interval=interval, profile=profile)


def _obs_config(args: argparse.Namespace) -> ObsConfig | None:
    """The :class:`ObsConfig` the run-level flags request (or None)."""
    ledger = getattr(args, "ledger", None)
    alerts = AlertConfig() if getattr(args, "alerts", False) else None
    if ledger is None and alerts is None:
        return None
    return ObsConfig(ledger_path=ledger, alerts=alerts)


def _print_alerts(report, command: str) -> None:
    """Surface fired anomaly detectors on stderr (stdout stays clean)."""
    if not report.alerts:
        print(f"[{command}] alerts: none fired", file=sys.stderr)
        return
    for alert in report.alerts:
        stream = f" stream={alert['stream']}" if "stream" in alert else ""
        print(
            f"[{command}] ALERT {alert['severity']}: {alert['kind']} "
            f"@cycle {alert['cycle']}{stream} -- {alert['message']}",
            file=sys.stderr,
        )


def _format_ts(ts: object) -> str:
    """Ledger timestamp as local wall-clock minutes (or a dash ruler)."""
    if not isinstance(ts, (int, float)):
        return "-" * 16
    return time.strftime("%Y-%m-%d %H:%M", time.localtime(ts))


def _write_trace(path: str, session: SimulationSession, command: str) -> None:
    """Validate and atomically write the session's recorded trace.

    When the session also sampled windowed metrics, the windows ride along
    under ``otherData.metricsWindows`` (the trace-event format reserves
    ``otherData`` for free-form payload), so one artifact carries the full
    observability record of the run.
    """
    recorder = session.recorder
    assert recorder is not None  # callers only trace with trace=True
    blob = recorder.to_dict()
    if session.sampler is not None:
        other = blob["otherData"]
        assert isinstance(other, dict)
        other["metricsWindows"] = [dict(window) for window in session.sampler.windows]
    validate_trace(blob)
    atomic_write_json(path, blob, indent=None)
    events = blob["traceEvents"]
    assert isinstance(events, list)
    print(
        f"[{command}] wrote {len(events)} trace events to {path}"
        + (" (truncated)" if recorder.truncated else ""),
        file=sys.stderr,
    )
    if recorder.truncated:
        print(
            f"[{command}] warning: the trace hit the {recorder.max_events}-event "
            "cap and later events were dropped; reduce --scale or trace a "
            "narrower run for a complete timeline",
            file=sys.stderr,
        )


def _write_executor_telemetry(args: argparse.Namespace, runner: ExperimentRunner) -> None:
    """Write the ``--telemetry-out`` executor artifact, when requested.

    Also the single point where a ledger-carrying sweep appends its
    aggregate entry (store hit-rate, worker utilization, retry pressure) --
    every sweep-style command funnels through here after its grid runs.
    """
    executor = runner.executor
    if getattr(executor, "ledger", None) is not None:
        executor.record_sweep(label=args.command, workers=args.jobs)
    path = getattr(args, "telemetry_out", None)
    if not path:
        return
    blob = {
        "schema": 1,
        "command": args.command,
        "executor": runner.executor.stats.telemetry(workers=args.jobs),
    }
    atomic_write_json(path, blob)
    print(f"[{args.command}] wrote executor telemetry to {path}", file=sys.stderr)


def _list_payload() -> dict[str, object]:
    """The registries as primitives: what ``list --json`` emits.

    CI and scripts enumerate scenarios from this instead of parsing the
    human-formatted table, so the schema is part of the CLI contract.
    """
    return {
        "schema": 1,
        "workloads": [
            {
                "name": name,
                "suite": workload.metadata.suite,
                "description": workload.metadata.description,
            }
            for name, workload in (
                (name, get_workload(name)) for name in WORKLOAD_NAMES
            )
        ],
        "policies": [
            {
                "name": policy.name,
                "cache_loads_l1": policy.cache_loads_l1,
                "cache_loads_l2": policy.cache_loads_l2,
                "cache_stores_l2": policy.cache_stores_l2,
                "allocation_bypass": policy.allocation_bypass,
                "cache_rinsing": policy.cache_rinsing,
                "pc_bypass": policy.pc_bypass,
            }
            for policy in ALL_POLICIES
        ],
        "adaptive": {
            "default_candidates": [p.name for p in AdaptiveConfig().candidates],
        },
        "topologies": {
            name: topology.describe() for name, topology in TOPOLOGIES.items()
        },
        "serving_mixes": {
            name: mix.describe() for name, mix in SERVING_MIXES.items()
        },
        "fault_plans": {
            name: {
                "description": plan.description,
                "events": list(plan.describe()["events"]),
            }
            for name, plan in FAULT_PLANS.items()
        },
    }


def _cmd_list(args: argparse.Namespace) -> int:
    if args.json:
        print(json.dumps(_list_payload(), indent=1, sort_keys=True))
        return 0
    print("Workloads:")
    for name in WORKLOAD_NAMES:
        workload = get_workload(name)
        print(f"  {name:10s} {workload.metadata.suite:25s} {workload.metadata.description}")
    print("\nPolicies:")
    for policy in ALL_POLICIES:
        print(
            f"  {policy.name:14s} loads L1/L2: {policy.cache_loads_l1}/{policy.cache_loads_l2}  "
            f"stores L2: {policy.cache_stores_l2}  AB/CR/PCby: "
            f"{policy.allocation_bypass}/{policy.cache_rinsing}/{policy.pc_bypass}"
        )
    print("\nAdaptive candidates (default):")
    print("  " + ", ".join(p.name for p in AdaptiveConfig().candidates))
    print("\nTopologies:")
    for name, topology in TOPOLOGIES.items():
        print(
            f"  {name:14s} devices: {topology.num_devices}  "
            f"remote latency: {topology.remote_latency_cycles}cy  "
            f"fabric: {topology.fabric_requests_per_cycle} req/cy"
        )
    print("\nServing mixes:")
    for name, mix in SERVING_MIXES.items():
        tenants = ", ".join(
            f"{s.workload}@{s.launch_cycle}" for s in mix.streams
        )
        print(f"  {name:18s} [{tenants}]  {mix.description}")
    print("\nFault plans:")
    for name, plan in FAULT_PLANS.items():
        print(f"  {name:18s} events: {len(plan.events)}  {plan.description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload, scale=args.scale)
    policy = policy_by_name(args.policy)
    topology = topology_by_name(args.topology) if args.topology else None
    telemetry = _telemetry_config(args)
    obs = _obs_config(args)
    sampling = SamplingConfig() if getattr(args, "sampling", False) else None
    if telemetry is None and obs is None:
        report = simulate(
            workload,
            policy,
            config=_system_config(args),
            topology=topology,
            sampling=sampling,
        )
    else:
        session = SimulationSession(
            policy=policy,
            config=_system_config(args),
            topology=topology,
            sampling=sampling,
            telemetry=telemetry,
            obs=obs,
        )
        report = session.run(workload)
        if args.trace_out:
            _write_trace(args.trace_out, session, "run")
    label = f"{args.workload} under {policy.name}"
    if topology is not None:
        label += f" on {topology.label}"
    payload = report.as_dict()
    if report.metrics:
        # windowed time-series only exist when --metrics-interval asked for
        # them, so plain runs keep the historical flat payload byte-for-byte
        payload["metrics"] = report.metrics
    if report.alerts:
        # same touched-gating: only --alerts runs can populate this
        payload["alerts"] = report.alerts
    if report.sampling:
        # only accelerated runs carry this block, so exact runs keep the
        # historical payload byte-for-byte
        payload["sampling"] = report.sampling
        if report.error_estimates:
            payload["max_error_estimate"] = max(report.error_estimates.values())
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        if report.metrics:
            payload["metrics"] = f"{len(report.metrics)} windows"
        if report.alerts:
            payload["alerts"] = f"{len(report.alerts)} fired"
        if report.sampling:
            skipped = report.sampling.get("skipped_fraction", 0.0)
            payload["sampling"] = f"{float(skipped):.0%} kernels skipped"
        print(render_kv_table(label, payload))
    if getattr(args, "alerts", False):
        _print_alerts(report, "run")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    workload_name = args.workload
    runner = _runner(args, workload_names=[workload_name])
    sweep = runner.sweep(policies=[policy_by_name(name) for name in args.policies])
    comparison = sweep.comparison(workload_name)
    data = {
        workload_name: comparison.normalized_exec_time(
            baseline=args.policies[0] if "Uncached" not in comparison.reports else "Uncached"
        )
    }
    print(render_series_table(f"Execution time for {workload_name} (normalized)", data))
    dram = {workload_name: comparison.metric(lambda r: float(r.dram_accesses))}
    print(render_series_table(f"DRAM accesses for {workload_name}", dram, value_format="{:.0f}"))
    _write_executor_telemetry(args, runner)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    title, builder, fmt = _FIGURES[args.number]
    runner = _runner(args, workload_names=args.workloads)
    data = builder(runner)
    print(render_series_table(title, data, value_format=fmt))
    _write_executor_telemetry(args, runner)
    return 0


def _cmd_sweep_all(args: argparse.Namespace) -> int:
    """Materialize the full grid once, then print every requested figure.

    The sweep submits the whole (workload x policy) grid to the executor in
    one batch, so ``--jobs N`` runs up to N grid cells concurrently; with
    the persistent store warm, a repeat invocation simulates nothing and
    prints identical figures.  The cache-effectiveness summary goes to
    stderr so stdout stays byte-identical between cold and warm runs.
    """
    cache_dir = _cache_dir(args, default_to_conventional=True)
    runner = ExperimentRunner(
        scale=args.scale,
        config=_system_config(args),
        workload_names=args.workloads,
        jobs=args.jobs,
        cache_dir=cache_dir,
        job_timeout=args.job_timeout,
        job_retries=args.job_retries,
        ledger_path=args.ledger,
    )
    policies = [policy_by_name(name) for name in args.policies]
    runner.sweep(policies=policies)
    for number in args.figures:
        title, builder, fmt = _FIGURES[number]
        print(render_series_table(title, builder(runner), value_format=fmt))
    stats = runner.stats()
    print(
        f"[sweep-all] grid={len(runner.workload_names)}x{len(policies)} "
        f"jobs={args.jobs} store={cache_dir or 'disabled'} "
        f"simulated={stats['runs_simulated']} loaded={stats['runs_loaded']}",
        file=sys.stderr,
    )
    _write_executor_telemetry(args, runner)
    return 0


def _cmd_adaptive(args: argparse.Namespace) -> int:
    """Run the dynamic-vs-static comparison and print/record Figure 14.

    Like ``sweep-all``, the command defaults to the conventional persistent
    store, so the static envelope (shared with Figures 6-13) and finished
    dynamic cells are never re-simulated; the cache-effectiveness line goes
    to stderr so stdout stays identical between cold and warm runs.
    """
    overrides: dict[str, object] = {
        "candidates": tuple(policy_by_name(name) for name in args.candidates),
        "mid_kernel_switching": bool(args.mid_kernel),
    }
    if args.epoch_cycles is not None:
        overrides["epoch_cycles"] = args.epoch_cycles
    if args.leader_sets is not None:
        overrides["leader_sets_per_policy"] = args.leader_sets
    adaptive_config = AdaptiveConfig(**overrides)  # type: ignore[arg-type]

    cache_dir = _cache_dir(args, default_to_conventional=True)
    runner = ExperimentRunner(
        scale=args.scale,
        config=_system_config(args),
        workload_names=args.workloads,
        jobs=args.jobs,
        cache_dir=cache_dir,
        job_timeout=args.job_timeout,
        job_retries=args.job_retries,
        ledger_path=args.ledger,
    )
    figure = figure14_adaptive(runner, adaptive_config=adaptive_config)
    summary = adaptive_summary(figure)
    print(
        render_series_table(
            "Figure 14: dynamic policy vs static envelope "
            "(execution time normalized to best static)",
            figure,
        )
    )
    print(render_series_table("Figure 14 geomean summary", summary))

    if args.json_out:
        blob = {
            "schema": 1,
            "adaptive": {
                "fingerprint": adaptive_config.fingerprint(),
                "candidates": [p.name for p in adaptive_config.candidates],
                "epoch_cycles": adaptive_config.epoch_cycles,
                "leader_sets_per_policy": adaptive_config.leader_sets_per_policy,
                "mid_kernel_switching": adaptive_config.mid_kernel_switching,
            },
            "scale": args.scale,
            "num_cus": runner.config.gpu.num_cus,
            "figure14": figure,
            "summary": summary,
        }
        atomic_write_json(args.json_out, blob)
        print(f"[adaptive] wrote figure data to {args.json_out}", file=sys.stderr)

    stats = runner.stats()
    print(
        f"[adaptive] workloads={len(figure)} jobs={args.jobs} "
        f"store={cache_dir or 'disabled'} "
        f"simulated={stats['runs_simulated']} loaded={stats['runs_loaded']}",
        file=sys.stderr,
    )
    _write_executor_telemetry(args, runner)
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    """Run the device-scaling study and print/record its figure.

    Like ``sweep-all`` and ``adaptive``, the command defaults to the
    conventional persistent store: every cell's fingerprint includes the
    :class:`TopologyConfig`, so a warm repeat simulates nothing and the
    cache-effectiveness line on stderr proves it.
    """
    devices = sorted(set(args.devices))
    if 1 not in devices:
        print(
            "error: --devices must include the 1-device baseline "
            "(speedups are normalized to it)",
            file=sys.stderr,
        )
        return 2
    if any(count < 1 for count in devices):
        print("error: device counts must be positive", file=sys.stderr)
        return 2
    base = topology_by_name(args.fabric) if args.fabric else TopologyConfig()
    overrides: dict[str, object] = {}
    if args.remote_latency is not None:
        overrides["remote_latency_cycles"] = args.remote_latency
    if args.fabric_bandwidth is not None:
        overrides["fabric_requests_per_cycle"] = args.fabric_bandwidth
    if args.interleave_lines is not None:
        overrides["interleave_lines"] = args.interleave_lines
    if args.replicate_weights:
        overrides["replicate_weights"] = True
    if overrides:
        base = dataclasses.replace(base, **overrides)

    cache_dir = _cache_dir(args, default_to_conventional=True)
    workload_names = tuple(args.workloads) if args.workloads else SCALING_WORKLOADS
    runner = ExperimentRunner(
        scale=args.scale,
        config=_system_config(args),
        workload_names=workload_names,
        jobs=args.jobs,
        cache_dir=cache_dir,
        job_timeout=args.job_timeout,
        job_retries=args.job_retries,
        ledger_path=args.ledger,
    )
    policies = [policy_by_name(name) for name in args.policies]
    figure = figure_scaling(
        runner,
        devices=devices,
        policies=policies,
        workload_names=workload_names,
        topology=base,
    )
    summary = scaling_summary(figure)
    print(
        render_series_table(
            "Device scaling: speedup over the same policy at 1 device",
            scaling_series(figure, "speedup"),
        )
    )
    print(
        render_series_table(
            "Device scaling: remote traffic fraction",
            scaling_series(figure, "remote_fraction"),
        )
    )
    print(
        render_series_table(
            "Device scaling summary (geomean speedup / mean remote fraction)",
            summary,
        )
    )

    if args.json_out:
        blob = scaling_artifact(
            figure,
            summary,
            devices=devices,
            workload_names=workload_names,
            fabric=base.describe(),
            fingerprints={
                str(count): base.with_devices(count).fingerprint()
                for count in devices
            },
            scale=args.scale,
            cus_per_device=runner.config.gpu.num_cus,
            policies=[p.name for p in policies],
        )
        atomic_write_json(args.json_out, blob)
        print(f"[topology] wrote figure data to {args.json_out}", file=sys.stderr)

    stats = runner.stats()
    print(
        f"[topology] grid={len(workload_names)}x{len(policies)}x{len(devices)} "
        f"jobs={args.jobs} store={cache_dir or 'disabled'} "
        f"simulated={stats['runs_simulated']} loaded={stats['runs_loaded']}",
        file=sys.stderr,
    )
    _write_executor_telemetry(args, runner)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant interference study and print/record its figure.

    Like the other sweep commands, ``serve`` defaults to the conventional
    persistent store: every cell's fingerprint covers the full stream
    configurations, and the solo baselines are plain single-workload
    cells shared with the ordinary sweeps, so a warm repeat simulates
    nothing and the cache-effectiveness line on stderr proves it.
    """
    mixes = [mix_by_name(name) for name in (args.mix or MIX_NAMES)]
    policies = [policy_by_name(name) for name in args.policies]
    modes = list(CU_MODES) if args.cu_partition == "both" else [args.cu_partition]

    cache_dir = _cache_dir(args, default_to_conventional=True)
    runner = ExperimentRunner(
        scale=args.scale,
        config=_system_config(args),
        jobs=args.jobs,
        cache_dir=cache_dir,
        job_timeout=args.job_timeout,
        job_retries=args.job_retries,
        ledger_path=args.ledger,
    )
    if "partitioned" in modes:
        for mix in mixes:
            if not mix_is_partitionable(mix, runner.config.gpu.num_cus):
                print(
                    f"[serve] note: {mix.name} has {mix.num_streams} streams but "
                    f"the system has {runner.config.gpu.num_cus} CUs per device; "
                    "its partitioned cells are skipped",
                    file=sys.stderr,
                )
        if modes == ["partitioned"] and not any(
            mix_is_partitionable(mix, runner.config.gpu.num_cus) for mix in mixes
        ):
            print(
                "error: no requested mix fits a CU partition on this system; "
                "add --cus, pick narrower mixes, or use --cu-partition shared/both",
                file=sys.stderr,
            )
            return 2
    figure = figure_interference(runner, mixes=mixes, policies=policies, modes=modes)
    summary = interference_summary(figure)
    print(
        render_series_table(
            "Multi-tenant interference: mean per-tenant slowdown vs solo",
            interference_series(figure, "mean_slowdown"),
        )
    )
    print(
        render_series_table(
            "Multi-tenant interference: unfairness (max/min tenant slowdown)",
            interference_series(figure, "unfairness"),
        )
    )
    print(
        render_series_table(
            "Serving summary (geomean slowdown / mean unfairness)", summary
        )
    )

    if args.json_out:
        blob = interference_artifact(
            figure,
            summary,
            mixes=mixes,
            modes=modes,
            policies=[p.name for p in policies],
            scale=args.scale,
            num_cus=runner.config.gpu.num_cus,
        )
        atomic_write_json(args.json_out, blob)
        print(f"[serve] wrote figure data to {args.json_out}", file=sys.stderr)

    if args.trace_out or args.alerts:
        # the sweep's cells ran in workers (or came from the store), so the
        # trace/alert observers attach to an inline replay of the first
        # runnable cell of the grid
        cell = next(
            (
                (mix, mode)
                for mix in mixes
                for mode in modes
                if mode != "partitioned"
                or mix_is_partitionable(mix, runner.config.gpu.num_cus)
            ),
            None,
        )
        if cell is None:  # pragma: no cover - figure_interference errors first
            print("[serve] note: no runnable cell to trace", file=sys.stderr)
        else:
            mix, mode = cell
            session = SimulationSession(
                policy=policies[0],
                config=_system_config(args),
                streams=mix.with_cu_share(mode).scaled(args.scale),
                telemetry=_telemetry_config(args),
                obs=_obs_config(args),
            )
            replay = session.run()
            if args.trace_out:
                _write_trace(args.trace_out, session, "serve")
            print(
                f"[serve] {'traced' if args.trace_out else 'replayed'} "
                f"{mix.name} under {policies[0].name} ({mode} CUs)",
                file=sys.stderr,
            )
            if args.alerts:
                _print_alerts(replay, "serve")

    stats = runner.stats()
    print(
        f"[serve] grid={len(mixes)}x{len(policies)}x{len(modes)} "
        f"jobs={args.jobs} store={cache_dir or 'disabled'} "
        f"simulated={stats['runs_simulated']} loaded={stats['runs_loaded']}",
        file=sys.stderr,
    )
    _write_executor_telemetry(args, runner)
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    """Run the resilience study and print/record its figure.

    Plans that need more devices than the chosen topology provides abort
    up front (exit 2: the user asked for something the system cannot
    host); plans that merely target streams a narrow mix lacks skip that
    mix's cell with a note on stderr, matching how ``serve`` treats
    unpartitionable mixes.  Determinism makes chaos cacheable, so like the
    other sweep commands ``faults`` defaults to the conventional
    persistent store -- a warm repeat simulates nothing.
    """
    mixes = [mix_by_name(name) for name in (args.mix or DEFAULT_RESILIENCE_MIXES)]
    policies = [policy_by_name(name) for name in args.policies]
    plans = [
        fault_plan_by_name(name)
        for name in (args.plans or DEFAULT_RESILIENCE_PLANS)
    ]
    if not any(plan.empty for plan in plans):
        plans.insert(0, FAULT_PLANS["none"])
    topology = topology_by_name(args.topology)

    num_devices = topology.num_devices
    for plan in plans:
        needed = plan.requires_devices()
        if needed > num_devices:
            print(
                f"error: fault plan {plan.label!r} needs {needed} devices but "
                f"topology {topology.label!r} has {num_devices}; pick a wider "
                "--topology or drop the plan",
                file=sys.stderr,
            )
            return 2
    for mix in mixes:
        for plan in plans:
            reason = plan_is_runnable(plan, topology, mix.num_streams)
            if reason is not None:
                print(
                    f"[faults] note: plan {plan.label} skipped for {mix.name}: "
                    f"{reason}",
                    file=sys.stderr,
                )

    cache_dir = _cache_dir(args, default_to_conventional=True)
    runner = ExperimentRunner(
        scale=args.scale,
        config=_system_config(args),
        jobs=args.jobs,
        cache_dir=cache_dir,
        job_timeout=args.job_timeout,
        job_retries=args.job_retries,
        ledger_path=args.ledger,
    )
    try:
        figure = figure_resilience(
            runner,
            mixes=mixes,
            policies=policies,
            plans=plans,
            topology=topology,
            checkpoint_path=args.checkpoint,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = resilience_summary(figure)
    print(
        render_series_table(
            "Resilience: slowdown vs the healthy baseline (same policy)",
            resilience_series(figure, "slowdown"),
        )
    )
    print(
        render_series_table(
            "Resilience: availability (fraction of the run with no fault active)",
            resilience_series(figure, "availability"),
        )
    )
    print(
        render_series_table(
            "Resilience summary (geomean slowdown / mean availability)", summary
        )
    )

    if args.json_out:
        blob = resilience_artifact(
            figure,
            summary,
            plans=plans,
            policies=[p.name for p in policies],
            topology=topology.describe(),
            scale=args.scale,
            num_cus=runner.config.gpu.num_cus,
        )
        atomic_write_json(args.json_out, blob)
        print(f"[faults] wrote figure data to {args.json_out}", file=sys.stderr)

    if args.trace_out or args.alerts:
        # inline replay of the first mix's first runnable cell, preferring a
        # plan that actually injects faults so the trace shows degraded
        # intervals (and the availability detector has something to judge);
        # falls back to the healthy baseline
        mix = mixes[0]
        runnable = [
            plan
            for plan in plans
            if plan_is_runnable(plan, topology, mix.num_streams) is None
        ]
        plan = next((p for p in runnable if not p.empty), None) or (
            runnable[0] if runnable else None
        )
        if plan is None:
            print(
                f"[faults] note: no runnable plan for {mix.name}; trace skipped",
                file=sys.stderr,
            )
        else:
            session = SimulationSession(
                policy=policies[0],
                config=_system_config(args),
                streams=mix.scaled(args.scale),
                topology=topology,
                faults=plan,
                telemetry=_telemetry_config(args),
                obs=_obs_config(args),
            )
            replay = session.run()
            if args.trace_out:
                _write_trace(args.trace_out, session, "faults")
            print(
                f"[faults] {'traced' if args.trace_out else 'replayed'} "
                f"{mix.name} under {policies[0].name} with plan {plan.label}",
                file=sys.stderr,
            )
            if args.alerts:
                _print_alerts(replay, "faults")

    stats = runner.stats()
    print(
        f"[faults] grid={len(mixes)}x{len(policies)}x{len(plans)} "
        f"topology={topology.label} jobs={args.jobs} "
        f"store={cache_dir or 'disabled'} "
        f"simulated={stats['runs_simulated']} loaded={stats['runs_loaded']} "
        f"failed={stats['runs_failed']}",
        file=sys.stderr,
    )
    _write_executor_telemetry(args, runner)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Record one fully instrumented run and write its trace artifact.

    The session runs with every observer attached: the Chrome trace
    recorder (always), the windowed metrics sampler (with
    ``--metrics-interval``), and the host profiler (always -- the summary
    reports simulator throughput and per-component callback attribution).
    The trace is validated before it is written.
    """
    policy = policy_by_name(args.policy)
    topology = topology_by_name(args.topology) if args.topology else None
    plan = fault_plan_by_name(args.plan) if args.plan else None
    interval = args.metrics_interval or 0
    if not interval and args.alerts:
        interval = AlertConfig().default_metrics_interval
    telemetry = TelemetryConfig(
        trace=True,
        metrics_interval=interval,
        profile=True,
    )
    obs = _obs_config(args)
    try:
        if args.mix:
            session = SimulationSession(
                policy=policy,
                config=_system_config(args),
                topology=topology,
                streams=mix_by_name(args.mix).scaled(args.scale),
                faults=plan,
                telemetry=telemetry,
                obs=obs,
            )
            report = session.run()
        else:
            session = SimulationSession(
                policy=policy,
                config=_system_config(args),
                topology=topology,
                faults=plan,
                telemetry=telemetry,
                obs=obs,
            )
            report = session.run(get_workload(args.workload, scale=args.scale))
    except ValueError as exc:  # e.g. a fault plan the system cannot host
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_trace(args.out, session, "trace")

    recorder, profiler = session.recorder, session.profiler
    assert recorder is not None and profiler is not None
    latency = session.stats.histogram_summary("gpu.mem_latency")
    summary: dict[str, object] = {
        "workload": report.workload,
        "policy": report.policy,
        "cycles": report.cycles,
        "trace_events": len(recorder.events),
        "trace_truncated": recorder.truncated,
        "kernel_spans": len(recorder.spans("kernel")),
        "wavefront_spans": len(recorder.spans("wavefront")),
        "metrics_windows": len(session.sampler.windows) if session.sampler else 0,
        "sim_events": profiler.events,
        "wall_seconds": round(profiler.wall_seconds, 6),
        "events_per_second": round(profiler.events_per_second, 1),
        "mem_latency_p50": latency["p50"],
        "mem_latency_p95": latency["p95"],
        "mem_latency_p99": latency["p99"],
    }
    if args.alerts:
        summary["alerts"] = len(report.alerts)
        _print_alerts(report, "trace")
    if args.json:
        print(json.dumps(summary, indent=1, sort_keys=True))
    else:
        print(render_kv_table(f"Trace of {report.workload} under {report.policy}", summary))
    if args.telemetry_out:
        blob = {
            "schema": 1,
            "command": "trace",
            "profiler": profiler.summary(),
            "run": summary,
        }
        atomic_write_json(args.telemetry_out, blob)
        print(f"[trace] wrote profiling telemetry to {args.telemetry_out}", file=sys.stderr)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Result-store lifecycle: occupancy stats, full clear, age-based prune."""
    cache_dir = _cache_dir(args, default_to_conventional=True)
    if cache_dir is None:
        print("error: cache command needs a store (--cache-dir)", file=sys.stderr)
        return 2
    from pathlib import Path

    if not Path(cache_dir).expanduser().is_dir():
        # the lifecycle commands inspect an existing store; creating a
        # directory as a side effect would make a typo look like a
        # healthy empty store
        print(f"error: no result store at {cache_dir}", file=sys.stderr)
        return 2
    if args.action == "prune":
        if args.max_age_days is None:
            print("error: cache prune requires --max-age-days", file=sys.stderr)
            return 2
        if args.max_age_days < 0:
            print("error: --max-age-days must be non-negative", file=sys.stderr)
            return 2
    store = ResultStore(cache_dir)
    if args.action == "stats":
        payload: dict[str, object] = dict(store.stats())
        # when a run ledger lives alongside the store, fold its fleet-level
        # view in: how many runs/jobs it has seen, and the store hit-rate
        # and worker utilization of the most recent sweep aggregate --
        # visible without hunting for a --telemetry-out artifact
        ledger_file = Path(cache_dir).expanduser() / "ledger.jsonl"
        if ledger_file.is_file():
            entries = RunLedger(ledger_file).entries()
            payload["ledger_entries"] = len(entries)
            kinds: dict[str, int] = {}
            for entry in entries:
                kind = str(entry.get("kind", "?"))
                kinds[kind] = kinds.get(kind, 0) + 1
            for kind in sorted(kinds):
                payload[f"ledger_{kind}_entries"] = kinds[kind]
            last_sweep = next(
                (e for e in reversed(entries) if e.get("kind") == "sweep"), None
            )
            if last_sweep is not None:
                telemetry = last_sweep.get("telemetry") or {}
                for key in (
                    "runs_simulated",
                    "runs_loaded",
                    "store_hit_rate",
                    "worker_utilization",
                ):
                    if key in telemetry:
                        payload[f"last_sweep_{key}"] = telemetry[key]
    elif args.action == "clear":
        payload = {"root": str(store.root), "removed": store.clear()}
    else:  # prune
        payload = {
            "root": str(store.root),
            "max_age_days": args.max_age_days,
            "removed": store.prune(args.max_age_days),
        }
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(render_kv_table(f"Result store {args.action}", payload))
    return 0


def _ledger_for(args: argparse.Namespace) -> RunLedger:
    """The ledger the --ledger flag names (or the conventional default)."""
    path = getattr(args, "ledger", None)
    return RunLedger(path) if path else RunLedger()


def _cmd_ledger(args: argparse.Namespace) -> int:
    """Inspect or prune the cross-run provenance ledger."""
    ledger = _ledger_for(args)
    if args.action == "list":
        if args.count < 1:
            print(f"error: --count must be at least 1, got {args.count}", file=sys.stderr)
            return 2
        entries = ledger.entries()
        shown = entries[-args.count :]
        if args.json:
            print(
                json.dumps(
                    {
                        "schema": 1,
                        "path": str(ledger.path),
                        "total": len(entries),
                        "entries": shown,
                    },
                    indent=1,
                    sort_keys=True,
                )
            )
            return 0
        if not entries:
            print(f"ledger {ledger.path}: empty")
            return 0
        print(f"ledger {ledger.path}: {len(entries)} entries")
        first_index = len(entries) - len(shown)
        for offset, entry in enumerate(shown):
            fingerprint_hex = entry.get("fingerprint")
            prefix = fingerprint_hex[:12] if isinstance(fingerprint_hex, str) else "-"
            cell = f"{entry.get('workload', '?')}/{entry.get('policy', '?')}"
            line = (
                f"  [{first_index + offset}] {_format_ts(entry.get('ts'))}  "
                f"{str(entry.get('kind', '?')):5s} {cell:24s} fp={prefix:12s}"
            )
            if entry.get("cycles") is not None:
                line += f" cycles={entry['cycles']}"
            if entry.get("events_per_sec") is not None:
                line += f" ev/s={entry['events_per_sec']}"
            alerts = entry.get("alerts")
            if alerts:
                line += f" alerts={len(alerts)}"
            print(line)
        return 0
    if args.action == "show":
        entry = ledger.find(args.ref)
        if entry is None:
            print(
                f"error: no ledger entry matches {args.ref!r} in {ledger.path}",
                file=sys.stderr,
            )
            return 2
        print(json.dumps(entry, indent=1, sort_keys=True))
        return 0
    # prune
    if args.keep is None and args.max_age_days is None:
        print(
            "error: ledger prune needs --keep N and/or --max-age-days D",
            file=sys.stderr,
        )
        return 2
    try:
        removed = ledger.prune(keep=args.keep, max_age_days=args.max_age_days)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = {"path": str(ledger.path), "removed": removed, "remaining": len(ledger)}
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(render_kv_table("Ledger prune", payload))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    """Counter-for-counter comparison of two runs.

    Each operand may be a report JSON file (``run --json`` output is
    rejected with guidance -- it lacks raw counters), a result-store
    fingerprint prefix, or a ledger index/fingerprint.  Two runs of the
    same fingerprint diffing to zero drift is the determinism contract
    made checkable (``--fail-on-drift`` turns it into a CI gate).
    """
    if args.threshold < 0:
        print(
            f"error: --threshold must be non-negative, got {args.threshold}",
            file=sys.stderr,
        )
        return 2
    store = None
    cache_dir = _cache_dir(args, default_to_conventional=True)
    if cache_dir is not None and Path(cache_dir).expanduser().is_dir():
        store = ResultStore(cache_dir)
    try:
        report_a, label_a = resolve_report(args.ref_a, store=store, ledger=_ledger_for(args))
        report_b, label_b = resolve_report(args.ref_b, store=store, ledger=_ledger_for(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diff = diff_reports(
        report_a, report_b, threshold=args.threshold, a_label=label_a, b_label=label_b
    )
    if args.json:
        print(json.dumps(diff, indent=1, sort_keys=True))
    elif args.markdown:
        print(render_diff_markdown(diff))
    else:
        print(render_diff_table(diff))
    if args.fail_on_drift and not diff["identical"]:
        print("[diff] drift detected (--fail-on-drift)", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """The regression sentinel: record throughput history, check floors.

    ``record`` appends a median-of-N measurement to the history file;
    ``check`` judges a measurement (fresh, or ``--use-last`` for the
    newest recorded one) against the committed-baseline flat floor and the
    history's robust median - k*MAD floor, exiting 1 on regression.
    """
    if args.samples < 1:
        print(f"error: --samples must be at least 1, got {args.samples}", file=sys.stderr)
        return 2
    history_path = Path(args.history).expanduser() if args.history else default_history_path()
    effective = getattr(args, "benchmark", "core") == "effective"
    measure = measure_effective_throughput if effective else measure_core_throughput
    benchmark_name = EFFECTIVE_BENCHMARK if effective else CORE_BENCHMARK
    baseline_section = "effective" if effective else None
    if args.action == "record":
        measurement = measure(samples=args.samples)
        entry = append_history(history_path, measurement)
        if args.json:
            print(json.dumps(entry, indent=1, sort_keys=True))
        else:
            print(
                render_kv_table(
                    "Bench record",
                    {
                        "benchmark": entry["benchmark"],
                        "events_per_sec": entry["events_per_sec"],
                        "median_seconds": entry["median_seconds"],
                        "samples": entry["samples"],
                        "history": str(history_path),
                        "history_entries": len(
                            load_history(history_path, benchmark=benchmark_name)
                        ),
                    },
                )
            )
        return 0
    # check
    history = load_history(history_path, benchmark=benchmark_name)
    if args.use_last:
        if not history:
            print(
                f"error: no bench history at {history_path}; "
                "run 'bench record' first",
                file=sys.stderr,
            )
            return 2
        value, prior = history[-1], history[:-1]
    else:
        measurement = measure(samples=args.samples)
        value, prior = measurement.events_per_sec, history
    verdict = evaluate_measurement(
        value,
        history=prior,
        baseline=committed_baseline(section=baseline_section),
        max_regression=args.max_regression,
        mad_factor=args.mad_factor,
        min_history=args.min_history,
    )
    payload = dict(verdict.as_dict())
    payload["history_path"] = str(history_path)
    payload["history_samples_used"] = len(prior)
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        shown = {
            key: ("-" if value is None else value)
            for key, value in payload.items()
            if key != "reasons"
        }
        print(render_kv_table("Bench check", shown))
    for reason in verdict.reasons:
        print(f"[bench] {reason}", file=sys.stderr)
    if not verdict.ok:
        print("[bench] REGRESSION: throughput below floor", file=sys.stderr)
        return 1
    print("[bench] ok", file=sys.stderr)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    if args.number == "1":
        tables = table1_system_configuration(config=_system_config(args))
        print(render_kv_table("Table 1 (simulated, scaled configuration)", tables["simulated"]))
        print(render_kv_table("Table 1 (paper reference configuration)", tables["paper"]))
        return 0
    rows = table2_workloads(scale=args.scale)
    data = {
        str(row["name"]): {
            "paper kernels": float(row["paper_total_kernels"]),
            "sim kernels": float(row["sim_kernels"]),
            "sim requests": float(row["sim_line_requests"]),
            "sim footprint KB": row["sim_footprint_bytes"] / 1024.0,
        }
        for row in rows
    }
    print(render_series_table("Table 2: studied MI workloads (paper vs simulated)", data,
                              value_format="{:.0f}"))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")
    if args.job_timeout is not None and args.job_timeout <= 0:
        parser.error(f"--job-timeout must be positive, got {args.job_timeout}")
    if args.job_retries < 0:
        parser.error(f"--job-retries must be >= 0, got {args.job_retries}")
    interval = getattr(args, "metrics_interval", None)
    if interval is not None and interval < 0:
        parser.error(f"--metrics-interval must be non-negative, got {interval}")
    if args.log_level or args.log_file or args.log_json:
        # structured logging is an observer: it never touches results, so
        # enabling it here is safe for every subcommand
        configure_logging(
            level=args.log_level or "info",
            path=args.log_file,
            json_lines=args.log_json,
        )
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "sweep-all":
            return _cmd_sweep_all(args)
        if args.command == "adaptive":
            return _cmd_adaptive(args)
        if args.command == "topology":
            return _cmd_topology(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "faults":
            return _cmd_faults(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "figure":
            return _cmd_figure(args)
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "ledger":
            return _cmd_ledger(args)
        if args.command == "diff":
            return _cmd_diff(args)
        if args.command == "bench":
            return _cmd_bench(args)
    except OSError as exc:  # unusable --cache-dir target (file, unwritable, ...)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
