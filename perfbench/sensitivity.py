"""Layer-sensitivity check: do the workloads separate the layers they target?

Makes every call of one layer's public entry point (``Cache.access`` or
``DramSystem.access``) spin ``DELAY_US`` longer, from outside the
simulator, and measures how much ``run_s`` of paper-grid and numa-uncached
grows.  Slowdowns and workloads run interleaved, ``REPS`` times each,
against untouched passes, and the ratios are medians over the reps.  Each
cell's counters are checked against its first run, so a slowdown is shown
to change host time only.  Run from the repository root::

    python3 perfbench/sensitivity.py

The result is written to ``perfbench/sensitivity.json``.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from time import perf_counter

import run  # sets up the import path of the simulator
from grid import WORKLOADS
from spans import Patches
from repro.memory.cache import Cache
from repro.memory.dram import DramSystem

WORKLOAD_NAMES = ("paper-grid", "numa-uncached")
DELAY_US = 10.0
REPS = 5
SEED = 0


def spin(seconds: float) -> None:
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


class SlowCalls:
    """Spins before every call of ``owner.attr``; counts the calls."""

    def __init__(self, owner, attr: str, delay: float) -> None:
        self.owner, self.attr, self.delay = owner, attr, delay
        self.count = 0
        self._patches = Patches()

    def __enter__(self):
        original = getattr(self.owner, self.attr)
        slow = self

        def wrapper(*args, **kwargs):
            slow.count += 1
            spin(slow.delay)
            return original(*args, **kwargs)

        self._patches.set(self.owner, self.attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()


def slowdowns(delay: float):
    """(name, context factory) of every slowdown; the first is none."""
    return [
        ("plain", nullcontext),
        (f"Cache.access +{DELAY_US:g}us", lambda: SlowCalls(Cache, "access", delay)),
        (f"DramSystem.access +{DELAY_US:g}us", lambda: SlowCalls(DramSystem, "access", delay)),
    ]


def pass_seconds(workload, checker, host) -> float:
    """One cold pass, each cell rescaled to the reference host speed as
    ``run_s`` is."""
    store = run.fresh_store()
    try:
        total = 0.0
        speed_after = host.sample()
        for cell, job in workload.cold_jobs(store):
            speed_before = speed_after
            _report, seconds = checker.run(cell, job)
            speed_after = host.sample()
            total += host.rescale(seconds, speed_before, speed_after)
        return total
    finally:
        shutil.rmtree(store, ignore_errors=True)


def main() -> int:
    delay = DELAY_US * 1e-6
    workloads = {name: WORKLOADS[name](SEED) for name in WORKLOAD_NAMES}
    for workload in workloads.values():
        workload.setup()
    checker = run.Checker()
    host = run.HostSpeed()
    seconds: dict[tuple[str, str], list[float]] = {}
    slowed: dict[tuple[str, str], int] = {}
    for _rep in range(REPS):
        for variant, make in slowdowns(delay):
            for name, workload in workloads.items():
                key = (variant, name)
                with make() as context:
                    seconds.setdefault(key, []).append(pass_seconds(workload, checker, host))
                slowed[key] = getattr(context, "count", 0)
                print(f"{variant:26s} {name:14s} {seconds[key][-1]:.3f}s", file=sys.stderr)

    results = []
    for variant, _make in slowdowns(delay)[1:]:
        row = {"slowdown": variant}
        for name in WORKLOAD_NAMES:
            run_s = median(seconds[(variant, name)])
            base_s = median(seconds[("plain", name)])
            row[name] = {
                "run_s_ratio": run_s / base_s,
                # what the ratio would be if each slowed call cost exactly
                # the delay: the noise-free reading of the same counts
                "expected_ratio": 1.0 + slowed[(variant, name)] * delay / base_s,
                "slowed_calls": slowed[(variant, name)],
                "run_s": run_s,
                "baseline_run_s": base_s,
            }
        results.append(row)
    output = {
        "delay_us": DELAY_US,
        "reps": REPS,
        "seed": SEED,
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "calib_s": median(host.samples),
        },
        "correct": checker.failed == 0,
        "results": results,
    }
    path = Path(__file__).resolve().parent / "sensitivity.json"
    path.write_text(json.dumps(output, indent=2) + "\n")
    for row in results:
        ratios = "  ".join(
            f"{name} x{row[name]['run_s_ratio']:.3f} (expected x{row[name]['expected_ratio']:.3f})"
            for name in WORKLOAD_NAMES
        )
        print(f"{row['slowdown']:26s} {ratios}")
    for problem in checker.problems:
        print(f"FAILED {problem}")
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
