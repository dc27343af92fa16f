"""Self-check of the benchmark definition and its harness.

Run from the repository root::

    python3 perfbench/selfcheck.py

It checks that

* ``BENCHMARK.json`` has the expected keys, every metric name matches
  ``[A-Za-z0-9_.-]+`` and starts with a letter or digit, names are unique,
  and there are at most 16 end-to-end and 128 per-layer metrics;
* every workload ``BENCHMARK.json`` names runs at a tiny size in both
  trace modes, reports every declared metric and passes its output checks;
* the deterministic metrics repeat exactly across two runs;
* without the simulator's sources next to it, the benchmark exits with a
  non-zero code and prints no result.

Exit code 0 means every check passed.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
#: metrics that must read exactly the same on every run of one seed
DETERMINISTIC = {
    "0": ("sim_cycles_gm", "dram_accesses_gm"),
    "1": ("engine.events", "opt_gap", "sample_err_max"),
}


def check_spec(spec: dict, problems: list[str]) -> None:
    if set(spec) != KEYS:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(KEYS)}")
    if not 1 <= len(spec["end_to_end"]) <= 16:
        problems.append("need 1 to 16 end-to-end metrics")
    if not 1 <= len(spec["per_layer"]) <= 128:
        problems.append("need 1 to 128 per-layer metrics")
    names = [metric["name"] for metric in spec["end_to_end"] + spec["per_layer"]]
    names += [workload["name"] for workload in spec["workloads"]]
    for name in names:
        if not NAME.fullmatch(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("names are not unique")
    for metric in spec["end_to_end"]:
        if not 0 < metric["bound"] <= 0.25:
            problems.append(f"{metric['name']}: bound outside (0, 0.25]")
    setup = [metric for metric in spec["end_to_end"] if metric["name"] == "setup_s"]
    if not setup or setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must exist and carry the largest bound")


def run_bench(workload: str, trace: str, cwd: Path) -> tuple[int, str]:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "0", "--seconds", "1", "--trace", trace, "--tiny"]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)
    return done.returncode, done.stdout


def check_workload(workload: str, spec: dict, problems: list[str]) -> None:
    declared = {"0": spec["end_to_end"], "1": spec["per_layer"]}
    for trace, metrics in declared.items():
        results = []
        for _ in range(2):
            code, stdout = run_bench(workload, trace, ROOT)
            result = json.loads(stdout.strip().splitlines()[-1])
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: exit {code}, {result}")
            missing = {m["name"] for m in metrics} - set(result["metrics"])
            if missing:
                problems.append(f"{workload} trace={trace}: missing {sorted(missing)}")
            results.append(result["metrics"])
        for name in DETERMINISTIC[trace]:
            first, second = (r.get(name, {}).get("value") for r in results)
            if first != second:
                problems.append(f"{workload}: {name} did not repeat ({first} vs {second})")
        print(f"ok {workload} trace={trace}", flush=True)


def check_bare_directory(workload: str, problems: list[str]) -> None:
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, stdout = run_bench(workload, "0", bare)
        if code == 0 or stdout.strip():
            problems.append(f"without sources: exit {code}, printed {stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    check_spec(spec, problems)
    (HERE / "out").mkdir(exist_ok=True)
    check_bare_directory(spec["workloads"][0]["name"], problems)
    for workload in spec["workloads"]:
        check_workload(workload["name"], spec, problems)
    for problem in problems:
        print(f"FAILED {problem}")
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
