"""Self-test of the benchmark at minimum input sizes.

Usage, from the root of a checkout:  python3 perfbench/smoke.py

Checks, in a few minutes:
- every workload, untraced and traced, prints a last line whose keys,
  metric names and units match BENCHMARK.json, with all checks passed;
- two runs with one seed give the same stdout digest;
- the checker rejects a wrong value, a missing key, a broken product
  and a non-zero exit code;
- run from a directory that holds only BENCHMARK.json and perfbench/,
  the benchmark exits non-zero without printing a result.
Exits 0 when all hold and prints each failure otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import jobs

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 300


def run_bench(cwd: Path, workload: str, seed: int, trace: int):
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def schema_problems(line: dict, expected: dict) -> list:
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(line)}")
    if line.get("correct") is not True or line.get("failed") != 0:
        problems.append(f"correct={line.get('correct')} failed={line.get('failed')}")
    if not isinstance(line.get("attempted"), int) or line["attempted"] < 1:
        problems.append(f"attempted={line.get('attempted')!r}")
    metrics = line.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metrics differ: {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{name}: {entry!r}, want unit {unit}")
    return problems


def checker_problems() -> list:
    report = "\n".join([
        "coupling report", "", "# machine-readable",
        "factor.branching = 1", "factor.eta = 0.9824258842", "factor.eta_t = 0.9434",
        "factor.omega_fraction = 0.9364831671", "factor.strehl = 0.95",
        "report.transition = T1",
    ])
    g = 0.9364831671 * 0.9824258842**2 * 0.95
    good = report + f"\nresult.g = {g!r}\nresult.p_a = {g * 0.9434**2!r}\n"
    job = {"check": {"near": {"factor.eta": [0.9824258842, 1e-8]},
                     "within": {"factor.strehl": [0.9, 1.0]},
                     "equal": {"report.transition": "T1"}, "products": True}}
    cases = {
        "passing report": (0, good, False),
        "wrong value": (0, good.replace("0.9824258842", "0.9825"), True),
        "missing key": (0, good.replace("report.transition = T1\n", ""), True),
        "broken product": (0, good.replace("result.p_a = ", "result.p_a = 1"), True),
        "exit code": (2, good, True),
        "no machine block": (0, "error: nothing\n", True),
    }
    problems = []
    for name, (code, stdout, should_fail) in cases.items():
        if bool(jobs.check(job, code, stdout)) != should_fail:
            problems.append(f"checker on {name}: {jobs.check(job, code, stdout)}")
    return problems


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = checker_problems()
    digests = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc = run_bench(root, workload, 1, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                problems.append(f"{workload} trace {trace}: exit {proc.returncode} "
                                f"{proc.stderr[-1000:]}")
                continue
            details = json.loads(lines[-2])["details"]
            digests.setdefault(workload, set()).add(details["stdout_digest"])
            problems += [f"{workload} trace {trace}: {p}"
                         for p in schema_problems(json.loads(lines[-1]), expected[trace])]
            problems += [f"{workload} trace {trace}: failed check {f}"
                         for f in details["failures"]]
    problems += [f"{w}: digests differ between runs of one seed: {d}"
                 for w, d in digests.items() if len(d) != 1]

    bare = root / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(root / "BENCHMARK.json", bare)
        proc = run_bench(bare, "sweep", 1, 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("a directory without the program gave a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
