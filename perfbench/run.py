"""Benchmark of the dipolemirror toolkit: seeded workloads, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {budget,measure,sweep} --seed N \\
        --seconds S --trace {0,1} [--smoke]

One run generates the workload's inputs from the seed, starts fresh
worker processes (``worker.py``) that each import the toolkit and run one
warm-up job, and lets the last of them run jobs closed-loop, one at a
time, for about S seconds of job time (always whole cycles of the
workload's job list). Every job's output is then checked against the
references in ``jobs.py``. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics
of ``spans.py`` for ``--trace 1``. The line before it is a JSON object
with the details: environment, input generation time, sample counts,
the tail percentile, the output digest and any failed checks.
``--smoke`` shrinks the inputs for a quick self-test (``smoke.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import jobs
import spans

WORKER = str(Path(__file__).with_name("worker.py"))
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 120

# (name, unit) of the per-layer metrics, all per timed job unless the unit
# says otherwise. "<layer>.<function>.<field>" comes from spans.summarize.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.main.busy_s", "s/job"),
    ("cli.main.self_s", "s/job"),
    ("focalfield.strehl.calls", "count/job"),
    ("focalfield.strehl.busy_s", "s/job"),
    ("focalfield.strehl.self_s", "s/job"),
    ("focalfield.plane_to_sphere.calls", "count/job"),
    ("focalfield.plane_to_sphere.nodes", "count/job"),
    ("focalfield.plane_to_sphere.busy_s", "s/job"),
    ("focalfield.reflection_phase_waves.busy_s", "s/job"),
    ("focalfield.reflectivity_weighted_optimum.busy_s", "s/job"),
    ("wavefront.zernike_eval.calls", "count/job"),
    ("wavefront.zernike_eval.points", "count/job"),
    ("wavefront.zernike_eval.busy_s", "s/job"),
    ("wavefront.zernike_fit.busy_s", "s/job"),
    ("wavefront.zernike_fit.pixels", "count/job"),
    ("wavefront.pv_rms.busy_s", "s/job"),
    ("wavefront.load_phase_map.busy_s", "s/job"),
    ("modes.optimize_waist.calls", "count/job"),
    ("modes.optimize_waist.busy_s", "s/job"),
    ("modes.spatial_overlap.calls", "count/job"),
    ("geometry.weighted_fraction.busy_s", "s/job"),
    ("temporal.temporal_overlap.calls", "count/job"),
    ("temporal.temporal_overlap.bins", "count/job"),
    ("temporal.temporal_overlap.busy_s", "s/job"),
    ("temporal.aom_response.busy_s", "s/job"),
    ("polarimetry.load_frame_stack.busy_s", "s/job"),
    ("polarimetry.load_frame_stack.bytes", "B/job"),
    ("polarimetry.stokes_from_frames.busy_s", "s/job"),
    ("polarimetry.stokes_from_frames.pixels", "count/job"),
    ("polarimetry.ellipse_angles.busy_s", "s/job"),
    ("polarimetry.measured_overlap.calls", "count/job"),
    ("polarimetry.measured_overlap.busy_s", "s/job"),
    ("polarimetry.export_polarization.busy_s", "s/job"),
    ("proc.minor_faults", "count/job"),
    ("trace.jobs_per_s", "1/s"),
    ("trace.job_s_p50", "s"),
)


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _run_worker(root: Path, env: dict, plan: Path, result: Path, seconds: int,
                trace: int, setup_only: bool) -> dict:
    cmd = [sys.executable, WORKER, "--plan", str(plan), "--result", str(result),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(result.read_text())


def tail(times: list) -> tuple:
    """(percentile, value): the highest percentile with 10 jobs beyond it.

    With fewer than 20 jobs no percentile above the median qualifies, and
    the median is returned.
    """
    n = len(times)
    if n < 20:
        return 50.0, statistics.median(times)
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def end_to_end(samples: list, timed: dict, attempted: int, failed: int) -> dict:
    times = [record["wall_s"] for record in timed["jobs"]]
    return {
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_tail": (tail(times)[1], "s"),
        "setup_s": (statistics.median(s["setup_s"] for s in samples), "s"),
        "peak_rss_mb": (timed["maxrss_kb"] / 1024.0, "MB"),
        "pass_frac": (1.0 - failed / attempted, "ratio"),
    }


def per_layer(samples: list, timed: dict) -> dict:
    n = len(timed["jobs"])
    totals = spans.summarize(timed["spans"])
    times = [record["wall_s"] for record in timed["jobs"]]
    imports = timed.get("child_import_s") or [s["import_s"] for s in samples]
    special = {
        "cli.import_s": statistics.median(imports),
        "proc.minor_faults": sum(r["minor_faults"] for r in timed["jobs"]) / n,
        "trace.jobs_per_s": n / sum(times),
        "trace.job_s_p50": statistics.median(times),
    }
    metrics = {}
    for name, unit in PER_LAYER:
        if name in special:
            value = special[name]
        else:
            function, _, field = name.rpartition(".")
            value = totals.get(function, {}).get(field, 0) / n
        metrics[name] = (value, unit)
    return metrics


def _git_sha(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _openblas():
    """(version, thread count) of the OpenBLAS numpy loaded, if found."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        version = None
    threads = None
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
    return version, threads


def environment(root: Path) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    blas_version, blas_threads = _openblas()
    return {
        "git_sha": _git_sha(root),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_version,
        "openblas_threads": blas_threads,
        "variables": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("MALLOC_") or k.endswith("_NUM_THREADS")},
    }


def run(args, root: Path, work: Path) -> tuple:
    """One benchmark run; returns (details, result line)."""
    start = time.perf_counter()
    plan = jobs.generate(args.workload, args.seed, work.relative_to(root),
                         jobs.SMOKE if args.smoke else jobs.FULL)
    gen_s = time.perf_counter() - start
    plan["in_process"] = args.workload != "sweep"
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    samples = [_run_worker(root, env, plan_path, work / f"result_{i}.json", args.seconds,
                           args.trace, setup_only=i < SETUP_SAMPLES - 1)
               for i in range(SETUP_SAMPLES)]
    timed = samples[-1]

    specs = plan["jobs"]
    records = [(s["warmup"], 0) for s in samples]
    records += [(r, k % len(specs)) for k, r in enumerate(timed["jobs"])]
    failures, outputs, unstable = [], {}, set()
    for record, index in records:
        problems = jobs.check(specs[index], record["code"], record["stdout"])
        if problems:
            failures.append({"job": index, "name": specs[index]["name"],
                             "problems": problems, "stderr": record["stderr"][-500:]})
        if outputs.setdefault(index, record["stdout"]) != record["stdout"]:
            unstable.add(index)
    digest = hashlib.sha256()
    for record in timed["jobs"][:plan["cycle"]]:
        digest.update(record["stdout"].encode("utf-8"))

    attempted, failed = len(records), len(failures)
    times = [record["wall_s"] for record in timed["jobs"]]
    percentile, _ = tail(times)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "environment": environment(root),
        "input_generation_s": gen_s,
        "setup_samples_s": [s["setup_s"] for s in samples],
        "import_samples_s": [s["import_s"] for s in samples],
        "timed_jobs": len(times),
        "timed_busy_s": sum(times),
        "job_times_s": [[specs[k % len(specs)]["name"], t] for k, t in enumerate(times)],
        "tail_percentile": percentile,
        "fail_frac": failed / attempted,
        "stdout_digest": "sha256:" + digest.hexdigest(),
        "digest_jobs": min(plan["cycle"], len(times)),
        "deterministic": not unstable,
        "failures": failures[:10],
    }
    if args.trace:
        spans_file = work.parent / f"spans-{args.workload}-{args.seed}.json"
        spans_file.write_text(json.dumps({
            "fields": ["name", "start_s", "end_s", "parent", "counters"],
            "jobs": details["job_times_s"], "spans": timed["spans"]}))
        details["spans_file"] = str(spans_file.relative_to(root))
        metrics = per_layer(samples, timed)
    else:
        metrics = end_to_end(samples, timed, attempted, failed)
    line = {
        "correct": failed == 0 and not unstable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return details, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimum input sizes")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "dipolemirror" / "cli.py").is_file():
        print("error: run from the root of a dipolemirror checkout "
              "(src/dipolemirror/cli.py not found)", file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        details, line = run(args, root, work)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # kept when it holds a spans file
    print(json.dumps({"details": details}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
