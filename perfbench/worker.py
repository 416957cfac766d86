"""One fresh benchmark process: import, warm up, then run jobs closed-loop.

Run by ``run.py`` with the checkout root as working directory and
``src`` on PYTHONPATH. It times the import of ``dipolemirror.cli`` and
one untimed warm-up job (together the set-up time), then, unless
``--setup-only``, runs the plan's jobs one at a time until the summed
job time reaches ``--seconds`` and the current cycle is complete.

``budget`` and ``measure`` call ``dipolemirror.cli.main`` in this process.
``sweep`` starts a fresh ``python -m dipolemirror.cli`` per job, or with
``--trace 1`` the equivalent ``child.py`` bootstrap that installs the
spans first. The result, with every job's stdout, goes to ``--result``
as JSON; checking happens in ``run.py``, outside the timed phase.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

CHILD = str(Path(__file__).with_name("child.py"))
JOB_TIMEOUT_S = 60  # below run.py's worker timeout, so no child outlives its worker


class InlineRunner:
    """Calls ``dipolemirror.cli.main`` in this process."""

    usage = resource.RUSAGE_SELF

    def __init__(self, cli, out_dir: Path, recorder=None):
        self.cli, self.out_dir, self.recorder = cli, out_dir, recorder

    def __call__(self, job: dict) -> dict:
        argv = job["argv"] + (["--out", str(self.out_dir)] if job["out"] else [])
        stdout, stderr = io.StringIO(), io.StringIO()
        faults = resource.getrusage(self.usage).ru_minflt
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed job, not a failed benchmark
                traceback.print_exc(file=stderr)
                code = -1
        wall = time.perf_counter() - start
        faults = resource.getrusage(self.usage).ru_minflt - faults
        shutil.rmtree(self.out_dir, ignore_errors=True)
        return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()[-2000:],
                "wall_s": wall, "minor_faults": faults}

    def reset_trace(self):
        if self.recorder is not None:
            self.recorder.clear()

    def trace(self) -> dict:
        return {"spans": self.recorder.spans}


class ChildRunner:
    """Runs each job in a fresh interpreter, one at a time."""

    usage = resource.RUSAGE_CHILDREN

    def __init__(self, out_dir: Path, spans_path=None):
        self.out_dir, self.spans_path = out_dir, spans_path
        self.reset_trace()

    def __call__(self, job: dict) -> dict:
        argv = job["argv"] + (["--out", str(self.out_dir)] if job["out"] else [])
        if self.spans_path is None:
            cmd = [sys.executable, "-m", "dipolemirror.cli", *argv]
        else:
            cmd = [sys.executable, CHILD, "--spans", str(self.spans_path), "--", *argv]
        faults = resource.getrusage(self.usage).ru_minflt
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
        wall = time.perf_counter() - start
        faults = resource.getrusage(self.usage).ru_minflt - faults
        shutil.rmtree(self.out_dir, ignore_errors=True)
        if self.spans_path is not None and self.spans_path.exists():
            recorded = json.loads(self.spans_path.read_text())
            self.spans_path.unlink()
            offset = len(self.spans)
            self.spans += [[n, s, e, p + offset if p >= 0 else -1, c]
                           for n, s, e, p, c in recorded["spans"]]
            self.import_s.append(recorded["import_s"])
        return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr[-2000:],
                "wall_s": wall, "minor_faults": faults}

    def reset_trace(self):
        self.spans, self.import_s = [], []

    def trace(self) -> dict:
        return {"spans": self.spans, "child_import_s": self.import_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    plan = json.loads(args.plan.read_text())
    work = args.plan.parent

    start = time.perf_counter()
    import dipolemirror.cli as cli

    import_s = time.perf_counter() - start

    if not plan["in_process"]:
        run = ChildRunner(work / "out", work / "child_spans.json" if args.trace else None)
    elif args.trace:
        import spans  # after the timed import: it loads numpy itself

        recorder = spans.Recorder()
        spans.install(recorder)
        run = InlineRunner(cli, work / "out", recorder)
    else:
        run = InlineRunner(cli, work / "out")

    jobs, cycle = plan["jobs"], plan["cycle"]
    warmup = run(jobs[0])
    result = {"import_s": import_s, "setup_s": import_s + warmup["wall_s"],
              "warmup": warmup, "jobs": []}
    if not args.setup_only:
        run.reset_trace()
        busy = 0.0
        while busy < args.seconds or len(result["jobs"]) % cycle:
            record = run(jobs[len(result["jobs"]) % len(jobs)])
            result["jobs"].append(record)
            busy += record["wall_s"]
        if args.trace:
            result.update(run.trace())
    result["maxrss_kb"] = resource.getrusage(run.usage).ru_maxrss
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
