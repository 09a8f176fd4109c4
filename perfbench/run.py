"""The unicusp benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root (the directory holding ``src/unicusp``).
Workloads: corpus-verify, elimination, cremona (see perfbench/README.md).

A run repeats the workload in fresh worker interpreters until ``--seconds``
would be exceeded by one more repetition, and always makes at least one.
Every repetition runs the same operations on the same seeded inputs.  With
``--trace 0`` the run reports the end-to-end metrics (medians over
repetitions); with ``--trace 1`` the workers record layer spans and the run
reports the per-layer metrics instead.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The full record
(metadata, every operation, every failure) goes to
``perfbench/out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

# Set-up is timed in at least this many fresh interpreters per run; the
# median is reported.
SETUP_SAMPLES = 7
# Wall-clock allowance for a whole run, set-up workers included.
RUN_ALLOWANCE_S = 175

# A fixed hash seed keeps set and dict orders, and so the work done, the
# same from one worker to the next.
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def git_sha(root: str) -> str:
    """HEAD's commit from ROOT/.git, read without running git ("unknown"
    outside a git checkout)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(root: str, workload: str, seed: int, mode: str, deadline: float, spans: str = "") -> dict:
    """Run one worker to completion and return its JSON result."""
    cmd = [sys.executable, WORKER, root, workload, str(seed), mode] + ([spans] if spans else [])
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("run allowance used up before a worker could start")
    try:
        proc = subprocess.run(cmd, cwd=root, env=WORKER_ENV, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker passed the run allowance of {RUN_ALLOWANCE_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(root: str, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_ALLOWANCE_S
    setup = []
    if not trace:
        setup = [spawn(root, workload, seed, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    mode = "trace" if trace else "run"
    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}-rep{len(reps)}.json") if trace else ""
        rep_start = time.perf_counter()
        reps.append(spawn(root, workload, seed, mode, deadline, spans))
        now = time.perf_counter()
        if now - start + (now - rep_start) > seconds:
            break
    return {"setup": setup, "reps": reps}


def summarize(workload: str, seed: int, seconds: int, trace: bool, root: str, data: dict) -> dict:
    reps = data["reps"]
    ops = [op for rep in reps for op in rep["ops"]]
    failures = [op for op in ops if op["status"] != "ok"]
    if trace:
        units = tracing.metric_units()
        values = {k: statistics.median(rep["layers"][k] for rep in reps) for k in units}
    else:
        units = END_TO_END_UNITS
        values = {
            "wall_s": statistics.median(rep["wall_s"] for rep in reps),
            "setup_s": statistics.median(data["setup"] + [rep["setup_s"] for rep in reps]),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        }
    meta = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "run_seconds": seconds,
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "load": "closed loop: one client, one process, one thread, operations back to back",
        "points": reps[0]["points"],
        "op_limit_s": workloads.LIMIT_S[workload],
        "operations_per_repetition": len(reps[0]["ops"]),
        "repetitions": len(reps),
        "setup_samples": len(data["setup"]) + len(reps) if not trace else 0,
    }
    if trace:
        meta["untraced_layers"] = tracing.UNTRACED_NOTE
        meta["spans_per_repetition"] = [rep["spans"] for rep in reps]
    return {
        "meta": meta,
        "result": {
            "correct": not any(op["status"] == "wrong" for op in ops),
            "attempted": len(ops),
            "failed": len(failures),
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        },
        "failures": failures,
        "repetitions": reps,
    }


def report(summary: dict) -> None:
    meta, result = summary["meta"], summary["result"]
    print(f"workload {meta['workload']}  seed {meta['seed']}  trace {meta['trace']}  "
          f"python {meta['python']}  git {meta['git_sha'][:12]}  nproc {meta['nproc']}")
    print(f"points {', '.join(meta['points'])}")
    print(f"{meta['repetitions']} repetition(s) x {meta['operations_per_repetition']} operations, "
          f"limit {meta['op_limit_s']} s per operation; {meta['load']}")
    for name, m in result["metrics"].items():
        print(f"  {name:50s} {m['value']:>14.6g} {m['unit']}")
    if not meta["trace"]:
        raw = statistics.median(rep["raw_wall_s"] for rep in summary["repetitions"])
        print(f"  {'(raw wall_s, not in reference seconds)':50s} {raw:>14.6g} s")
    print(f"  {'ops':50s} {result['attempted']:>14d} count")
    print(f"  {'ops_failed':50s} {result['failed']:>14d} count")
    for op in summary["failures"]:
        print(f"  FAILED {op['name']} [{op['point']}]: {op['status']}: {op['reason']}")
    if meta["trace"]:
        print(f"note: {meta['untraced_layers']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.LIMIT_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "unicusp", "__init__.py")):
        print(f"error: no src/unicusp package under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        data = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = summarize(args.workload, args.seed, args.seconds, bool(args.trace), root, data)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    report(summary)
    print(json.dumps(summary["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
