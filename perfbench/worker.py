"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/worker.py ROOT WORKLOAD SEED MODE [SPANS_FILE]

MODE is ``setup`` (import and build the inputs, nothing else), ``run``
(also time every operation) or ``trace`` (time them with the layer spans
installed, and write the spans to SPANS_FILE).  The worker imports
``unicusp`` from ROOT/src and prints one JSON object on stdout.

Each repetition gets its own interpreter, so the corpus lru_caches
(analysis, _cached_curve, fiber_outcomes) start cold.  Operations run back
to back in one thread: a closed loop with one client.  Untraced times are
reported in reference seconds (see probe.py), with the raw ones beside
them.  The traced run does not run the probe: its span times and its wall
time are all raw seconds, so they can be compared with each other.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

from probe import SpeedProbe  # noqa: E402

PROBE = SpeedProbe()

# Statuses of operations that did not run to their end.
STOPPED = ("timeout", "skipped")

# Operation time beyond which the remaining operations of a repetition are
# not started, so that a run ends within its 180 s allowance.
RUN_BUDGET_S = 150


class OperationTimeout(BaseException):
    """Raised inside an operation by SIGALRM at its time limit.

    A BaseException, so that no ``except Exception`` in the package can
    swallow it.
    """


def _alarm(signum, frame):
    raise OperationTimeout()


def time_operation(op, limit: float) -> tuple[float, str, str | None]:
    """(seconds, status, reason) of one operation; status is ok, timeout,
    error or wrong.  A stopped operation counts at its limit."""
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            answer = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OperationTimeout:
        return float(limit), "timeout", f"stopped at the {limit} s limit"
    except Exception as exc:  # one failed operation must not end the run
        return time.perf_counter() - start, "error", f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    try:
        reason = op.check(answer)
    except Exception as exc:  # an oracle crash is reported, not fatal
        return seconds, "error", f"oracle raised {type(exc).__name__}: {exc}"
    return seconds, ("ok" if reason is None else "wrong"), reason


def peak_rss_mb(records: list[dict]) -> float:
    """ru_maxrss when the last operation that ran to its end finished.

    A stopped operation's memory depends on how far it got before its
    limit, so it is left out; workloads run such operations last.
    """
    finished = [r["rss_mb"] for r in records if r["status"] not in STOPPED]
    return finished[-1] if finished else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def write_spans(path: str, tracer, ops) -> None:
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    doc = {
        "names": names,
        "operations": [f"{op.name} [{op.point}]" for op in ops],
        "fields": ["name", "start_s", "end_s", "parent", "op"],
        "spans": [
            [index[n], round(s - t0, 7), round(e - t0, 7), p, o]
            for n, s, e, p, o, _ in tracer.spans
        ],
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def main(argv: list[str]) -> int:
    root, workload, seed, mode = argv[0], argv[1], int(argv[2]), argv[3]
    if mode != "trace":
        PROBE.start()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import unicusp

    if not os.path.abspath(unicusp.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"unicusp imported from {unicusp.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    points = workloads.run_points(workload, seed)
    inputs = workloads.build_inputs(points)
    raw_setup = time.perf_counter() - T0 - PROBE.spent
    out = {
        "setup_s": raw_setup * PROBE.factor(),
        "raw_setup_s": raw_setup,
        "points": [ps.label for ps in inputs],
    }
    if mode == "setup":
        PROBE.stop()
        print(json.dumps(out))
        return 0

    ops = workloads.operations(workload, seed, inputs)
    limit = workloads.LIMIT_S[workload]
    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _alarm)
    records = []
    wall = 0.0
    first_sample = len(PROBE.samples)
    try:
        for i, op in enumerate(ops):
            if wall > RUN_BUDGET_S:
                seconds, status, reason = float(limit), "skipped", f"run budget of {RUN_BUDGET_S} s used up"
            else:
                if tracer is not None:
                    tracer.op = i
                before = PROBE.spent
                seconds, status, reason = time_operation(op, limit)
                if status not in STOPPED:
                    seconds -= PROBE.spent - before
            wall += seconds
            records.append({
                "name": op.name,
                "point": op.point,
                "seconds": seconds,
                "status": status,
                "reason": reason,
                "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            })
    finally:
        PROBE.stop()
        if tracer is not None:
            tracer.uninstall()
    factor = PROBE.factor(first_sample)
    # A stopped operation counts at its limit, in any unit.
    wall_s = sum(r["seconds"] * (1.0 if r["status"] in STOPPED else factor) for r in records)
    out.update(
        wall_s=wall_s,
        raw_wall_s=wall,
        probe={"samples": len(PROBE.samples) - first_sample, "factor": factor},
        peak_rss_mb=peak_rss_mb(records),
        limit_s=limit,
        ops=records,
    )
    if tracer is not None:
        out["layers"] = dict(tracing.layer_metrics(tracer.spans), **{tracing.TRACED_WALL: wall_s})
        out["spans"] = len(tracer.spans)
        write_spans(argv[4], tracer, ops)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
