"""Spans around the package's public layer functions, for the traced run.

The tracer wraps each target function from outside the package.  A name
bound by ``from .poly import exact_divide`` lives in the importing module's
namespace too, so the wrapper replaces the function under *every*
``unicusp.*`` module attribute that holds it; ``Poly.substitute`` is
wrapped on the class.  ``uninstall`` puts every original back.

A span is ``[name, start, end, parent, op, counts]``: ``parent`` is the
index of the enclosing traced span (-1 at the top) and ``op`` the index of
the benchmark operation that was running.  Spans stay in memory until the
run ends.

``parse`` and ``dualgraph`` get no spans: no workload parses text, and the
graph work sits inside ``fibers.blow_down`` and ``resolution`` and takes
under 0.1% of any workload.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

UNTRACED_NOTE = (
    "parse and dualgraph have no spans: no workload parses text, and graph "
    "work sits inside fibers.blow_down and resolution (<0.1%)"
)


def _terms(p) -> int:
    return len(p.terms)


@dataclass(frozen=True)
class Target:
    """A traced function and the per-layer metrics reported for it.

    ``stats`` are picked from calls, busy_s and self_s.  ``sums`` map a
    count name to f(args, result) -> int, summed over calls; ``shares``
    map a share name to f(args, result) -> bool, averaged over calls.
    """

    module: str
    attr: str
    stats: tuple[str, ...] = ("calls", "busy_s", "self_s")
    sums: dict[str, Callable] = field(default_factory=dict)
    shares: dict[str, Callable] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


CALLS_BUSY = ("calls", "busy_s")

TARGETS: tuple[Target, ...] = (
    Target("resolution", "blow_up_once", sums={"germ_terms": lambda a, r: _terms(a[0])}),
    Target("resolution", "minimal_embedded_resolution"),
    Target("resolution", "classify", stats=("busy_s", "self_s")),
    Target("resolution", "delta_invariant", stats=CALLS_BUSY),
    Target(
        "poly",
        "exact_divide",
        sums={"dividend_terms": lambda a, r: _terms(a[0])},
        shares={
            "monomial_divisor_share": lambda a, r: len(a[1].terms) == 1,
            "not_divisible_share": lambda a, r: r is None,
        },
    ),
    Target("poly", "Poly.substitute", sums={"out_terms": lambda a, r: _terms(r)}),
    Target("cremona", "pullback", sums={"out_terms": lambda a, r: _terms(r)}),
    Target("cremona", "strict_transform"),
    Target("cremona", "is_involution"),
    Target("cremona", "make_map"),
    Target("poly", "resultant_wrt", sums={"out_degree": lambda a, r: max(r.total_degree(), 0)}),
    Target("uniroots", "resultant_q", stats=CALLS_BUSY),
    Target("uniroots", "newton_interpolate", stats=CALLS_BUSY, sums={"points": lambda a, r: len(a[0])}),
    Target("uniroots", "gcd_int", stats=CALLS_BUSY),
    Target(
        "uniroots",
        "rational_roots_int",
        stats=CALLS_BUSY,
        sums={"input_degree": lambda a, r: max(len(a[0]) - 1, 0)},
    ),
    Target("curves", "find_rational_singular_points"),
    Target("curves", "intersection_cycle", sums={"located_mass": lambda a, r: r.bezout - r.residual}),
    Target("curves", "make_curve", stats=CALLS_BUSY),
    Target("poly", "gcd", shares={"trivial_share": lambda a, r: r.is_constant()}),
    Target(
        "fibers",
        "complete_and_classify",
        stats=CALLS_BUSY,
        sums={"completions": lambda a, r: len(r)},
    ),
    Target("fibers", "blow_down", stats=("calls",)),
    Target("corpus", "run_corpus", stats=("busy_s", "self_s")),
    Target("corpus", "analysis", stats=CALLS_BUSY),
    Target("cli", "main", stats=("busy_s", "self_s")),
)

UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}

# The traced run's own wall time, in raw seconds: minus the untraced
# raw_wall_s of the same seed, it is the tracing overhead.
TRACED_WALL = "bench.traced_wall_s"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for t in TARGETS:
        for s in t.stats:
            out[f"{t.name}.{s}"] = UNITS[s]
        for s in t.sums:
            out[f"{t.name}.{s}"] = "count"
        for s in t.shares:
            out[f"{t.name}.{s}"] = "ratio"
    out[TRACED_WALL] = "s"
    return out


class Tracer:
    """Installs span-recording wrappers and aggregates what they record."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        counters = list(target.sums.items()) + list(target.shares.items())
        name = target.name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                span[2] = perf_counter()
                stack.pop()
                if done and counters:
                    span[5] = {k: f(args, result) for k, f in counters}

        return traced

    def install(self) -> None:
        homes = {t.module: importlib.import_module(f"unicusp.{t.module}") for t in TARGETS}
        modules = [m for n, m in list(sys.modules.items()) if n == "unicusp" or n.startswith("unicusp.")]
        for t in TARGETS:
            home = homes[t.module]
            if "." in t.attr:
                cls_name, meth = t.attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, meth, self._wrap(t, cls.__dict__[meth]))
                continue
            original = getattr(home, t.attr)
            wrapper = self._wrap(t, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def aggregate(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, busy_s, self_s and summed counts.

    busy_s is the length of the union of the name's spans, so a recursive
    call is not counted twice.  self_s sums each span's duration minus the
    durations of its direct children.
    """
    out: dict[str, dict] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    intervals: dict[str, list[tuple[float, float]]] = {}
    for i, (name, start, end, _, _, counts) in enumerate(spans):
        rec = out.setdefault(name, {"calls": 0, "self_s": 0.0, "counts": {}})
        rec["calls"] += 1
        rec["self_s"] += end - start - child_time[i]
        intervals.setdefault(name, []).append((start, end))
        for k, v in (counts or {}).items():
            rec["counts"][k] = rec["counts"].get(k, 0) + v
    for name, ivs in intervals.items():
        ivs.sort()
        busy, cur_start, cur_end = 0.0, ivs[0][0], ivs[0][1]
        for start, end in ivs[1:]:
            if start > cur_end:
                busy += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        out[name]["busy_s"] = busy + cur_end - cur_start
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Every per-layer metric from one run's spans (0 for an uncalled layer)."""
    agg = aggregate(spans)
    out: dict[str, float] = {}
    for t in TARGETS:
        rec = agg.get(t.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "counts": {}})
        for s in t.stats:
            out[f"{t.name}.{s}"] = rec[s]
        for s in t.sums:
            out[f"{t.name}.{s}"] = rec["counts"].get(s, 0)
        for s in t.shares:
            out[f"{t.name}.{s}"] = rec["counts"].get(s, 0) / rec["calls"] if rec["calls"] else 0.0
    return out
