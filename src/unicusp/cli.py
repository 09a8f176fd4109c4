"""Command-line front end.

Subcommands: analyze, intersect, resolve, transform, fiber,
verify-corpus.  Curves are given as polynomial text in x, y, z (with ^
or ** powers and rational coefficients) or as ``corpus:NAME``.  Output
is plain text, or one JSON document with ``--json``; both are
byte-identical across runs for identical inputs (timing is null unless
--timing is passed).  Exit codes: 0 success, 1 domain or expectation
failure, 2 usage or input-parse error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import asdict
from fractions import Fraction

from .corpus import CorpusError, ParamSet, curve_by_name, load_corpus, param_set, run_corpus
from .cremona import make_map, quintic_involution, strict_transform
from .curves import (
    CurveError,
    PlaneCurve,
    ProjPoint,
    find_rational_singular_points,
    intersection_cycle,
    make_curve,
)
from .fibers import CASE_OFF, CASE_ON, complete_and_classify, contraction_budget
from .parse import ParseError, parse_poly
from .resolution import classify, locus_resolution, minimal_embedded_resolution

SCHEMA = 1


class UsageError(ValueError):
    """Bad user input that is not a domain failure (exit code 2)."""


# -- input plumbing -----------------------------------------------------------


def _parse_params(text: str | None) -> ParamSet:
    defaults, ps = asdict(param_set()), {}
    if text:
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            key, _, value = chunk.partition("=")
            key = key.strip()
            if key not in defaults or not value.strip():
                raise UsageError(
                    f"bad --params fragment {chunk!r} (expect a=<q>,b=<q>,c=<q>)"
                )
            if key in ps:
                raise UsageError(f"--params sets {key} twice")
            try:
                ps[key] = Fraction(value.strip())
            except (ValueError, ZeroDivisionError) as exc:
                raise UsageError(f"bad rational in --params: {value!r}") from exc
    return ParamSet(**{**defaults, **ps})


def _resolve_curve(text: str, ps: ParamSet) -> tuple[str, PlaneCurve]:
    """A curve argument: ``corpus:NAME`` or literal polynomial text."""
    if text.startswith("corpus:"):
        name = text[len("corpus:"):]
        try:
            return name, curve_by_name(name, ps)
        except CorpusError as exc:
            raise UsageError(str(exc)) from exc
    try:
        poly = parse_poly(text)
    except ParseError as exc:
        raise UsageError(f"cannot parse polynomial {text!r}: {exc}") from exc
    return "curve", make_curve(poly)


def _parse_point(text: str) -> ProjPoint:
    parts = text.replace("(", "").replace(")", "").split(",")
    if len(parts) != 3:
        raise UsageError(f"bad --point {text!r} (expect x,y,z)")
    try:
        x, y, z = (Fraction(p.strip()) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational in --point: {text!r}") from exc
    try:
        return ProjPoint.of(x, y, z)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _emit(args, payload: dict, text_lines: list[str], dots: dict[str, str] | None = None) -> None:
    """Print the payload as JSON or the text lines.  With --dot, first write
    `dots`, a map from file name to DOT text, into that directory."""
    if dots and args.dot:
        os.makedirs(args.dot, exist_ok=True)
        payload["dot_files"] = [os.path.join(args.dot, name) for name in dots]
        for path, text in zip(payload["dot_files"], dots.values()):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            text_lines.append(f"wrote {path}")
    if args.json:
        payload = {"schema": SCHEMA, **payload}
        payload["timing"] = round(time.perf_counter() - args._t0, 3) if args.timing else None
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)
        if args.timing:
            print(f"elapsed: {time.perf_counter() - args._t0:.3f}s")


# -- subcommands --------------------------------------------------------------


def cmd_analyze(args) -> int:
    ps = _parse_params(args.params)
    name, curve = _resolve_curve(args.curve, ps)
    report = classify(curve)
    payload = {"name": name, "params": ps.as_json(), **report.as_json()}
    payload["equation"] = str(curve)
    lines = [
        f"curve: {curve}",
        f"degree {report.degree}, genus {report.genus}",
    ]
    if not report.singular_points:
        lines.append("smooth: no singular points")
    for point, mult in report.singular_points:
        lines.append(f"singular point {point} with multiplicity {mult}")
    res = report.resolution
    if res is not None:
        lines.append(
            f"cusp multiplicity sequence {res.multiplicity_sequence}, "
            f"strict transform square {res.strict_self_intersection}"
        )
    lines.append(f"verdict: {report.verdict}")
    for note in report.notes:
        lines.append(f"note: {note}")
    dots = {f"resolution-{name}.dot": res.graph.to_dot(f"resolution_{name}")} if res else {}
    _emit(args, payload, lines, dots)
    return 0


def cmd_intersect(args) -> int:
    ps = _parse_params(args.params)
    name1, c1 = _resolve_curve(args.curve1, ps)
    name2, c2 = _resolve_curve(args.curve2, ps)
    cyc = intersection_cycle(c1, c2)
    located = sum(m for _, m in cyc.points)
    payload = {
        "left": name1,
        "right": name2,
        "params": ps.as_json(),
        "cycle": cyc.as_json(),
        "bezout_ok": cyc.residual + located == cyc.bezout,
        "fully_located": cyc.residual == 0,
    }
    lines = [f"{name1} * {name2}:"]
    for point, m in cyc.points:
        lines.append(f"  {point} with local number {m}")
    lines.append(
        f"located {located} of {cyc.bezout} (residual {cyc.residual})"
    )
    _emit(args, payload, lines)
    return 0


def cmd_resolve(args) -> int:
    ps = _parse_params(args.params)
    name, curve = _resolve_curve(args.curve, ps)
    if args.point:
        res = minimal_embedded_resolution(curve, _parse_point(args.point))
    else:
        locus = find_rational_singular_points(curve).require_rational()
        if len(locus.points) != 1:
            raise CurveError(
                f"need exactly one singular point to resolve without --point; "
                f"found {len(locus.points)}"
            )
        res = locus_resolution(curve, locus)
    payload = {"name": name, "params": ps.as_json(), **res.as_json()}
    lines = [
        f"resolved {name} at {res.point} in {len(res.records)} blowups",
        f"multiplicity sequence {res.multiplicity_sequence}",
        f"full sequence {res.full_sequence}, delta {res.delta}",
        f"strict transform square {res.strict_self_intersection}",
    ]
    for rec in res.records:
        on = ", ".join(rec.center_on) if rec.center_on else "the curve alone"
        lines.append(f"  blowup {rec.index}: multiplicity {rec.multiplicity}, center on {on}")
    _emit(args, payload, lines, {f"resolution-{name}.dot": res.graph.to_dot(f"resolution_{name}")})
    return 0


def cmd_transform(args) -> int:
    ps = _parse_params(args.params)
    name, curve = _resolve_curve(args.curve, ps)
    if args.map:
        pieces = args.map.split(";")
        if len(pieces) != 3:
            raise UsageError("--map needs three ;-separated polynomials")
        try:
            m = make_map(*(parse_poly(p) for p in pieces))
        except ParseError as exc:
            raise UsageError(f"cannot parse --map: {exc}") from exc
        exceptional = []
    else:
        m = quintic_involution(ps.c)
        exceptional = [curve_by_name("conic", ps)]
    for extra in args.exceptional or []:
        _, exc_curve = _resolve_curve(extra, ps)
        exceptional.append(exc_curve)
    image = strict_transform(m, curve, exceptional)
    payload = {
        "name": name,
        "params": ps.as_json(),
        "map": [str(p) for p in m.components],
        "degree": image.degree,
        "image": str(image),
    }
    lines = [
        f"map: {m}",
        f"strict transform of {name} has degree {image.degree}:",
        f"  {image}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_fiber(args) -> int:
    ps = _parse_params(args.params)
    name, curve = _resolve_curve(args.curve, ps)
    case = CASE_ON if args.case == "on" else CASE_OFF
    report = classify(curve)
    res = report.resolution
    if res is None:
        raise CurveError(
            f"fiber search needs a unicuspidal curve; got verdict {report.verdict}"
        )
    f0, completions = complete_and_classify(res, case)
    budget = contraction_budget(res)
    payload = {
        "name": name,
        "params": ps.as_json(),
        "case": case,
        "strict_self_intersection": res.strict_self_intersection,
        "budget": budget,
        "fiber_part": f0.as_json(),
        "completions": [c.as_json() for c in completions],
    }
    lines = [
        f"{name}: attachment case {case}, contraction budget {budget}",
        f"fiber part has {len(f0.graph.vertices)} components",
    ]
    if not completions:
        lines.append("no completion found")
    for i, comp in enumerate(completions):
        lines.append(
            f"completion {i}: type {comp.kodaira} after contracting "
            f"{', '.join(comp.contractions) or 'nothing'}"
        )
    dots = {f"fiber-{name}-part.dot": f0.to_dot("fiber_part")}
    for i, comp in enumerate(completions):
        slug = comp.kodaira.replace("*", "star")
        dots[f"fiber-{name}-{i}-{slug}.dot"] = comp.fiber.to_dot(f"fiber_{slug}")
    _emit(args, payload, lines, dots)
    return 0


def cmd_verify_corpus(args) -> int:
    if args.corpus_file:
        entries, pairs = load_corpus(args.corpus_file)
    else:
        entries, pairs = None, None
    results = run_corpus(entries=entries, pairs=pairs, seed=args.seed)
    passed = all(r.ok for r in results)
    payload = {
        "results": [r.as_json() for r in results],
        "checks": len(results),
        "failures": sum(1 for r in results if not r.ok),
        "passed": passed,
    }
    lines = []
    for r in results:
        mark = "ok  " if r.ok else "FAIL"
        line = f"{mark} {r.entry} [{r.params}] {r.fact}"
        if not r.ok:
            line += f": expected {r.expected}, got {r.got}"
        lines.append(line)
    lines.append(
        f"{len(results)} checks, {payload['failures']} failures"
    )
    _emit(args, payload, lines)
    return 0 if passed else 1


# -- the parser ---------------------------------------------------------------


# The shared flags.  Every subcommand takes --json and --timing (read by
# _emit); each of the others is registered only where its command reads it,
# --dot where its command hands _emit the files to write.
_FLAGS = {
    "--params": {"help": "rational parameters, e.g. a=1,b=1,c=0"},
    "--json": {"action": "store_true", "help": "emit one JSON document"},
    "--dot": {"metavar": "DIR", "help": "write graphviz files into DIR"},
    "--timing": {"action": "store_true", "help": "report elapsed time"},
    "--point": {"help": "projective point x,y,z"},
}


def _add_common(sub, *flags: str) -> None:
    for flag, kwargs in _FLAGS.items():
        if flag in ("--json", "--timing", *flags):
            sub.add_argument(flag, **kwargs)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unicusp",
        description="Exact tools for cuspidal plane curves over Q.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="full dossier for one curve")
    p.add_argument("curve", help="polynomial text or corpus:NAME")
    _add_common(p, "--params", "--dot")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("intersect", help="intersection cycle of two curves")
    p.add_argument("curve1")
    p.add_argument("curve2")
    _add_common(p, "--params")
    p.set_defaults(func=cmd_intersect)

    p = subs.add_parser("resolve", help="minimal embedded resolution at a point")
    p.add_argument("curve")
    _add_common(p, "--params", "--dot", "--point")
    p.set_defaults(func=cmd_resolve)

    p = subs.add_parser("transform", help="strict transform under a plane map")
    p.add_argument("curve")
    p.add_argument("--map", help="three ;-separated polynomials (default: the built-in involution)")
    p.add_argument(
        "--exceptional",
        action="append",
        help="extra exceptional curve to divide out (repeatable)",
    )
    _add_common(p, "--params")
    p.set_defaults(func=cmd_transform)

    p = subs.add_parser("fiber", help="build and complete the fiber over a cusp")
    p.add_argument("curve")
    p.add_argument("--case", choices=("on", "off"), required=True,
                   help="where the second base point sits")
    _add_common(p, "--params", "--dot")
    p.set_defaults(func=cmd_fiber)

    p = subs.add_parser("verify-corpus", help="recheck every built-in expectation")
    p.add_argument("corpus_file", nargs="?", help="optional corpus JSON file")
    p.add_argument("--seed", type=int, help="also run seeded arithmetic self-checks")
    _add_common(p)
    p.set_defaults(func=cmd_verify_corpus)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr, format="%(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    args._t0 = time.perf_counter()
    try:
        code = args.func(args)
        # Flush here, so that a reader that has gone away is seen in this try.
        sys.stdout.flush()
        return code
    except OSError as exc:
        # An output that cannot be written: a --dot path that is a file, a
        # full disk, or a reader that closed stdout (e.g. `| head`), which
        # needs no message.  Point stdout at devnull so the flush at
        # interpreter exit cannot raise a second time.
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # An input too large for this interpreter ends with a reason, not a
        # traceback; so does one nested too deep, below.
        print("error: out of memory", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: maximum recursion depth exceeded", file=sys.stderr)
        return 1
    except OverflowError as exc:
        # A degree or exponent past what a list or range can index.
        print(f"error: number too large: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
