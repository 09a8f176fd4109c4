"""The benchmark's workloads: seeded inputs, operations and their oracles.

Every oracle decides an operation's answer without calling the function
under test.  It uses the corpus's frozen facts (POINTS, PAIRS, multiplicity
sequences, REFERENCE_FORMULAS), Bezout's theorem, and plain polynomial
evaluation and differentiation.  An oracle returns None when the answer is
right and a one-line reason when it is not.

This module imports only the standard library at load time; the functions
that build operations import ``unicusp`` when they are called, so a worker
can start its set-up clock before the package is imported.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Per-operation time limits in seconds.  BENCHMARK.json states the same
# values in each workload's "why"; a test keeps the two in step.
LIMIT_S = {"corpus-verify": 120, "elimination": 10, "cremona": 60}

# Seeded parameter points per repetition.  Elimination then takes about
# 27 s and cremona about 34 s on a 2-vCPU Intel Xeon VM, and a run's spread over
# seeds stays near 5%.
SEEDED_POINTS = {"elimination": 3, "cremona": 2}

# corpus.DEFAULT_PARAMS, where the stored expectations live.
FROZEN_POINTS = ((Fraction(1), Fraction(1), Fraction(0)), (Fraction(2), Fraction(-1), Fraction(1)))

NUMERATORS = (-3, 3)
DENOMINATORS = (1, 3)

# Pairs of elimination beyond the stored PAIRS: each cusp curve against
# curves through or near its cusp.
CUSP_PAIRS = (
    ("image-quintic", "conic"),
    ("image-quintic", "line-x"),
    ("image-quintic", "node-cubic"),
    ("image-quintic", "contact-cubic"),
    ("image-deg15", "conic"),
    ("image-deg15", "line-x"),
    ("image-deg15", "mirror-cubic"),
    ("cusp-quartic", "line-z"),
    ("cusp-quartic", "weierstrass-cubic"),
)

# Local number 22 at the cusp.  curves._fulton's coefficient growth makes
# this pair take 3.7 s at (1, 1, 0) and 102 s at (2, -1, 1).  It runs at
# the two FROZEN_POINTS, not the seeded ones: at seeded points its time
# ranged from 0.04 s to minutes, so runs flipped between finishing it and
# stopping it.  At (2, -1, 1) it is always stopped at the limit and counted
# failed, so the defect shows.  It runs after every other elimination
# operation, because the memory a stopped operation reaches depends on how
# far it got, and the worker reports peak memory over finished operations.
HIGH_CONTACT_PAIR = ("image-quintic", "rational-quintic")

# (source, image) pairs of the quintic involution, and the squaring map.
INVOLUTION_PAIRS = (("contact-cubic", "image-quintic"), ("mirror-cubic", "image-deg15"))


@dataclass(frozen=True)
class Operation:
    """One timed call and the oracle that judges its answer."""

    name: str
    point: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


# -- inputs ---------------------------------------------------------------


def parameter_points(seed: int, count: int) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Distinct points (a, b, c) drawn from the seed.

    Numerators lie in -3..3 and denominators in 1..3.  a, b and c are
    nonzero (c = 0 makes the involution about ten times cheaper, and
    corpus-verify already covers it), and 4a^3 + 27b^2 != 0 keeps the
    Weierstrass cubic smooth.
    """
    rng = random.Random(seed)
    out: list[tuple[Fraction, Fraction, Fraction]] = []
    while len(out) < count:
        a, b, c = (Fraction(rng.randint(*NUMERATORS), rng.randint(*DENOMINATORS)) for _ in range(3))
        if a and b and c and 4 * a**3 + 27 * b**2 and (a, b, c) not in out:
            out.append((a, b, c))
    return out


def run_points(workload: str, seed: int) -> list[tuple[Fraction, Fraction, Fraction]]:
    """The parameter points a run of the workload builds its inputs at."""
    if workload == "corpus-verify":
        return list(FROZEN_POINTS)
    seeded = parameter_points(seed, SEEDED_POINTS[workload])
    if workload == "elimination":
        return seeded + [p for p in FROZEN_POINTS if p not in seeded]
    return seeded


@dataclass(frozen=True)
class Inputs:
    """What the operations at one parameter point receive."""

    curves: dict
    involution: object
    squaring: object


def build_inputs(points) -> dict:
    """Every corpus curve and both plane maps at every point.

    The corpus builders are called directly, not through
    corpus.curve_by_name, so the corpus lru_caches stay cold for the timed
    operations.
    """
    from unicusp import corpus, cremona

    out = {}
    for p in points:
        ps = corpus.ParamSet(*p)
        out[ps] = Inputs(
            {name: build(ps) for name, build in corpus.CURVES.items()},
            cremona.quintic_involution(ps.c),
            corpus.squaring_map(),
        )
    return out


# -- oracles ----------------------------------------------------------------


def vanishing_order(poly, point) -> int:
    """Multiplicity of poly at a projective point: the least k such that
    some k-th partial derivative is nonzero there (Euler's formula makes
    the partials enough for a homogeneous poly)."""
    coords = point.coords()
    layer = [poly]
    for k in range(poly.total_degree() + 1):
        if any(p.evaluate(coords) != 0 for p in layer):
            return k
        nxt = {}
        for p in layer:
            for i in range(3):
                d = p.partial(i)
                if not d.is_zero():
                    nxt[d] = d
        layer = list(nxt.values())
    raise ValueError("zero polynomial has no vanishing order")


def _facts(name: str) -> dict:
    from unicusp import corpus

    return {f.key: f.value for f in corpus.entry(name).facts}


def expected_singular_points(name: str, ps) -> dict:
    """{str(point): multiplicity or None} from the corpus facts.

    None means the facts name the point but not its multiplicity; the
    oracle then takes the vanishing order.
    """
    from unicusp import corpus

    facts = _facts(name)
    if facts.get("smooth") is True:
        return {}
    where = facts.get("cusp", facts.get("singular-point"))
    if where is None:
        raise KeyError(f"corpus has no singular-point fact for {name}")
    seq = facts.get("multiplicity-sequence")
    return {str(corpus.POINTS[where](ps)): seq[0] if seq else None}


def check_singular_points(name: str, ps, curve, locus) -> str | None:
    if locus.blockers:
        return f"{len(locus.blockers)} undecided blockers"
    want = expected_singular_points(name, ps)
    got = {str(q): m for q, m in locus.points}
    if set(got) != set(want):
        return f"singular points {sorted(got)}, expected {sorted(want)}"
    for q, m in locus.points:
        order = vanishing_order(curve.poly, q)
        if m != order or order < 2:
            return f"multiplicity {m} at {q}, vanishing order {order}"
        if want[str(q)] not in (None, m):
            return f"multiplicity {m} at {q}, corpus says {want[str(q)]}"
    return None


def check_cycle(left: str, right: str, ps, c1, c2, cyc) -> str | None:
    """Bezout, incidence and lower-bound checks, plus the stored cycle
    where the corpus has one."""
    from unicusp import corpus

    bez = c1.degree * c2.degree
    if cyc.bezout != bez:
        return f"bezout {cyc.bezout}, expected {bez}"
    mass = sum(m for _, m in cyc.points)
    if cyc.residual < 0 or mass + cyc.residual != bez:
        return f"located {mass} + residual {cyc.residual} != {bez}"
    located = {}
    for q, m in cyc.points:
        if m < 1 or str(q) in located:
            return f"bad entry {q} with local number {m}"
        if c1.poly.evaluate(q.coords()) != 0 or c2.poly.evaluate(q.coords()) != 0:
            return f"located point {q} is not on both curves"
        located[str(q)] = m
    for nm in ("contact", "quartic-cusp"):
        q = corpus.POINTS[nm](ps)
        m1, m2 = vanishing_order(c1.poly, q), vanishing_order(c2.poly, q)
        if m1 and m2 and located.get(str(q), 0) < m1 * m2:
            return f"local number at {q} is {located.get(str(q), 0)}, below {m1}*{m2}"
    for pair in corpus.PAIRS:
        if (pair.left, pair.right) == (left, right):
            want = {str(corpus.POINTS[nm](ps)): m for nm, m in pair.cycle}
            if located != want or cyc.residual != 0:
                return f"cycle {sorted(located.items())}, stored {sorted(want.items())}"
    if (left, right) == ("cusp-quartic", "line-z") and _facts(left)["meets-line-z-only-at-cusp"]:
        cusp = str(corpus.POINTS["quartic-cusp"](ps))
        if located != {cusp: c1.degree}:
            return f"cycle {sorted(located.items())}, expected only the cusp {cusp}"
    return None


def check_proportional(got_curve, want_poly) -> str | None:
    from unicusp.poly import proportional

    if not proportional(got_curve.poly, want_poly):
        return f"degree-{got_curve.degree} result is not proportional to the expected curve"
    return None


def check_verify_output(code: int, stdout: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not one JSON document"
    if doc.get("passed") is not True:
        return f"{doc.get('failures')} of {doc.get('checks')} checks failed"
    return None


# -- operations ----------------------------------------------------------------


def _verify_corpus(seed: int):
    from unicusp import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify-corpus", "--json", "--seed", str(seed)])
    return code, out.getvalue()


def _elimination(seed: int, inputs: dict) -> list[Operation]:
    from unicusp import corpus, curves

    def cycle(ps, left, right):
        c1, c2 = inputs[ps].curves[left], inputs[ps].curves[right]
        return Operation(
            f"intersection-cycle {left} * {right}",
            ps.label,
            lambda: curves.intersection_cycle(c1, c2),
            lambda res: check_cycle(left, right, ps, c1, c2, res),
        )

    ops: list[Operation] = []
    for p in parameter_points(seed, SEEDED_POINTS["elimination"]):
        ps = corpus.ParamSet(*p)
        for name, c in inputs[ps].curves.items():
            if c.degree >= 2:
                ops.append(Operation(
                    f"singular-points {name}",
                    ps.label,
                    lambda c=c: curves.find_rational_singular_points(c),
                    lambda res, name=name, ps=ps, c=c: check_singular_points(name, ps, c, res),
                ))
        for left, right in [(pr.left, pr.right) for pr in corpus.PAIRS] + list(CUSP_PAIRS):
            ops.append(cycle(ps, left, right))
    for p in FROZEN_POINTS:
        ops.append(cycle(corpus.ParamSet(*p), *HIGH_CONTACT_PAIR))
    return ops


def _cremona_at(ps, inp: Inputs) -> list[Operation]:
    from unicusp import corpus, cremona

    cs, h, conic = inp.curves, inp.involution, [inp.curves["conic"]]

    def transform(src, dst, m, exceptional, want):
        return Operation(
            f"strict-transform {src} -> {dst}",
            ps.label,
            lambda: cremona.strict_transform(m, cs[src], exceptional),
            lambda res: check_proportional(res, want),
        )

    ops = [transform(src, img, h, conic, corpus.REFERENCE_FORMULAS[img](ps)) for src, img in INVOLUTION_PAIRS]
    # The involution's round trip returns the source curve.
    ops += [transform(img, src, h, conic, cs[src].poly) for src, img in INVOLUTION_PAIRS]
    ops.append(transform(
        "weierstrass-cubic", "cusp-quartic", inp.squaring, [cs["line-z"]],
        corpus.REFERENCE_FORMULAS["cusp-quartic"](ps),
    ))
    ops.append(Operation(
        "is-involution quintic",
        ps.label,
        lambda: cremona.is_involution(h),
        lambda res: None if res is True else f"is_involution returned {res!r}",
    ))
    return ops


def _cremona(seed: int, inputs: dict) -> list[Operation]:
    from unicusp import corpus

    ops: list[Operation] = []
    for p in parameter_points(seed, SEEDED_POINTS["cremona"]):
        ps = corpus.ParamSet(*p)
        ops += _cremona_at(ps, inputs[ps])
    return ops


def operations(workload: str, seed: int, inputs: dict) -> list[Operation]:
    """The operations of one repetition, in the order they are timed."""
    if workload == "corpus-verify":
        return [
            Operation(
                "verify-corpus",
                "DEFAULT_PARAMS",
                lambda: _verify_corpus(seed),
                lambda res: check_verify_output(*res),
            )
        ]
    if workload == "elimination":
        return _elimination(seed, inputs)
    if workload == "cremona":
        return _cremona(seed, inputs)
    raise KeyError(f"unknown workload {workload!r}")
