"""Built-in worked family of curves with frozen expected facts.

One conic, a pencil of cubics and quintics over it, their images under
a degree-five involution, and a quartic built from a Weierstrass cubic.
Every entry carries expected facts; each fact is labeled with the basis
on which its value was frozen:

* ``elementary``         -- immediate from the defining formula;
* ``hand-check``         -- a construction identity verified by hand;
* ``independent-oracle`` -- frozen output of a separate computation
                            (different code path or hand calculation),
                            never of the function under test.

The verify runner recomputes everything from scratch, in corpus order,
and reports every disagreement.  The family is instantiated at two
rational parameter points to guard against coincidences at special
values.
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .cremona import (
    CremonaMap,
    base_conic,
    base_cubic,
    base_quintic,
    extend_affine_automorphism,
    quintic_involution,
    strict_transform,
)
from .curves import (
    PlaneCurve,
    ProjPoint,
    intersection_cycle,
    make_curve,
)
from .fibers import CASE_OFF, CASE_ON, complete_and_classify
from .poly import Poly, X, Y, Z, poly_to_text, proportional
from .resolution import classify
from . import poly as _poly

logger = logging.getLogger(__name__)

CORPUS_SCHEMA = 1


class CorpusError(ValueError):
    """Malformed corpus file or unknown entry."""


@dataclass(frozen=True)
class ParamSet:
    """One rational point (a, b, c) in parameter space."""

    a: Fraction
    b: Fraction
    c: Fraction

    @property
    def label(self) -> str:
        return f"a={self.a},b={self.b},c={self.c}"

    def as_json(self) -> dict:
        return {"a": str(self.a), "b": str(self.b), "c": str(self.c)}


def param_set(a: str | int = 1, b: str | int = 1, c: str | int = 0) -> ParamSet:
    return ParamSet(Fraction(a), Fraction(b), Fraction(c))


DEFAULT_PARAMS: tuple[ParamSet, ...] = (param_set(1, 1, 0), param_set(2, -1, 1))


# -- the curves ---------------------------------------------------------------
#
# Builders take a ParamSet and return a validated curve.  The two image
# curves are defined as strict transforms; their expanded equations are
# kept separately as reference formulas and checked against each other.

CURVES: dict[str, Callable[[ParamSet], PlaneCurve]] = {}


def _curve(name: str):
    def deco(fn: Callable[[ParamSet], PlaneCurve]):
        CURVES[name] = fn
        return fn

    return deco


@_curve("line-x")
def _line_x(ps: ParamSet) -> PlaneCurve:
    return make_curve(X)


@_curve("line-y")
def _line_y(ps: ParamSet) -> PlaneCurve:
    return make_curve(Y)


@_curve("line-z")
def _line_z(ps: ParamSet) -> PlaneCurve:
    return make_curve(Z)


@_curve("conic")
def _conic(ps: ParamSet) -> PlaneCurve:
    return make_curve(base_conic())


@_curve("node-cubic")
def _node_cubic(ps: ParamSet) -> PlaneCurve:
    return make_curve(base_cubic(ps.c))


@_curve("rational-quintic")
def _rational_quintic(ps: ParamSet) -> PlaneCurve:
    return make_curve(base_quintic(ps.c))


@_curve("contact-cubic")
def _contact_cubic(ps: ParamSet) -> PlaneCurve:
    f2 = base_conic()
    return make_curve((ps.a * X + 2 * ps.b * Y - Z) * f2 + X**3)


@_curve("mirror-cubic")
def _mirror_cubic(ps: ParamSet) -> PlaneCurve:
    f2 = base_conic()
    return make_curve((ps.a * Z + 2 * ps.b * Y - X) * f2 + Z**3)


@_curve("image-quintic")
def _image_quintic(ps: ParamSet) -> PlaneCurve:
    h = quintic_involution(ps.c)
    return strict_transform(h, _contact_cubic(ps), [CURVES["conic"](ps)])


@_curve("image-deg15")
def _image_deg15(ps: ParamSet) -> PlaneCurve:
    h = quintic_involution(ps.c)
    return strict_transform(h, _mirror_cubic(ps), [CURVES["conic"](ps)])


@_curve("weierstrass-cubic")
def _weierstrass_cubic(ps: ParamSet) -> PlaneCurve:
    return make_curve(Y**2 * Z - X**3 - ps.a * X * Z**2 - ps.b * Z**3)


def squaring_map() -> CremonaMap:
    """Degree-two map extending the affine shear (x, y) -> (x, y + x^2)."""
    return extend_affine_automorphism([("shear", X**2)])


@_curve("cusp-quartic")
def _cusp_quartic(ps: ParamSet) -> PlaneCurve:
    return strict_transform(
        squaring_map(), _weierstrass_cubic(ps), [CURVES["line-z"](ps)]
    )


# Reference formulas: hand-expanded equations the transform-defined
# curves must reproduce up to scalar.

REFERENCE_FORMULAS: dict[str, Callable[[ParamSet], Poly]] = {}


def _formula(name: str):
    def deco(fn: Callable[[ParamSet], Poly]):
        REFERENCE_FORMULAS[name] = fn
        return fn

    return deco


@_formula("image-quintic")
def _image_quintic_formula(ps: ParamSet) -> Poly:
    f2, f3, f5 = base_conic(), base_cubic(ps.c), base_quintic(ps.c)
    return ps.a * X * f2**2 - 2 * ps.b * f3 * f2 - f5 + X**3 * f2


@_formula("image-deg15")
def _image_deg15_formula(ps: ParamSet) -> Poly:
    f2, f3, f5 = base_conic(), base_cubic(ps.c), base_quintic(ps.c)
    return (ps.a * f5 - 2 * ps.b * f3 * f2 - X * f2**2) * f2**5 + f5**3


@_formula("cusp-quartic")
def _cusp_quartic_formula(ps: ParamSet) -> Poly:
    return (Y * Z + X**2) ** 2 - X**3 * Z - ps.a * X * Z**3 - ps.b * Z**4


# -- named points -------------------------------------------------------------

POINTS: dict[str, Callable[[ParamSet], ProjPoint]] = {
    # six-fold contact of the contact cubic with the conic; also the
    # node of the nodal cubic and the cusp of both image curves
    "contact": lambda ps: ProjPoint.of(0, 0, 1),
    # second intersection of the rational quintic with the line x = 0
    "residual": lambda ps: ProjPoint.of(0, 1, -2 * ps.c),
    # transverse intersection of the contact cubic with the line x = 0
    "transverse": lambda ps: ProjPoint.of(0, 1, 2 * ps.b),
    # fixed point the mirror cubic passes through
    "mirror": lambda ps: ProjPoint.of(1, 0, 0),
    # cusp of the quartic
    "quartic-cusp": lambda ps: ProjPoint.of(0, 1, 0),
    "corner-z": lambda ps: ProjPoint.of(0, 0, 1),
}


# -- expected facts ------------------------------------------------------------

BASIS_ELEMENTARY = "elementary"
BASIS_HAND = "hand-check"
BASIS_ORACLE = "independent-oracle"


@dataclass(frozen=True)
class ExpectedFact:
    key: str
    value: object
    basis: str


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    summary: str
    facts: tuple[ExpectedFact, ...]


@dataclass(frozen=True)
class PairExpectation:
    """Expected full intersection cycle of two corpus curves."""

    left: str
    right: str
    cycle: tuple[tuple[str, int], ...]  # (point name, local number)
    basis: str


def _facts(*triples) -> tuple[ExpectedFact, ...]:
    return tuple(ExpectedFact(k, v, b) for k, v, b in triples)


CORPUS: tuple[CorpusEntry, ...] = (
    CorpusEntry(
        "line-x",
        "the line x = 0",
        _facts(
            ("degree", 1, BASIS_ELEMENTARY),
            ("smooth", True, BASIS_ELEMENTARY),
            ("genus", 0, BASIS_ELEMENTARY),
        ),
    ),
    CorpusEntry(
        "line-y",
        "the line y = 0",
        _facts(
            ("degree", 1, BASIS_ELEMENTARY),
            ("smooth", True, BASIS_ELEMENTARY),
        ),
    ),
    CorpusEntry(
        "line-z",
        "the line z = 0",
        _facts(
            ("degree", 1, BASIS_ELEMENTARY),
            ("smooth", True, BASIS_ELEMENTARY),
        ),
    ),
    CorpusEntry(
        "conic",
        "the smooth conic xz - y^2 every other entry plays against",
        _facts(
            ("degree", 2, BASIS_ELEMENTARY),
            ("smooth", True, BASIS_ELEMENTARY),
            ("genus", 0, BASIS_ELEMENTARY),
        ),
    ),
    CorpusEntry(
        "node-cubic",
        "rational cubic with a node at (0,0,1), tangent to the conic there",
        _facts(
            ("degree", 3, BASIS_ELEMENTARY),
            ("smooth", False, BASIS_ELEMENTARY),
            ("genus", 0, BASIS_ORACLE),
            ("singular-point", "contact", BASIS_HAND),
            ("unicuspidal", False, BASIS_HAND),
        ),
    ),
    CorpusEntry(
        "rational-quintic",
        "rational quintic with one cusp, built over the conic pencil",
        _facts(
            ("degree", 5, BASIS_ELEMENTARY),
            ("smooth", False, BASIS_ELEMENTARY),
            ("genus", 0, BASIS_ORACLE),
            ("singular-point", "contact", BASIS_HAND),
            ("unicuspidal", True, BASIS_ORACLE),
            ("multiplicity-sequence", (2, 2, 2, 2, 2, 2), BASIS_ORACLE),
            ("strict-self-intersection", -1, BASIS_ORACLE),
        ),
    ),
    CorpusEntry(
        "contact-cubic",
        "smooth cubic with six-fold contact to the conic at (0,0,1)",
        _facts(
            ("degree", 3, BASIS_ELEMENTARY),
            ("smooth", True, BASIS_HAND),
            ("genus", 1, BASIS_ELEMENTARY),
        ),
    ),
    CorpusEntry(
        "mirror-cubic",
        "the contact cubic reflected through x <-> z, passing through (1,0,0)",
        _facts(
            ("degree", 3, BASIS_ELEMENTARY),
            ("smooth", True, BASIS_HAND),
            ("genus", 1, BASIS_ELEMENTARY),
        ),
    ),
    CorpusEntry(
        "image-quintic",
        "degree-5 image of the contact cubic under the quintic involution",
        _facts(
            ("degree", 5, BASIS_HAND),
            ("matches-construction", True, BASIS_HAND),
            ("smooth", False, BASIS_ORACLE),
            ("genus", 1, BASIS_ORACLE),
            ("cusp", "contact", BASIS_ORACLE),
            ("multiplicity-sequence", (2, 2, 2, 2, 2), BASIS_ORACLE),
            ("strict-self-intersection", 3, BASIS_ORACLE),
            ("verdict", "NON_AMS_MAX", BASIS_ORACLE),
            ("fiber-off", ("I4*",), BASIS_ORACLE),
            ("fiber-on", (), BASIS_ORACLE),
        ),
    ),
    CorpusEntry(
        "image-deg15",
        "degree-15 image of the mirror cubic under the quintic involution",
        _facts(
            ("degree", 15, BASIS_HAND),
            ("matches-construction", True, BASIS_HAND),
            ("genus", 1, BASIS_ORACLE),
            ("cusp", "contact", BASIS_ORACLE),
            ("multiplicity-sequence", (6, 6, 6, 6, 6, 6), BASIS_ORACLE),
            ("strict-self-intersection", 3, BASIS_ORACLE),
            ("verdict", "NON_AMS_MAX", BASIS_ORACLE),
        ),
    ),
    CorpusEntry(
        "weierstrass-cubic",
        "smooth cubic y^2 z = x^3 + a x z^2 + b z^3 (nonzero discriminant)",
        _facts(
            ("degree", 3, BASIS_ELEMENTARY),
            ("smooth", True, BASIS_HAND),
            ("genus", 1, BASIS_ELEMENTARY),
        ),
    ),
    CorpusEntry(
        "cusp-quartic",
        "elliptic quartic image of the Weierstrass cubic under a degree-2 map",
        _facts(
            ("degree", 4, BASIS_HAND),
            ("matches-construction", True, BASIS_HAND),
            ("genus", 1, BASIS_ORACLE),
            ("cusp", "quartic-cusp", BASIS_ORACLE),
            ("multiplicity-sequence", (2, 2), BASIS_ORACLE),
            ("strict-self-intersection", 6, BASIS_ORACLE),
            ("verdict", "AMS", BASIS_ORACLE),
            ("meets-line-z-only-at-cusp", True, BASIS_ORACLE),
            ("fiber-on", ("II*",), BASIS_ORACLE),
        ),
    ),
)


PAIRS: tuple[PairExpectation, ...] = (
    PairExpectation("line-x", "line-y", (("corner-z", 1),), BASIS_ELEMENTARY),
    PairExpectation(
        "contact-cubic", "line-x", (("transverse", 1), ("contact", 2)), BASIS_HAND
    ),
    PairExpectation("contact-cubic", "conic", (("contact", 6),), BASIS_HAND),
    PairExpectation("node-cubic", "conic", (("contact", 6),), BASIS_HAND),
    PairExpectation(
        "rational-quintic", "line-x", (("contact", 4), ("residual", 1)), BASIS_HAND
    ),
    PairExpectation("rational-quintic", "conic", (("contact", 10),), BASIS_HAND),
    PairExpectation("rational-quintic", "node-cubic", (("contact", 15),), BASIS_HAND),
)


def entry(name: str) -> CorpusEntry:
    for e in CORPUS:
        if e.name == name:
            return e
    raise CorpusError(f"no corpus entry named {name!r}")


def curve_by_name(name: str, ps: ParamSet) -> PlaneCurve:
    builder = CURVES.get(name)
    if builder is None:
        raise CorpusError(f"no corpus curve named {name!r}")
    return _cached_curve(name, ps)


@lru_cache(maxsize=None)
def _cached_curve(name: str, ps: ParamSet) -> PlaneCurve:
    return CURVES[name](ps)


# -- analysis (memoized per entry and parameter point) ------------------------


@lru_cache(maxsize=None)
def analysis(name: str, ps: ParamSet) -> dict:
    """All computed facts for one curve at one parameter point."""
    curve = curve_by_name(name, ps)
    out: dict = {
        "degree": curve.degree,
        "equation": poly_to_text(curve.poly),
    }
    report = classify(curve)
    out["smooth"] = not report.singular_points
    out["genus"] = report.genus
    if out["smooth"]:
        return out
    out["singular-points"] = report.singular_points
    res = report.resolution
    out["unicuspidal"] = res is not None
    if res is not None:
        out["cusp"] = res.point
        out["multiplicity-sequence"] = res.multiplicity_sequence
        out["strict-self-intersection"] = res.strict_self_intersection
    out["verdict"] = report.verdict
    out["report"] = report
    return out


@lru_cache(maxsize=None)
def fiber_outcomes(name: str, case: str, ps: ParamSet) -> tuple[str, ...]:
    """Sorted Kodaira types of all completions found for one curve/case."""
    rep = analysis(name, ps).get("report")
    if rep is None or rep.resolution is None:
        raise CorpusError(f"{name} has no resolution; cannot build a fiber")
    _, completions = complete_and_classify(rep.resolution, case)
    return tuple(sorted({c.kodaira for c in completions}))


# -- fact checking -------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    entry: str
    params: str
    fact: str
    expected: str
    got: str
    ok: bool

    def as_json(self) -> dict:
        return {
            "entry": self.entry,
            "params": self.params,
            "fact": self.fact,
            "expected": self.expected,
            "got": self.got,
            "ok": self.ok,
        }


def _norm(v):
    """Normalize JSON- and Python-side fact values for comparison."""
    if isinstance(v, (list, tuple)):
        return tuple(_norm(x) for x in v)
    return v


def check_fact(name: str, fact: ExpectedFact, ps: ParamSet) -> CheckResult:
    got: object
    key, want = fact.key, fact.value
    if key == "matches-construction":
        ref = REFERENCE_FORMULAS[name](ps)
        got = proportional(curve_by_name(name, ps).poly, ref)
    elif key == "meets-line-z-only-at-cusp":
        curve = curve_by_name(name, ps)
        cyc = intersection_cycle(curve, curve_by_name("line-z", ps))
        cusp = POINTS["quartic-cusp"](ps)
        got = (
            cyc.residual == 0
            and len(cyc.points) == 1
            and cyc.points[0][0] == cusp
            and cyc.points[0][1] == curve.degree
        )
    elif key == "fiber-on":
        got = fiber_outcomes(name, CASE_ON, ps)
    elif key == "fiber-off":
        got = fiber_outcomes(name, CASE_OFF, ps)
    elif key == "cusp":
        pt = analysis(name, ps).get("cusp")
        got, want = (str(pt) if pt is not None else None), str(POINTS[str(want)](ps))
    elif key == "singular-point":
        pts = analysis(name, ps).get("singular-points", [])
        got, want = (str(pts[0][0]) if len(pts) == 1 else None), str(POINTS[str(want)](ps))
    else:
        got = analysis(name, ps).get(key)
    ok = _norm(got) == _norm(want)
    return CheckResult(name, ps.label, key, repr(_norm(want)), repr(_norm(got)), ok)


def check_pair(pair: PairExpectation, ps: ParamSet) -> CheckResult:
    left = curve_by_name(pair.left, ps)
    right = curve_by_name(pair.right, ps)
    cyc = intersection_cycle(left, right)
    got = {str(p): m for p, m in cyc.points}
    got["residual"] = cyc.residual
    want = {str(POINTS[nm](ps)): m for nm, m in pair.cycle}
    want["residual"] = 0
    return CheckResult(
        f"{pair.left} * {pair.right}",
        ps.label,
        "intersection-cycle",
        repr(sorted(want.items())),
        repr(sorted(got.items())),
        got == want,
    )


# -- randomized self-checks -----------------------------------------------------


def random_poly(rng: random.Random, max_degree: int = 3, terms: int = 5) -> Poly:
    """Small random polynomial with rational coefficients."""
    p = Poly.zero()
    for _ in range(rng.randint(1, terms)):
        d = rng.randint(0, max_degree)
        ex = rng.randint(0, d)
        ey = rng.randint(0, d - ex)
        ez = d - ex - ey
        num = rng.randint(-9, 9)
        den = rng.randint(1, 4)
        p = p + Poly.monomial((ex, ey, ez), Fraction(num, den))
    return p


def self_checks(seed: int) -> list[CheckResult]:
    """Seeded spot checks of the arithmetic core run alongside the corpus:
    five rounds of ring axioms, then five of exact division."""
    rng = random.Random(seed)
    results = []
    for i in range(5):
        p = random_poly(rng)
        q = random_poly(rng)
        r = random_poly(rng)
        ok = (p * (q + r)) == (p * q + p * r) and (p * q) * r == p * (q * r)
        results.append(
            CheckResult("self-check", f"seed={seed}", f"ring-axioms-{i}", "True", str(ok), ok)
        )
    for i in range(5):
        p = random_poly(rng)
        q = random_poly(rng)
        if q.is_zero():
            q = _poly.ONE
        back = _poly.exact_divide(p * q, q)
        ok = back is not None and back == p
        results.append(
            CheckResult("self-check", f"seed={seed}", f"divide-mul-{i}", "True", str(ok), ok)
        )
    return results


# -- the runner -----------------------------------------------------------------


def run_corpus(
    entries: tuple[CorpusEntry, ...] | None = None,
    pairs: tuple[PairExpectation, ...] | None = None,
    seed: int | None = None,
) -> list[CheckResult]:
    """Check every expectation at both DEFAULT_PARAMS points, in corpus order."""
    entries = CORPUS if entries is None else entries
    pairs = PAIRS if pairs is None else pairs
    results: list[CheckResult] = []
    for e in entries:
        for ps in DEFAULT_PARAMS:
            for fact in e.facts:
                results.append(check_fact(e.name, fact, ps))
    for pair in pairs:
        for ps in DEFAULT_PARAMS:
            results.append(check_pair(pair, ps))
    if seed is not None:
        results.extend(self_checks(seed))
    return results


# -- corpus files ----------------------------------------------------------------


def _objects(raw, what: str) -> list[dict]:
    if not isinstance(raw, list) or not all(isinstance(item, dict) for item in raw):
        raise CorpusError(f"corpus file {what} must be a list of objects")
    return raw


def _known(name, table: dict, kind: str) -> str:
    """name, when it is a string naming an item of table."""
    if not isinstance(name, str) or name not in table:
        raise CorpusError(f"corpus file names unknown {kind} {name!r}")
    return name


def load_corpus(path: str) -> tuple[tuple[CorpusEntry, ...], tuple[PairExpectation, ...]]:
    """Read a corpus file; unknown names or malformed shapes raise CorpusError.

    Curve names are checked against CURVES, and the point names of pair
    cycles and of cusp and singular-point facts against POINTS.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc
    if not isinstance(data, dict) or data.get("schema") != CORPUS_SCHEMA:
        raise CorpusError(f"corpus file {path} must declare \"schema\": {CORPUS_SCHEMA}")
    entries = []
    for raw in _objects(data.get("entries", []), "entries"):
        name = _known(raw.get("name"), CURVES, "curve")
        facts = []
        for f in _objects(raw.get("facts", []), f"facts of {name}"):
            if "key" not in f or "value" not in f:
                raise CorpusError(f"corpus file facts of {name} each need a \"key\" and a \"value\"")
            key, value = str(f["key"]), _norm(f["value"])
            if key in ("cusp", "singular-point"):
                _known(value, POINTS, "point")
            facts.append(ExpectedFact(key, value, str(f.get("basis", "file"))))
        entries.append(CorpusEntry(name, str(raw.get("summary", "")), tuple(facts)))
    pairs = []
    for raw in _objects(data.get("pairs", []), "pairs"):
        left = _known(raw.get("left"), CURVES, "curve")
        right = _known(raw.get("right"), CURVES, "curve")
        cycle = raw.get("cycle", [])
        if not isinstance(cycle, list) or not all(
            isinstance(c, list) and len(c) == 2 and isinstance(c[1], int) for c in cycle
        ):
            raise CorpusError(f"corpus file cycle of {left} * {right} must list [point, number] pairs")
        pairs.append(
            PairExpectation(
                left,
                right,
                tuple((_known(nm, POINTS, "point"), m) for nm, m in cycle),
                str(raw.get("basis", "file")),
            )
        )
    if not entries and not pairs:
        logger.warning("corpus file %s contains no expectations", path)
    return tuple(entries), tuple(pairs)
