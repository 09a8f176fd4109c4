"""Embedded resolution of rational curve singularities by blowing up.

The resolver follows one unibranch germ through point blowups in exact
local coordinates, recording the multiplicity at every center and the
exceptional curves through it, and stops at the first moment the total
transform is simple normal crossings, read off the record, so the last
strict transform is never formed.  The walk lives in `curves`
(`germ_walk`): the singular search walks every point it returns and keeps
the walks on the locus (`SingularLocus.walks`).  A point's walk is its
record, of the resolution for one branch, and sum m(m-1)/2 over it is the
delta invariant of any germ whose repeated tangent directions are
rational.  A walk of several branches (nodes, tacnodes, ...) has no
resolution: NotUnibranchError.
"""

from dataclasses import asdict, dataclass, field

from . import curves, poly
from .curves import (
    BlowupRecord,
    CurveError,
    GermWalk,
    NotUnibranchError,
    PlaneCurve,
    ProjPoint,
    SingularLocus,
    delta_of,
    find_rational_singular_points,
    germ_at,
    germ_order,
    germ_walk,
    intersection_cycle,
    make_curve,
    tangent_line,
)
from .dualgraph import WeightedDualGraph
from .poly import Poly

# perfbench's tracer reads the chart map of `curves.germ_walk`, and the
# division inside it, under these names (ROADMAP item 3).
blow_up_once = curves.blow_up_once
exact_divide = poly.exact_divide


@dataclass
class ResolutionResult:
    """Minimal embedded resolution of one singular point: its blowup record.

    The rest is derived from the record here: the sequences, delta =
    sum m(m-1)/2, (C')^2 = d^2 - sum m^2, the last curve D0, which C' meets,
    and the dual graph, the fold of `WeightedDualGraph.blow_up` plus C' on D0.
    """

    point: ProjPoint
    degree: int
    records: list[BlowupRecord]
    multiplicity_sequence: tuple[int, ...] = field(init=False)
    full_sequence: tuple[int, ...] = field(init=False)
    delta: int = field(init=False)
    graph: WeightedDualGraph = field(init=False)
    d0: str = field(init=False)
    strict_self_intersection: int = field(init=False)

    def __post_init__(self) -> None:
        seq = tuple(r.multiplicity for r in self.records)
        self.full_sequence = seq
        self.multiplicity_sequence = tuple(k for k in seq if k >= 2)
        self.delta = delta_of(self.records)
        self.strict_self_intersection = self.degree ** 2 - sum(k * k for k in seq)
        self.d0 = self.records[-1].label
        self.graph = WeightedDualGraph()
        for r in self.records:
            self.graph.blow_up(r.label, r.center_on)
        self.graph.add_vertex("C'", self.strict_self_intersection)
        self.graph.add_edge("C'", self.d0)

    def as_json(self) -> dict:
        return {
            "point": self.point.as_json(),
            "degree": self.degree,
            "multiplicity_sequence": list(self.multiplicity_sequence),
            "full_sequence": list(self.full_sequence),
            "delta": self.delta,
            "strict_self_intersection": self.strict_self_intersection,
            "d0": self.d0,
            "graph": self.graph.to_json(),
            "blowups": [asdict(r) for r in self.records],
        }


def minimal_embedded_resolution(curve: PlaneCurve, point: ProjPoint) -> ResolutionResult:
    """Resolve one singular point of a curve by point blowups until the
    total transform is simple normal crossings: the walk of its germ,
    `curves.germ_walk`, holds the stop rule and the bound on the blowups."""
    g = germ_at(curve.poly, point)
    m = germ_order(g)
    if m == 0:
        raise CurveError("point does not lie on the curve")
    if m < 2:
        raise CurveError("point is a smooth point; nothing to resolve")
    return _resolved(point, curve.degree, germ_walk(g, curve.degree))


def locus_resolution(curve: PlaneCurve, locus: SingularLocus) -> ResolutionResult:
    """The minimal embedded resolution of the one point of a one-point
    locus, read off the search's walk of it (`SingularLocus.walks`)."""
    point = locus.points[0][0]
    return _resolved(point, curve.degree, locus.walks[point])


def _resolved(point: ProjPoint, degree: int, walk: GermWalk) -> ResolutionResult:
    """The resolution a walk records; NotUnibranchError unless one branch."""
    if walk.split is not None:
        raise NotUnibranchError(walk.split)
    return ResolutionResult(point, degree, walk.records)


# -- delta invariant and genus ---------------------------------------------


def delta_invariant(g: Poly) -> int:
    """Delta invariant of a germ at the origin, sum m(m-1)/2 over its walk
    (`curves.germ_walk`, bounded by the germ's own degree), for any germ
    whose repeated tangent directions stay rational; CurveError when one
    leaves Q, as the walk cannot follow its conjugates exactly."""
    return germ_walk(g, g.total_degree()).delta


def _genus(curve: PlaneCurve, locus: SingularLocus) -> int:
    """Arithmetic genus minus the delta invariants of the locus, each read
    off the search's walk of its point (`SingularLocus.walks`)."""
    d = curve.degree
    g = (d - 1) * (d - 2) // 2 - sum(locus.walks[point].delta for point, _ in locus.points)
    if g < 0:
        raise CurveError(
            "negative genus: the curve is reducible or the locus is wrong"
        )
    return g


# -- classification -----------------------------------------------------------


VERDICT_AMS = "AMS"
VERDICT_NON_AMS_MAX = "NON_AMS_MAX"
VERDICT_NON_AMS = "NON_AMS"
VERDICT_OUT_OF_SCOPE = "OUT_OF_SCOPE"
VERDICT_ALARM = "ALARM"


@dataclass
class ClassificationReport:
    """Full dossier for the unicuspidal-genus-one classification.

    `resolution` is the cusp's minimal embedded resolution, None unless the
    curve is unicuspidal; the cusp, its sequences and (C')^2 are read off it.
    """

    degree: int
    genus: int
    singular_points: list[tuple[ProjPoint, int]]
    resolution: ResolutionResult | None = None
    tangent_contact_only: bool | None = None
    verdict: str = VERDICT_OUT_OF_SCOPE
    notes: list[str] = field(default_factory=list)

    def as_json(self) -> dict:
        res = self.resolution
        return {
            "degree": self.degree,
            "genus": self.genus,
            "singular_points": [
                {"P": p.as_json(), "multiplicity": m} for p, m in self.singular_points
            ],
            "unicuspidal": res is not None,
            "cusp": res.point.as_json() if res else None,
            "multiplicity_sequence": list(res.multiplicity_sequence) if res else None,
            "full_sequence": list(res.full_sequence) if res else None,
            "strict_self_intersection": res.strict_self_intersection if res else None,
            "tangent_contact_only": self.tangent_contact_only,
            "verdict": self.verdict,
            "notes": self.notes,
        }


def classify(curve: PlaneCurve) -> ClassificationReport:
    """Decide where a curve sits relative to the sharp bounds for
    unicuspidal curves of genus one.

    Verdicts: AMS when the strict transform has square 6 and the cusp
    tangent meets the curve only at the cusp; NON_AMS_MAX at the sharp
    value 3; NON_AMS below it; OUT_OF_SCOPE for everything that is not
    unicuspidal of genus one; ALARM when computed invariants land in a
    combination the bounds exclude (a would-be counterexample, worth
    rechecking by hand).

    The one point of a one-point locus is resolved by `locus_resolution`,
    and the genus is read off the same walks: the search walked every
    point of the locus once, and no point is walked again.  The cusp's
    tangent T is read off the walk too (`tangent_line`), and as the local
    numbers of C.T add up to d, T meets C only at the cusp P exactly when
    the rational cycle of C.T, a restriction to T, is (P, d) alone.
    """
    locus = find_rational_singular_points(curve).require_rational()
    d = curve.degree
    res = None
    if len(locus.points) == 1:
        try:
            res = locus_resolution(curve, locus)
        except NotUnibranchError:
            pass
    genus = _genus(curve, locus)

    report = ClassificationReport(
        degree=d,
        genus=genus,
        singular_points=list(locus.points),
        resolution=res,
    )
    if len(locus.points) != 1:
        report.notes.append(
            "needs exactly one singular point; found "
            f"{len(locus.points)}"
        )
        return report
    if res is None:
        report.notes.append("the singular point is not a cusp (several branches)")
        return report

    tangent = make_curve(tangent_line(res.point, locus.walks[res.point].tangent))
    contact_only = intersection_cycle(curve, tangent).points == [(res.point, d)]
    report.tangent_contact_only = contact_only

    if genus != 1:
        report.verdict = VERDICT_OUT_OF_SCOPE
        report.notes.append(f"genus {genus} is out of scope (need 1)")
        return report

    sq = res.strict_self_intersection
    if sq > 6 or sq in (4, 5):
        report.verdict = VERDICT_ALARM
        report.notes.append(
            f"self-intersection {sq} contradicts the sharp bounds (only <=3 or exactly 6 occur)"
        )
    elif sq == 6 and contact_only:
        report.verdict = VERDICT_AMS
    elif sq == 6:
        report.verdict = VERDICT_ALARM
        report.notes.append(
            "square 6 without full tangent contact contradicts the equality case"
        )
    elif contact_only:
        report.verdict = VERDICT_ALARM
        report.notes.append(
            f"full tangent contact forces square 6, but the square is {sq}"
        )
    elif sq == 3:
        report.verdict = VERDICT_NON_AMS_MAX
    else:
        report.verdict = VERDICT_NON_AMS
    return report
