"""Embedded resolution of rational curve singularities by blowing up.

The resolver follows one unibranch germ through a tower of point blowups
in exact local coordinates, recording the multiplicity at every center and
the exceptional curves through it, and stopping at the first moment the
total transform is simple normal crossings: the strict transform is
smooth, meets exactly one exceptional curve, and meets it transversally
away from corners.  That moment is read off the blowup record (a blowup
of multiplicity 1 whose new curve is the only one through the next
center), so the last strict transform is never formed.

The walk and its record live in `curves` (`blowup_records`, `blow_up_once`),
beside the germ reader (`germ_order`, `cone_direction`) that gives each
centre's order and tangent direction, because the singular search walks
its projection vertex itself and keeps the record on the locus it returns.
Multibranch germs (nodes, tacnodes, ...) raise NotUnibranchError there.
The delta invariant and genus are still available for them through the
general infinitely-near-point recursion used by genus_of.
"""

from dataclasses import asdict, dataclass, field

from . import poly, uniroots
from .curves import (
    BlowupRecord,
    CurveError,
    NotUnibranchError,
    PlaneCurve,
    ProjPoint,
    SingularLocus,
    blow_up_once,
    blowup_records,
    cone_coefficients,
    delta_of,
    find_rational_singular_points,
    germ_at,
    germ_order,
    tangent_contact,
)
from .dualgraph import WeightedDualGraph
from .poly import Poly

# perfbench's tracer test reads the division inside `curves.blow_up_once`
# under this name (ROADMAP item 3).
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
    """Resolve one singular point of a curve by iterated point blowups
    until the total transform is simple normal crossings: the result of its
    record, `curves.blowup_records`, which holds the stop rule and the
    bound on the number of blowups."""
    return ResolutionResult(point, curve.degree, blowup_records(curve, point))


def locus_resolution(curve: PlaneCurve, locus: SingularLocus) -> ResolutionResult:
    """The minimal embedded resolution of the one point of a one-point
    locus, read off the search's walk when the search walked that point
    (`SingularLocus.walked`), so that no point is walked twice."""
    point = locus.points[0][0]
    records = locus.walked(point)
    if records is None:
        return minimal_embedded_resolution(curve, point)
    return ResolutionResult(point, curve.degree, records)


# -- delta invariant and genus ---------------------------------------------


def delta_invariant(g: Poly) -> int:
    """Delta invariant of a germ at the origin via infinitely near points.

    Works for any (possibly multibranch) germ whose repeated tangent
    directions stay rational all the way down; raises CurveError when a
    repeated direction leaves Q, since the contribution of its conjugates
    could not be followed exactly.
    """
    m = germ_order(g)
    if m <= 1:
        return 0
    total = m * (m - 1) // 2
    coeffs = cone_coefficients(g, m)
    t = max(k for k, c in enumerate(coeffs) if c)
    # vertical direction u = 0 with multiplicity m - t
    if m - t >= 2:
        total += delta_invariant(blow_up_once(g, m, None))
    roots, leftover = uniroots.rational_roots_int(coeffs[: t + 1])
    for r, mu in roots.items():
        if mu < 2:
            continue
        total += delta_invariant(blow_up_once(g, m, r))
    if uniroots.deg(leftover) > 0:
        sq = uniroots.squarefree_part_int(leftover)
        if uniroots.deg(sq) != uniroots.deg(leftover):
            raise CurveError(
                "repeated tangent direction outside Q; delta invariant "
                "not computable exactly"
            )
    return total


def genus_of(curve: PlaneCurve) -> int:
    """Geometric genus of an irreducible curve: the arithmetic genus minus
    the delta invariants of all singular points.

    Requires the full singular locus to be rational; raises otherwise.
    """
    return _genus(curve, find_rational_singular_points(curve).require_rational())


def _genus(curve: PlaneCurve, locus: SingularLocus, res: ResolutionResult | None = None) -> int:
    """Arithmetic genus minus the delta invariants of the locus.

    `res`, the resolution of a one-point locus, and otherwise the search's
    walk of a point (`SingularLocus.walked`), give delta from the record,
    sum m(m-1)/2, with no second walk over the blowups; the other points,
    and a walked point of several branches, take `delta_invariant`.
    """
    d = curve.degree
    g = (d - 1) * (d - 2) // 2
    for point, _ in locus.points:
        try:
            records = res.records if res is not None else locus.walked(point)
        except NotUnibranchError:
            records = None
        g -= delta_invariant(germ_at(curve.poly, point)) if records is None else delta_of(records)
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

    The one point of a one-point locus is resolved by `locus_resolution`:
    when it is the singular search's projection vertex, the search has
    already walked it, and its record is read off the locus.
    """
    locus = find_rational_singular_points(curve).require_rational()
    d = curve.degree
    res = None
    if len(locus.points) == 1:
        try:
            res = locus_resolution(curve, locus)
        except NotUnibranchError:
            pass
    genus = _genus(curve, locus, res)

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

    contact_only = tangent_contact(curve, res.point) == d
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
