"""Embedded resolution of rational curve singularities by blowing up.

The resolver follows one unibranch germ through a tower of point blowups
in exact local coordinates, recording the multiplicity at every center and
the exceptional curves through it, and stopping at the first moment the
total transform is simple normal crossings: the strict transform is
smooth, meets exactly one exceptional curve, and meets it transversally
away from corners.  That moment is read off the blowup record (a blowup
of multiplicity 1 whose new curve is the only one through the next
center), so the last strict transform is never formed.

The order and the tangent direction of each germ come from the germ
reader in `curves` (`germ_order`, `cone_direction`), where
NotUnibranchError is defined: multibranch germs (nodes, tacnodes, ...)
raise it.  The delta invariant and genus are still available for them
through the general infinitely-near-point recursion used by genus_of.
"""

from dataclasses import asdict, dataclass, field
from fractions import Fraction

from . import uniroots
from .curves import (
    CurveError,
    NotUnibranchError,
    PlaneCurve,
    ProjPoint,
    SingularLocus,
    cone_coefficients,
    cone_direction,
    find_rational_singular_points,
    germ_at,
    germ_order,
    multiplicity_at,
    projection_vertex,
    tangent_contact,
)
from .dualgraph import WeightedDualGraph
from .poly import ONE, Poly, X, Y, exact_divide


class ResolutionIncompleteError(CurveError):
    """Normal crossings not reached within the bound: the germ is not reduced."""

    def __init__(self, steps_done: int):
        super().__init__(f"normal crossings not reached within {steps_done} blowups")
        self.steps_done = steps_done


@dataclass(frozen=True)
class BlowupRecord:
    index: int
    multiplicity: int
    label: str
    center_on: tuple[str, ...]


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
        self.delta = sum(k * (k - 1) // 2 for k in seq)
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


def blow_up_once(g: Poly, m: int, r: Fraction | None) -> Poly:
    """Strict transform of a germ of multiplicity m at the origin under one
    blowup, in the chart of tangent direction y = r*x (vertical x = 0 when r
    is None).  The point of that direction is again the origin.

    The total transform is an exponent relabel of g's terms: x^a*y^b goes to
    x^a*y^(a+b) in the vertical chart and to x^(a+b)*y^b in the chart
    y = r*x.  Dividing out the m-th power of the exceptional variable is a
    shift of exponents that fails exactly when g has order below m, and only
    r != 0 then needs a substitution, y -> y + r.
    """
    if r is None:
        moved, exc_var = Poly._of({(a, a + b, 0): k for (a, b, _), k in g._num.items()}, g._den), Y
    else:
        moved, exc_var = Poly._of({(a + b, b, 0): k for (a, b, _), k in g._num.items()}, g._den), X
    strict = exact_divide(moved, exc_var ** m)
    assert strict is not None, "total transform must be divisible by the m-th power"
    return strict.substitute((X, Y + r, ONE)) if r else strict


def minimal_embedded_resolution(curve: PlaneCurve, point: ProjPoint) -> ResolutionResult:
    """Resolve one singular point of a curve by iterated point blowups
    until the total transform is simple normal crossings.

    The stop test is read off the record.  The germ is one branch, so its
    strict transform meets the new exceptional curve at one point only,
    with intersection number the multiplicity m just blown up.  It is
    therefore smooth and transversal to that curve exactly when m = 1, and
    the total transform is normal crossings as soon as, in addition, no
    older exceptional curve passes through that point.  The strict
    transform is formed only when another blowup follows.

    A reduced unibranch germ of a degree-d curve stops within
    (d - 1)(d - 2) + 1 blowups.  Let k be the number of centres of
    multiplicity >= 2 and m_k the last of those.  After the k-th blowup C'
    is smooth and meets E_k at one point with intersection m_k.  The later
    centres are proximate to E_k, each of multiplicity 1, so by the
    proximity equality there are exactly m_k of them (Casas-Alvero,
    *Singularities of Plane Curves*, ch. 3): n = k + m_k.  The k nonzero
    terms of 2 delta = sum m_i(m_i - 1) are each >= 2 and the last is
    >= m_k, so n <= 2 delta + 1.  A unibranch point lies on one component,
    of degree d' <= d and genus (d' - 1)(d' - 2)/2 - delta >= 0, so
    2 delta <= (d - 1)(d - 2).  A germ still going at the bound is not
    reduced (a PlaneCurve built without make_curve): that raises
    ResolutionIncompleteError.
    """
    g = germ_at(curve.poly, point)
    if g.is_zero():
        raise CurveError("the defining polynomial vanishes identically at the chart")
    m = germ_order(g)
    if m == 0:
        raise CurveError("point does not lie on the curve")
    if m < 2:
        raise CurveError("point is a smooth point; nothing to resolve")

    d = curve.degree
    records: list[BlowupRecord] = []
    # The exceptional curves through the center, newest first, each with
    # the chart axis it lies on: 0 for x = 0, 1 for y = 0.  The axes differ,
    # so at most two curves pass through a center.
    exc: list[tuple[str, int]] = []

    for index in range(1, (d - 1) * (d - 2) + 2):
        label = f"E{index}"
        m = germ_order(g)
        r = cone_direction(g, m)
        # The new curve is the axis y = 0 of the vertical chart and x = 0
        # of the others.  An old one reaches the next center only as the
        # other axis: x = 0 in the vertical chart, y = 0 in the chart r = 0.
        axis = 1 if r is None else 0
        kept = [(lab, a) for lab, a in exc if a != axis and (r is None or r == 0)]
        records.append(BlowupRecord(index, m, label, tuple(lab for lab, _ in exc)))
        exc = [(label, axis)] + kept
        if m == 1 and len(exc) == 1:
            return ResolutionResult(point=point, degree=d, records=records)
        g = blow_up_once(g, m, r)
    raise ResolutionIncompleteError(len(records))


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

    `res`, the resolution of a one-point locus, gives delta from its
    multiplicity sequence, sum m(m-1)/2, with no second walk over the
    blowups.
    """
    d = curve.degree
    g = (d - 1) * (d - 2) // 2
    if res is not None:
        g -= res.delta
    else:
        for point, _ in locus.points:
            g -= delta_invariant(germ_at(curve.poly, point))
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


def _unibranch_resolution(curve: PlaneCurve, point: ProjPoint) -> ResolutionResult | None:
    """The resolution of a singular point; None when it has several branches."""
    try:
        return minimal_embedded_resolution(curve, point)
    except NotUnibranchError:
        return None


def classify(curve: PlaneCurve) -> ClassificationReport:
    """Decide where a curve sits relative to the sharp bounds for
    unicuspidal curves of genus one.

    Verdicts: AMS when the strict transform has square 6 and the cusp
    tangent meets the curve only at the cusp; NON_AMS_MAX at the sharp
    value 3; NON_AMS below it; OUT_OF_SCOPE for everything that is not
    unicuspidal of genus one; ALARM when computed invariants land in a
    combination the bounds exclude (a would-be counterexample, worth
    rechecking by hand).

    The most singular coordinate vertex, the centre of the singular
    search's first frame, is resolved before the search when it has
    multiplicity >= 2 and one branch: the search divides a factor read off
    its delta out of its eliminant, and when the locus is that one point,
    its resolution is the cusp's.
    """
    vertex = projection_vertex(curve)
    res = _unibranch_resolution(curve, vertex) if multiplicity_at(curve, vertex) >= 2 else None
    known = None if res is None else (vertex, res.delta)
    locus = find_rational_singular_points(curve, known).require_rational()
    d = curve.degree
    if len(locus.points) != 1:
        res = None
    elif locus.points[0][0] != vertex:
        res = _unibranch_resolution(curve, locus.points[0][0])
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
