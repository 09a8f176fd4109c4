import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unicusp import curves, resolution, uniroots
from unicusp.cli import main
from unicusp.corpus import DEFAULT_PARAMS, analysis, curve_by_name, param_set
from unicusp.curves import (
    PlaneCurve,
    ProjPoint,
    ResolutionIncompleteError,
    _local_numbers,
    IntersectionCycle,
    chart_of,
    find_rational_singular_points,
    germ_at,
    germ_order,
    germ_walk,
    intersection_cycle,
    make_curve,
    tangent_directions,
    tangent_line,
)
from unicusp.dualgraph import WeightedDualGraph
from unicusp.fibers import intersection_matrix
from unicusp.parse import parse_poly
from unicusp.poly import ONE, Poly, X, Y, Z, exact_divide, poly_to_text
from unicusp.resolution import (
    BlowupRecord,
    NotUnibranchError,
    ResolutionResult,
    VERDICT_ALARM,
    VERDICT_AMS,
    VERDICT_NON_AMS,
    VERDICT_NON_AMS_MAX,
    VERDICT_OUT_OF_SCOPE,
    classify,
    delta_invariant,
    minimal_embedded_resolution,
)
from unicusp.curves import CurveError

ORIGIN = ProjPoint.of(0, 0, 1)
Q = ProjPoint.of(0, 1, 0)
CUSP_CUBIC = make_curve(Y**2 * Z - X**3)


def _edge_mult(g, a, b):
    """Multiplicity of the edge a-b, 0 when there is none."""
    return dict(g.neighbors(a)).get(b, 0)


def test_ordinary_cusp_resolution():
    res = minimal_embedded_resolution(CUSP_CUBIC, ORIGIN)
    assert res.multiplicity_sequence == (2,)
    assert res.full_sequence == (2, 1, 1)
    assert res.delta == 1
    assert len(res.records) == 3
    # the last curve extracted meets the two older ones and the strict transform
    g = res.graph
    assert g.weight("E1") == -3
    assert g.weight("E2") == -2
    assert g.weight("E3") == -1
    assert _edge_mult(g, "E3", "E1") == 1
    assert _edge_mult(g, "E3", "E2") == 1
    assert _edge_mult(g, "E1", "E2") == 0
    assert res.d0 == "E3"
    assert _edge_mult(g, "C'", "E3") == 1
    # 9 - 4 - 1 - 1
    assert res.strict_self_intersection == 3


def test_ramphoid_cusp_sequence():
    # y^2 = x^5 at the origin
    curve = make_curve(Y**2 * Z**3 - X**5)
    res = minimal_embedded_resolution(curve, ORIGIN)
    assert res.multiplicity_sequence == (2, 2)
    assert res.delta == 2


def test_higher_cusp_e8():
    # y^3 = x^5: delta = (3-1)(5-1)/2 = 4
    curve = make_curve(Y**3 * Z**2 - X**5)
    res = minimal_embedded_resolution(curve, ORIGIN)
    assert res.multiplicity_sequence == (3, 2)
    assert res.delta == 4


def test_node_raises_not_unibranch():
    node = make_curve(Y**2 * Z - X**2 * (X + Z))
    with pytest.raises(NotUnibranchError):
        minimal_embedded_resolution(node, ORIGIN)


def test_tacnode_raises_not_unibranch():
    # y^2 = x^4: two tangent smooth branches; the split shows up one level down
    tac = make_curve(Y**2 * Z**2 - X**4)
    with pytest.raises(NotUnibranchError):
        minimal_embedded_resolution(tac, ORIGIN)


def test_smooth_point_rejected():
    with pytest.raises(CurveError):
        minimal_embedded_resolution(CUSP_CUBIC, ProjPoint.of(1, 1, 1))


def test_off_curve_point_rejected():
    with pytest.raises(CurveError):
        minimal_embedded_resolution(CUSP_CUBIC, ProjPoint.of(1, 7, 1))


def test_step_limit_certifies_minimality():
    # n = #(m >= 2) + m_last <= 2 delta + 1 <= (d - 1)(d - 2) + 1: the bound
    # in minimal_embedded_resolution, on the corpus cusps and the seeded ones
    # (the AMS family checks it in tests/test_ams_family.py)
    cases = [(curve_by_name(name, ps), CUSPS[name]) for ps in TEST_POINTS for name in sorted(CUSPS)]
    rng = random.Random(9090)
    cases += [(make_curve(_seeded_cusp(rng)), ORIGIN) for _ in range(60)]
    for curve, point in cases:
        res = minimal_embedded_resolution(curve, point)
        ms, d = res.multiplicity_sequence, curve.degree
        delta = _delta_reference(germ_at(curve.poly, point))
        assert len(res.records) == len(ms) + ms[-1] <= 2 * delta + 1 <= (d - 1) * (d - 2) + 1, curve.poly


def test_delta_invariants():
    node_germ = germ_at(Y**2 * Z - X**2 * (X + Z), ORIGIN)
    assert delta_invariant(node_germ) == 1
    cusp_germ = germ_at(CUSP_CUBIC.poly, ORIGIN)
    assert delta_invariant(cusp_germ) == 1
    tac_germ = germ_at(Y**2 * Z**2 - X**4, ORIGIN)
    assert delta_invariant(tac_germ) == 2
    a6_germ = germ_at(Y**2 * Z**5 - X**7, ORIGIN)
    assert delta_invariant(a6_germ) == 3


def test_genus():
    assert classify(make_curve(X**3 + Y**3 + Z**3)).genus == 1
    assert classify(CUSP_CUBIC).genus == 0
    assert classify(make_curve(Y**2 * Z - X**3 - X**2 * Z)).genus == 0  # nodal
    assert classify(make_curve(X * Z - Y**2)).genus == 0


def test_classify_out_of_scope_genus_zero():
    report = classify(CUSP_CUBIC)
    assert report.resolution is not None
    assert report.genus == 0
    assert report.verdict == VERDICT_OUT_OF_SCOPE


def test_classify_smooth_curve():
    report = classify(make_curve(X**3 + Y**3 + Z**3))
    assert report.resolution is None
    assert report.verdict == VERDICT_OUT_OF_SCOPE


def test_classify_ams_quartic():
    quartic = make_curve((Y * Z + X**2) ** 2 - X**3 * Z + X * Z**3)
    report = classify(quartic)
    assert report.genus == 1
    res = report.resolution
    assert res.point == ProjPoint.of(0, 1, 0)
    assert res.multiplicity_sequence == (2, 2)
    assert res.strict_self_intersection == 6
    assert report.tangent_contact_only
    assert report.verdict == VERDICT_AMS


def test_classify_carries_resolution():
    quartic = make_curve((Y * Z + X**2) ** 2 - X**3 * Z + X * Z**3)
    report = classify(quartic)
    res = report.resolution
    assert res is not None
    assert res.full_sequence == (2, 2, 1, 1)
    # frozen dual graph: E1(-2) - E2(-3) - E4(-1) - E3(-2), strict transform on E4
    g = res.graph
    assert [g.weight(f"E{i}") for i in (1, 2, 3, 4)] == [-2, -3, -2, -1]
    assert _edge_mult(g, "E1", "E2") == 1
    assert _edge_mult(g, "E2", "E4") == 1
    assert _edge_mult(g, "E3", "E4") == 1
    assert _edge_mult(g, "C'", "E4") == 1
    assert res.d0 == "E4"


def test_exceptional_chain_shape_after_removing_last():
    # dropping the final (-1)-curve must leave exactly two chains,
    # one of which contains the only weight <= -3 vertex
    quartic = make_curve((Y * Z + X**2) ** 2 - X**3 * Z + X * Z**3)
    res = classify(quartic).resolution
    g = res.graph.copy()
    g.remove_vertex("C'")
    g.remove_vertex(res.d0)
    comps = []
    seen = set()
    for v in g.vertices:
        if v in seen:
            continue
        stack, comp = [v], set()
        while stack:
            u = stack.pop()
            if u in comp:
                continue
            comp.add(u)
            stack.extend(w for w, _ in g.neighbors(u))
        seen |= comp
        comps.append(comp)
    assert len(comps) == 2
    deep = [c for c in comps if any(g.weight(v) <= -3 for v in c)]
    assert len(deep) == 1


def test_classify_rejects_negative_genus():
    # three lines: three nodes take away more than the arithmetic genus
    with pytest.raises(CurveError, match="negative genus"):
        classify(make_curve(X * Y * Z))


def test_classify_reads_delta_off_a_unibranch_resolution(monkeypatch):
    # A one-point unibranch locus takes delta = sum m(m-1)/2 from the
    # resolution's record, and every other point, such as the nodal
    # cubic's node at its projection vertex, from the search's walk of it;
    # delta_invariant walks no point.  The search walks each of the three
    # nodes of xyz = 0 once: its vertex (0 : 1 : 0) first, the other two
    # after the points are found.
    ps = DEFAULT_PARAMS[1]
    cusps = [curve_by_name(name, ps) for name in sorted(CUSPS)] + [CUSP_CUBIC]
    points = [CUSPS[name] for name in sorted(CUSPS)] + [ORIGIN]
    genera = [
        (c.degree - 1) * (c.degree - 2) // 2 - _delta_reference(germ_at(c.poly, p)) for c, p in zip(cusps, points)
    ]
    nodal = make_curve(Y**2 * Z - X**3 - X**2 * Z)
    walked = []
    real = resolution.delta_invariant

    def counted(g):
        walked.append(g)
        return real(g)

    monkeypatch.setattr(resolution, "delta_invariant", counted)
    for curve, genus in zip(cusps, genera):
        report = classify(curve)
        res = report.resolution
        assert res is not None and report.genus == genus
        assert res.delta == sum(m * (m - 1) // 2 for m in res.full_sequence)
    assert walked == []
    report = classify(nodal)
    assert report.resolution is None and report.genus == 0
    assert report.notes == ["the singular point is not a cusp (several branches)"]
    assert walked == []
    calls = _resolution_spy(monkeypatch)
    lines = make_curve(X * Y * Z)
    with pytest.raises(CurveError, match="negative genus"):
        classify(lines)
    nodes = [ProjPoint.of(0, 1, 0), ORIGIN, ProjPoint.of(1, 0, 0)]
    assert calls == [germ_at(lines.poly, q) for q in nodes]
    assert walked == []


def _chain_records(ms) -> list[BlowupRecord]:
    return [BlowupRecord(i + 1, m, f"E{i + 1}", (f"E{i}",) if i else ()) for i, m in enumerate(ms)]


@pytest.mark.parametrize(
    "ms, contact, verdict, notes",
    [
        ((2, 2, 1), 4, VERDICT_ALARM,
         ["self-intersection 7 contradicts the sharp bounds (only <=3 or exactly 6 occur)"]),
        ((2, 2, 2), 3, VERDICT_ALARM,
         ["self-intersection 4 contradicts the sharp bounds (only <=3 or exactly 6 occur)"]),
        ((2, 2, 1, 1, 1), 3, VERDICT_ALARM,
         ["self-intersection 5 contradicts the sharp bounds (only <=3 or exactly 6 occur)"]),
        ((2, 2, 1, 1), 3, VERDICT_ALARM,
         ["square 6 without full tangent contact contradicts the equality case"]),
        ((2, 2, 2, 1), 4, VERDICT_ALARM, ["full tangent contact forces square 6, but the square is 3"]),
        ((2, 2, 2, 1, 1), 3, VERDICT_NON_AMS, []),
    ],
)
def test_classify_verdict_table(monkeypatch, ms, contact, verdict, notes):
    # (C')^2 = 16 - sum m^2 on the quartic, genus 1, and the tangent's
    # line cycle, the contact at the cusp and the rest unlocated, each set
    # by hand; the rest is classify's table
    curve, cusp = curve_by_name("cusp-quartic", DEFAULT_PARAMS[0]), CUSPS["cusp-quartic"]
    res = ResolutionResult(cusp, curve.degree, _chain_records(ms))
    monkeypatch.setattr(resolution, "locus_resolution", lambda c, locus: res)
    monkeypatch.setattr(resolution, "_genus", lambda *args: 1)
    cycle = IntersectionCycle([(cusp, contact)], curve.degree - contact, curve.degree)
    monkeypatch.setattr(resolution, "intersection_cycle", lambda *args: cycle)
    report = classify(curve)
    assert report.resolution is res and report.genus == 1
    assert report.tangent_contact_only is (contact == curve.degree)
    assert (report.verdict, report.notes) == (verdict, notes)


def test_delta_gives_up_on_an_irrational_repeated_tangent(capsys):
    # two branches tangent to y = sqrt(2) x and to y = -sqrt(2) x
    assert main(["analyze", "(y^2 - 2*x^2)^2*z + x^5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: repeated tangent direction outside Q; delta invariant not computable exactly\n"


IRRATIONAL = "repeated tangent direction outside Q; delta invariant not computable exactly"


def test_an_irrational_double_direction_keeps_the_search(capsys):
    # The cone (y^2 - 2x^2)^2 of the projection vertex (0 : 0 : 1) is the
    # square of two conjugate lines.  The search walks that point and
    # finds it; only the readers of delta refuse it, and the resolution
    # refuses it as a germ of several branches.
    text = "(y^2 - 2*x^2)^2*z + x^5"
    curve = make_curve((Y**2 - 2 * X**2) ** 2 * Z + X**5)
    locus = find_rational_singular_points(curve)
    assert (locus.points, locus.blockers) == ([(ORIGIN, 4)], [])
    g = germ_at(curve.poly, ORIGIN)
    for fn, arg in ((classify, curve), (delta_invariant, g), (_delta_reference, g)):
        with pytest.raises(CurveError) as info:
            fn(arg)
        assert str(info.value) == IRRATIONAL, fn.__name__
    with pytest.raises(NotUnibranchError):
        minimal_embedded_resolution(curve, ORIGIN)
    assert main(["resolve", text]) == 1
    assert capsys.readouterr().err == "error: tangent cone is not the power of a single line; the germ splits\n"


def test_a_germ_that_is_not_reduced_ends_at_the_bound():
    # Under each blowup in the direction y = 0, y^2 gives y^2 back, so its
    # walk never ends; the bound of its degree, (2 - 1)(2 - 2) + 1 = 1
    # point, stops delta_invariant, and 21 stops the doubled cusp's germ,
    # of degree 6.  classify on a curve built without make_curve, a doubled
    # conic and a line, stops in the search's walk of its vertex.
    for g, steps in ((Y**2, 1), ((Y**2 - X**3) ** 2, 21)):
        with pytest.raises(ResolutionIncompleteError) as info:
            delta_invariant(g)
        assert info.value.steps_done == steps
    with pytest.raises(ResolutionIncompleteError) as info:
        classify(PlaneCurve((X * Z - Y**2) ** 2 * X, 5))
    assert info.value.steps_done == 4 * 3 + 1


def test_a_chain_of_two_branches_has_no_resolution():
    # x(y^2 z - x^3) at (0 : 0 : 1): the cone x*y^2 has the simple direction
    # of the line x = 0 and the double one of the cusp, so the walk is the
    # chain (3, 1, 1), which ends at multiplicity 1; yet the germ has two
    # branches, and delta = 0 + 1 + I(x, y^2 - x^3) = 3.
    curve = make_curve(X * (Y**2 * Z - X**3))
    g = germ_at(curve.poly, ORIGIN)
    walk = curves.germ_walk(g, curve.degree)
    assert [r.multiplicity for r in walk.records] == [3, 1, 1]
    assert walk.split == "tangent cone has several directions; the germ is not one branch"
    with pytest.raises(NotUnibranchError, match="several directions"):
        minimal_embedded_resolution(curve, ORIGIN)
    assert walk.delta == delta_invariant(g) == _delta_reference(g) == 3
    locus = find_rational_singular_points(curve)
    assert locus.walks[ORIGIN] == walk


def _seeded_germ(rng: random.Random) -> tuple[list[Poly], Poly]:
    """One to three branches through the origin, one with probability
    1/2, and their product.  Each is (y - J(x))**a - c*x**b with a and b
    coprime, one branch (x = t**a, y - J = c**(1/a) * t**b), where J is
    the germ's jet j1*x + j2*x**2 + j3*x**3 cut after a random order, so
    that branches share jets; distinct ones make a reduced germ."""
    jet = [rng.randint(-2, 2) for _ in range(3)]
    branches = []
    for _ in range(rng.choice((1, 1, 1, 2, 2, 3))):
        k = rng.randint(1, 3)
        a = rng.choice((1, 2, 2, 3))
        b = rng.choice([b for b in range(a + 1, a + 5) if math.gcd(a, b) == 1])
        y = Y - sum((c * X ** (i + 1) for i, c in enumerate(jet[:k])), Poly())
        branches.append(y**a - rng.choice((-1, 1, 2, 3)) * X**b)
    return branches, math.prod(branches, start=ONE)


def test_the_walk_matches_the_recursion_on_seeded_germs():
    # delta from the walk against the recursion, on 1000 reduced germs of
    # degree d, about half of them multibranch; the walk is one branch
    # exactly when the germ is, and stays within (d - 1)(d - 2) + 1
    # points, which a smooth germ of degree 1 or 2 (1 point) and a cusp of
    # degree 3 ((2, 1, 1)) reach.
    rng = random.Random(2024)
    germs, multibranch, at_bound = 0, 0, []
    while germs < 1000:
        branches, g = _seeded_germ(rng)
        if len(set(branches)) < len(branches):
            continue
        germs += 1
        d = g.total_degree()
        walk = curves.germ_walk(g, d)
        assert walk.delta == _delta_reference(g), g
        assert (walk.split is None) == (len(branches) == 1), g
        assert len(walk.records) <= (d - 1) * (d - 2) + 1, g
        multibranch += len(branches) > 1
        if len(walk.records) == (d - 1) * (d - 2) + 1:
            at_bound.append(d)
    assert 400 <= multibranch <= 600
    assert set(at_bound) == {1, 2, 3}


# -- the genus-one identity -----------------------------------------------------


@pytest.mark.parametrize("ps", DEFAULT_PARAMS, ids=lambda ps: ps.label)
@pytest.mark.parametrize(
    "name, three_d, total, square",
    [("cusp-quartic", 12, 6, 6), ("image-quintic", 15, 12, 3), ("image-deg15", 45, 42, 3)],
)
def test_genus_one_square_is_three_d_minus_full_sequence(name, three_d, total, square, ps):
    # For a unicuspidal curve of genus one, sum m_i(m_i - 1) = 2 delta =
    # (d-1)(d-2) - 2 fixes sum m_i^2 = d^2 - 3d + sum m_i over the full
    # sequence, so (C')^2 = d^2 - sum m_i^2 = 3d - sum m_i.
    report = analysis(name, ps)["report"]
    res = report.resolution
    assert report.genus == 1 and res is not None
    assert 3 * res.degree == three_d
    assert sum(res.full_sequence) == total
    assert res.strict_self_intersection == three_d - total == square


# -- the stop rule against the loop that forms every strict transform --------


def _is_transverse(g: Poly, exc_lin: Poly) -> bool:
    a1 = g.terms.get((1, 0, 0), Fraction(0))
    b1 = g.terms.get((0, 1, 0), Fraction(0))
    a2 = exc_lin.terms.get((1, 0, 0), Fraction(0))
    b2 = exc_lin.terms.get((0, 1, 0), Fraction(0))
    return a1 * b2 - a2 * b1 != 0


def _blow_up_once_reference(g: Poly, m: int, r: Fraction | None) -> Poly:
    """The chart map as a product image and an exact division by the m-th
    power of the exceptional variable: the oracle for blow_up_once."""
    if r is None:
        moved, exc_var = g.substitute((X * Y, Y, ONE)), Y
    else:
        moved, exc_var = g.substitute((X, X * (Y + r), ONE)), X
    strict = exact_divide(moved, exc_var ** m)
    assert strict is not None, "total transform must be divisible by the m-th power"
    return strict


def _delta_reference(g: Poly) -> int:
    """Delta invariant of a germ at the origin by recursion over its
    infinitely near points: m(m-1)/2, plus the delta of the strict
    transform (formed by `_blow_up_once_reference`) at each direction of
    multiplicity >= 2, vertical first; CurveError when a repeated
    direction leaves Q.  The oracle for the germ walk's delta, free of its
    stack, its stop rule and its bound."""
    m = germ_order(g)
    if m <= 1:
        return 0
    total = m * (m - 1) // 2
    coeffs = curves.cone_coefficients(g, m)
    t = max(k for k, c in enumerate(coeffs) if c)
    if m - t >= 2:
        total += _delta_reference(_blow_up_once_reference(g, m, None))
    roots, leftover = uniroots.rational_roots_int(coeffs[: t + 1])
    for r, mu in roots.items():
        if mu >= 2:
            total += _delta_reference(_blow_up_once_reference(g, m, r))
    if uniroots.deg(leftover) > uniroots.deg(uniroots.squarefree_part_int(leftover)):
        raise CurveError("repeated tangent direction outside Q; delta invariant not computable exactly")
    return total


def _transform_old_exceptional_reference(lin: Poly, r: Fraction | None) -> Poly | None:
    """Strict transform germ of an old exceptional line through the blown-up
    point; None when it no longer passes through the new center."""
    a = lin.terms.get((1, 0, 0), Fraction(0))
    b = lin.terms.get((0, 1, 0), Fraction(0))
    if r is None:
        # new chart (u, v) -> (uv, v); through the origin iff lin ~ u
        return X if b == 0 else None
    # new chart (u, v) -> (u, u(v + r)); through the origin iff a + b*r = 0
    return Y if a + b * r == 0 else None


def _resolution_reference(curve, point) -> dict:
    """The resolution loop that forms every strict transform and stops when
    the last one is smooth and transversal to the only exceptional curve
    through its point: the oracle for minimal_embedded_resolution, which
    reads the stop off the blowup record instead.

    It builds its own graph, sequences and invariants along the way, not by
    folding its records, and returns them in the shape of `as_json`.
    """
    g = germ_at(curve.poly, point)
    if g.is_zero():
        raise CurveError("the defining polynomial vanishes identically at the chart")
    if g.terms.get((0, 0, 0)):
        raise CurveError("point does not lie on the curve")
    if germ_order(g) < 2:
        raise CurveError("point is a smooth point; nothing to resolve")

    limit = (curve.degree - 1) * (curve.degree - 2) + 1
    graph = WeightedDualGraph()
    records: list[BlowupRecord] = []
    seq: list[int] = []
    exc: list[tuple[str, Poly]] = []

    while True:
        m = germ_order(g)
        if m == 1 and len(exc) == 1 and _is_transverse(g, exc[0][1]):
            break
        if len(records) >= limit:
            raise ResolutionIncompleteError(len(records))
        index = len(records) + 1
        label = f"E{index}"
        dirs, _ = tangent_directions(g, m)
        if len(dirs) != 1 or dirs[0][1] != m:
            raise NotUnibranchError("tangent cone is not the power of a single line")
        r = dirs[0][0]
        strict = _blow_up_once_reference(g, m, r)
        graph.add_vertex(label, -1)
        centers = tuple(lab for lab, _ in exc)
        for lab, _ in exc:
            graph.bump_weight(lab, -1)
            graph.add_edge(label, lab)
        if len(exc) == 2:
            graph.remove_edge(exc[0][0], exc[1][0])
        new_exc: list[tuple[str, Poly]] = [(label, Y if r is None else X)]
        for lab, lin in exc:
            t = _transform_old_exceptional_reference(lin, r)
            if t is not None:
                new_exc.append((lab, t))
        if len(new_exc) > 2:
            raise CurveError("more than two exceptional curves through a center")
        records.append(BlowupRecord(index, m, label, centers))
        seq.append(m)
        g = strict
        exc = new_exc

    d0 = exc[0][0]
    sq = curve.degree ** 2 - sum(k * k for k in seq)
    graph.add_vertex("C'", sq)
    graph.add_edge("C'", d0)
    return {
        "point": point.as_json(),
        "degree": curve.degree,
        "multiplicity_sequence": [k for k in seq if k >= 2],
        "full_sequence": seq,
        "delta": sum(k * (k - 1) // 2 for k in seq),
        "strict_self_intersection": sq,
        "d0": d0,
        "graph": graph.to_json(),
        "blowups": [dataclasses.asdict(r) for r in records],
    }


def _resolved_json(*args) -> dict:
    return minimal_embedded_resolution(*args).as_json()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CurveError as exc:
        return (type(exc).__name__, str(exc))


CUSPS = {
    "rational-quintic": ProjPoint.of(0, 0, 1),
    "image-quintic": ProjPoint.of(0, 0, 1),
    "image-deg15": ProjPoint.of(0, 0, 1),
    "cusp-quartic": ProjPoint.of(0, 1, 0),
}
TEST_POINTS = DEFAULT_PARAMS + (param_set("-2/3", "3/2", 1), param_set(3, "-1/3", -2))


@pytest.mark.parametrize("ps", TEST_POINTS, ids=lambda ps: ps.label)
@pytest.mark.parametrize("name", sorted(CUSPS))
def test_stop_rule_matches_reference_on_corpus_cusps(name, ps):
    curve = curve_by_name(name, ps)
    res = minimal_embedded_resolution(curve, CUSPS[name])
    assert res.as_json() == _resolution_reference(curve, CUSPS[name])
    _assert_exceptional_part_unimodular(res.graph)
    assert res.delta == _delta_reference(germ_at(curve.poly, CUSPS[name]))


def _milnor_number(curve, point) -> int:
    """mu_P = I_P(F_i, F_j) for the chart (i, j) at P: the dehomogenised
    partials are the partials of the local equation.  No blowup is made."""
    i, j = chart_of(point)
    return dict(_local_numbers(curve.poly.partial(i), curve.poly.partial(j)))[point]


@pytest.mark.parametrize("ps", TEST_POINTS, ids=lambda ps: ps.label)
@pytest.mark.parametrize("name", sorted(CUSPS))
def test_milnor_number_is_twice_delta_on_corpus_cusps(name, ps):
    # 2 delta = mu + r - 1 (Milnor 1968, Thm 10.5), with r = 1 branch
    curve, point = curve_by_name(name, ps), CUSPS[name]
    delta = minimal_embedded_resolution(curve, point).delta
    assert _milnor_number(curve, point) == 2 * delta == 2 * _delta_reference(germ_at(curve.poly, point))


def _search_frame(curve, vertex) -> Poly:
    """F in the frame that the singular search takes when a coordinate
    vertex is its projection vertex: the vertex swapped to
    Q = (0 : 1 : 0), then its tangent moved to z = 0."""
    v = vertex.coords().index(1)
    swap = tuple(tuple(int(k == {1: v, v: 1}.get(r, r)) for k in range(3)) for r in range(3))
    f = curves._apply_matrix(curve.poly, swap)
    return curves._apply_matrix(f, curves._tangent_frame(germ_walk(germ_at(f, Q), f.total_degree()).tangent))


def _assert_certificate_contact(curve, cusp) -> None:
    # I_Q(F_z, F) = mu + m - 1 = 2 delta + m - 1 (Teissier's lemma, with
    # x = 0 transversal to the tangent z = 0), the number behind the cut
    # k1 = 2 delta - (m - 1)^2 of the search's certificate; mu = I_Q(F_x, F_z)
    # = 2 delta is the one behind k0.
    f = _search_frame(curve, cusp)
    delta = _delta_reference(germ_at(f, Q))
    m = germ_order(germ_at(f, Q))
    assert dict(_local_numbers(f.partial(2), f))[Q] == 2 * delta + m - 1, curve.poly
    assert dict(_local_numbers(f.partial(0), f.partial(2)))[Q] == 2 * delta, curve.poly


@pytest.mark.parametrize("ps", TEST_POINTS, ids=lambda ps: ps.label)
@pytest.mark.parametrize("name", sorted(CUSPS))
def test_the_certificate_pair_meets_at_the_cusp_by_teissier_on_corpus_cusps(name, ps):
    _assert_certificate_contact(curve_by_name(name, ps), CUSPS[name])


def test_the_certificate_pair_meets_at_the_cusp_by_teissier_on_seeded_cusps():
    # the 60 seeded cusps under each of SLOPES: the tangent move with
    # q = 1 and with q = 2
    rng = random.Random(9090)
    seeded = [_seeded_cusp(rng) for _ in range(60)]
    for image in SLOPES:
        for f in seeded:
            _assert_certificate_contact(make_curve(f.substitute(image)), ORIGIN)


@pytest.mark.parametrize("ps", TEST_POINTS, ids=lambda ps: ps.label)
def test_milnor_number_of_the_node_counts_two_branches(ps):
    curve = curve_by_name("node-cubic", ps)
    mu = _milnor_number(curve, ORIGIN)
    assert mu == 1
    assert 2 * _delta_reference(germ_at(curve.poly, ORIGIN)) == mu + 2 - 1


@pytest.mark.parametrize("ps", TEST_POINTS, ids=lambda ps: ps.label)
@pytest.mark.parametrize(
    "name, point, branches",
    [(name, CUSPS[name], 1) for name in sorted(CUSPS)] + [("node-cubic", ORIGIN, 2)],
)
def test_genus_by_milnor_numbers(name, point, branches, ps):
    # g = (d-1)(d-2)/2 - sum_P delta_P, with 2 delta_P = mu_P + r_P - 1
    # (Milnor 1968, Thm 10.5) over the one singular point P of each curve;
    # mu_P is read in the chart at P, with no blowup and no delta_invariant
    curve = curve_by_name(name, ps)
    d, twice_delta = curve.degree, _milnor_number(curve, point) + branches - 1
    assert twice_delta % 2 == 0
    assert classify(curve).genus == (d - 1) * (d - 2) // 2 - twice_delta // 2


# y^2 with a spare factor z^(d-2), built without make_curve: a germ that is
# not reduced, which no blowup bound can resolve
DOUBLE_LINES = (PlaneCurve(Y**2 * Z, 3), PlaneCurve(Y**2 * Z**2, 4))


def test_step_limit_matches_reference():
    want = ("ResolutionIncompleteError", "normal crossings not reached within 3 blowups")
    assert _outcome(_resolved_json, DOUBLE_LINES[0], ORIGIN) == want
    assert _outcome(_resolution_reference, DOUBLE_LINES[0], ORIGIN) == want


def test_the_bound_admits_a_cusp_past_a_hundred_blowups(capsys):
    # y^2 = x^199 (A_198): 99 blowups of multiplicity 2, then 2 of multiplicity 1
    assert main(["resolve", "y^2*z^197 - x^199", "--point", "0,0,1"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[:2] == [
        "resolved curve at (0 : 0 : 1) in 101 blowups",
        f"multiplicity sequence {(2,) * 99}",
    ]


def test_step_budget_is_the_default_limit():
    # the only limit is the bound (d - 1)(d - 2) + 1 that the degree gives
    for curve in DOUBLE_LINES:
        with pytest.raises(ResolutionIncompleteError) as info:
            minimal_embedded_resolution(curve, ORIGIN)
        d = curve.degree
        assert info.value.steps_done == (d - 1) * (d - 2) + 1 == {3: 3, 4: 7}[d]


COPRIME_PAIRS = (
    (2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (3, 7),
    (4, 5), (2, 9), (3, 8), (5, 6), (4, 7), (5, 7),
)


# the tangent y = 0 of a seeded cusp, and its images of slope -2 and -3/2
SLOPES = ((X, Y, Z), (X, Y + 2 * X, Z), (X, 2 * Y + 3 * X, Z))


def _seeded_cusp(rng: random.Random) -> Poly:
    """y^a z^(b-a) - x^b plus up to four terms above its Newton polygon,
    sheared by x -> x + c*y: one branch at the origin, of degree b."""
    a, b = rng.choice(COPRIME_PAIRS)
    f = Y**a * Z ** (b - a) - X**b
    above = [(i, j) for i in range(b + 1) for j in range(b + 1 - i) if i * a + j * b > a * b]
    for i, j in rng.sample(above, min(len(above), rng.randint(0, 4))):
        f = f + (rng.randint(1, 5) * rng.choice((-1, 1))) * X**i * Y**j * Z ** (b - i - j)
    c = rng.randint(-3, 3)
    return f.substitute((X + c * Y, Y, Z))


def test_stop_rule_matches_reference_on_seeded_cusps():
    rng = random.Random(9090)
    origin = ProjPoint.of(0, 0, 1)
    resolved = 0
    for _ in range(60):
        curve = make_curve(_seeded_cusp(rng))
        got = _outcome(_resolved_json, curve, origin)
        assert got == _outcome(_resolution_reference, curve, origin), curve.poly
        if isinstance(got, dict):
            resolved += 1
            assert got["delta"] == _delta_reference(germ_at(curve.poly, origin))
    assert resolved == 60


def test_the_cut_eliminant_is_the_uncut_one_on_seeded_cusps(cut_eliminants):
    # Each seeded cusp sits at its projection vertex with the tangent line
    # y = 0, which the swap of y and z makes z = 0 in the search frame;
    # the same curves under y -> y + 2x have the tangent y + 2x = 0, which
    # the tangent move takes from z = -2x to z = 0, and under
    # y -> 2y + 3x the tangent z = -(3/2)x, which it moves with x -> 2x.
    # classify's locus is the direct search's, and both searches cut.
    rng = random.Random(9090)
    seeded = [_seeded_cusp(rng) for _ in range(60)]
    cuts = []
    for image in SLOPES:
        for f in seeded:
            curve = make_curve(f.substitute(image))
            assert classify(curve).singular_points == curves.find_rational_singular_points(curve).points
        cuts.append(len(cut_eliminants))
        cut_eliminants.clear()
    # Each curve is searched twice, by classify and directly.  Per search,
    # the certificate's image of the first pair takes a cut where k0 > 0
    # (27, 29 and 29 of the 60 curves), and that of the second one where
    # k1 > 0 (58 of each 60).  A pair with a partial free of y forms no
    # resultant, so it takes no cut: that partial is its image.  Where the
    # certificate fails, on a second singular point or on a common zero of
    # the pairs that is not singular, the exact e1 takes k0 again (20, 22
    # and 22 of the curves with k0 > 0), and the second image is reused:
    # 2 * (27 + 58 + 20) = 210, 2 * (29 + 58 + 22) = 218.
    assert cuts == [210, 218, 218]


def _rational_zeros(eqs: list, gens: tuple) -> tuple[list[tuple], bool]:
    """The rational common zeros of sympy expressions in the variables
    `gens`, which have finitely many common zeros, and whether some common
    zero is irrational.  The lex Groebner basis holds one generator of the
    elimination ideal in the last variable: its linear factors over Q give
    the rational values of that coordinate, each substituted back into the
    basis, and a factor of higher degree gives an irrational zero."""
    import sympy

    if not gens:
        return ([()] if not any(eqs) else []), False
    basis = sympy.groebner(eqs, *gens, order="lex").exprs
    last = gens[-1]
    (elim,) = [g for g in basis if g.free_symbols <= {last}]
    zeros, irrational = [], False
    for factor, _ in sympy.factor_list(elim, last)[1]:
        if sympy.degree(factor, last) > 1:
            irrational = True
            continue
        (r,) = sympy.solve(factor, last)
        rest, more = _rational_zeros([g.subs(last, r) for g in basis], gens[:-1])
        zeros += [zero + (r,) for zero in rest]
        irrational |= more
    return zeros, irrational


def _singular_points_by_sympy(f: Poly) -> tuple[list[ProjPoint], bool]:
    """The rational singular points of f, sorted, and whether f has an
    irrational one, from sympy alone: the common zeros of the three
    partials in the charts z = 1, then y = 1 on z = 0, then the point
    (1 : 0 : 0), which cover P^2 once."""
    import sympy

    x, y, z = sympy.symbols("x y z")
    form = sympy.sympify(poly_to_text(f).replace("^", "**"))
    partials = [form.diff(v) for v in (x, y, z)]
    points, irrational = [], False
    charts = (
        ({z: 1}, (x, y), lambda a, b: (a, b, 1)),
        ({z: 0, y: 1}, (x,), lambda a: (a, 1, 0)),
        ({z: 0, y: 0, x: 1}, (), lambda: (1, 0, 0)),
    )
    for fixed, gens, point in charts:
        zeros, more = _rational_zeros([sympy.expand(p.subs(fixed)) for p in partials], gens)
        points += [ProjPoint.of(*(Fraction(str(c)) for c in point(*zero))) for zero in zeros]
        irrational |= more
    return sorted(points, key=ProjPoint.coords), irrational


def _oracle_cases() -> list:
    from unicusp import corpus

    cases = [
        pytest.param(curve_by_name(name, ps), id=f"{name}@{ps.label}")
        for ps in DEFAULT_PARAMS
        for name in corpus.CURVES
        if curve_by_name(name, ps).degree <= 5
    ]
    # two cubics whose first pair has a partial free of y, and one whose
    # line z = 0 through the centre holds the second singular point
    for text in ("y^2*z - x^3 + 3*x*z^2 - 2*z^3", "y*z^2 - x^3", "z*(x*y - z^2)"):
        cases.append(pytest.param(make_curve(parse_poly(text)), id=text))
    rng = random.Random(9090)
    for i in range(60):
        cases.append(pytest.param(make_curve(_seeded_cusp(rng)), id=f"seeded-cusp-{i}"))
    return cases


@pytest.mark.parametrize("curve", _oracle_cases())
def test_the_search_finds_every_singular_point_sympy_finds(curve):
    # Completeness, from outside the package: sympy's lex Groebner bases
    # of the partials give the rational singular points, which must be
    # the certified locus's, and an irrational one must be a blocker.
    locus = find_rational_singular_points(curve)
    points, irrational = _singular_points_by_sympy(curve.poly)
    assert [q for q, _ in locus.points] == points
    assert bool(locus.blockers) == irrational


def test_the_walked_tangent_line_cycle_matches_the_eliminant_on_seeded_cusps():
    # The seeded cusp of order m and degree d at (0 : 0 : 1) has the
    # tangent y = 0, which meets it there only: no term x**i*z**(d - i)
    # with i < d lies above its Newton polygon.  Adding one with m < i < d
    # keeps the cone y**m and lowers the contact to i.  A form pulled back
    # by a substitution has the tangent pulled back by it: y -> y + 2x and
    # y -> 2y + 3x give the slopes -2 and -3/2, and the six permutations
    # of (x, y, z) put the cusp at each coordinate vertex, with the tangent
    # on either axis of its chart (vertical or horizontal).  The walk's
    # tangent direction, made a line by tangent_line, is the pulled-back
    # tangent, and its line cycle, the restriction that classify reads,
    # gives the contact known by construction; I_P(C, T) read off the
    # eliminant, _local_numbers(F, T), is the oracle.  The cycle is (P, d)
    # alone exactly when the contact is d.  A lowered cusp whose new term
    # splits the germ (y^2 = x^4 + ...) has no walked tangent: its walk's
    # root cone is still y**m, and the line cycle reads the known tangent.
    rng = random.Random(9090)
    seeded = [(f, f.total_degree()) for f in (_seeded_cusp(rng) for _ in range(60))]
    lowered = []
    for f, d in seeded:
        m = germ_order(germ_at(f, ORIGIN))
        if m + 1 < d:
            i = rng.randint(m + 1, d - 1)
            lowered.append((f + X**i * Z ** (d - i), i))
    cases = [(f, image, ORIGIN, want) for image in SLOPES for f, want in seeded + lowered]
    for perm in ((X, Y, Z), (Y, X, Z), (X, Z, Y), (Z, X, Y), (Y, Z, X), (Z, Y, X)):
        # F(perm) has the cusp at the vertex that z goes to
        cusp = ProjPoint.of(*(int(v == perm[2]) for v in (X, Y, Z)))
        cases += [(f, perm, cusp, want) for f, want in seeded[:20] + lowered[:20]]
    full = walked = 0
    for f, image, point, want in cases:
        curve, tangent = make_curve(f.substitute(image)), make_curve(Y.substitute(image))
        walk = germ_walk(germ_at(curve.poly, point), curve.degree)
        if walk.split is None:
            assert make_curve(tangent_line(point, walk.tangent)) == tangent, (curve.poly, point)
            walked += 1
        else:
            assert want < curve.degree, (curve.poly, point)  # only a lowered cusp splits
        cycle = intersection_cycle(curve, tangent).points
        got = dict(cycle)[point]
        assert got == want == dict(_local_numbers(curve.poly, tangent.poly))[point], (curve.poly, point)
        assert got > germ_order(germ_at(curve.poly, point))
        assert (cycle == [(point, curve.degree)]) == (want == curve.degree)
        full += want == curve.degree
    assert (len(seeded), len(lowered), len(cases), full, walked) == (60, 45, 555, 300, 486)


def test_classify_asks_the_line_cycle_and_forms_no_germ(monkeypatch):
    # The contact check reads the search's walk and restricts the curve to
    # the tangent line once: no eliminant, and no germ beyond the ones the
    # search itself forms.
    def unreachable(*args):
        raise AssertionError("the contact check formed an eliminant")

    def counted(name):
        real = getattr(curves, name)

        def spy(*args):
            calls[name] += 1
            return real(*args)

        return spy

    calls = {"germ_at": 0, "_line_numbers": 0}
    for name in calls:
        monkeypatch.setattr(curves, name, counted(name))
    monkeypatch.setattr(curves, "_local_numbers", unreachable)
    want = {
        "cusp-quartic": (VERDICT_AMS, True),
        "image-deg15": (VERDICT_NON_AMS_MAX, False),
        "image-quintic": (VERDICT_NON_AMS_MAX, False),
        "rational-quintic": (VERDICT_OUT_OF_SCOPE, False),
    }
    for ps in DEFAULT_PARAMS:
        for name in CUSPS:
            curve = curve_by_name(name, ps)
            find_rational_singular_points(curve)
            searched = dict(calls)
            report = classify(curve)
            assert calls == {"germ_at": 2 * searched["germ_at"], "_line_numbers": searched["_line_numbers"] + 1}
            assert (report.verdict, report.tangent_contact_only) == want[name]
            for key in calls:
                calls[key] = 0


def _resolution_spy(monkeypatch) -> list:
    """The germs that the germ walk, `germ_walk`, follows: the search
    calls it from `curves` for every point it returns, and
    minimal_embedded_resolution (`resolve --point`) and delta_invariant
    (called by nothing in the package) from `resolution`."""
    calls = []
    real = curves.germ_walk

    def counted(g, d):
        calls.append(g)
        return real(g, d)

    for module in (curves, resolution):
        monkeypatch.setattr(module, "germ_walk", counted)
    return calls


def test_classify_resolves_a_cusp_at_the_vertex_once(monkeypatch):
    # The search walks the cusp at its projection vertex, finds it alone,
    # and classify reads the cusp's resolution off that walk.
    calls = _resolution_spy(monkeypatch)
    for ps in DEFAULT_PARAMS:
        for name, point in sorted(CUSPS.items()):
            calls.clear()
            curve = curve_by_name(name, ps)
            assert classify(curve).resolution.point == point
            assert calls == [germ_at(curve.poly, point)], name


@pytest.mark.parametrize("name", sorted(CUSPS))
def test_a_cusp_moved_off_the_vertex_keeps_its_report(name, monkeypatch):
    # Under this map of PGL(3) no vertex of the image is a singular point,
    # so the search walks no vertex and runs without the cut; it walks the
    # cusp once, after mapping it back, and classify resolves it off that
    # walk.  The report is the unmoved one, its points mapped by M.
    ps = DEFAULT_PARAMS[0]
    m = ((1, 1, 2), (1, 2, 1), (2, 1, 1))
    curve = curve_by_name(name, ps)
    moved = make_curve(curves._apply_matrix(curve.poly, m))
    calls = _resolution_spy(monkeypatch)
    want = classify(curve)
    calls.clear()
    report = classify(moved)
    assert calls == [germ_at(moved.poly, report.resolution.point)]
    assert curves._map_point(m, report.resolution.point) == want.resolution.point
    assert [(curves._map_point(m, q), k) for q, k in report.singular_points] == want.singular_points
    got, expected = report.as_json(), want.as_json()
    for key in ("singular_points", "cusp"):
        del got[key], expected[key]
    assert got == expected


def test_a_node_at_the_vertex_takes_the_search_without_the_cut(monkeypatch, cut_eliminants):
    # The nodal cubic's node is the vertex (0 : 0 : 1): the search's walk
    # ends at the first cone, of two lines, the search forms no cut
    # eliminant, classify does not walk the node again, and the report is
    # the one for a node.
    calls = _resolution_spy(monkeypatch)
    nodal = make_curve(Y**2 * Z - X**3 - X**2 * Z)
    report = classify(nodal)
    assert (report.singular_points, report.resolution, report.genus) == ([(ORIGIN, 2)], None, 0)
    assert report.notes == ["the singular point is not a cusp (several branches)"]
    assert calls == [germ_at(nodal.poly, ORIGIN)]
    assert cut_eliminants == []


def test_classify_walks_a_node_off_the_vertex_once(monkeypatch):
    # Moved off the coordinate vertices, the nodal cubic's node is no
    # projection vertex: the search walks it once, after mapping it back,
    # and classify reads both the refused resolution and delta off that
    # walk.
    m = ((1, 1, 2), (1, 2, 1), (2, 1, 1))
    moved = make_curve(curves._apply_matrix(Y**2 * Z - X**3 - X**2 * Z, m))
    calls = _resolution_spy(monkeypatch)
    report = classify(moved)
    assert (report.resolution, report.genus) == (None, 0)
    assert report.notes == ["the singular point is not a cusp (several branches)"]
    [(node, k)] = report.singular_points
    assert k == 2 and curves._map_point(m, node) == ORIGIN
    assert calls == [germ_at(moved.poly, node)]


def test_the_commands_walk_each_singular_point_once(monkeypatch, capsys):
    # On the corpus, the corpus moved off the coordinate vertices and
    # xyz = 0, classify and resolve without --point each walk
    # every singular point once, in the search, whether they succeed or
    # refuse the curve, and none of them calls delta_invariant.
    from unicusp import corpus
    from unicusp.poly import poly_to_text

    m = ((1, 1, 2), (1, 2, 1), (2, 1, 1))
    cases = [make_curve(X * Y * Z)]
    for ps in DEFAULT_PARAMS:
        for name in corpus.CURVES:
            curve = curve_by_name(name, ps)
            cases += [curve, make_curve(curves._apply_matrix(curve.poly, m))]
    want = [
        sorted(str(germ_at(c.poly, q)) for q, _ in find_rational_singular_points(c).points) for c in cases
    ]
    assert sum(map(len, want)) == 3 + 2 * 2 * 5

    def unreachable(*args):
        raise AssertionError("delta_invariant was called")

    calls = _resolution_spy(monkeypatch)
    monkeypatch.setattr(resolution, "delta_invariant", unreachable)
    commands = (classify, lambda c: main(["resolve", poly_to_text(c.poly)]))
    for curve, germs in zip(cases, want):
        for command in commands:
            calls.clear()
            try:
                command(curve)
            except CurveError:
                pass
            assert sorted(map(str, calls)) == germs, str(curve)
    capsys.readouterr()


def test_resolve_without_a_point_walks_each_point_once(monkeypatch, capsys):
    # resolve without --point reads a cusp at the projection vertex off the
    # search's walk, walks a cusp off the vertex once, in the search after
    # mapping it back, and fails on a node at the vertex with the walk's
    # own error.
    from unicusp.poly import poly_to_text

    ps = DEFAULT_PARAMS[0]
    m = ((1, 1, 2), (1, 2, 1), (2, 1, 1))
    moved = make_curve(curves._apply_matrix(curve_by_name("cusp-quartic", ps).poly, m))
    cases = [(f"corpus:{name}", curve_by_name(name, ps), point) for name, point in sorted(CUSPS.items())]
    cases.append((poly_to_text(moved.poly), moved, ProjPoint.of(1, -3, 1)))
    want = [json.loads(json.dumps(minimal_embedded_resolution(c, p).as_json())) for _, c, p in cases]
    calls = _resolution_spy(monkeypatch)
    for (text, curve, point), expected in zip(cases, want):
        calls.clear()
        assert main(["resolve", text, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for key in ("schema", "timing", "name", "params"):
            del payload[key]
        assert payload == expected, text
        assert calls == [germ_at(curve.poly, point)], text
    calls.clear()
    assert main(["resolve", "y^2*z - x^3 - x^2*z"]) == 1
    assert capsys.readouterr().err == "error: tangent cone is not the power of a single line; the germ splits\n"
    assert calls == [germ_at(make_curve(Y**2 * Z - X**3 - X**2 * Z).poly, ORIGIN)]


def test_the_genus_walks_each_point_once(monkeypatch):
    # classify takes the genus's delta off the search's walk of the
    # projection vertex, a cusp or the nodal cubic's node, so
    # delta_invariant walks no point.
    ps = DEFAULT_PARAMS[1]
    cases = [(curve_by_name(name, ps), point) for name, point in sorted(CUSPS.items())]
    nodal = make_curve(Y**2 * Z - X**3 - X**2 * Z)
    want = [
        (c.degree - 1) * (c.degree - 2) // 2 - _delta_reference(germ_at(c.poly, p))
        for c, p in cases + [(nodal, ORIGIN)]
    ]
    calls = _resolution_spy(monkeypatch)
    walked = []
    real = resolution.delta_invariant

    def counted(g):
        walked.append(g)
        return real(g)

    monkeypatch.setattr(resolution, "delta_invariant", counted)
    for (curve, point), genus in zip(cases, want):
        calls.clear()
        assert classify(curve).genus == genus
        assert calls == [germ_at(curve.poly, point)]
    assert walked == []
    calls.clear()
    assert classify(nodal).genus == want[-1] == 0
    assert calls == [germ_at(nodal.poly, ORIGIN)]
    assert walked == []


def test_a_non_reduced_vertex_stops_the_search():
    # (y^2 z - x^3)^2, built without make_curve: the search walks its
    # projection vertex, the doubled cusp (0 : 0 : 1), whose germ no blowup
    # bound resolves.
    curve = PlaneCurve((Y**2 * Z - X**3) ** 2, 6)
    with pytest.raises(ResolutionIncompleteError) as info:
        find_rational_singular_points(curve)
    assert info.value.steps_done == 5 * 4 + 1


# -- the fold over a record ---------------------------------------------------


def _records_of_charts(steps) -> list[BlowupRecord]:
    """The record of blowups with multiplicities m made in charts r (None
    vertical, 0, or 1 for a generic direction), with the resolution loop's
    rule for the exceptional curves through each next center."""
    records: list[BlowupRecord] = []
    exc: list[tuple[str, int]] = []
    for index, (r, m) in enumerate(steps, 1):
        label = f"E{index}"
        records.append(BlowupRecord(index, m, label, tuple(lab for lab, _ in exc)))
        axis = 1 if r is None else 0
        exc = [(label, axis)] + [(lab, a) for lab, a in exc if a != axis and (r is None or r == 0)]
    return records


def _assert_exceptional_part_unimodular(graph: WeightedDualGraph) -> None:
    """The exceptional curves' intersection matrix M is negative definite
    with determinant (-1)^n: Gaussian elimination of -M without row
    exchanges has positive pivots (Sylvester) whose product is 1."""
    exceptional = graph.copy()
    exceptional.remove_vertex("C'")
    _, mat = intersection_matrix(exceptional)
    a = [[Fraction(-v) for v in row] for row in mat]
    pivots = []
    for k in range(len(a)):
        pivots.append(a[k][k])
        assert pivots[-1] > 0
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            for j in range(k, len(a)):
                a[i][j] -= f * a[k][j]
    assert math.prod(pivots) == 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(st.sampled_from((None, 0, 1)), st.integers(1, 4)), min_size=1, max_size=20
    )
)
def test_any_record_folds_to_a_resolution_graph(steps):
    records = _records_of_charts(steps)
    res = ResolutionResult(ORIGIN, 10, records)
    _assert_exceptional_part_unimodular(res.graph)
    assert res.graph.vertices == [r.label for r in records] + ["C'"]
    assert res.d0 == records[-1].label
    assert res.graph.neighbors("C'") == [(res.d0, 1)]


# -- the chart map against the product image and exact division ----------------


def _blow_up_inputs(run) -> list[tuple[Poly, int, Fraction | None]]:
    """Every (g, m, r) that blow_up_once receives from the germ walk in
    `curves` while run() runs."""
    seen = []
    real = curves.blow_up_once

    def recorded(g, m, r):
        seen.append((g, m, r))
        return real(g, m, r)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curves, "blow_up_once", recorded)
        run()
    return seen


def _assert_charts_match_reference(inputs) -> dict[str, int]:
    cases = {"vertical": 0, "r = 0": 0, "r != 0": 0}
    for g, m, r in inputs:
        assert resolution.blow_up_once(g, m, r) == _blow_up_once_reference(g, m, r), (g, m, r)
        cases["vertical" if r is None else "r = 0" if r == 0 else "r != 0"] += 1
    _assert_charts_relabel(inputs)
    return cases


def _assert_charts_relabel(inputs) -> None:
    """The total transform is a relabel of exponents, not a product image:
    each chart map divides once, by the m-th power of the exceptional
    variable, and substitutes only for r != 0, the shift y -> y + r."""
    calls = []
    real_divide, real_substitute = curves.exact_divide, Poly.substitute

    def divide(p, q):
        calls.append(("divide", q))
        return real_divide(p, q)

    def substitute(self, images):
        calls.append(("substitute", images))
        return real_substitute(self, images)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curves, "exact_divide", divide)
        mp.setattr(Poly, "substitute", substitute)
        for g, m, r in inputs:
            calls.clear()
            resolution.blow_up_once(g, m, r)
            want = [("divide", (Y if r is None else X) ** m)]
            if r:
                want.append(("substitute", (X, Y + r, ONE)))
            assert calls == want, (g, m, r)


def test_blow_up_once_matches_reference_on_corpus_blowups():
    from unicusp.corpus import CURVES

    corpus = [curve_by_name(name, ps) for ps in DEFAULT_PARAMS for name in CURVES]
    assert len(corpus) == 24

    def run():
        for curve in corpus:
            classify(curve)

    cases = _assert_charts_match_reference(_blow_up_inputs(run))
    assert all(cases.values()), cases


def test_blow_up_once_matches_reference_on_seeded_cusps():
    rng = random.Random(9090)
    seeded = [make_curve(_seeded_cusp(rng)) for _ in range(60)]

    def run():
        for curve in seeded:
            minimal_embedded_resolution(curve, ORIGIN)

    # A seeded cusp has the one Puiseux pair (a, b), so every tangent
    # direction in its resolution is a chart axis: no shift in y occurs.
    cases = _assert_charts_match_reference(_blow_up_inputs(run))
    assert cases["vertical"] and cases["r = 0"], cases
