import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from unicusp import uniroots
from unicusp.curves import (
    CurveError,
    ExtensionFieldSingularity,
    IntersectionCycle,
    IrrationalLocusError,
    NotUnibranchError,
    PlaneCurve,
    ProjPoint,
    SingularLocus,
    _local_numbers,
    chart_of,
    find_rational_singular_points,
    germ_at,
    germ_order,
    germ_walk,
    intersection_cycle,
    make_curve,
    repeated_factor,
    restrict_to_line,
    tangent_line,
)
from unicusp.corpus import DEFAULT_PARAMS, curve_by_name, param_set
from unicusp.parse import parse_poly
from unicusp.poly import (
    ONE,
    Poly,
    X,
    Y,
    Z,
    content_wrt,
    exact_divide,
    form_resultant_int,
    gcd,
    normalized,
    poly_to_text,
    proportional,
    resultant_wrt,
    squarefree_witness,
    strip_factors,
)

F = Fraction
CONIC = make_curve(X * Z - Y**2)
CUSP_CUBIC = make_curve(Y**2 * Z - X**3)
NODE_CUBIC = make_curve(Y**2 * Z - X**2 * (X + Z))


def test_make_curve_validation():
    with pytest.raises(CurveError):
        make_curve(Poly.zero())
    with pytest.raises(CurveError):
        make_curve(X**2 + Y)  # not homogeneous
    with pytest.raises(CurveError):
        make_curve(Poly.const(5))
    with pytest.raises(CurveError):
        make_curve((X + Y) ** 2)  # not squarefree


def test_repeated_factor_contract():
    assert repeated_factor(X * Z - Y**2) is None
    w = repeated_factor((X + Y) ** 2 * Z)
    assert w is not None and not w.is_constant()
    # a subtle one: square hidden inside a product
    assert repeated_factor((X * Z - Y**2) ** 2 * (X + Z)) is not None


def clear_denominators(a: list[Fraction]) -> list[int]:
    """The coefficients times the lcm of their denominators."""
    den = math.lcm(*(Fraction(c).denominator for c in a))
    return [int(Fraction(c) * den) for c in a]


def test_clear_denominators():
    assert clear_denominators([F(1, 2), F(1, 3)]) == [3, 2]


def _eval_y(q: Poly, t: int) -> list[Fraction]:
    out = [Fraction(0)] * (q.degree_in(0) + 1)
    for e, c in q.terms.items():
        out[e[0]] += c * Fraction(t) ** e[1]
    return out


def _to_univariate(p: Poly, v: int) -> list[Fraction]:
    """Coefficient list (low to high) of a polynomial in v alone."""
    out = [Fraction(0)] * (max(p.degree_in(v), 0) + 1)
    for e, c in p.terms.items():
        out[e[v]] = c
    return out


def _repeated_factor_reference(p: Poly) -> Poly | None:
    """The parent's repeated_factor: Res_x(q, q_x) over Q at y = 0, 1, -1,
    ..., by the Fraction Euclid of uniroots.resultant_q."""
    work = p
    for i in range(3):
        k = min(e[i] for e in work.terms)
        if k >= 2:
            return Poly.variable(i)
        if k == 1:
            work = exact_divide(work, Poly.variable(i))
    q = work.substitute((X, Y, ONE))
    if q.is_constant():
        return None
    if q.degree_in(0) == 0:
        coeffs = clear_denominators(_to_univariate(q, 1))
        if uniroots.deg(uniroots.gcd_int(coeffs, uniroots.derivative(coeffs))) > 0:
            return normalized(squarefree_witness(p))
        return None
    cont = content_wrt(q, 0)
    if not cont.is_constant():
        cs = clear_denominators(_to_univariate(cont, 1))
        if uniroots.deg(uniroots.gcd_int(cs, uniroots.derivative(cs))) > 0:
            return normalized(squarefree_witness(p))
        q = exact_divide(q, cont)
    qx = q.partial(0)
    lead = q.coeffs_wrt(0)[q.degree_in(0)]
    dy = max(v.degree_in(1) for v in q.coeffs_wrt(0).values())
    bound = (2 * q.degree_in(0) - 1) * dy + 1
    zeros = 0
    t = 0
    while zeros <= bound:
        for cand in ((t, -t) if t else (0,)):
            if lead.evaluate((0, cand, 0)) == 0:
                continue
            if uniroots.resultant_q(_eval_y(q, cand), _eval_y(qx, cand)) != 0:
                return None
            zeros += 1
            if zeros > bound:
                break
        t += 1
    return normalized(squarefree_witness(p))


def _assert_repeated_factor_agrees(p: Poly) -> Poly | None:
    got = repeated_factor(p)
    want = _repeated_factor_reference(p)
    assert got == want, poly_to_text(p)
    return got


def _seeded_params(seed: int, count: int) -> list:
    """Parameter points with a, b, c nonzero and a smooth Weierstrass cubic."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a, b, c = (F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3))
        if a and b and c and 4 * a**3 + 27 * b**2:
            out.append(param_set(a, b, c))
    return out


CORPUS_POINTS = DEFAULT_PARAMS + tuple(_seeded_params(1124, 2))


@pytest.mark.parametrize("ps", CORPUS_POINTS, ids=lambda ps: ps.label)
def test_repeated_factor_matches_reference_on_the_corpus(ps):
    from unicusp import corpus

    for name in corpus.CURVES:
        assert _assert_repeated_factor_agrees(curve_by_name(name, ps).poly) is None, name


@pytest.mark.parametrize("ps", CORPUS_POINTS, ids=lambda ps: ps.label)
def test_repeated_factor_matches_reference_on_strict_transforms(ps):
    from unicusp import corpus
    from unicusp.cremona import pullback, quintic_involution

    involution = quintic_involution(ps.c)
    conic, line_z = curve_by_name("conic", ps), curve_by_name("line-z", ps)
    witnesses = 0
    for name in corpus.CURVES:
        curve = curve_by_name(name, ps)
        for m, exceptional in ((involution, conic), (corpus.squaring_map(), line_z)):
            total = pullback(m, curve)
            stripped = strip_factors(total, [exceptional.poly])
            if not stripped.is_constant():
                # What strict_transform hands to repeated_factor.
                assert _assert_repeated_factor_agrees(stripped) is None, name
            if total.total_degree() <= 10:
                # Unstripped, the pullback keeps powers of the conic, and the
                # witness names each repeated factor once.
                got = repeated_factor(total)
                assert (got is None) == (_repeated_factor_reference(total) is None), name
                want = _repeated_factors_by_sympy(total)
                assert (got is None) == (want is None), name
                if got is not None:
                    assert proportional(got, want), name
                    witnesses += 1
    assert witnesses >= 2


def _repeated_factors_by_sympy(p: Poly) -> Poly | None:
    """The product of the factors of p of multiplicity >= 2, each taken
    once, from sympy's squarefree factorization; None when p has none."""
    import sympy

    x, y, z = sympy.symbols("x y z")
    _, parts = sympy.sqf_list(sympy.sympify(poly_to_text(p).replace("^", "**")), x, y, z)
    repeated = [base for base, k in parts if k >= 2]
    if not repeated:
        return None
    terms = sympy.Poly(sympy.Mul(*repeated), x, y, z).terms()
    return Poly({e: Fraction(int(c.p), int(c.q)) for e, c in terms})


def _random_form(rng: random.Random, d: int) -> Poly:
    p = Poly.zero()
    while p.is_zero() or p.total_degree() != d:
        for _ in range(rng.randint(1, 4)):
            a = rng.randint(0, d)
            b = rng.randint(0, d - a)
            p = p + Poly.monomial((a, b, d - a - b), F(rng.randint(-9, 9), rng.randint(1, 4)))
    return p


def test_repeated_factor_matches_reference_on_random_products():
    # Res_x(q, q_x) misses (y + 1)**2, and Res_y(q, q_y) misses (x + 3)**2.
    for p in ((Y + Z) ** 2 * (X * Z - Y**2), (X + 3 * Z) ** 2 * (X * Z - Y**2)):
        assert _assert_repeated_factor_agrees(p) is not None
    rng = random.Random(5150)
    seen = {True: 0, False: 0}
    for _ in range(30):
        f, g = _random_form(rng, rng.randint(1, 3)), _random_form(rng, rng.randint(1, 2))
        got = [_assert_repeated_factor_agrees(p) for p in (f * g, f * g * Z, f * g**2, g**2 * f * X)]
        assert got[2] is not None and got[3] is not None
        for w in got:
            seen[w is None] += 1
    assert seen[True] >= 20 and seen[False] >= 20


def test_repeated_factor_decides_by_the_gcd_when_every_image_is_zero(monkeypatch):
    calls = []

    def zero(a, b, m):
        calls.append(m)
        return 0

    monkeypatch.setattr(uniroots, "resultant_mod_p", zero)
    assert repeated_factor(X * Z - Y**2) is None
    assert repeated_factor(CUSP_CUBIC.poly) is None
    assert repeated_factor(X**3 + Y**3 + Z**3 + F(1, 2) * X * Y * Z) is None
    assert calls
    square = (X * Z - Y**2) ** 2 * (X + Z)
    w = repeated_factor(square)
    assert w is not None and proportional(w, X * Z - Y**2)
    monkeypatch.undo()
    assert repeated_factor(square) == w


def _tangent_line_reference(curve, point):
    """The tangent line at a point, read off the tangent cone without the
    germ walk: the cone over its squarefree witness must be a line whose
    m-th power is the cone."""
    g = germ_at(curve.poly, point)
    m = min(a + b + c for (a, b, c) in g.terms)
    if m == 0:
        raise CurveError("point does not lie on the curve")
    cone = Poly({e: k for e, k in g.terms.items() if sum(e) == m})
    w = squarefree_witness(cone)
    line = cone if w.is_constant() else exact_divide(cone, w)
    assert line is not None
    if line.total_degree() != 1:
        raise CurveError("tangent cone is not a power of a single line")
    if m >= 2 and not (line ** m) * cone.lead_coeff() == cone * (line ** m).lead_coeff():
        raise CurveError("tangent cone is not a power of a single line")
    i, j = chart_of(point)
    a = line.terms.get((1, 0, 0), Fraction(0))
    b = line.terms.get((0, 1, 0), Fraction(0))
    coords = point.coords()
    vi, vj, vk = Poly.variable(i), Poly.variable(j), Poly.variable(3 - i - j)
    form = a * (vi - coords[i] * vk) + b * (vj - coords[j] * vk)
    return make_curve(form)


def _intersection_number(c1, c2, point):
    return dict(intersection_cycle(c1, c2).points).get(point, 0)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CurveError:
        return CurveError


def _walked_tangent(curve, point, walk=None):
    """The tangent line at a point as classify reads it: the walk's root
    direction (`GermWalk.tangent`) made a line by `tangent_line`; a walk
    that splits has none (NotUnibranchError)."""
    walk = walk or germ_walk(germ_at(curve.poly, point), curve.degree)
    if walk.split is not None:
        raise NotUnibranchError(walk.split)
    return tangent_line(point, walk.tangent)


def _walked_contact(curve, point, walk=None):
    """I_P(C, T) for the walk's tangent T at P, read off the line cycle
    (`intersection_cycle` of C and T, the restriction of C to T)."""
    tangent = make_curve(_walked_tangent(curve, point, walk))
    return dict(intersection_cycle(curve, tangent).points).get(point, 0)


def _assert_tangent_agrees(curve, point):
    """The reference tangent line at the point (CurveError when there is
    none), once the walk's tangent line, when the germ is one branch, has
    been checked against it, and the line cycle's contact at the point
    against the contact that the eliminant gives the reference line
    (`_local_numbers`, not the restriction that the line cycle reads):
    both answers, or both CurveError.  A walk that splits has no tangent,
    though a tacnode's cone is the power of one line; the line cycle then
    reads the reference line."""
    line = _outcome(lambda: _tangent_line_reference(curve, point).poly)
    walk = germ_walk(germ_at(curve.poly, point), curve.degree)
    tangent = line
    if walk.split is None:
        tangent = tangent_line(point, walk.tangent)
        assert line is not CurveError and proportional(tangent, line), (curve.poly, point)
    want = line if line is CurveError else _outcome(lambda: dict(_local_numbers(curve.poly, line)).get(point, 0))
    got = line if line is CurveError else _outcome(
        lambda: dict(intersection_cycle(curve, make_curve(tangent)).points).get(point, 0)
    )
    assert got == want, (curve.poly, point)
    if got is not CurveError:
        assert got > germ_order(germ_at(curve.poly, point)), (curve.poly, point)
    return line


@pytest.mark.parametrize("ps", CORPUS_POINTS, ids=lambda ps: ps.label)
def test_tangent_line_matches_reference_at_corpus_singular_points(ps):
    from unicusp import corpus

    lines = 0
    for name in corpus.CURVES:
        curve = curve_by_name(name, ps)
        for point, _ in find_rational_singular_points(curve).points:
            lines += _assert_tangent_agrees(curve, point) is not CurveError
    assert lines >= 4


def test_tangent_line_matches_reference_at_smooth_points():
    from unicusp import corpus

    span = range(-2, 3)
    grid = dict.fromkeys(ProjPoint.of(a, b, c) for a in span for b in span for c in span if a or b or c)
    checked = 0
    for ps in DEFAULT_PARAMS:
        for name in corpus.CURVES:
            curve = curve_by_name(name, ps)
            for point in grid:
                if curve.poly.evaluate(point.coords()) == 0 and germ_order(germ_at(curve.poly, point)) == 1:
                    line = _assert_tangent_agrees(curve, point)
                    assert line is not CurveError and line.evaluate(point.coords()) == 0
                    checked += 1
    for curve, point in (
        (CONIC, ProjPoint.of(4, 2, 1)),
        (CUSP_CUBIC, ProjPoint.of(0, 1, 0)),
        (NODE_CUBIC, ProjPoint.of(-1, 0, 1)),
        (make_curve(X**3 + Y**3 + Z**3), ProjPoint.of(1, -1, 0)),
    ):
        assert _assert_tangent_agrees(curve, point) is not CurveError
        checked += 1
    assert checked >= 40


def test_tangent_line_matches_reference_at_special_germs():
    origin = ProjPoint.of(0, 0, 1)
    # a cusp with vertical tangent x = 0
    assert _assert_tangent_agrees(make_curve(X**2 * Z - Y**3), origin) == X
    # a tacnode: its cone y**2 is the power of one line, though it splits
    assert _assert_tangent_agrees(make_curve(Y**2 * Z**2 - X**4), origin) == Y
    for curve in (
        NODE_CUBIC,  # two rational directions
        make_curve(X**3 - Y**3),  # a rational and two conjugate directions
        make_curve((X**2 + Y**2) * Z + X**3),  # two conjugate directions
    ):
        assert _assert_tangent_agrees(curve, origin) is CurveError


def test_the_curve_checks_never_reach_the_multivariate_gcd(monkeypatch):
    from unicusp import corpus, poly

    built = [(name, ps, curve_by_name(name, ps)) for ps in DEFAULT_PARAMS for name in corpus.CURVES]
    cusps = [
        (curve, corpus.analysis(name, ps)["report"].resolution.point)
        for name, ps, curve in built
        if corpus.analysis(name, ps).get("unicuspidal")
    ]
    assert len(built) == 24 and len(cusps) == 8

    def no_gcd(p, q):
        raise AssertionError("poly.gcd reached")

    monkeypatch.setattr(poly, "gcd", no_gcd)
    for name, ps, curve in built:
        assert repeated_factor(curve.poly) is None, (name, ps.label)
    for curve, point in cusps:
        assert _walked_contact(curve, point) > germ_order(germ_at(curve.poly, point))


def test_proj_point_normalization():
    p = ProjPoint.of(2, 4, 6)
    q = ProjPoint.of(1, 2, 3)
    assert p == q
    with pytest.raises(ValueError):
        ProjPoint.of(0, 0, 0)


def test_germ_and_multiplicity():
    origin = ProjPoint.of(0, 0, 1)
    g = germ_at(CUSP_CUBIC.poly, origin)
    assert min(sum(e) for e in g.terms) == 2
    assert germ_order(g) == 2
    assert germ_order(germ_at(CONIC.poly, origin)) == 1
    assert germ_order(germ_at(CONIC.poly, ProjPoint.of(1, 1, 7))) == 0  # off the curve


def test_smoothness():
    def singular(curve):
        return find_rational_singular_points(curve).require_rational().points

    assert singular(CONIC) == []
    assert singular(CUSP_CUBIC)
    assert singular(make_curve(X**3 + Y**3 + Z**3)) == []  # Fermat cubic
    assert singular(make_curve(X * Y))  # two lines meet


def test_singular_locus_of_cusp_cubic():
    locus = find_rational_singular_points(CUSP_CUBIC)
    assert len(locus.points) == 1
    point, mult = locus.points[0]
    assert point == ProjPoint.of(0, 0, 1)
    assert mult == 2
    assert not locus.blockers


def test_singular_locus_three_lines():
    # xyz = 0: three pairwise intersection points, all nodes
    curve = make_curve(X * Y * Z)
    locus = find_rational_singular_points(curve)
    got = {p for p, _ in locus.points}
    assert got == {ProjPoint.of(1, 0, 0), ProjPoint.of(0, 1, 0), ProjPoint.of(0, 0, 1)}
    assert all(m == 2 for _, m in locus.points)


def test_tangent_line():
    origin = ProjPoint.of(0, 0, 1)
    assert proportional(_assert_tangent_agrees(CUSP_CUBIC, origin), Y)  # the cuspidal tangent y = 0
    assert _walked_contact(CUSP_CUBIC, origin) == 3
    smooth_pt = ProjPoint.of(1, 1, 1)
    assert _assert_tangent_agrees(CONIC, smooth_pt).evaluate((1, 1, 1)) == 0
    assert _walked_contact(CONIC, smooth_pt) == 2


def test_the_walk_rejects_a_zero_germ():
    # the zero form, built without make_curve: no germ has an order, so
    # the walk that would read its tangent has no root
    curve = PlaneCurve(Poly(), 3)
    for fn in (germ_order, lambda g: germ_walk(g, 3)):
        with pytest.raises(CurveError, match="zero germ: the input is not a reduced curve"):
            fn(germ_at(curve.poly, ProjPoint.of(0, 0, 1)))


def test_the_walk_has_no_tangent_for_a_cone_of_several_lines():
    # the node's cone y^2 - x^2 has two lines; x^3 - y^3 has one rational
    # and two conjugate ones; x*(x + y) has the vertical line x = 0 too
    origin = ProjPoint.of(0, 0, 1)
    splits = "tangent cone is not the power of a single line; the germ splits"
    vertical = "tangent cone has several directions; the germ is not one branch"
    for curve, reason in (
        (NODE_CUBIC, splits),
        (make_curve(X**3 - Y**3), splits),
        (make_curve(X**2 * Z - Y**3 + X * Y * Z), vertical),
    ):
        assert germ_walk(germ_at(curve.poly, origin), curve.degree).split == reason
        with pytest.raises(NotUnibranchError):
            _walked_tangent(curve, origin)


def test_the_line_cycle_rejects_a_tangent_component():
    # y*(y*z^3 - x^4): at the smooth point (1 : 0 : 0) the walk's tangent
    # is the component y = 0, so the restriction to it is zero; at
    # (0 : 0 : 1) the tacnode's cone y^2 is its power, but the walk splits
    # there and reads no tangent.  The oracle's cycle is undefined at both.
    curve = make_curve(Y * (Y * Z**3 - X**4))
    with pytest.raises(CurveError, match="component"):
        _walked_contact(curve, ProjPoint.of(1, 0, 0))
    with pytest.raises(NotUnibranchError):
        _walked_contact(curve, ProjPoint.of(0, 0, 1))
    for point in (ProjPoint.of(1, 0, 0), ProjPoint.of(0, 0, 1)):
        assert _assert_tangent_agrees(curve, point) == Y


@pytest.mark.parametrize("ps", DEFAULT_PARAMS, ids=lambda ps: ps.label)
def test_the_walked_tangent_contact_at_the_corpus_cusps(ps):
    # only the AMS quartic's cusp tangent meets it at the cusp alone; the
    # tangent is read off the search's walk of the point
    from unicusp import corpus

    got = {}
    for name in corpus.CURVES:
        curve = curve_by_name(name, ps)
        locus = find_rational_singular_points(curve)
        for point, _ in locus.points:
            got[name] = (_outcome(_walked_contact, curve, point, locus.walks[point]), curve.degree)
    assert got == {
        "node-cubic": (CurveError, 3),
        "cusp-quartic": (4, 4),
        "image-deg15": (12, 15),
        "image-quintic": (4, 5),
        "rational-quintic": (4, 5),
    }


def test_intersection_multiplicity_basics():
    origin = ProjPoint.of(0, 0, 1)
    line_x = make_curve(X)
    line_y = make_curve(Y)
    assert _intersection_number(line_x, line_y, origin) == 1
    # tangent line of the cusp meets the cubic with multiplicity 3 there
    assert _intersection_number(CUSP_CUBIC, make_curve(Y), origin) == 3
    # and the other line x=0 with multiplicity 2
    assert _intersection_number(CUSP_CUBIC, line_x, origin) == 2
    # disjoint at this point
    assert _intersection_number(CONIC, line_y, ProjPoint.of(0, 1, 0)) == 0


def test_intersection_multiplicity_shared_component():
    with pytest.raises(CurveError):
        _intersection_number(CONIC, CONIC, ProjPoint.of(0, 0, 1))


def test_fulton_multiplicativity():
    # I(f, g*h) = I(f, g) + I(f, h) at a common point
    origin = ProjPoint.of(0, 0, 1)
    f = CUSP_CUBIC
    g = make_curve(X)
    h = make_curve(Y)
    gh = make_curve(X * Y)
    assert _intersection_number(f, gh, origin) == _intersection_number(
        f, g, origin
    ) + _intersection_number(f, h, origin)


def _fulton_reference(f: Poly, g: Poly) -> int:
    """Fulton's reduction (Algebraic Curves, 3.3) on Fraction polynomials:
    the oracle for the local numbers curves._local_numbers reads off the
    eliminant."""
    total = 0
    while True:
        if f.terms.get((0, 0, 0)) or g.terms.get((0, 0, 0)):
            return total
        if f.is_zero() or g.is_zero():
            raise CurveError("intersection number with a zero germ")
        a = _on_axis(f)
        b = _on_axis(g)
        if not a and not b:
            raise CurveError("germs share the component y = 0")
        if not a:
            q = exact_divide(f, Y)
            assert q is not None
            f = q
            total += min(e[0] for e in g.terms if e[1] == 0)
            continue
        if not b:
            q = exact_divide(g, Y)
            assert q is not None
            g = q
            total += min(e[0] for e in f.terms if e[1] == 0)
            continue
        da, db = uniroots.deg(a), uniroots.deg(b)
        if da > db:
            f, g = g, f
            a, b = b, a
            da, db = db, da
        # Rescaling by a nonzero rational keeps the local number; without
        # normalizing, the coefficients grow with every reduction.
        g = normalized(g - f * Poly.monomial((db - da, 0, 0), b[db] / a[da]))


def _on_axis(p: Poly) -> list[Fraction]:
    """Coefficient list of p(x, 0)."""
    d = p.degree_in(0)
    out = [Fraction(0)] * (d + 1)
    for (a, b, _), c in p.terms.items():
        if b == 0:
            out[a] += c
    return uniroots.trim(out)


def _random_germ(rng: random.Random, max_deg: int, n_terms: int, constant: bool = False) -> Poly:
    """A bivariate germ with rational coefficients, through the origin
    unless `constant`."""
    terms = {}
    while len(terms) < n_terms:
        i, j = rng.randint(0, max_deg), rng.randint(0, max_deg)
        if (i, j) == (0, 0) and not constant:
            continue
        num = rng.choice([k for k in range(-9, 10) if k])
        terms[(i, j, 0)] = Fraction(num, rng.randint(1, 6))
    return Poly(terms)


def _homogenised(p: Poly) -> Poly:
    """z^d * p(x/z, y/z) for a bivariate germ p of total degree d."""
    d = p.total_degree()
    return Poly({(i, j, d - i - j): c for (i, j, _), c in p.terms.items()})


def _local_number(f: Poly, g: Poly) -> int:
    """The eliminant kernel's local number at the origin of two germs."""
    found = dict(_local_numbers(_homogenised(f), _homogenised(g)))
    return found.get(ProjPoint.of(0, 0, 1), 0)


def _assert_fulton_agrees(f: Poly, g: Poly) -> int | None:
    """Compare the kernel with the reference on a coprime pair, in both
    orders; return the local number, or None for a pair that shares a
    component (no local number, and the reduction need not end)."""
    if not gcd(f, g).is_constant():
        return None
    want = _fulton_reference(f, g)
    assert _local_number(f, g) == want
    assert _local_number(g, f) == want
    return want


def test_fulton_matches_fraction_reference_on_rational_germs():
    rng = random.Random(3301)
    seen = []
    for _ in range(60):
        f = _random_germ(rng, 4, rng.randint(1, 6), constant=rng.random() < 0.1)
        g = _random_germ(rng, 4, rng.randint(1, 6))
        seen.append(_assert_fulton_agrees(f, g))
    numbers = [m for m in seen if m is not None]
    assert len(numbers) >= 30 and 0 in numbers and max(numbers) >= 4


def test_fulton_matches_fraction_reference_on_y_divisible_germs():
    rng = random.Random(3302)
    numbers = []
    for _ in range(30):
        f = _random_germ(rng, 4, rng.randint(1, 5), constant=True) * Y ** rng.randint(1, 3)
        g = _random_germ(rng, 4, rng.randint(1, 5)) + X ** rng.randint(1, 4)
        numbers.append(_assert_fulton_agrees(f, g))
    assert len([m for m in numbers if m is not None]) >= 15
    # Both germs divisible by y: they share the component y = 0.
    for f, g in ((Y * (X + Y), Y**2 - X**3 * Y), (Fraction(1, 2) * Y, 3 * X * Y + Y**2)):
        with pytest.raises(CurveError, match="share the component y = 0"):
            _fulton_reference(f, g)
        with pytest.raises(CurveError, match="share a component"):
            _local_number(f, g)
    # Proportional germs: the reduction ends in a zero germ.
    f, g = X + Y**2, Fraction(2, 3) * X + Fraction(2, 3) * Y**2
    with pytest.raises(CurveError, match="zero germ"):
        _fulton_reference(f, g)
    with pytest.raises(CurveError, match="share a component"):
        _local_number(f, g)


_SHARED_COMPONENT_SCRIPT = """
import time

from unicusp.curves import CurveError, _local_numbers
from unicusp.poly import X, Y, Z

# Homogenised germs sharing x = 0 or y = x^2 through the origin.
for f, g in ((X * (Y * Z - X**2), X * (Y + X)), ((Y * Z - X**2) * (X * Z**2 + Y**3), (Y * Z - X**2) * (Y + X))):
    for a, b in ((f, g), (g, f)):
        start = time.perf_counter()
        try:
            _local_numbers(a, b)
        except CurveError as exc:
            print(exc, time.perf_counter() - start < 1)
        else:
            print("no error")
"""


def test_fulton_stops_on_germs_sharing_a_component_through_the_origin():
    # Germs sharing x = 0 or y = x^2 have no local number; Fulton's
    # reduction never ends on them, so run the kernel in a child process
    # that fails the test on timeout instead of hanging the suite.  The
    # eliminant is zero, so the kernel stops at once.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _SHARED_COMPONENT_SCRIPT],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    want = "curves share a component; intersection numbers are undefined True"
    assert proc.stdout.splitlines() == [want] * 4


def test_fulton_matches_fraction_reference_at_high_contact():
    rng = random.Random(3303)
    numbers = []
    for _ in range(12):
        f = _random_germ(rng, 3, rng.randint(2, 4)) + X ** rng.randint(1, 3)
        g = f + Y ** rng.randint(3, 8) * _random_germ(rng, 2, rng.randint(1, 3), constant=True)
        numbers.append(_assert_fulton_agrees(f, g))
    assert max(m for m in numbers if m is not None) >= 8


def test_intersection_cycle_conic_transverse_line():
    # x = z meets the conic at (1, 1, 1) and (1, -1, 1), once each
    cyc = intersection_cycle(CONIC, make_curve(X - Z))
    assert cyc.bezout == 2
    assert cyc.residual == 0
    assert {(str(p), m) for p, m in cyc.points} == {
        ("(1 : 1 : 1)", 1),
        ("(1 : -1 : 1)", 1),
    }


def test_intersection_cycle_tangency():
    # x = 0 and z = 0 are tangent lines of the conic
    cyc = intersection_cycle(CONIC, make_curve(X))
    assert cyc.points == [(ProjPoint.of(0, 0, 1), 2)]
    assert cyc.residual == 0
    cyc2 = intersection_cycle(CONIC, make_curve(Z))
    assert cyc2.points == [(ProjPoint.of(1, 0, 0), 2)]


def test_intersection_cycle_irrational_residual():
    # x^2 + z^2 meets x = z only at irrational points... pick a clean case:
    # conic y^2 = xz against the line y - z = 0: (x - z)z after subst,
    # rational points (1,0,0)... let's use a pair with honest residual:
    # x^2 - 2z^2 cuts y = 0 at (±sqrt2, 0, 1): all mass is irrational.
    c = make_curve(X**2 * Z - 2 * Z**3 + Y**2 * X)  # irreducible enough
    line = make_curve(Y)
    cyc = intersection_cycle(c, line)
    located = sum(m for _, m in cyc.points)
    assert located + cyc.residual == cyc.bezout == 3
    assert cyc.residual == 2  # the two sqrt(2) points


def _order_of_x_in_sylvester_det(f: Poly, g: Poly) -> int:
    """Order of x = 0 in Res_y(f(x, y, 1), g(x, y, 1)), the Sylvester
    determinant computed by sympy.

    It is the local number at (0 : 0 : 1) when that is the only common
    point on the line x = 0 (checked here) and (0 : 1 : 0) is not common.
    """
    import sympy
    from sympy.polys.subresultants_qq_zz import sylvester

    x, y, z = sympy.symbols("x y z")
    fs, gs = (sympy.sympify(poly_to_text(h).replace("^", "**")).subs(z, 1) for h in (f, g))
    assert len(sympy.Poly(sympy.gcd(fs.subs(x, 0), gs.subs(x, 0)), y).monoms()) == 1
    assert f.evaluate((0, 1, 0)) != 0 or g.evaluate((0, 1, 0)) != 0
    dm = sylvester(fs, gs, y).to_DM()
    res = sympy.Poly(dm.domain.to_sympy(dm.det()), x)
    return min(e for (e,) in res.monoms())


@pytest.mark.parametrize(
    "ps", DEFAULT_PARAMS + (param_set("-2/3", "3/2", 1),), ids=lambda ps: ps.label
)
def test_high_contact_cycle_image_quintic_rational_quintic(ps):
    import sympy

    left, right = curve_by_name("image-quintic", ps), curve_by_name("rational-quintic", ps)
    cyc = intersection_cycle(left, right)
    assert cyc.points == [(ProjPoint.of(0, 0, 1), 22)]
    assert (cyc.residual, cyc.bezout) == (3, 25)
    # Independent check: (0 : 0 : 1) is the only common point on the line
    # x = 0 and (0 : 1 : 0) is not common, so the local number there is the
    # order of x = 0 in Res_y(f(x, y, 1), g(x, y, 1)).
    x, y, z = sympy.symbols("x y z")
    f, g = left.poly, right.poly
    fs, gs = (sympy.sympify(poly_to_text(h).replace("^", "**")).subs(z, 1) for h in (f, g))
    assert sympy.gcd(fs.subs(x, 0), gs.subs(x, 0)) == y**4
    assert _order_of_x_in_sylvester_det(f, g) == 22


@pytest.mark.parametrize("ps", DEFAULT_PARAMS, ids=lambda ps: ps.label)
def test_high_contact_cycles_of_image_deg15(ps):
    # Contact 43 and 74 at the cusp, beyond the reach of Fulton's reduction.
    deg15 = curve_by_name("image-deg15", ps)
    origin = ProjPoint.of(0, 0, 1)
    node = curve_by_name("node-cubic", ps)
    cyc = intersection_cycle(deg15, node)
    assert cyc.points == [(origin, 43)]
    assert (cyc.residual, cyc.bezout) == (2, 45)
    assert _order_of_x_in_sylvester_det(deg15.poly, node.poly) == 43
    quintic = curve_by_name("rational-quintic", ps)
    cyc = intersection_cycle(deg15, quintic)
    assert (cyc.residual, cyc.bezout) == (0, 75)
    assert dict(cyc.points)[origin] == 74
    [(other, m)] = [(q, m) for q, m in cyc.points if q != origin]
    assert m == 1
    assert deg15.poly.evaluate(other.coords()) == quintic.poly.evaluate(other.coords()) == 0
    assert _order_of_x_in_sylvester_det(deg15.poly, quintic.poly) == 74


@pytest.mark.parametrize("ps", DEFAULT_PARAMS, ids=lambda ps: ps.label)
def test_cycles_of_image_deg15_run_euclid_on_the_reduced_pair(ps, monkeypatch):
    # In every frame of `_local_numbers` the centre lies on neither curve,
    # so both y-leading rows are constant, and `resultant_int` reduces the
    # degree-15 form modulo the cubic or the conic once: each point's
    # Euclid inside the eliminant runs on that curve and a remainder of
    # lower y-degree, never on the (15, 3) or (15, 2) pair.
    from unicusp import curves

    deg15 = curve_by_name("image-deg15", ps)
    inside, shapes = [], []
    real_form, real_resultant = curves.form_resultant_int, uniroots.resultant_mod_p

    def form(*args):
        inside.append(True)
        try:
            return real_form(*args)
        finally:
            inside.pop()

    def resultant(a, b, m):
        if inside:
            shapes.append((len(a) - 1, len(b) - 1))
        return real_resultant(a, b, m)

    monkeypatch.setattr(curves, "form_resultant_int", form)
    monkeypatch.setattr(uniroots, "resultant_mod_p", resultant)
    wants = {
        "mirror-cubic": ((3, 2), IntersectionCycle([], 45, 45)),
        "conic": ((2, 1), IntersectionCycle([(ProjPoint.of(0, 0, 1), 30)], 0, 30)),
    }
    for name, ((top_a, top_b), want) in wants.items():
        shapes.clear()
        assert intersection_cycle(deg15, curve_by_name(name, ps)) == want, name
        assert shapes and all(a <= top_a and b <= top_b for a, b in shapes), (name, set(shapes))


def test_intersection_cycle_retries_when_a_line_holds_two_points(monkeypatch):
    from unicusp import curves

    # The line x = z through the centre (0 : 1 : 0) holds the common points
    # (1 : 1 : 1) and (1 : -1 : 1), so the identity is rejected.  The
    # vertex frames of (1 : 0 : 0) and (0 : 0 : 1) are skipped, as both
    # points lie on y^2 = xz.  The shear to (1 : 1 : 2) puts the centre on
    # the line x = y through (0 : 0 : 1) and (1 : 1 : 1), and the one to
    # (2 : 1 : 4) succeeds.
    calls = []

    def counted(p, q, v, prime, factor=None):
        calls.append(v)
        return form_resultant_int(p, q, v, prime, factor)

    monkeypatch.setattr(curves, "form_resultant_int", counted)
    f, g = make_curve(Y**2 - X * Z), make_curve(Y**2 + X**2 - 2 * X * Z)
    want = [(ProjPoint.of(0, 0, 1), 2), (ProjPoint.of(1, -1, 1), 1), (ProjPoint.of(1, 1, 1), 1)]
    cyc = intersection_cycle(f, g)
    assert (cyc.points, cyc.residual) == (want, 0)
    assert len(calls) == 3
    assert _intersection_number(f, g, ProjPoint.of(0, 0, 1)) == 2


def test_intersection_cycle_rejects_a_line_with_an_irrational_common_point(monkeypatch):
    import sympy

    from unicusp import curves

    # The line x = 0 through the centre (0 : 1 : 0) holds (0 : 0 : 1) and
    # the conjugate pair (0 : ±sqrt(2) : 1): one rational common point and
    # a blocker, so the unsheared coordinates are rejected.  The vertex
    # frames of (1 : 0 : 0) and (0 : 0 : 1) are skipped, as both points lie
    # on both curves.  The shear to (1 : 1 : 2) puts the centre on the line
    # x = y through (0 : 0 : 1), (1 : 1 : 1) and (-1 : -1 : 1), and the one
    # to (2 : 1 : 4) succeeds: three eliminants.
    fp, gp = Y**3 - 2 * Y * Z**2 + X * Z**2, Y**3 - 2 * Y * Z**2 + X * Y**2
    found, blockers = curves._points_on_line([fp, gp], Fraction(0))
    assert found == [ProjPoint.of(0, 0, 1)]
    assert [str(b.factor) for b in blockers] == ["y^2 - 2"]
    # Oracle: Res_y at z = 1 is x^3 (x - 1) (x + 1) up to a constant, so
    # the line x = 0 carries order 3, and the degree deficit 9 - 5 = 4 is
    # the order at (1 : 0 : 0).
    x, y = sympy.symbols("x y")
    res = sympy.resultant(y**3 - 2 * y + x, y**3 - 2 * y + x * y**2, y)
    assert sympy.factor(res / sympy.LC(sympy.Poly(res, x))) == x**3 * (x - 1) * (x + 1)
    calls = []

    def counted(p, q, v, prime, factor=None):
        calls.append(v)
        return form_resultant_int(p, q, v, prime, factor)

    monkeypatch.setattr(curves, "form_resultant_int", counted)
    cyc = intersection_cycle(make_curve(fp), make_curve(gp))
    assert cyc.points == [
        (ProjPoint.of(-1, -1, 1), 1),
        (ProjPoint.of(0, 0, 1), 1),
        (ProjPoint.of(1, 0, 0), 4),
        (ProjPoint.of(1, 1, 1), 1),
    ]
    assert (cyc.residual, cyc.bezout) == (2, 9)
    assert len(calls) == 3


def test_cycle_respects_bezout_on_cubics():
    cyc = intersection_cycle(CUSP_CUBIC, NODE_CUBIC)
    located = sum(m for _, m in cyc.points)
    assert located + cyc.residual == 9


# The seeded parameter points of perfbench's elimination workload, seeds 1
# to 3 (perfbench/workloads.py, parameter_points(seed, 3)).
ELIMINATION_POINTS = tuple(
    param_set(*abc)
    for abc in (
        ("-2/3", 3, -1), (3, 1, "-1/3"), (3, 1, -1),
        (3, -3, -1), ("2/3", "3/2", "-1/3"), ("-2/3", -1, 2),
        ("-2/3", 1, "-1/3"), ("3/2", "-1/3", -2), (2, "-2/3", "-2/3"),
    )
)


def _eliminant_cycle(c1, c2):
    """The cycle that the eliminant gives (`_local_numbers`), or CurveError."""
    located = _outcome(_local_numbers, c1.poly, c2.poly)
    if located is CurveError:
        return CurveError
    bezout = c1.degree * c2.degree
    return IntersectionCycle(located, bezout - sum(m for _, m in located), bezout)


def _assert_line_cycle_agrees(curve, line):
    want = _eliminant_cycle(curve, line)
    assert _outcome(intersection_cycle, curve, line) == want, (curve.poly, line.poly)
    assert _outcome(intersection_cycle, line, curve) == want, (curve.poly, line.poly)
    return want


@pytest.mark.parametrize("ps", DEFAULT_PARAMS + ELIMINATION_POINTS, ids=lambda ps: ps.label)
def test_line_cycle_matches_the_eliminant_on_the_corpus(ps):
    # Every corpus curve against the coordinate lines and five seeded
    # rational lines, in both orders: the restriction to the line gives
    # the eliminant's cycle, and both refuse a line that is a component.
    from unicusp import corpus

    rng = random.Random(f"lines {ps.label}")
    lines = [curve_by_name(name, ps) for name in ("line-x", "line-y", "line-z")]
    while len(lines) < 8:
        coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
        if any(coeffs):
            lines.append(make_curve(coeffs[0] * X + coeffs[1] * Y + coeffs[2] * Z))
    outcomes = [_assert_line_cycle_agrees(curve_by_name(name, ps), line) for name in corpus.CURVES for line in lines]
    # each coordinate line is itself a corpus curve
    assert outcomes.count(CurveError) >= 3


def test_line_cycle_matches_the_eliminant_at_edge_cases():
    conic_times_line = make_curve((X * Z - Y**2) * (X - Y))
    cases = {
        # the line is a component
        (conic_times_line, make_curve(X - Y)): CurveError,
        # y = 0 cuts z * (x^2 - 2z^2): (1 : 0 : 0) and a conjugate pair
        (make_curve(X**2 * Z - 2 * Z**3 + Y**2 * X), make_curve(Y)): IntersectionCycle(
            [(ProjPoint.of(1, 0, 0), 1)], 2, 3
        ),
        # z = 0 is parametrised by (s : t) -> (s : t : 0), so the common
        # point (1 : 0 : 0) is the parameter's (1 : 0), the degree deficit
        (CONIC, make_curve(Z)): IntersectionCycle([(ProjPoint.of(1, 0, 0), 2)], 0, 2),
        (CUSP_CUBIC, make_curve(Z)): IntersectionCycle([(ProjPoint.of(0, 1, 0), 3)], 0, 3),
    }
    for (curve, line), want in cases.items():
        assert _assert_line_cycle_agrees(curve, line) == want, (curve.poly, line.poly)


def _assert_restriction_agrees(f, line) -> bool:
    """`restrict_to_line` against `Poly.substitute` of the parametrization
    it returns: a one to one map of P^1 onto the line, and a list that is
    a positive multiple of f(s, t), zero exactly when the line divides f.
    Returns whether the list is zero."""
    restricted, param = restrict_to_line(f, line)
    images = tuple(a * X + b * Y for a, b in param)
    assert line.substitute(images).is_zero()
    assert any(a0 * b1 - a1 * b0 for (a0, b0), (a1, b1) in itertools.combinations(param, 2))
    d = f.total_degree()
    got, want = Poly({(n, d - n, 0): c for n, c in enumerate(restricted)}), f.substitute(images)
    assert len(restricted) == d + 1 and got.is_zero() == want.is_zero() == (exact_divide(f, line) is not None)
    if not got.is_zero():
        e = next(iter(got.terms))
        assert proportional(got, want) and got.terms[e] / want.terms[e] > 0, (f, line)
    return got.is_zero()


def test_the_line_restriction_is_the_substitution_of_its_parametrization():
    # The one restriction of a form to a line, behind the line cycle and
    # make_map's certificate: seeded forms with rational coefficients on
    # the three coordinate lines, the certificate's line z = x + y, read
    # at (t : 1 : t + 1), and seeded lines; a form times the line restricts
    # to the zero list.
    rng = random.Random(7070)
    lines = [X, Y, Z, X + Y - Z]
    while len(lines) < 8:
        coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
        if any(coeffs):
            lines.append(coeffs[0] * X + coeffs[1] * Y + coeffs[2] * Z)
    _, param = restrict_to_line(ONE, X + Y - Z)
    on_line = [ProjPoint.of(*(a * s + b * t for a, b in param)) for s, t in ((1, 0), (0, 1), (2, 1))]
    assert on_line == [ProjPoint.of(1, 0, 1), ProjPoint.of(0, 1, 1), ProjPoint.of(2, 1, 3)]
    forms = [_random_form(rng, rng.randint(1, 6)) for _ in range(15)]
    # a sparse form often has a coordinate line as a component
    zero = [_assert_restriction_agrees(f, line) for line in lines for f in forms]
    assert True in zero and False in zero
    assert all(_assert_restriction_agrees(f * line, line) for line in lines for f in forms[:5])


def test_a_permutation_frame_relabels_exponents():
    # The six permutation matrices, applied to seeded forms with rational
    # coefficients: the same polynomial, and hash, as the substitution.
    from unicusp import curves

    rng = random.Random(4141)
    forms = [_homogenised(_random_germ(rng, rng.randint(2, 6), rng.randint(1, 9), constant=True)) for _ in range(20)]
    variables = (X, Y, Z)
    for perm in itertools.permutations(range(3)):
        m = tuple(tuple(int(k == perm[r]) for k in range(3)) for r in range(3))
        for f in forms:
            want = f.substitute(tuple(variables[perm[r]] for r in range(3)))
            got = curves._apply_matrix(f, m)
            assert got == want and hash(got) == hash(want), (perm, f)


@pytest.mark.parametrize("ps", DEFAULT_PARAMS, ids=lambda ps: ps.label)
def test_intersection_cycle_from_a_vertex_substitutes_nothing(ps, monkeypatch):
    # Both curves pass through (0 : 1 : 0), the cusp of the quartic, and
    # neither through (1 : 0 : 0): the swap of x and y is the frame, an
    # exponent relabel.
    quartic, cubic = curve_by_name("cusp-quartic", ps), curve_by_name("weierstrass-cubic", ps)
    want = _eliminant_cycle(quartic, cubic)
    calls = []
    real = Poly.substitute

    def substitute(self, images):
        calls.append(images)
        return real(self, images)

    monkeypatch.setattr(Poly, "substitute", substitute)
    assert intersection_cycle(quartic, cubic) == want
    assert calls == []


# -- singular search: blockers and the two-eliminant reference --------------


def _eliminant_y_reference(a: Poly, b: Poly) -> Poly | None:
    """Res_y(a, b) as a binary form in (x, z); a form free of y is its
    own eliminant; None when the eliminant is zero."""
    if a.degree_in(1) == 0:
        return a
    if b.degree_in(1) == 0:
        return b
    r = resultant_wrt(a, b, 1)
    return None if r.is_zero() else r


def _binary_to_uni(e: Poly) -> list[int]:
    """Coefficients of e(t, 1) for a binary form in (x, z), cleared of
    denominators."""
    assert e.degree_in(1) == 0
    out = [Fraction(0)] * (e.degree_in(0) + 1)
    for (a, _, _), c in e.terms.items():
        out[a] += c
    return clear_denominators(out)


def _infinity_root(e: Poly) -> bool:
    """True when (1 : 0) is a root of the binary form e(x, z)."""
    d = e.total_degree()
    return e.terms.get((d, 0, 0), Fraction(0)) == 0


def _singular_search_reference(f: Poly, delta: int | None = None) -> SingularLocus:
    """The singular search with two exact eliminants: the oracle for
    curves._singular_search, which forms only the first exactly.  It
    ignores `delta`, the vertex invariant the search may divide out.

    Candidate lines are the rational roots of the gcd of the first two
    distinct nonzero eliminants, and (1 : 0) when both vanish there (two
    pairs that share a member free of y both give that member, and its gcd
    with itself would offer all of it as a line or a blocker); the blocker is
    the squarefree part of what is left of that gcd once its rational
    linear factors are removed.
    The eliminants are Poly forms from the public resultant_wrt, and a
    point is kept when its multiplicity is at least 2.
    """
    from unicusp import curves

    live = [p for p in (f.partial(i) for i in range(3)) if not p.is_zero()]
    elims: list[Poly] = []
    for a, b in ((live[0], live[1]), (live[0], live[-1]), (live[1], live[-1])):
        if a is b:
            continue
        e = _eliminant_y_reference(a, b)
        if e is not None and not e.is_zero() and e not in elims:
            elims.append(e)
        if len(elims) == 2:
            break
    blockers: list[ExtensionFieldSingularity] = []
    cands: list[Fraction | None] = []
    glist = [_binary_to_uni(e) for e in elims]
    gg = glist[0]
    for extra in glist[1:]:
        gg = uniroots.gcd_int(gg, extra)
    if uniroots.deg(gg) > 0 or all(_infinity_root(e) for e in elims):
        roots, leftover = uniroots.rational_roots_int(gg)
        cands.extend(roots)
        if all(_infinity_root(e) for e in elims):
            cands.append(None)
        if uniroots.deg(leftover) > 0:
            blockers.append(
                ExtensionFieldSingularity(
                    curves._uni_to_binary(uniroots.squarefree_part_int(leftover)),
                    "common eliminant factor without rational roots",
                )
            )
    points = []
    for r in cands:
        found, blk = curves._points_on_line(live, r)
        points.extend(found)
        blockers.extend(blk)
    if all(p.evaluate((0, 1, 0)) == 0 for p in live):
        points.append(ProjPoint.of(0, 1, 0))
    out = []
    for q in points:
        g = germ_at(f, q)
        m = -1 if g.is_zero() else germ_order(g)
        if m >= 2:
            out.append((q, m))
    out.sort(key=lambda t: t[0].coords())
    return SingularLocus(out, blockers)


def _locus_key(locus: SingularLocus) -> tuple:
    return ([(str(q), m) for q, m in locus.points], [(str(b.factor), b.context) for b in locus.blockers])


def _search_key(f: Poly, delta: int | None = None) -> tuple:
    """curves._singular_search on f as _locus_key reads a locus: its
    points sorted, each with the order of its germ, as the reference
    takes it."""
    from unicusp import curves

    points, blockers = curves._singular_search(f, delta)
    out = sorted(((q, germ_order(germ_at(f, q))) for q in points), key=lambda t: t[0].coords())
    return _locus_key(SingularLocus(out, blockers))


def _reference_locus(curve, monkeypatch) -> SingularLocus:
    """find_rational_singular_points with _singular_search_reference in
    place of the search, each point with the order of its germ, not with
    the multiplicity the locus reads off its walk."""
    from unicusp import curves

    def reference(f, delta=None):
        locus = _singular_search_reference(f, delta)
        return [q for q, _ in locus.points], locus.blockers

    monkeypatch.setattr(curves, "_singular_search", reference)
    locus = find_rational_singular_points(curve)
    monkeypatch.undo()
    return SingularLocus([(q, germ_order(germ_at(curve.poly, q))) for q, _ in locus.points], locus.blockers)


def _assert_search_agrees(f: Poly) -> tuple:
    """The singular search and the reference agree on f in every
    coordinate system of _SHEARS; returns the unsheared result."""
    from unicusp import curves

    results = []
    for m in curves._SHEARS:
        g = curves._apply_matrix(f, m)
        got = _search_key(g)
        assert got == _locus_key(_singular_search_reference(g)), (poly_to_text(f), m)
        results.append(got)
    return results[0]


IRRATIONAL_LOCI = [
    ("y*(x^2+y^2-3*z^2)", [], "x^2 - 3*z^2"),
    (
        "(y^2*z-x^3)*(x^2-2*z^2)",
        [(ProjPoint.of(0, 0, 1), 2), (ProjPoint.of(0, 1, 0), 3)],
        "x^2 - 2*z^2",
    ),
    (
        "(x^2-2*z^2)*(y^2-3*z^2)",
        [(ProjPoint.of(0, 1, 0), 2), (ProjPoint.of(1, 0, 0), 2)],
        "x^2 - 2*z^2",
    ),
]


@pytest.mark.parametrize("text, points, blocker", IRRATIONAL_LOCI)
def test_irrational_singular_points_are_reported_as_blockers(text, points, blocker):
    # Each curve has singular points with irrational coordinates that no
    # shear makes rational: y = 0 meets the circle at x = ±sqrt(3) z, and
    # the lines x = ±sqrt(2) z meet the cubic, each other (at (0 : 1 : 0))
    # or the lines y = ±sqrt(3) z.
    curve = make_curve(parse_poly(text))
    locus = find_rational_singular_points(curve)
    assert locus.points == points
    assert [(str(b.factor), b.context) for b in locus.blockers] == [
        (blocker, "common eliminant factor without rational roots")
    ]
    with pytest.raises(IrrationalLocusError) as info:
        locus.require_rational()
    assert [str(b.factor) for b in info.value.blockers] == [blocker]
    assert str(info.value) == f"singular locus has components outside Q: {blocker}"
    _assert_search_agrees(curve.poly)


def _order_by_partials(f: Poly, q: ProjPoint) -> int:
    """The multiplicity of the form f at q with no germ and no walk: the
    least k for which some k-th partial derivative of f is nonzero at q."""
    layer = {(0, 0, 0): f}
    for k in itertools.count():
        if any(h.evaluate(q.coords()) for h in layer.values()):
            return k
        layer = {
            tuple(e + (i == j) for j, e in enumerate(index)): h.partial(i)
            for index, h in layer.items()
            for i in range(3)
        }


def test_locus_multiplicities_are_the_orders_of_the_partials():
    # The locus reads each multiplicity off the first record of the
    # point's walk; the oracle reads it off F's partial derivatives.  The
    # locus keeps a walk for each of its points and for no other, on the
    # corpus, the corpus moved off the coordinate vertices, four lines and
    # the loci with blockers.
    from unicusp import corpus, curves

    m = ((1, 1, 2), (1, 2, 1), (2, 1, 1))
    cases = [make_curve(parse_poly(text)) for text in ["x*y*z*(x+y+z)"] + [t for t, _, _ in IRRATIONAL_LOCI]]
    for ps in DEFAULT_PARAMS:
        for name in corpus.CURVES:
            curve = curve_by_name(name, ps)
            cases += [curve, make_curve(curves._apply_matrix(curve.poly, m))]
    seen = []
    for curve in cases:
        locus = find_rational_singular_points(curve)
        assert set(locus.walks) == {q for q, _ in locus.points}, str(curve)
        for q, k in locus.points:
            assert k == _order_by_partials(curve.poly, q), (str(curve), str(q))
            seen.append(k)
    assert sorted(seen) == [2] * 25 + [3] + [6] * 4


def test_analyze_with_an_irrational_singular_point_exits_one():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "unicusp", "analyze", "(y^2*z-x^3)*(x^2-2*z^2)"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: singular locus has components outside Q: x^2 - 2*z^2\n"
    )


def _random_line_or_conic(rng: random.Random) -> Poly:
    def c() -> Fraction:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 2))

    if rng.random() < 0.5:
        return c() * X + c() * Y + c() * Z + X
    monomials = [X * X, Y * Y, Z * Z, X * Y, X * Z, Y * Z]
    return Y * Y + sum((c() * m for m in monomials), Poly.zero())


def test_singular_search_matches_two_eliminant_reference_on_lines_and_conics():
    rng = random.Random(8808)
    seen_blockers = seen_points = 0
    for _ in range(24):
        factors = [_random_line_or_conic(rng) for _ in range(rng.randint(2, 3))]
        product = factors[0]
        for extra in factors[1:]:
            product = product * extra
        try:
            curve = make_curve(product)
        except CurveError:
            continue  # a repeated or degenerate factor
        points, blockers = _assert_search_agrees(curve.poly)
        seen_points += bool(points)
        seen_blockers += bool(blockers)
    # The draws have rational and irrational singular points both.
    assert seen_points >= 5 and seen_blockers >= 5


@pytest.mark.parametrize("ps", DEFAULT_PARAMS, ids=str)
def test_singular_search_matches_two_eliminant_reference_on_the_corpus(ps, monkeypatch):
    from unicusp import corpus, curves

    assert len(corpus.CURVES) == 12
    for name in corpus.CURVES:
        curve = curve_by_name(name, ps)
        got = _locus_key(find_rational_singular_points(curve))
        assert got == _locus_key(_reference_locus(curve, monkeypatch)), name


# -- the search frame: projection from the most singular vertex --------------


def _permutation_matrices() -> list[tuple[tuple[int, int, int], ...]]:
    from itertools import permutations

    return [
        tuple(tuple(int(k == perm[r]) for k in range(3)) for r in range(3))
        for perm in permutations(range(3))
    ]


def _shear_loop_reference(curve) -> SingularLocus:
    """find_rational_singular_points without the least-degree frame: the
    _SHEARS loop alone, from the unsheared frame."""
    from unicusp import curves

    best = None
    for m in curves._SHEARS:
        points, blockers = curves._singular_search(curves._apply_matrix(curve.poly, m))
        images = sorted((curves._map_point(m, q) for q in points), key=ProjPoint.coords)
        mapped = SingularLocus([(q, germ_order(germ_at(curve.poly, q))) for q in images], blockers)
        if not blockers:
            return mapped
        if best is None:
            best = mapped
    return best


@pytest.mark.parametrize("ps", DEFAULT_PARAMS, ids=str)
def test_singular_search_is_independent_of_the_coordinate_frame(ps, monkeypatch):
    # Permuting the coordinates puts each corpus cusp at every vertex, so
    # the search projects from each of them in turn.  The points of the
    # permuted curve F(M v) are the original points mapped by M^T.
    from unicusp import corpus, curves

    for name in corpus.CURVES:
        curve = curve_by_name(name, ps)
        base = find_rational_singular_points(curve)
        assert base.blockers == [], name
        for m in _permutation_matrices():
            permuted = make_curve(curves._apply_matrix(curve.poly, m))
            transpose = tuple(tuple(m[c][r] for c in range(3)) for r in range(3))
            want = sorted(
                ((curves._map_point(transpose, q), k) for q, k in base.points),
                key=lambda t: t[0].coords(),
            )
            got = find_rational_singular_points(permuted)
            assert (got.points, got.blockers) == (want, []), (name, m)
            assert _locus_key(got) == _locus_key(_reference_locus(permuted, monkeypatch)), (name, m)


@pytest.mark.parametrize("ps", DEFAULT_PARAMS, ids=str)
def test_image_deg15_search_eliminates_the_variable_of_least_degree(ps, monkeypatch):
    # image-deg15 has multiplicity m = 6 at (0 : 0 : 1), so F has z-degree
    # d - m = 9 against 15 in x and y.  Projecting from that vertex bounds
    # each eliminant by (d-1)^2 - (m-1)^2 = 171, so no interpolation runs
    # through more than 172 points (197 when y is eliminated).
    curve = curve_by_name("image-deg15", ps)
    assert [curve.poly.degree_in(i) for i in range(3)] == [15, 15, 9]
    sizes = _interpolation_sizes(monkeypatch)
    locus = find_rational_singular_points(curve)
    assert (locus.points, locus.blockers) == ([(ProjPoint.of(0, 0, 1), 6)], [])
    assert sizes and max(sizes) <= (15 - 1) ** 2 - (6 - 1) ** 2 + 1


def _walk_at_q(f):
    """The germ walk of a form at Q = (0 : 1 : 0), whose root direction
    (`GermWalk.tangent`) the search's tangent move reads."""
    return germ_walk(germ_at(f, ProjPoint.of(0, 1, 0)), f.total_degree())


def test_the_tangent_frame_moves_the_cusp_tangent_to_z_0():
    # Cusps l^3 * y^2 = k^5 at Q = (0 : 1 : 0), with the cones x^3, z^3 and
    # (3z + 2x)^3, the slope -2/3: a swap, no move, and x -> 3x, z -> -2x + z.
    # Each frame, read off the walk's tangent at Q, fixes Q and leaves a
    # cone c*z^3 there.
    from unicusp import curves

    q = ProjPoint.of(0, 1, 0)
    cases = [
        (X, Z, ((0, 0, 1), (0, 1, 0), (1, 0, 0))),
        (Z, X, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        (3 * Z + 2 * X, X, ((3, 0, 0), (0, 1, 0), (-2, 0, 1))),
    ]
    for line, other, want in cases:
        f = line**3 * Y**2 - other**5
        frame = curves._tangent_frame(_walk_at_q(f).tangent)
        assert frame == want, str(line)
        assert curves._map_point(frame, q) == q
        g = germ_at(curves._apply_matrix(f, frame), q)
        assert germ_order(g) == 3
        assert [bool(c) for c in curves.cone_coefficients(g, 3)] == [False, False, False, True]


@pytest.mark.parametrize("ps", DEFAULT_PARAMS, ids=str)
def test_the_cut_eliminant_is_the_uncut_one_on_the_corpus(ps, cut_eliminants):
    # The search walks each cusp that sits at its projection vertex and
    # cuts with its delta: (0 : 0 : 1) for three of them, with the tangent
    # x = 0 in the swapped frame, which the tangent move swaps with z;
    # cusp-quartic's is at (0 : 1 : 0), with the tangent z = 0 already.
    # The certificate's image of the first pair is cut at (1 : 0) by k0,
    # and that of the second by k1: (2, 3) on cusp-quartic, (8, 9) on
    # image-quintic, (10, 11) on rational-quintic and (150, 155) on
    # image-deg15.  At (1, 1, 0) rational-quintic's images both fall short
    # of their degrees: in the search frame the curve passes through
    # (1 : 0 : 0) with the tangent y = 0, so F, F_x and F_z all vanish
    # there, on the cusp's tangent line z = 0.  The certificate fails, and
    # the exact e1 takes the cut k0 = 10 once more.
    from unicusp import corpus
    from unicusp.resolution import classify

    for name in corpus.CURVES:
        classify(curve_by_name(name, ps))
    extra = [10] if ps == DEFAULT_PARAMS[0] else []
    assert sorted(cut_eliminants) == sorted([2, 3, 8, 9, 10, 11, 150, 155] + extra)


@pytest.mark.parametrize("ps", DEFAULT_PARAMS, ids=str)
def test_the_cut_search_matches_the_two_eliminant_reference_on_the_corpus(ps):
    # The first frame of each corpus curve whose projection vertex is a
    # unibranch singular point, with that point's tangent moved to z = 0,
    # searched with that point's delta.
    from unicusp import corpus, curves
    from unicusp.resolution import minimal_embedded_resolution

    checked = 0
    for name in corpus.CURVES:
        curve = curve_by_name(name, ps)
        vertex = curves.projection_vertex(curve)
        if germ_order(germ_at(curve.poly, vertex)) < 2:
            continue
        try:
            delta = minimal_embedded_resolution(curve, vertex).delta
        except NotUnibranchError:
            continue
        v = vertex.coords().index(1)
        swap = tuple(tuple(int(k == {1: v, v: 1}.get(r, r)) for k in range(3)) for r in range(3))
        f = curves._apply_matrix(curve.poly, swap)
        f = curves._apply_matrix(f, curves._tangent_frame(_walk_at_q(f).tangent))
        got = _search_key(f, delta)
        assert got == _locus_key(_singular_search_reference(f)), name
        assert got[0] == [("(0 : 1 : 0)", germ_order(germ_at(curve.poly, vertex)))], name
        checked += 1
    assert checked == 4


@pytest.mark.parametrize("name", ["cusp-quartic", "image-quintic", "rational-quintic"])
def test_a_failed_certificate_falls_back_to_the_cut_certificate_pair(name, monkeypatch):
    # Each cusp sits at its curve's projection vertex.  Images that read
    # zero modulo the certificate's prime (an unlucky prime) make the
    # search form e1 = Res_y(F_x, F_z) exactly, with the cut k0, and then,
    # as the second image cannot clear L1 either, Res_y(F_z, F) with the
    # cut k1 of _vertex_cuts; the locus stays the one the certificate gave.
    from unicusp import curves
    from unicusp.resolution import minimal_embedded_resolution

    curve = curve_by_name(name, DEFAULT_PARAMS[0])
    vertex = curves.projection_vertex(curve)
    delta = minimal_embedded_resolution(curve, vertex).delta
    v = vertex.coords().index(1)
    swap = tuple(tuple(int(k == {1: v, v: 1}.get(r, r)) for k in range(3)) for r in range(3))
    f = curves._apply_matrix(curve.poly, swap)
    f = curves._apply_matrix(f, curves._tangent_frame(_walk_at_q(f).tangent))
    fx, fz = f.partial(0), f.partial(2)
    k0, k1 = curves._vertex_cuts(f, fx, fz, delta)
    want = find_rational_singular_points(curve)

    exact, real = [], curves.form_resultant_int

    def unlucky(a, b, var, prime, cut=0):
        if prime:
            return []
        exact.append((a, b, var, cut))
        return real(a, b, var, prime, cut)

    monkeypatch.setattr(curves, "form_resultant_int", unlucky)
    got = find_rational_singular_points(curve)
    assert exact == [(fx, fz, 1, k0), (fz, f, 1, k1)]
    assert k1 > 0
    assert (got.points, got.blockers) == (want.points, want.blockers)
    assert [q for q, _ in got.points] == [vertex] and got.blockers == []


def _spy_resultants(monkeypatch) -> list:
    """(prime, cut) of every resultant the singular search forms."""
    from unicusp import curves

    calls, real = [], curves.form_resultant_int

    def spy(a, b, v, prime, cut=0):
        calls.append((prime, cut))
        return real(a, b, v, prime, cut)

    monkeypatch.setattr(curves, "form_resultant_int", spy)
    return calls


def test_an_unlucky_certificate_prime_gives_the_same_locus(monkeypatch):
    # Modulo 1291 the cut images of cusp-quartic's first two pairs share
    # the root t = 196, though their eliminants are coprime over Q: the
    # search takes the exact path, e1 with the cut k0 = 2, reuses the
    # second image, which shares that root with L1 too, and so forms the
    # second eliminant exactly, with k1 = 3.  The locus is the same.
    curve = curve_by_name("cusp-quartic", DEFAULT_PARAMS[0])
    want = find_rational_singular_points(curve)
    real = uniroots.large_primes

    def unlucky():
        yield 1291
        yield from real()

    monkeypatch.setattr(uniroots, "large_primes", unlucky)
    calls = _spy_resultants(monkeypatch)
    got = find_rational_singular_points(curve)
    assert calls == [(1291, 2), (1291, 3), (0, 2), (0, 3)]
    assert (got.points, got.blockers) == (want.points, want.blockers)
    monkeypatch.undo()
    calls = _spy_resultants(monkeypatch)
    assert find_rational_singular_points(curve) == want
    assert calls == [(next(uniroots.large_primes()), 2), (next(uniroots.large_primes()), 3)]


def test_a_second_rational_singular_point_takes_the_exact_path(monkeypatch):
    # y^2 z^2 + x^2 z^2 - x^3 y has a cusp at its projection vertex
    # (0 : 1 : 0), with the tangent z = 0 and the cuts (0, 1), and a node
    # at (0 : 0 : 1).  The line x = 0 through both is a root of both
    # images, so the certificate fails: e1 is formed exactly, and L1 is
    # checked against the second image without forming it again.
    p = next(uniroots.large_primes())
    calls = _spy_resultants(monkeypatch)
    locus = find_rational_singular_points(make_curve(Y**2 * Z**2 + X**2 * Z**2 - X**3 * Y))
    assert _locus_key(locus) == ([("(0 : 0 : 1)", 2), ("(0 : 1 : 0)", 2)], [])
    assert calls == [(p, 0), (p, 1), (0, 0)]


@pytest.mark.parametrize(
    "curve, points, lines",
    [
        pytest.param(curve_by_name("weierstrass-cubic", ps), [], [], id=f"weierstrass-cubic@{ps.label}")
        for ps in DEFAULT_PARAMS
    ]
    + [
        pytest.param(
            make_curve(parse_poly("y^2*z - x^3 + 3*x*z^2 - 2*z^3")),
            [(ProjPoint.of(1, 0, 1), 2)],
            [([-1, 0, 1], 2)],
            id="nodal-cubic",
        )
    ],
)
def test_a_partial_free_of_y_is_its_pairs_image(curve, points, lines, monkeypatch):
    # Both cubics project from their smooth point (0 : 1 : 0), and their
    # F_x, 3 x^2 + a z^2 and 3 z^2 - 3 x^2, is free of y: it is the first
    # pair's image in the certificate.  weierstrass-cubic's F_x shares no
    # root with the second image, so the search reads no candidate lines
    # (`uniroots.binary_roots` called from the search; the walks' cones
    # pass through it too).  The nodal cubic's node (1 : 0 : 1) lies on
    # the line x = z through the centre, so (1 : 1) is a root of both
    # images, the certificate fails, and the exact path, whose e1 is F_x
    # again, finds the node.
    calls, real = [], uniroots.binary_roots

    def spy(coeffs, degree):
        if sys._getframe(1).f_code.co_name == "_singular_search":
            calls.append((coeffs, degree))
        return real(coeffs, degree)

    monkeypatch.setattr(uniroots, "binary_roots", spy)
    locus = find_rational_singular_points(curve)
    assert (locus.points, locus.blockers) == (points, [])
    assert calls == lines
    monkeypatch.undo()
    _assert_search_agrees(curve.poly)


def _germ_by_substitution(p: Poly, point: ProjPoint) -> Poly:
    """The germ by one substitution: x_i -> X + p_i and x_j -> Y + p_j for
    the chart (i, j) of the point, and 1 for the third variable."""
    i, j = chart_of(point)
    imgs = [ONE, ONE, ONE]
    imgs[i], imgs[j] = X + point.coords()[i], Y + point.coords()[j]
    return p.substitute(tuple(imgs))


@pytest.mark.parametrize("ps", DEFAULT_PARAMS, ids=str)
def test_germ_at_relabels_as_the_substitution_does(ps):
    from unicusp import corpus

    vertices = [ProjPoint.of(*(int(i == v) for i in range(3))) for v in range(3)]
    off = [ProjPoint.of(1, 0, 1), ProjPoint.of(2, -1, 1), ProjPoint.of(1, 3, 0), ProjPoint.of(0, 1, 1)]
    for name in corpus.CURVES:
        f = curve_by_name(name, ps).poly
        points = vertices + off + [q for q, _ in find_rational_singular_points(curve_by_name(name, ps)).points]
        for q in points:
            assert germ_at(f, q) == _germ_by_substitution(f, q), (name, str(q))


def test_the_shears_start_at_the_identity_with_distinct_centres():
    from itertools import islice

    from unicusp import curves

    frames = list(islice(curves._shears(), 40))
    assert frames[0] == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert curves._SHEARS == frames[:7]
    centres = [curves._map_point(m, ProjPoint.of(0, 1, 0)) for m in frames]
    assert centres[1:3] == [ProjPoint.of(1, 1, 2), ProjPoint.of(2, 1, 4)]
    assert len(set(centres)) == len(centres)


def _interpolation_sizes(monkeypatch) -> list:
    """The number of values each interpolation reads."""
    sizes = []
    interpolate = uniroots.interpolate_mod_p

    def spy(x0, ys, modulus):
        sizes.append(len(ys))
        return interpolate(x0, ys, modulus)

    monkeypatch.setattr(uniroots, "interpolate_mod_p", spy)
    return sizes


@pytest.mark.parametrize("ps", DEFAULT_PARAMS, ids=str)
def test_classify_interpolates_only_the_cofactor_on_image_deg15(ps, monkeypatch):
    # The cusp has multiplicity 6 and delta 90, so mu = 180.  In the search
    # frame, whose tangent move swaps x and z, F_x and F_z have orders 6
    # and 5 at the cusp, so k0 = 180 - 30 = 150, and the exact eliminant,
    # a form of degree 14^2 - 30 = 166, is z^150 times a cofactor read from
    # 166 - 150 + 1 = 17 values instead of 167.  The one-prime image of the
    # certificate, Res_y(F_z, F), a form of degree 9*14 + 9*15 - 9*9 = 180,
    # is z^155 times a cofactor, k1 = 180 - (6 - 1)^2 = 155, read from
    # 180 - 155 + 1 = 26 values instead of the 161 that the uncut (F_x, F_y)
    # took.  (The `cut_eliminants` fixture would add the uncut values; the
    # corpus test checks those.)
    from unicusp.resolution import classify

    sizes = _interpolation_sizes(monkeypatch)
    report = classify(curve_by_name("image-deg15", ps))
    assert report.singular_points == [(ProjPoint.of(0, 0, 1), 6)]
    assert report.resolution.delta == 90
    assert sizes[:2] == [17, 26]


@pytest.mark.parametrize("ps", DEFAULT_PARAMS, ids=str)
def test_the_bare_search_interpolates_only_the_cofactors_on_image_deg15(ps, monkeypatch):
    # The search walks its own vertex, so the bare search, as `resolve`
    # without --point runs it, takes both cuts too: 17 + 26 values where it
    # took 167 + 167 uncut.
    sizes = _interpolation_sizes(monkeypatch)
    locus = find_rational_singular_points(curve_by_name("image-deg15", ps))
    assert (locus.points, locus.blockers) == ([(ProjPoint.of(0, 0, 1), 6)], [])
    assert sizes == [17, 26]


def test_a_blocker_in_the_least_degree_frame_falls_back_to_the_shears():
    # The curve of test_irrational_singular_points_are_reported_as_blockers
    # with x and y exchanged: y has the largest degree, so the first search
    # swaps x and y, meets the irrational points on y^2 = 2 z^2 (where
    # x^4 = 8 z^4) and reports a blocker; the shear loop then gives the
    # rational points and the unsheared frame's blocker.
    from unicusp import curves

    curve = make_curve(parse_poly("(x^2*z-y^3)*(y^2-2*z^2)"))
    assert [curve.poly.degree_in(i) for i in range(3)] == [2, 5, 3]
    swap = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    assert curves._singular_search(curves._apply_matrix(curve.poly, swap))[1]
    locus = find_rational_singular_points(curve)
    assert _locus_key(locus) == _locus_key(_shear_loop_reference(curve))
    assert locus.points == [(ProjPoint.of(0, 0, 1), 2), (ProjPoint.of(1, 0, 0), 3)]
    assert [(str(b.factor), b.context) for b in locus.blockers] == [
        ("x^4 - 8*z^4", "common eliminant factor without rational roots")
    ]


@pytest.mark.parametrize(
    "text, m", [("x^3 + x*z^2", 3), ("x^4 + x^2*z^2 + z^4", 4)]
)
def test_a_curve_free_of_y_is_certified_in_one_frame(text, m, monkeypatch):
    # F misses y, so F_y = 0 and both live partials F_x, F_z are free of
    # y.  Their common zeros are those of their gcd, a constant here: no
    # line with an irrational direction is left, and the unsheared frame
    # certifies the only singular point, the vertex (0 : 1 : 0).
    from unicusp import curves

    curve = make_curve(parse_poly(text))
    assert curves._singular_search(curve.poly)[1] == []
    frames = []
    search = curves._singular_search

    def counted(f, delta):
        frames.append(f)
        return search(f, delta)

    monkeypatch.setattr(curves, "_singular_search", counted)
    locus = find_rational_singular_points(curve)
    assert (locus.points, locus.blockers) == ([(ProjPoint.of(0, 1, 0), m)], [])
    assert len(frames) == 1


@pytest.mark.parametrize("k", range(1, 7))
def test_a_locus_certified_by_a_later_shear_is_sorted(k, monkeypatch):
    # Every frame but the k-th shear reports a blocker, so the k-th
    # certifies the four lines' six nodes and its points are mapped back.
    from unicusp import curves

    curve = make_curve(parse_poly("x*y*z*(x+y+z)"))
    want = find_rational_singular_points(curve)
    assert len(want.points) == 6 and want.blockers == []
    certifying = curves._apply_matrix(curve.poly, curves._SHEARS[k])
    search = curves._singular_search

    def blocked(f, delta):
        points, blockers = search(f, delta)
        if f == certifying:
            return points, blockers
        return points, [ExtensionFieldSingularity(f, "forced")]

    monkeypatch.setattr(curves, "_singular_search", blocked)
    got = find_rational_singular_points(curve)
    assert (got.points, got.blockers) == (want.points, [])
