import gc
import heapq
import math
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unicusp.poly import (
    ONE,
    Poly,
    X,
    Y,
    Z,
    content,
    dehomogenize,
    exact_divide,
    form_resultant_int,
    from_univariate,
    gcd,
    normalized,
    poly_to_text,
    proportional,
    resultant_wrt,
    squarefree_witness,
    strip_factors,
)


def test_zero_and_constants():
    assert Poly.zero().is_zero()
    assert not Poly.zero()
    assert Poly.const(3).is_constant()
    assert Poly.const(Fraction(2, 3)).terms == {(0, 0, 0): Fraction(2, 3)}
    assert (X - X).is_zero()


def test_monomial_and_degrees():
    p = Poly.monomial((2, 1, 0), 5)
    assert p.total_degree() == 3
    assert p.degree_in(0) == 2 and p.degree_in(1) == 1 and p.degree_in(2) == 0
    assert p.variables() == {0, 1}


def test_basic_identities():
    p = (X + Y) * (X - Y)
    assert p == X**2 - Y**2
    assert (X + Y) ** 2 == X**2 + 2 * X * Y + Y**2
    q = X**3 + Y**3 + Z**3 - 3 * X * Y * Z
    # classic factorization
    lin = X + Y + Z
    rest = exact_divide(q, lin)
    assert rest is not None
    assert lin * rest == q


def test_pow_edge_cases():
    assert X**0 == ONE
    assert (2 * X) ** 3 == 8 * X**3
    with pytest.raises(ValueError):
        X ** (-1)


def test_evaluate_and_substitute():
    p = X * Z - Y**2
    assert p.evaluate((1, 2, 4)) == 0
    assert p.evaluate((Fraction(1, 2), 1, 2)) == 0
    s = p.substitute((Y, X, Z))
    assert s == Y * Z - X**2


def test_is_homogeneous():
    assert not (X**2 + X * Y + Y + 3).is_homogeneous()
    assert (X * Z - Y**2).is_homogeneous()


def test_partial_derivatives():
    p = X**3 * Y + Z**2
    assert p.partial(0) == 3 * X**2 * Y
    assert p.partial(1) == X**3
    assert p.partial(2) == 2 * Z


def test_coeffs_wrt():
    p = X**2 * Y + X * Z + Y
    by_x = p.coeffs_wrt(0)
    assert by_x[2] == Y
    assert by_x[1] == Z
    assert by_x[0] == Y


def test_exact_divide():
    num = (X + Y) * (X * Z - Y**2) ** 2
    assert exact_divide(num, X * Z - Y**2) == (X + Y) * (X * Z - Y**2)
    assert exact_divide(X**2 + Y, X + 1) is None
    assert exact_divide(Poly.zero(), X) == Poly.zero()


def test_gcd_simple():
    a = (X + Y) ** 2 * (X - Z)
    b = (X + Y) * (X + Z) ** 2
    g = gcd(a, b)
    assert proportional(g, X + Y)
    assert gcd(X, Y).is_constant()


def test_gcd_content_interaction():
    # gcd must see content shared across coefficients
    a = 2 * X * Y + 2 * Y**2
    b = 4 * Y * Z
    g = gcd(a, b)
    assert proportional(g, Y)


def test_content_and_normalized():
    p = 6 * X + 4 * Y
    assert content(p) == 2
    n = normalized(p)
    assert content(n) == 1 and n.lead_coeff() > 0
    assert n == 3 * X + 2 * Y
    assert normalized(-p) == n


def test_proportional():
    assert proportional(2 * X + 4 * Y, X + 2 * Y)
    assert not proportional(X + Y, X - Y)
    assert proportional(Poly.zero(), Poly.zero())
    assert not proportional(X, Poly.zero())


def test_resultant_wrt():
    # res_x(x - y, x - z) = z - y up to sign
    r = resultant_wrt(X - Y, X - Z, 0)
    assert proportional(r, Y - Z)
    # common factor -> resultant zero
    assert resultant_wrt((X + Y) * (X - Y), (X + Y) * (X + Z), 0).is_zero()


def test_squarefree_witness():
    assert squarefree_witness(X * Z - Y**2).is_constant()
    p = (X + Y) ** 2 * (X - Y)
    w = squarefree_witness(p)
    assert not w.is_constant()
    assert proportional(w, X + Y)


def test_poly_text_round_trip_shape():
    p = X**2 - 2 * X * Y + Fraction(1, 3) * Z**2
    text = poly_to_text(p)
    assert "x^2" in text and "1/3" in text


def _random_poly(rng, max_degree=4, terms=6):
    p = Poly.zero()
    for _ in range(rng.randint(1, terms)):
        d = rng.randint(0, max_degree)
        ex = rng.randint(0, d)
        ey = rng.randint(0, d - ex)
        p = p + Poly.monomial((ex, ey, d - ex - ey), Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    return p


def test_ring_axioms_randomized():
    rng = random.Random(20260817)
    for _ in range(200):
        p, q, r = (_random_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * ONE == p
        assert p + Poly.zero() == p


def test_divide_mul_round_trip_randomized():
    rng = random.Random(999)
    checked = 0
    while checked < 200:
        p = _random_poly(rng)
        q = _random_poly(rng)
        if q.is_zero():
            continue
        assert exact_divide(p * q, q) == p
        if len(q.terms) > 1:
            # A monomial is divisible only by monomials.
            mono = Poly.monomial((rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)), 5)
            assert exact_divide(p * q + mono, q) is None
        checked += 1


def test_gcd_divides_both_randomized():
    rng = random.Random(4242)
    for _ in range(25):
        p = _random_poly(rng, max_degree=3, terms=4)
        q = _random_poly(rng, max_degree=3, terms=4)
        if p.is_zero() or q.is_zero():
            continue
        g = gcd(p, q)
        assert exact_divide(p, g) is not None
        assert exact_divide(q, g) is not None


# -- differential tests of the division and resultant kernels -------------


def test_exact_divide_monomial_divisor_randomized():
    rng = random.Random(31)
    for _ in range(200):
        r = _random_poly(rng)
        e = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(1, 3))
        mono = Poly.monomial(e, Fraction(rng.choice([-1, 1]) * rng.randint(2, 9), rng.randint(1, 5)))
        assert exact_divide(r * mono, mono) == r
        # One term that the monomial does not divide makes the division fail.
        stray = (rng.randint(0, 4), rng.randint(0, 4), e[2] - 1)
        assert exact_divide(r * mono + Poly.monomial(stray, 3), mono) is None


def test_a_one_term_divisor_is_a_shift_without_order_or_heap(monkeypatch):
    from unicusp import poly

    def no_heap(*_):
        raise AssertionError("a one-term divisor needs no heap")

    monkeypatch.setattr(poly.heapq, "heappush", no_heap)
    monkeypatch.setattr(poly, "_grlex_key", no_heap)
    q = {(1, 0, 2): 3}
    assert poly._divide_int({(3, 1, 2): 6, (1, 4, 5): -9}, q) == {(2, 1, 0): 2, (0, 4, 3): -3}
    # A coefficient it does not divide, and an exponent too small.
    assert poly._divide_int({(3, 1, 2): 6, (1, 4, 5): -7}, q) is None
    assert poly._divide_int({(3, 1, 2): 6, (1, 4, 1): -9}, q) is None
    assert poly._divide_int({}, q) == {}


def test_exact_divide_cancelled_term_reappears():
    # Dividing q*r by q cancels the remainder's y^3*z at one step and
    # creates it again at a later one, below the leading term.
    q = -(X**2) - X * Y - Y * Z
    r = X**2 + Y**2 - Y * Z
    assert exact_divide(q * r, q) == r
    assert exact_divide(q * r + Y**3 * Z, q) is None


def _heap_key(e):
    return (-(e[0] + e[1] + e[2]), -e[0], -e[1])


def _exact_divide_reference(p, q):
    """The parent's division: the Monagan-Pearce heap on Fractions."""
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return Poly.zero()
    if q.is_constant():
        return p * (1 / q.terms[(0, 0, 0)])
    qe = q.lead_exponents()
    qc = q.terms[qe]
    tail = [(e, k) for e, k in q.terms.items() if e != qe]
    terms = p.sorted_terms()
    n, i = len(terms), 0
    sub = {}
    heap = []
    quot = {}
    while i < n or heap:
        if heap and (i == n or heap[0][0] <= _heap_key(terms[i][0])):
            e = heapq.heappop(heap)[1]
            lc = sub.pop(e, None)
            if lc is None:
                continue
            if i < n and terms[i][0] == e:
                lc += terms[i][1]
                i += 1
                if not lc:
                    continue
        else:
            e, lc = terms[i]
            i += 1
        if e[0] < qe[0] or e[1] < qe[1] or e[2] < qe[2]:
            return None
        me = (e[0] - qe[0], e[1] - qe[1], e[2] - qe[2])
        mc = lc / qc
        quot[me] = mc
        for (a, b, c), k in tail:
            t = (a + me[0], b + me[1], c + me[2])
            s = sub.get(t)
            if s is None:
                sub[t] = -k * mc
                heapq.heappush(heap, (_heap_key(t), t))
            else:
                s -= k * mc
                if s:
                    sub[t] = s
                else:
                    del sub[t]
    return Poly(quot)


def _assert_division_agrees(p, q):
    got, want = exact_divide(p, q), _exact_divide_reference(p, q)
    assert (got is None) == (want is None), (p, q)
    if want is not None:
        assert got.terms == want.terms and q * got == p
    return got


_SMALL_EXPONENTS = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))


@st.composite
def _division_cases(draw):
    """(p, q): a product r*q, perturbed or not, with q rational, scaled by
    an integer (non-primitive), a monomial or a constant; or p zero."""
    kind = draw(st.sampled_from(["general", "scaled", "monomial", "constant"]))
    if kind == "monomial":
        q = draw(_polys(_SMALL_EXPONENTS, min_size=1, max_size=1))
    elif kind == "constant":
        q = Poly.const(draw(_NONZERO))
    else:
        q = draw(_polys(_SMALL_EXPONENTS, min_size=1, max_size=4))
        if kind == "scaled":
            q = q * content(q).denominator * draw(st.integers(2, 12))
    r = draw(_polys(_SMALL_EXPONENTS, max_size=6))
    p = r * q
    if draw(st.booleans()):
        p = p + draw(_polys(_SMALL_EXPONENTS, min_size=1, max_size=2))
    return p, q


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_division_cases())
def test_exact_divide_agrees_with_fraction_reference_on_generated_inputs(case):
    _assert_division_agrees(*case)


def test_exact_divide_agrees_with_fraction_reference_on_edge_cases():
    q = 6 * X**2 * Y - Fraction(4, 3) * Y * Z + 2
    r = Fraction(1, 2) * X - 3 * Z**2
    for p in (Poly.zero(), r * q, r * q + 1, r * q + Fraction(1, 7) * X**9):
        for d in (q, 3 * q, Fraction(5, 9) * q, -q, Poly.const(Fraction(-3, 4)), Fraction(2, 3) * X * Y):
            _assert_division_agrees(p, d)
    # Divisible over Q but through a rational quotient: only the primitive
    # divisor's quotient is integral.
    assert _assert_division_agrees(X + 1, 2 * X + 2) == Fraction(1, 2) * ONE
    # A leading coefficient that the divisor's does not divide.
    assert exact_divide(3 * X**2 + X, 2 * X + 1) is None
    with pytest.raises(ZeroDivisionError):
        exact_divide(X, Poly.zero())


def test_strip_factors_divides_every_power_out():
    f2 = X * Z - Y**2
    line = Fraction(3, 2) * X - Z
    core = X**3 + Fraction(1, 3) * Y**2 * Z - 2 * Z**3
    p = Fraction(-7, 5) * core * f2**4 * line**2
    got = strip_factors(p, [3 * f2, line])
    want = p
    for f in (3 * f2, line):
        while (q := exact_divide(want, f)) is not None:
            want = q
    assert got.terms == want.terms and proportional(got, core)
    assert strip_factors(p, []) == p
    assert strip_factors(Poly.zero(), [f2]).is_zero()
    with pytest.raises(ValueError):
        strip_factors(p, [Poly.const(2)])


def test_dehomogenize_is_substitution_of_one():
    rng = random.Random(77)
    for _ in range(100):
        p = _random_poly(rng, terms=8)
        for i in range(3):
            images = [X, Y, Z]
            images[i] = ONE
            assert dehomogenize(p, i).terms == p.substitute(tuple(images)).terms
    # Terms that meet are added, and cancel when they sum to zero.
    assert dehomogenize(X * Z - X + Y * Z**2, 2) == Y
    assert dehomogenize(2 * X**2 * Y - 2 * X**2 + X * Y**3, 1) == X


def _random_image(rng):
    kind = rng.choice(["zero", "constant", "monomial", "integral", "rational"])
    if kind == "zero":
        return Poly.zero()
    if kind == "constant":
        return Poly.const(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    if kind == "monomial":
        e = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
        return Poly.monomial(e, Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3)))
    p = _random_poly(rng, max_degree=2, terms=4)
    return p * content(p).denominator if kind == "integral" else p


def _to_sympy(p, gens):
    import sympy

    x, y, z = gens
    return sympy.Add(
        *(sympy.Rational(k.numerator, k.denominator) * x**a * y**b * z**c for (a, b, c), k in p.terms.items())
    )


def _sympy_substitute(f, images):
    """The terms of f(images) as expanded by sympy, with exact coefficients."""
    import sympy

    gens = sympy.symbols("x y z")
    subs = {g: _to_sympy(img, gens) for g, img in zip(gens, images)}
    expanded = sympy.expand(_to_sympy(f, gens).subs(subs, simultaneous=True))
    # The zero polynomial has the one term ((0, 0, 0), 0) in sympy.
    return {e: Fraction(int(k.p), int(k.q)) for e, k in sympy.Poly(expanded, *gens).terms() if k}


def test_substitute_matches_sympy_expansion():
    rng = random.Random(1869)
    cases = [(Poly.zero(), (X + Y, Fraction(1, 2) * Z, X)), (Poly.const(Fraction(-3, 4)), (Y, Z, X))]
    for _ in range(60):
        f = _random_poly(rng)
        cases.append((f, tuple(_random_image(rng) for _ in range(3))))
    assert any(not f.is_homogeneous() for f, _ in cases)
    for f, images in cases:
        assert f.substitute(images).terms == _sympy_substitute(f, images)


def test_substitute_creates_no_reference_cycles():
    # Temporary tables must be freed by reference counting alone: a cycle
    # keeps them alive until the cyclic collector runs.
    f = X**3 * Y - Fraction(2, 3) * Y**2 * Z**2 + X * Z**4 + 1
    images = (X + Fraction(1, 2) * Y, Y * Z, Z**2 - X)
    gc.collect()
    gc.disable()
    try:
        f.substitute(images)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- the packed kernel against the sparse Horner it replaced -----------------


def _int_mul(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = {}
    for (a2, b2, c2), k2 in q.items():
        for (a1, b1, c1), k1 in p.items():
            e = (a1 + a2, b1 + b2, c1 + c2)
            out[e] = out.get(e, 0) + k1 * k2
    return out


def _horner(nested, tables):
    powers, inner = tables[0], tables[1:]
    degs = sorted(nested, reverse=True)
    acc = _horner(nested[degs[0]], inner) if inner else {(0, 0, 0): nested[degs[0]]}
    for hi, lo in zip(degs, degs[1:] + [0]):
        if hi == lo:
            break
        while len(powers) <= hi - lo:
            powers.append(_int_mul(powers[-1], powers[1]))
        acc = _int_mul(acc, powers[hi - lo])
        if lo in nested:
            c = nested[lo]
            for e, k in (_horner(c, inner) if inner else {(0, 0, 0): c}).items():
                acc[e] = acc.get(e, 0) + k
    return acc


def _substitute_reference(f, images):
    """f(images) by the integer sparse Horner on exponent-triple maps that
    Poly.substitute used before its values were packed."""
    if f.is_zero():
        return Poly.zero()
    cleared = []
    for g in images:
        ell = content(g).denominator
        cleared.append(({e: c.numerator * (ell // c.denominator) for e, c in g.terms.items()}, ell))
    common = content(f).denominator
    scale = []
    for i, (_, ell) in enumerate(cleared):
        d = f.degree_in(i)
        scale.append([ell ** (d - j) for j in range(d + 1)])
    spread = [len({e[i] for e in f.terms}) for i in range(3)]
    inner, middle, outer = sorted(range(3), key=spread.__getitem__, reverse=True)
    nested = {}
    for e, k in f.terms.items():
        v = k.numerator * (common // k.denominator) * scale[0][e[0]] * scale[1][e[1]] * scale[2][e[2]]
        nested.setdefault(e[outer], {}).setdefault(e[middle], {})[e[inner]] = v
    powers = [[{(0, 0, 0): 1}, psi] for psi, _ in cleared]
    acc = _horner(nested, [powers[outer], powers[middle], powers[inner]])
    den = common * scale[0][0] * scale[1][0] * scale[2][0]
    return Poly({e: Fraction(v, den) for e, v in acc.items() if v})


def _seeded_params(seed, count):
    """Parameter points with a, b, c nonzero and a smooth Weierstrass cubic."""
    from unicusp.corpus import param_set

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a, b, c = (Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3))
        if a and b and c and 4 * a**3 + 27 * b**2:
            out.append(param_set(a, b, c))
    return out


def test_substitute_matches_reference_on_corpus_maps():
    from unicusp.corpus import CURVES, DEFAULT_PARAMS, curve_by_name, squaring_map
    from unicusp.cremona import quintic_involution

    for ps in DEFAULT_PARAMS + tuple(_seeded_params(4242, 2)):
        maps = (quintic_involution(ps.c).components, squaring_map().components)
        for name in CURVES:
            f = curve_by_name(name, ps).poly
            for images in maps:
                assert f.substitute(images).terms == _substitute_reference(f, images).terms, (name, ps)


def test_substitute_matches_reference_on_blowup_charts():
    from unicusp.corpus import DEFAULT_PARAMS, curve_by_name
    from unicusp.curves import ProjPoint, germ_at, germ_order, germ_walk
    from unicusp.resolution import blow_up_once

    cusps = {
        "rational-quintic": ProjPoint.of(0, 0, 1),
        "image-quintic": ProjPoint.of(0, 0, 1),
        "image-deg15": ProjPoint.of(0, 0, 1),
        "cusp-quartic": ProjPoint.of(0, 1, 0),
    }
    charts = 0
    for ps in DEFAULT_PARAMS:
        for name, point in cusps.items():
            curve = curve_by_name(name, ps)
            g = germ_at(curve.poly, point)
            while germ_order(g) > 1:
                m = germ_order(g)
                r = germ_walk(g, curve.degree).tangent
                # Both charts at every centre, and the direction actually
                # taken: the walk's tangent, as each germ is one branch.
                for images in ((X * Y, Y, ONE), (X, X * (Y + (r or 0)), ONE), (X, X * (Y - 3), ONE)):
                    assert g.substitute(images).terms == _substitute_reference(g, images).terms
                    charts += 1
                g = blow_up_once(g, m, r)
    assert charts >= 60


def test_substitute_zero_and_constant_images():
    form = 3 * X**3 - Fraction(2, 5) * X * Y * Z + Y**2 * Z - Fraction(7, 3) * Z**3
    mixed = form + Fraction(1, 2) * X * Y - 4 * Z + 9
    image_sets = [
        (Poly.zero(), Poly.zero(), Poly.zero()),
        (Poly.zero(), Y, Z),
        (X + Y, Poly.zero(), Fraction(1, 3) * Z),
        (Poly.const(2), Poly.const(Fraction(-1, 3)), Poly.const(5)),
        (Poly.const(2), Y - X, Z),
        (Poly.const(Fraction(3, 4)), Poly.zero(), ONE),
        (X * Y, Poly.const(-1), Z**2),
    ]
    for f in (form, mixed, Poly.const(Fraction(-5, 6)), Poly.zero()):
        for images in image_sets:
            got = f.substitute(images)
            assert got.terms == _substitute_reference(f, images).terms
            assert got.terms == _sympy_substitute(f, images)
    # All-constant images evaluate; all-zero images leave the constant term.
    assert form.substitute((Poly.const(2), Poly.const(Fraction(-1, 3)), Poly.const(5))) == form.evaluate(
        (2, Fraction(-1, 3), 5)
    )
    assert mixed.substitute((Poly.zero(), Poly.zero(), Poly.zero())) == Poly.const(9)


@pytest.mark.parametrize("bits", [8, 16, 24, 64, 136, 1024])
def test_substitute_decodes_coefficients_at_the_slot_bound(bits):
    # The result's one coefficient is the bound c.  At c = 2^(bits-1) - 1
    # the slot is exactly `bits` wide and c is the largest it holds; the
    # next two values of c need the sign bit of one more byte.
    for c in (2 ** (bits - 1) - 1, 2 ** (bits - 1), 2**bits - 1):
        f = (c // 3) * X**2 + (c // 3) * X * Y + (c - 2 * (c // 3)) * Y**2
        for sign in (1, -1):
            for images in ((X, X, Z), (X, X, ONE), (Y * Z, Y * Z, X), (ONE, ONE, X)):
                want = _substitute_reference(sign * f, images)
                assert len(want.terms) == 1 and abs(next(iter(want.terms.values()))) == c
                assert (sign * f).substitute(images) == want
    c = 2 ** (bits - 1) - 1
    # Next to a slot of either sign: (c - 1)*x + y under (1, -/+y, z) gives
    # c - 1 and -/+1 in adjacent slots of y, again with bound c.
    for s1 in (1, -1):
        for s2 in (1, -1):
            g = s1 * (c - 1) * X + Y
            images = (ONE, s2 * Y, Z)
            want = Poly({(0, 0, 0): s1 * (c - 1), (0, 1, 0): s2})
            assert _substitute_reference(g, images) == want
            assert g.substitute(images) == want


_NONZERO = st.builds(Fraction, st.integers(1, 40) | st.integers(-40, -1), st.integers(1, 6))


def _polys(exponents, min_size=0, max_size=6):
    return st.dictionaries(exponents, _NONZERO, min_size=min_size, max_size=max_size).map(Poly)


@st.composite
def _form_exponents(draw, d):
    a = draw(st.integers(0, d))
    b = draw(st.integers(0, d - a))
    return (a, b, d - a - b)


@st.composite
def _homogeneous_inputs(draw):
    """A form and three nonzero forms of one degree: the z = 1 route."""
    k = draw(st.integers(0, 3))
    f = draw(_polys(_form_exponents(draw(st.integers(0, 5))), max_size=8))
    return f, tuple(draw(_polys(_form_exponents(k), min_size=1, max_size=4)) for _ in range(3))


@st.composite
def _general_inputs(draw):
    f = draw(_polys(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), max_size=8))
    small = st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 1))
    return f, tuple(draw(_polys(small, max_size=4)) for _ in range(3))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(_homogeneous_inputs(), _general_inputs()))
def test_substitute_agrees_with_reference_on_generated_inputs(case):
    f, images = case
    assert f.substitute(images).terms == _substitute_reference(f, images).terms


def _evaluate_reference(p: Poly, point) -> Fraction:
    """Poly.evaluate as it was: three Fraction powers per term."""
    xs = [Fraction(v) for v in point]
    total = Fraction(0)
    for (a, b, c), k in p.terms.items():
        total += k * xs[0] ** a * xs[1] ** b * xs[2] ** c
    return total


_POINT_COORDS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9)) | st.integers(-5, 5)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    _polys(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)), max_size=8),
    st.tuples(_POINT_COORDS, _POINT_COORDS, _POINT_COORDS),
)
def test_evaluate_agrees_with_fraction_reference_on_generated_inputs(p, point):
    got = p.evaluate(point)
    assert isinstance(got, Fraction)
    assert got == _evaluate_reference(p, point)


def _random_bivariate(rng, dx, dy, terms):
    return Poly(
        {
            (rng.randint(0, dx), rng.randint(0, dy), 0): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for _ in range(terms)
        }
    )


def _random_form(rng, d, terms):
    out = {}
    for _ in range(terms):
        a = rng.randint(0, d)
        b = rng.randint(0, d - a)
        out[(a, b, d - a - b)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return Poly(out)


def _sympy_sylvester_det(p, q, v):
    """Sylvester determinant (rows of p first) computed by sympy.

    sympy.resultant is not the oracle: when deg p < deg q it returns
    Res(q, p), whose sign can differ.
    """
    import sympy
    from sympy.polys.subresultants_qq_zz import sylvester

    f, g = (sympy.sympify(poly_to_text(t).replace("^", "**")) for t in (p, q))
    dm = sylvester(f, g, sympy.symbols("x y z")[v]).to_DM()
    return dm.domain.to_sympy(dm.det())


def _sylvester(p, q, v):
    """Sylvester matrix of p and q in v, rows of p first."""
    m, n = p.degree_in(v), q.degree_in(v)
    pc = p.coeffs_wrt(v)
    qc = q.coeffs_wrt(v)
    size = m + n
    rows = []
    for i in range(n):
        row = [Poly.zero()] * size
        for k in range(m + 1):
            row[i + k] = pc.get(m - k, Poly.zero())
        rows.append(row)
    for i in range(m):
        row = [Poly.zero()] * size
        for k in range(n + 1):
            row[i + k] = qc.get(n - k, Poly.zero())
        rows.append(row)
    return rows


def _bareiss_det(mat):
    """Fraction-free determinant of a matrix of polynomials (Bareiss)."""
    n = len(mat)
    if n == 0:
        return ONE
    m = [row[:] for row in mat]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot_row = next((r for r in range(k + 1, n) if not m[r][k].is_zero()), None)
            if pivot_row is None:
                return Poly.zero()
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                q = exact_divide(num, prev)
                assert q is not None, "Bareiss division must be exact"
                m[i][j] = q
            m[i][k] = Poly.zero()
        prev = m[k][k]
    return m[n - 1][n - 1] * sign


def _assert_resultant_agrees(p, q, v):
    import sympy

    r = resultant_wrt(p, q, v)
    assert r == _bareiss_det(_sylvester(p, q, v))
    diff = _sympy_sylvester_det(p, q, v) - sympy.sympify(poly_to_text(r).replace("^", "**"))
    assert sympy.expand(diff) == 0


def test_resultant_wrt_bivariate_matches_sylvester_determinant():
    rng = random.Random(2011)
    checked = 0
    while checked < 4:
        p, q = _random_bivariate(rng, 3, 5, 6), _random_bivariate(rng, 3, 5, 6)
        if p.degree_in(1) + q.degree_in(1) <= 8 or p.degree_in(0) + q.degree_in(0) == 0:
            continue
        _assert_resultant_agrees(p, q, 1)
        checked += 1


def test_resultant_wrt_bivariate_small_sizes_match_sylvester_determinant():
    # Every Sylvester size from 2 to 8, each with y-degrees of both inputs
    # at least 1.
    rng = random.Random(2012)
    sizes = set()
    while len(sizes) < 7:
        p, q = _random_bivariate(rng, 3, 4, 5), _random_bivariate(rng, 3, 4, 5)
        size = p.degree_in(1) + q.degree_in(1)
        if size > 8 or size in sizes or min(p.degree_in(1), q.degree_in(1)) < 1:
            continue
        if p.degree_in(0) + q.degree_in(0) == 0:
            continue
        _assert_resultant_agrees(p, q, 1)
        sizes.add(size)


def test_resultant_wrt_homogeneous_matches_sylvester_determinant():
    rng = random.Random(1971)
    checked = 0
    while checked < 3:
        p, q = _random_form(rng, rng.randint(4, 6), 7), _random_form(rng, rng.randint(4, 6), 7)
        if p.degree_in(1) + q.degree_in(1) <= 8:
            continue
        _assert_resultant_agrees(p, q, 1)
        checked += 1


@pytest.mark.parametrize(
    "p, q",
    [
        # forms: a zero input, m = 0, n = 0, and both
        (Poly.zero(), X * Y - Z**2),
        (X**2 - 3 * Z**2, X * Y**2 + Z**3),
        (X * Y**2 + 2 * Z**3, X - Z),
        (2 * X**2 + Z**2, X - 5 * Z),
        # bivariate inputs, the same four cases
        (X * Y + 1, Poly.zero()),
        (X**2 - 3, X * Y**2 + 1),
        (X * Y**2 + 2, X - 1),
        (2 * X + 1, X**3 - 5),
    ],
)
def test_resultant_wrt_degenerate_inputs_match_sympy(p, q):
    # A zero input gives 0; an input free of y gives its power
    # Res_y(p, q) = p**deg_y q (q**deg_y p for the second), and 1 when both
    # are free of y: the returns before the integer kernel.
    import sympy

    def text(t):
        return sympy.sympify(poly_to_text(t).replace("^", "**"))

    expected = sympy.resultant(text(p), text(q), sympy.Symbol("y"))
    assert sympy.expand(text(resultant_wrt(p, q, 1)) - expected) == 0


def test_resultant_wrt_homogeneous_small_sizes_match_sylvester_determinant():
    rng = random.Random(1972)
    sizes = set()
    while len(sizes) < 7:
        p, q = _random_form(rng, rng.randint(1, 4), 5), _random_form(rng, rng.randint(1, 4), 5)
        size = p.degree_in(1) + q.degree_in(1)
        if size > 8 or size in sizes or min(p.degree_in(1), q.degree_in(1)) < 1:
            continue
        _assert_resultant_agrees(p, q, 1)
        sizes.add(size)


def test_resultant_wrt_rejects_trivariate_inhomogeneous_input():
    with pytest.raises(ValueError, match="bivariate or homogeneous"):
        resultant_wrt(X * Y + Z, Y**2 - X, 1)
    with pytest.raises(ValueError, match="bivariate or homogeneous"):
        resultant_wrt(X - Y, X * Y - Z, 0)


def test_resultant_wrt_skips_bad_primes_and_points():
    from unicusp import uniroots

    first = next(uniroots.large_primes())
    # p's y-leading coefficient is 0 mod the first prime, so that prime is
    # skipped.  The leading coefficients vanish at x = 0, -1, -2; the points
    # run upward from 0, so only x = 0 is skipped and the run starts at 1.
    p = first * Y**5 * X**2 + X * (X - 1) * Y**4 + 3 * Y + X - 2
    q = (X + 2) * (X + 1) * Y**5 - Y**3 + Fraction(1, 7) * X**3 * Y + 1
    _assert_resultant_agrees(p, q, 1)
    # Here the y-leading coefficient x + first vanishes mod the first prime
    # only at x = 0, a point that is kept: its value `first` is nonzero over
    # Z.  So the first prime must be skipped for every point, not only where
    # a leading coefficient vanishes identically.
    p = (X + first) * Y**5 + X**2 * Y**3 - 2 * Y + X
    q = 3 * Y**5 + (X - 3) * Y**2 + X**3 * Y - 5
    _assert_resultant_agrees(p, q, 1)


def test_resultant_wrt_falls_back_to_per_prime_euclid(monkeypatch):
    from unicusp import uniroots
    from unicusp.poly import resultant_int

    first = next(uniroots.large_primes())
    # Both y-leading coefficients are 1, so every prime is kept, and P is
    # reduced modulo Q once.  The remainder, first*y^3 + (x - x^3)*y^2 - y
    # + x^2 + 5, has leading coefficient `first`: a zero divisor modulo the
    # product of the primes, so each point falls back to one Euclid per
    # prime and CRT.
    p = Y**5 + first * Y**3 + X * Y**2 + X**2 + 5
    q = Y**4 + X**3 * Y + 1
    calls, real = [], uniroots.resultant_mod_p

    def spy(a, b, m):
        value = real(a, b, m)
        calls.append((len(a) - 1, len(b) - 1, m, value))
        return value

    monkeypatch.setattr(uniroots, "resultant_mod_p", spy)
    got = resultant_int(p, q, 1, 0, 0)
    monkeypatch.undo()
    want = resultant_wrt(p, q, 1)
    assert from_univariate(got, 0) == want
    composite = [c for c in calls if c[2] != first and c[3] is None]
    assert composite and all(c[:2] == (4, 3) for c in composite)
    # Modulo `first` itself R_t loses its leading term (and at t = 0, 1
    # the next one, x - x^3, too).
    per_prime = [c for c in calls if c[2] == first]
    assert len(per_prime) == len(composite) and all(c[0] == 4 and c[1] < 3 for c in per_prime)
    # Every call runs on Q and the remainder, not on the (5, 4) pair.
    assert all(c[0] == 4 and c[1] <= 3 for c in calls)
    _assert_resultant_agrees(p, q, 1)


def _interpolation_spy(monkeypatch):
    """Record (x0, number of points) of every interpolation."""
    from unicusp import uniroots

    runs = []
    interpolate = uniroots.interpolate_mod_p

    def spy(x0, ys, modulus):
        runs.append((x0, len(ys)))
        return interpolate(x0, ys, modulus)

    monkeypatch.setattr(uniroots, "interpolate_mod_p", spy)
    return runs


def test_resultant_int_restarts_the_run_after_a_skipped_point(monkeypatch):
    # The y-leading rows x (of p) and x - 3 (of q) vanish over Z at x = 0
    # and x = 3.  The bound is min(2*2 + 3*1, 2*4 + 3*3 - 3*2) = 7, so the
    # run 1, 2 is cut at 3 and the 8 points are 4, ..., 11.
    runs = _interpolation_spy(monkeypatch)
    p = X * Y**3 + (X**2 - 1) * Y + 2
    q = (X - 3) * Y**2 + X * Y - 5
    _assert_resultant_agrees(p, q, 1)
    assert runs == [(4, 8)]


def test_form_resultant_int_restarts_the_run_where_a_row_vanishes_mod_the_prime(monkeypatch):
    # Dehomogenized, p's y-leading row x + prime - 5 vanishes modulo the
    # prime at x = 5, inside the first window 1, ..., 12 (q's row x vanishes
    # at 0; the bound is min(2*3 + 3*3, 2*4 + 3*3 - 3*2) = 11).  The run
    # restarts at 6, and the image is still the reduced exact resultant.
    from unicusp import uniroots

    prime = next(uniroots.large_primes())
    p = (X + (prime - 5) * Z) * Y**3 + X**3 * Y + Z**4
    q = X * Y**2 + Y * Z**2 - X**3
    runs = _interpolation_spy(monkeypatch)
    image = form_resultant_int(p, q, 1, prime)
    assert runs == [(6, 12)]
    assert image == _image_from_exact(p, q, prime)


def test_resultant_int_refuses_a_prime_with_no_run_of_points():
    # The bound is 60, and modulo 101 no 61 consecutive residues avoid the
    # roots of both y-leading rows.  The residues repeat with period 101, so
    # the walk ends at t = 202 and the precondition is named, at once.  With
    # constant leading rows every residue is a point, but a bound of 158
    # needs more than 101 distinct ones.
    from unicusp.poly import resultant_int

    p = 7 * X**5 * Y**5 + X**3 * Y**6 - 4 * X**3 * Y**5 - 8 * X**3 * Y**4 + 3 * X**3 * Y + 9 * X**2 * Y**2 + X**2
    q = (
        9 * X**5 * Y**6 + 3 * X**4 * Y**6 + 2 * X**4 * Y**5 + X**2 * Y**6
        - 4 * X**4 * Y**3 - 4 * Y**6 - 9 * X**2 * Y**3 + 7 * Y**3
    )

    def hang(signum, frame):
        raise AssertionError("resultant_int did not return within 5 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match="prime 101 is too small for degree bound 60"):
            resultant_int(p, q, 1, 0, 101)
        with pytest.raises(ValueError, match="prime 101 is too small for degree bound 158"):
            resultant_int(Y**2 + X**40 + 3, Y**2 + X**41 + 1, 1, 0, 101)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_form_resultant_int_interpolates_only_the_cofactor_of_a_known_factor(monkeypatch):
    # Res_y(y*z^2 - g, y^2*z^4 - h) is g^2 - h at z = 1, up to sign: with
    # g = x*(2x - 3z)^2 and h = x^2*(2x - 3z)^4 - x^2*(2x - 3z)^3 that is
    # x^2 * (2t - 3)^3, of degree 5 against the form's 2*3 + 6 - 2 = 10:
    # (1 : 0) is a root of order 5.  Without a cut the run has 10 + 1
    # points; a cut k, a known factor s^k, takes k of them away.
    from unicusp import uniroots

    g = X * (2 * X - 3 * Z) ** 2
    p = Y * Z**2 - g
    q = Y**2 * Z**4 - X**2 * (2 * X - 3 * Z) ** 4 + X**2 * (2 * X - 3 * Z) ** 3
    cases = {0: (0, 11), 3: (0, 8), 5: (0, 6)}
    for prime in (0, 101, next(uniroots.large_primes())):
        want = form_resultant_int(p, q, 1, prime)
        assert uniroots.deg(want) == 5
        for cut, run in cases.items():
            runs = _interpolation_spy(monkeypatch)
            assert form_resultant_int(p, q, 1, prime, cut) == want, (prime, cut)
            assert runs == [run], (prime, cut)
            monkeypatch.undo()
    # The form's degree counts the z-powers that dehomogenizing drops:
    # z*p and z^2*q have the eliminant z^(2*1 + 1*2) * (that of p, q), so
    # (1 : 0) has order 9 there, and the run keeps 10 - 5 + 1 points.
    want = form_resultant_int(p, q, 1, 0)
    runs = _interpolation_spy(monkeypatch)
    assert form_resultant_int(Z * p, Z**2 * q, 1, 0, 9) == want
    assert runs == [(0, 6)]


def _image_from_exact(p, q, prime):
    """resultant_wrt(p, q, 1) at z = 1 over content(p)**n * content(q)**m,
    reduced modulo prime: what form_resultant_int must return."""
    from unicusp import uniroots

    m, n = p.degree_in(1), q.degree_in(1)
    scale = content(p) ** n * content(q) ** m
    exact = resultant_wrt(p, q, 1).substitute((X, Y, ONE)) * (1 / scale)
    coeffs = [0] * (exact.degree_in(0) + 1)
    for e, c in exact.terms.items():
        coeffs[e[0]] = c.numerator
    return uniroots.trim([c % prime for c in coeffs])


def test_form_resultant_int_mod_p_is_the_reduced_exact_resultant():
    from unicusp import uniroots

    rng = random.Random(1973)
    checked = 0
    for prime in (101, next(uniroots.large_primes())):
        while checked < 8:
            p, q = _random_form(rng, rng.randint(2, 5), 6), _random_form(rng, rng.randint(2, 5), 6)
            if min(p.degree_in(1), q.degree_in(1)) < 1:
                continue
            assert form_resultant_int(p, q, 1, prime) == _image_from_exact(p, q, prime), (p, q)
            checked += 1
        checked = 0
    # Points where a leading coefficient vanishes modulo the prime are
    # skipped, so the formal degrees hold: x = 0 for q, and x = 7 for p,
    # where x + 94 is 101, nonzero over Z.
    p = (X * Z + 101 * Z**2 - 7 * Z**2) * Y**3 + X**4 * Y + Z**5
    q = X * Y**2 + Y * Z**2 - X**3
    assert form_resultant_int(p, q, 1, 101) == _image_from_exact(p, q, 101)
    # The image of a zero resultant is zero.
    assert form_resultant_int(p * q, q * (X + Y), 1, 101) == []


def test_form_resultant_int_mod_p_is_none_when_a_leading_coefficient_vanishes():
    # p is primitive, but its y-leading coefficient 101*x is 0 mod 101.
    p = 101 * X * Y**2 + Y * Z**2 + X**3
    q = Y**2 - X * Z
    assert form_resultant_int(p, q, 1, 101) is None
    assert form_resultant_int(p, q, 1, 103) == _image_from_exact(p, q, 103)


def _form_with_constant_lead(rng, d, s, terms):
    """A seeded form of degree d and y-degree s whose y-leading
    coefficient, dehomogenized at z, is a nonzero constant: c*y**s*z**(d-s)."""
    low = {e: c for e, c in _random_form(rng, d, terms).terms.items() if e[1] < s}
    low[(0, s, d - s)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 3))
    return Poly(low)


def test_form_resultant_int_matches_sympy_resultant_at_z_one():
    # The exact list is Res_y(P, Q)(t, 1) for the primitive parts P, Q, as
    # sympy computes it; the one-prime list is that list reduced.  The
    # pairs are seeded forms, then forms with a constant y-leading row on
    # P, on Q and on both, which the kernel reduces once; each runs in
    # both argument orders.  sympy.resultant(f, g) has the rows of f first
    # when deg f >= deg g, so the oracle for a lower-degree first argument
    # is (-1)**(m*n) times the resultant with the arguments swapped.
    import sympy

    from unicusp import uniroots

    x, y, z = sympy.symbols("x y z")
    rng = random.Random(1974)
    pairs = []
    while len(pairs) < 8:
        p, q = _random_form(rng, rng.randint(2, 5), 6), _random_form(rng, rng.randint(2, 5), 6)
        if min(p.degree_in(1), q.degree_in(1)) >= 1:
            pairs.append((p, q))
    rng = random.Random(2036)
    for lead in ("p", "q", "both"):
        for _ in range(4):
            dp, dq = rng.randint(2, 5), rng.randint(2, 5)
            sp, sq = rng.randint(1, dp), rng.randint(1, dq)
            p = _form_with_constant_lead(rng, dp, sp, 6) if lead != "q" else _random_form(rng, dp, 6)
            q = _form_with_constant_lead(rng, dq, sq, 6) if lead != "p" else _random_form(rng, dq, 6)
            if min(p.degree_in(1), q.degree_in(1)) >= 1:
                pairs.append((p, q))
    for p, q in pairs:
        for a, b in ((p, q), (q, p)):
            f, g = (
                sympy.sympify(poly_to_text(h * (1 / content(h))).replace("^", "**")).subs(z, 1)
                for h in (a, b)
            )
            m, n = a.degree_in(1), b.degree_in(1)
            res = sympy.resultant(f, g, y) if m >= n else (-1) ** (m * n) * sympy.resultant(g, f, y)
            res = sympy.Poly(res, x)
            want = [] if res.is_zero else [int(c) for c in reversed(res.all_coeffs())]
            exact = form_resultant_int(a, b, 1, 0)
            assert exact == want, (a, b)
            for prime in (101, next(uniroots.large_primes())):
                assert form_resultant_int(a, b, 1, prime) == uniroots.trim([c % prime for c in exact]), (a, b, prime)


def test_reduced_resultant_int_of_a_shared_component_is_zero():
    # S = y^2 - x*z divides B: the remainder R is zero at every point.
    from unicusp import uniroots

    s = Y**2 - X * Z
    b = s * (X * Y**2 + 3 * Y * Z**2 - X**3)
    for prime in (0, 101, next(uniroots.large_primes())):
        assert form_resultant_int(s, b, 1, prime) == [], prime
        assert form_resultant_int(b, s, 1, prime) == [], prime


def test_reduced_resultant_int_where_the_remainder_drops_degree_at_a_point():
    # B = (y + x)*S + R0 with S = 2*y^2 + x*y + 1 at z = 1, so c = 2 and
    # c**2 * B rem S is 4*R0.  R0's leading row x - 2 vanishes at the sample
    # point t = 2, where R_t is a constant, or 0 in the second case.
    from unicusp import uniroots

    s = 2 * Y**2 + X * Y + Z**2
    for rem in ((X - 2 * Z) * Y * Z + 3 * Z**3, (X - 2 * Z) * (Y + Z) * Z):
        b = (Y + X) * s + rem
        for p, q in ((s, b), (b, s)):
            for prime in (101, next(uniroots.large_primes())):
                assert form_resultant_int(p, q, 1, prime) == _image_from_exact(p, q, prime), (rem, prime)
            _assert_resultant_agrees(p, q, 1)


# -- integer numerators against the Fraction-dict arithmetic they replaced ----
#
# Each _ref_* function is the parent's Poly operation on a dict of Fraction
# coefficients, kept here as the reference the integer kernels must match.


def _ref_add(p, q):
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, Fraction(0)) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _ref_scale(p, c):
    c = Fraction(c)
    return {e: k * c for e, k in p.items()} if c else {}


def _ref_mul(p, q):
    out = {}
    for (a1, b1, c1), k1 in p.items():
        for (a2, b2, c2), k2 in q.items():
            e = (a1 + a2, b1 + b2, c1 + c2)
            s = out.get(e, Fraction(0)) + k1 * k2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _ref_partial(p, i):
    out = {}
    for e, c in p.items():
        if e[i]:
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = c * e[i]
    return out


def _ref_coeffs_wrt(p, i):
    out = {}
    for e, c in p.items():
        ne = list(e)
        k, ne[i] = ne[i], 0
        out.setdefault(k, {})[tuple(ne)] = c
    return out


def _ref_dehomogenize(p, i):
    out = {}
    for e, c in p.items():
        out = _ref_add(out, {tuple(0 if j == i else e[j] for j in range(3)): c})
    return out


def _ref_substitute(p, images):
    out = {}
    for e, k in p.items():
        term = {(0, 0, 0): k}
        for image, n in zip(images, e):
            for _ in range(n):
                term = _ref_mul(term, image)
        out = _ref_add(out, term)
    return out


def _ref_content(p):
    num, den = 0, 1
    for c in p.values():
        num = math.gcd(num, c.numerator)
        den = math.lcm(den, c.denominator)
    return Fraction(num, den)


def _ref_normalized(p):
    if not p:
        return p
    c = _ref_content(p)
    if p[max(p, key=lambda e: (sum(e), e[0], e[1]))] < 0:
        c = -c
    return _ref_scale(p, 1 / c)


def _ref_strip(p, factors):
    if p.is_zero():
        return p
    for f in factors:
        while (q := _exact_divide_reference(p, f)) is not None:
            p = q
    return p


def _assert_same(got, want_terms):
    """got has the reference's terms, equals the Poly built from them, and
    hashes like it."""
    want = Poly(want_terms)
    assert got.terms == want_terms
    assert got == want and hash(got) == hash(want)


_TERMS = st.dictionaries(_SMALL_EXPONENTS, _NONZERO, max_size=6)
_IMAGE_TERMS = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 1)), _NONZERO, max_size=3
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_TERMS, _TERMS, _NONZERO | st.integers(-3, 3), st.tuples(_IMAGE_TERMS, _IMAGE_TERMS, _IMAGE_TERMS))
def test_integer_numerators_agree_with_fraction_arithmetic(pt, qt, c, image_terms):
    p, q = Poly(pt), Poly(qt)
    _assert_same(p, pt)
    _assert_same(p + q, _ref_add(pt, qt))
    _assert_same(p - q, _ref_add(pt, _ref_scale(qt, -1)))
    _assert_same(p * q, _ref_mul(pt, qt))
    _assert_same(p * c, _ref_scale(pt, c))
    for i in range(3):
        _assert_same(p.partial(i), _ref_partial(pt, i))
        _assert_same(dehomogenize(p, i), _ref_dehomogenize(pt, i))
        got = p.coeffs_wrt(i)
        want = _ref_coeffs_wrt(pt, i)
        assert got.keys() == want.keys()
        for k in want:
            _assert_same(got[k], want[k])
    images = tuple(Poly(t) for t in image_terms)
    _assert_same(p.substitute(images), _ref_substitute(pt, image_terms))
    assert content(p) == _ref_content(pt)
    _assert_same(normalized(p), _ref_normalized(pt))
    if q:
        for dividend in (p * q, p * q + p):
            want = _exact_divide_reference(dividend, q)
            got = exact_divide(dividend, q)
            assert (got is None) == (want is None)
            if want is not None:
                _assert_same(got, want.terms)
        if not q.is_constant():
            _assert_same(strip_factors(p * q * q, [q]), _ref_strip(p * q * q, [q]).terms)


def test_equal_polynomials_built_differently_hash_alike():
    third = Fraction(1, 3)
    for p, q in [
        (X * Fraction(1, 2) + X * Fraction(1, 2), X),
        ((3 * X) * third, X),
        (Poly({(1, 0, 0): Fraction(2, 2)}), X),
        (Poly({(1, 0, 0): 4, (0, 0, 0): 6}) * Fraction(1, 2), 2 * X + 3),
        (Fraction(5, 6) * X - Fraction(1, 3) * X, X * Fraction(1, 2)),
        ((X * Fraction(1, 6) + Y * Fraction(1, 3)) * 6, X + 2 * Y),
        (X * Fraction(1, 4) - X * Fraction(1, 4), Poly.zero()),
    ]:
        assert p == q and hash(p) == hash(q)
        assert p._den > 0 and math.gcd(p._den, *p._num.values()) == 1
