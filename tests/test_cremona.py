import logging
import random
from fractions import Fraction

import pytest

from unicusp import cremona, uniroots
from unicusp.cremona import (
    CremonaError,
    CremonaMap,
    base_conic,
    base_cubic,
    base_quintic,
    check_parameterization,
    extend_affine_automorphism,
    is_involution,
    make_map,
    pullback,
    quintic_involution,
    strict_transform,
)
from unicusp.curves import make_curve, repeated_factor
from unicusp.parse import parse_poly
from unicusp.poly import ONE, Poly, X, Y, Z, proportional


def _apply(m, point):
    """The image of a point: each component evaluated there."""
    return tuple(c.evaluate(point) for c in m.components)


def compose_reduce(outer: CremonaMap, inner: CremonaMap) -> CremonaMap:
    """Componentwise composition; `make_map` divides out the shared factor
    and logs it."""
    comps = tuple(p.substitute(inner.components) for p in outer.components)
    if not any(comps):
        raise CremonaError("composition degenerates: all components vanish")
    try:
        return make_map(*comps)
    except CremonaError as err:
        raise CremonaError(f"composition degenerates: {err}") from err


def identity_map():
    return CremonaMap((X, Y, Z))


def const(v):
    return Poly.const(Fraction(v))


def contact_cubic(a, b):
    """Cubic through the contact point, tangent to the conic there."""
    return make_curve((const(a) * X + const(2 * b) * Y - Z) * base_conic() + X**3)


def mirror_cubic(a, b):
    return make_curve((const(a) * Z + const(2 * b) * Y - X) * base_conic() + Z**3)


def quintic_image_formula(a, b, c):
    # derived by expanding the pullback of contact_cubic and cancelling f2^5
    f2 = base_conic()
    f3 = base_cubic(c)
    f5 = base_quintic(c)
    return const(a) * X * f2**2 - const(2 * b) * f3 * f2 - f5 + X**3 * f2


def deg15_image_formula(a, b, c):
    # here the pullback is already conic-free, so no cancellation happens
    f2 = base_conic()
    f3 = base_cubic(c)
    f5 = base_quintic(c)
    return (const(a) * f5 - const(2 * b) * f3 * f2 - X * f2**2) * f2**5 + f5**3


PARAMS = [(1, 1, 0), (2, -1, 1)]


def projectively_equal(u, v):
    ratios = {Fraction(a) / Fraction(b) for a, b in zip(u, v) if b != 0}
    return len(ratios) == 1 and all(b != 0 or a == 0 for a, b in zip(u, v))


# -- map construction ---------------------------------------------------------


def test_make_map_rejects_zero_triple():
    with pytest.raises(CremonaError, match="all map components are zero"):
        make_map(Poly.zero(), Poly.zero(), Poly.zero())


def test_make_map_rejects_inhomogeneous():
    with pytest.raises(CremonaError, match="not homogeneous"):
        make_map(X + ONE, Y, Z)


def test_make_map_rejects_mixed_degrees():
    with pytest.raises(CremonaError, match="different degrees"):
        make_map(X**2, Y, Z)


def test_make_map_rejects_proportional_components():
    with pytest.raises(CremonaError, match="image is a point"):
        make_map(X, const(2) * X, const(-3) * X)


def _jacobian(comps):
    """det(dp_i/dx_j) as a polynomial."""
    (a, b, c), (d, e, f), (g, h, k) = ([p.partial(v) for v in range(3)] for p in comps)
    return a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)


def _random_form(rng, d):
    terms = {}
    for i in range(d + 1):
        for j in range(d + 1 - i):
            if rng.random() < 0.6:
                terms[(i, j, d - i - j)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Poly(terms)


def test_jacobian_check_matches_the_symbolic_determinant():
    # Random triples, and triples built from two forms u and v, whose
    # components are algebraically dependent and so whose Jacobian vanishes.
    rng = random.Random(20261019)
    cases = []
    for _ in range(40):
        d = rng.randint(1, 3)
        cases.append(tuple(_random_form(rng, d) for _ in range(3)))
        k = rng.randint(1, 2)
        u, v = _random_form(rng, k), _random_form(rng, k)
        n = rng.randint(-3, 3)
        cases.append((u * u, u * v, v * v) if k == 1 else (u, v, u + Poly.const(n) * v))
    dependent = 0
    for comps in cases:
        nonzero = [p for p in comps if not p.is_zero()]
        if len({p.total_degree() for p in nonzero}) != 1 or any(
            not p.is_homogeneous() for p in nonzero
        ):
            continue
        want = _jacobian(comps).is_zero()
        dependent += want
        assert cremona._jacobian_vanishes(comps, nonzero[0].total_degree()) is want, comps
    assert dependent >= 20


def test_make_map_accepts_a_jacobian_that_vanishes_on_a_smaller_grid():
    # J = 18 x (x - z) (x - 2z) (x - 3z) z^2, of degree 3(d - 1) = 6:
    # zero at every (i, j, 1) with i <= 3 = d, nonzero at i = 4 <= 3(d - 1).
    comps = (
        const(2) * X**3 - const(3) * X**2 * Z,
        Y * (X - const(2) * Z) * (X - const(3) * Z),
        Z**3,
    )
    roots = X * (X - Z) * (X - const(2) * Z) * (X - const(3) * Z)
    assert _jacobian(comps) == const(18) * roots * Z**2
    assert make_map(*comps).components == comps


def _cremona_warnings(caplog) -> list[str]:
    return [rec.getMessage() for rec in caplog.records if rec.name == "unicusp.cremona"]


def test_make_map_divides_common_factor(caplog):
    with caplog.at_level(logging.WARNING, logger="unicusp.cremona"):
        m = make_map(X**2, X * Y, X * Z)
    assert m.components == (X, Y, Z)
    assert m.degree == 1
    assert _cremona_warnings(caplog) == ["divided out common factor x"]


def _quadratic_map(c):
    """(L2*L3, L1*L3, L1*L2) for L1 = y, L2 = x - y and L3 = z - c*x: the
    standard quadratic involution in those coordinates, with the base
    points (0 : 0 : 1), (1 : 0 : c) and (1 : 1 : c)."""
    l1, l2, l3 = Y, X - Y, Z - c * X
    return l2 * l3, l1 * l3, l1 * l2


def _spy_gcd(monkeypatch) -> list:
    from unicusp import poly

    calls = []

    def counted(p, q):
        calls.append((p, q))
        return poly.gcd(p, q)

    monkeypatch.setattr(cremona, "gcd", counted)
    return calls


def _patch_first_prime(monkeypatch, p):
    """Make p the first of `uniroots.large_primes`, the certificate's prime."""
    real = uniroots.large_primes

    def primes():
        yield p
        yield from real()

    monkeypatch.setattr(uniroots, "large_primes", primes)


def test_make_map_certifies_coprime_components_without_a_gcd(monkeypatch, caplog):
    # The certificate restricts each component to z = x + y with
    # `curves.restrict_to_line`, the kernel of the line cycle: make_map
    # makes no gcd and no Poly.substitute call.
    maps = [quintic_involution(c).components for c in (0, 1)] + [_quadratic_map(9)]
    calls, substituted = _spy_gcd(monkeypatch), []
    real = Poly.substitute

    def substitute(self, images):
        substituted.append(images)
        return real(self, images)

    monkeypatch.setattr(Poly, "substitute", substitute)
    with caplog.at_level(logging.WARNING, logger="unicusp.cremona"):
        for comps in maps:
            assert make_map(*comps).components == comps
    assert calls == [] and substituted == [] and _cremona_warnings(caplog) == []


def test_make_map_divides_out_the_certificate_line(monkeypatch, caplog):
    # Times x + y - z, the certificate's own line, every component
    # restricts to the zero list there: the certificate cannot tell, and
    # the gcd still runs, divides the line out and logs it.
    calls = _spy_gcd(monkeypatch)
    with caplog.at_level(logging.WARNING, logger="unicusp.cremona"):
        m = make_map(*((X + Y - Z) * p for p in _quadratic_map(9)))
    assert m.components == _quadratic_map(9) and len(calls) == 2
    assert _cremona_warnings(caplog) == ["divided out common factor x + y - z"]


def test_make_map_falls_back_to_the_gcd_when_the_certificate_fails(monkeypatch, caplog):
    # The base point (1 : 1 : 2) of the first map lies on the certificate's
    # line z = x + y, so the restrictions share a root there although the
    # components share no factor.  The base point (1 : 1 : 9) of the
    # second lies on that line modulo 7 only, the certificate's prime here.
    # Both maps fall back to the gcd, which finds nothing to divide out.
    for c, first in ((2, None), (9, 7)):
        if first:
            _patch_first_prime(monkeypatch, first)
        calls = _spy_gcd(monkeypatch)
        comps = _quadratic_map(c)
        with caplog.at_level(logging.WARNING, logger="unicusp.cremona"):
            assert make_map(*comps).components == comps
        assert len(calls) == 2 and _cremona_warnings(caplog) == []


def test_make_map_divides_a_common_factor_under_any_prime(monkeypatch, caplog):
    # A shared factor defeats the certificate at every prime: the gcd
    # divides it out and the warning names it, as with the real prime.
    _patch_first_prime(monkeypatch, 7)
    with caplog.at_level(logging.WARNING, logger="unicusp.cremona"):
        m = make_map(*(X * p for p in _quadratic_map(9)))
    assert m.components == _quadratic_map(9)
    assert _cremona_warnings(caplog) == ["divided out common factor x"]


def test_identity_map():
    m = identity_map()
    assert m.degree == 1
    assert _apply(m, (Fraction(1), Fraction(2), Fraction(3))) == (1, 2, 3)
    assert str(m) == "(x, y, z)"


# -- the degree-five involution ----------------------------------------------


@pytest.mark.parametrize("c", [0, 1, -2])
def test_quintic_involution_shape(c, caplog):
    with caplog.at_level(logging.WARNING, logger="unicusp.cremona"):
        h = quintic_involution(c)
    assert h.degree == 5
    assert _cremona_warnings(caplog) == []


@pytest.mark.parametrize("c", [0, 1])
def test_quintic_involution_is_involution(c):
    assert is_involution(quintic_involution(c))


def test_identity_is_not_mistaken_for_degenerate():
    assert is_involution(identity_map())
    assert not is_involution(make_map(Y, Z, X))  # order 3, not 2


def _is_involution_reference(m):
    """The parent's rule: compose_reduce(m, m), with the shared factor
    divided out by a gcd, is of degree 1 with components proportional to
    (x, y, z)."""
    try:
        c = compose_reduce(m, m)
    except CremonaError:
        return False
    if c.degree != 1:
        return False
    p1, p2, p3 = c.components
    return p1 * Y == p2 * X and p2 * Z == p3 * Y and p1 * Z == p3 * X


def test_is_involution_matches_the_gcd_rule():
    from unicusp.corpus import DEFAULT_PARAMS, squaring_map

    seeded = [Fraction(-2, 3), Fraction(3, 2), Fraction(-1, 3)]
    cases = [(quintic_involution(ps.c), True) for ps in DEFAULT_PARAMS]
    cases += [(quintic_involution(c), True) for c in seeded]
    cases += [
        (make_map(Y * Z, X * Z, X * Y), True),
        (make_map(X**2, Y**2, Z**2), False),
        (squaring_map(), False),
        (make_map(Y, Z, X), False),
        (identity_map(), True),
        (extend_affine_automorphism([("swap",)]), True),
        # Triples with a zero component, which make_map refuses (their
        # image is a curve), whose composites are (x, y, 0), (0, 0, y),
        # (0, y, z) and all zero.
        (CremonaMap((X, Y, Poly.zero())), False),
        (CremonaMap((Y, Poly.zero(), X)), False),
        (CremonaMap((Poly.zero(), Z, Y)), False),
        (CremonaMap((Z, Poly.zero(), Poly.zero())), False),
    ]
    for m, want in cases:
        assert _is_involution_reference(m) is want, str(m)
        assert is_involution(m) is want, str(m)


def test_involution_point_round_trip():
    h = quintic_involution(-2)
    p = (Fraction(1), Fraction(2), Fraction(5))
    q = _apply(h, p)
    assert not projectively_equal(p, q)
    assert projectively_equal(_apply(h, q), p)


@pytest.mark.parametrize("c", [0, 1, -2])
def test_conic_pulls_back_to_its_fifth_power(c):
    h = quintic_involution(c)
    f2 = base_conic()
    assert f2.substitute(h.components) == f2**5


@pytest.mark.parametrize("c", [0, 1])
def test_cubic_pullback_splits_off_a_line(c):
    h = quintic_involution(c)
    f2, f3 = base_conic(), base_cubic(c)
    assert f3.substitute(h.components) == -Y * f2**7


@pytest.mark.parametrize("c", [0, 1])
def test_quintic_pullback_splits_off_a_line(c):
    h = quintic_involution(c)
    f2, f5 = base_conic(), base_quintic(c)
    assert f5.substitute(h.components) == Z * f2**12


@pytest.mark.parametrize("c", [0, 1, -2, Fraction(-3, 7)])
def test_pencil_member_identity(c):
    # x*f5 - f3^2 is a perfect cube of the conic, for every parameter value
    f2, f3, f5 = base_conic(), base_cubic(c), base_quintic(c)
    assert X * f5 - f3**2 == f2**3


def test_pullback_of_coordinate_line():
    h = quintic_involution(0)
    line = make_curve(X)
    assert pullback(h, line) == X * base_conic() ** 2


# -- strict transforms --------------------------------------------------------


@pytest.mark.parametrize("a,b,c", PARAMS)
def test_strict_transform_of_contact_cubic(a, b, c):
    h = quintic_involution(c)
    conic = make_curve(base_conic())
    image = strict_transform(h, contact_cubic(a, b), [conic])
    assert image.degree == 5
    assert proportional(image.poly, quintic_image_formula(a, b, c))


@pytest.mark.parametrize("a,b,c", PARAMS)
def test_strict_transform_of_mirror_cubic(a, b, c):
    h = quintic_involution(c)
    conic = make_curve(base_conic())
    image = strict_transform(h, mirror_cubic(a, b), [conic])
    assert image.degree == 15
    assert proportional(image.poly, deg15_image_formula(a, b, c))


@pytest.mark.parametrize("a,b,c", PARAMS)
def test_contact_cubic_round_trip(a, b, c):
    h = quintic_involution(c)
    conic = make_curve(base_conic())
    image = strict_transform(h, contact_cubic(a, b), [conic])
    back = strict_transform(h, image, [conic])
    assert proportional(back.poly, contact_cubic(a, b).poly)


@pytest.mark.parametrize(
    "a,b,c", PARAMS + [pytest.param(Fraction(-2, 3), 3, Fraction(-1, 3), id="-2/3-3--1/3")]
)
def test_mirror_cubic_round_trip(a, b, c):
    # the backward pullback has degree 75; the rational point gives the
    # involution and the image non-integral coefficients
    h = quintic_involution(c)
    conic = make_curve(base_conic())
    image = strict_transform(h, mirror_cubic(a, b), [conic])
    back = strict_transform(h, image, [conic])
    assert proportional(back.poly, mirror_cubic(a, b).poly)


def test_exceptional_curve_has_no_strict_transform():
    h = quintic_involution(0)
    conic = make_curve(base_conic())
    with pytest.raises(CremonaError, match="exceptional"):
        strict_transform(h, conic, [conic])


def test_undeclared_exceptional_factor_is_refused():
    # the pullback is f2^5 times the quintic: the conic, left out of the
    # exceptional list, stays as a repeated factor and is named once
    h = quintic_involution(0)
    with pytest.raises(CremonaError, match="an exceptional curve is missing") as err:
        strict_transform(h, contact_cubic(1, 1), [])
    witness = parse_poly(str(err.value).split("dividing ")[1].split(":")[0])
    assert proportional(witness, base_conic())


def test_strict_transform_certifies_once(monkeypatch):
    from unicusp import cremona, curves

    h = quintic_involution(0)
    conic, cubic = make_curve(base_conic()), contact_cubic(1, 1)
    calls = []

    def counted(p):
        calls.append(p)
        return repeated_factor(p)

    monkeypatch.setattr(curves, "repeated_factor", counted)
    monkeypatch.setattr(cremona, "repeated_factor", counted)
    image = strict_transform(h, cubic, [conic])
    assert len(calls) == 1
    calls.clear()
    with pytest.raises(CremonaError, match="repeated factor"):
        strict_transform(h, cubic, [])
    # the witness, then the refusal
    assert len(calls) == 1
    monkeypatch.undo()
    assert image == make_curve(image.poly)


# -- composition --------------------------------------------------------------


def test_compose_with_identity():
    h = quintic_involution(1)
    assert compose_reduce(identity_map(), h).components == h.components
    assert compose_reduce(h, identity_map()).components == h.components


def test_involution_composes_to_degree_one():
    h = quintic_involution(0)
    assert compose_reduce(h, h).degree == 1


def test_compose_reduce_leaves_the_gcd_to_make_map(monkeypatch, caplog):
    h = quintic_involution(1)
    calls = _spy_gcd(monkeypatch)
    with caplog.at_level(logging.WARNING, logger="unicusp.cremona"):
        c = compose_reduce(h, h)
    # make_map's two gcds of the three components, and no others
    assert len(calls) == 2
    assert c.degree == 1
    p1, p2, p3 = c.components
    assert p1 * Y == p2 * X and p2 * Z == p3 * Y
    [warning] = _cremona_warnings(caplog)
    assert warning.startswith("divided out common factor ")


# -- affine automorphisms extended to the plane -------------------------------


def test_extend_swap():
    m = extend_affine_automorphism([("swap",)])
    assert m.components == (Y, X, Z)


def test_extend_affine_translation():
    m = extend_affine_automorphism([("affine", 1, 0, 0, 1, 2, 3)])
    assert m.components == (X + const(2) * Z, Y + const(3) * Z, Z)


def test_extend_quadratic_shear():
    m = extend_affine_automorphism([("shear", X**2)])
    assert m.components == (X * Z, Y * Z + X**2, Z**2)


def test_extend_steps_compose_in_order():
    m = extend_affine_automorphism([("shear", X), ("swap",)])
    assert m.components == (X + Y, X, Z)


def test_extend_shear_cancels_its_negation():
    m = extend_affine_automorphism([("shear", X**2), ("shear", -(X**2))])
    assert m.components == (X, Y, Z)


def test_extend_inverse_composes_to_identity():
    fwd = extend_affine_automorphism([("shear", X**3)])
    rev = extend_affine_automorphism([("shear", -(X**3))])
    c = compose_reduce(fwd, rev)
    assert c.degree == 1
    p1, p2, p3 = c.components
    assert p1 * Y == p2 * X and p2 * Z == p3 * Y


@pytest.mark.parametrize(
    "steps,fragment",
    [
        ([()], "empty"),
        ([("swap", 1)], "no arguments"),
        ([("affine", 1, 2, 2, 4, 0, 0)], "not invertible"),
        ([("affine", 1, 0)], "six coefficients"),
        ([("shear", Y**2)], "x only"),
        ([("shear", "x^2")], "polynomial argument"),
        ([("spin",)], "unknown"),
    ],
)
def test_extend_rejects_bad_steps(steps, fragment):
    with pytest.raises(CremonaError, match=fragment):
        extend_affine_automorphism(steps)


# -- parameterization checking ------------------------------------------------


def test_parameterization_of_cuspidal_cubic():
    curve = make_curve(Y**2 * Z - X**3)
    s, t = X, Y
    assert check_parameterization(curve, (s**2 * t, s**3, t**3))


@pytest.mark.parametrize("c", [0, 1, 2, Fraction(-3, 7)])
def test_parameterization_of_nodal_cubic(c):
    curve = make_curve(base_cubic(c))
    s, t = X, Y
    lin = s - const(c) * t
    param = (s * t**2, s * t * lin, s * lin**2 - t**3)
    assert check_parameterization(curve, param)


def test_parameterization_with_mismatched_degrees_is_rejected():
    # the natural-looking middle form s^2*t*(s - c*t) has degree four
    c = 1
    curve = make_curve(base_cubic(c))
    s, t = X, Y
    lin = s - const(c) * t
    bad = (s * t**2, s**2 * t * lin, s * lin**2 - t**3)
    with pytest.raises(CremonaError, match="mismatched degrees"):
        check_parameterization(curve, bad)


def test_parameterization_rejects_stray_variable():
    curve = make_curve(base_conic())
    with pytest.raises(CremonaError, match="two variables"):
        check_parameterization(curve, (X**2, X * Y, Z**2))


def test_parameterization_rejects_inhomogeneous_form():
    curve = make_curve(base_conic())
    with pytest.raises(CremonaError, match="not homogeneous"):
        check_parameterization(curve, (X**2, X * Y, Y**2 + X))


def test_parameterization_needs_three_forms():
    curve = make_curve(base_conic())
    with pytest.raises(CremonaError, match="exactly three"):
        check_parameterization(curve, (X, Y))


def test_parameterization_that_misses_the_curve():
    curve = make_curve(base_conic())
    assert not check_parameterization(curve, (X**2, Y**2, X**2))
