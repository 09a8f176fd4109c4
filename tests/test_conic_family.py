"""The conic family: images of the contact cubics under automorphisms of
P^2 minus the conic Q: xz = y^2.  The one point of each member on Q comes
from sympy, not from the singular search, and the search must find it and
nothing else.

Two kinds of map preserve Q, so both restrict to automorphisms of P^2 \\ Q
(cf. Danilov-Gizatullin, "Automorphisms of affine surfaces I, II"): the
quintic involutions h_c, whose constructor certifies that Q pulls back to
Q^5, and the PGL(2) action on Q = {(s^2 : st : t^2)}, where (s, t) ->
(al*s + be*t, ga*s + de*t) is the linear map with rows (al^2, 2*al*be,
be^2), (al*ga, al*de + be*ga, be*de), (ga^2, 2*ga*de, de^2).  A start
curve C0 (`contact-cubic`, `mirror-cubic` or `image-quintic`, at an (a, b)
where the contact cubic is smooth) meets Q at one point.  The PGL(2) step
moves that point off p = (0 : 0 : 1), without which h_c can lower the
degree, and h_c then gives a member of degree 5d: 15 or 25.

C \\ Q is isomorphic to C0 \\ Q, a smooth affine genus-one curve with one
place on Q.  So every member meets Q at one point, where F(s^2, st, t^2)
is a constant times a 2d-th power of a linear form, is smooth off Q and
so unicuspidal there, has genus 1, is not ALARM and has (C')^2 <= 6.  Its
(C')^2 = 3 and its full sequence, six copies of 2d followed by C0's own
tail, are observations, not yet a theorem.
"""

import random

import pytest

from unicusp.corpus import curve_by_name, param_set
from unicusp.cremona import make_map, quintic_involution, strict_transform
from unicusp.curves import ProjPoint
from unicusp.poly import X, Y, Z
from unicusp.resolution import VERDICT_ALARM, classify

# The full sequence of each start curve at its point on Q, the member's
# tail: a smooth cubic adds (1^6), image-quintic its cusp's (2^5, 1^2).
STARTS = {
    "contact-cubic": (1,) * 6,
    "mirror-cubic": (1,) * 6,
    "image-quintic": (2,) * 5 + (1,) * 2,
}


def point_on_conic(poly, degree: int) -> tuple[int, int]:
    """(s0, t0) with F(s^2, st, t^2) = k * (t0*s - s0*t)^(2d): the curve's
    one point on Q is (s0^2 : s0*t0 : t0^2).  Fails when there are more."""
    import sympy

    s, t = sympy.symbols("s t")
    # x^a y^b z^c becomes s^(2a + b) t^(b + 2c)
    form = {}
    for (a, b, c), k in poly.terms.items():
        key = (2 * a + b, b + 2 * c)
        form[key] = form.get(key, 0) + sympy.Rational(k.numerator, k.denominator)
    _, factors = sympy.Poly.from_dict(form, s, t).sqf_list()
    [(line, power)] = factors
    assert power == 2 * degree and line.total_degree() == 1, factors
    u, v = (line.coeff_monomial(m) for m in (s, t))
    return int(-v / sympy.gcd(u, v)), int(u / sympy.gcd(u, v))


def _smooth_contact_cubic(a: int, b: int) -> bool:
    """The gradient of (a*x + 2*b*y - z)(xz - y^2) + x^3 vanishes only at
    the origin of the affine cone (sympy's Groebner basis)."""
    import sympy

    x, y, z = sympy.symbols("x y z")
    f = (a * x + 2 * b * y - z) * (x * z - y**2) + x**3
    return sympy.groebner([f.diff(v) for v in (x, y, z)], x, y, z).is_zero_dimensional


def pgl2_step(al: int, be: int, ga: int, de: int):
    return make_map(
        al * al * X + 2 * al * be * Y + be * be * Z,
        al * ga * X + (al * de + be * ga) * Y + be * de * Z,
        ga * ga * X + 2 * ga * de * Y + de * de * Z,
    )


def _random_member(rng: random.Random):
    """A seeded start curve at a smooth (a, b), a PGL(2) step that moves
    its point on Q off p, and the involution h_c: (start, step, c, ps)."""
    start = rng.choice(sorted(STARTS))
    while True:
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        if _smooth_contact_cubic(a, b):
            break
    ps = param_set(a, b, rng.randint(-1, 1))
    curve = curve_by_name(start, ps)
    s0, t0 = point_on_conic(curve.poly, curve.degree)
    while True:
        step = tuple(rng.randint(-2, 2) for _ in range(4))
        al, be, ga, de = step
        # the step sends (s, t) to M(s, t), so the moved point M^-1(s0, t0)
        # is p = (0 : 1) exactly when de*s0 = be*t0
        if al * de != be * ga and de * s0 != be * t0:
            return start, step, rng.randint(-1, 1), ps


def member(start: str, step, c: int, ps):
    moved = strict_transform(pgl2_step(*step), curve_by_name(start, ps), [])
    return strict_transform(quintic_involution(c), moved, [curve_by_name("conic", ps)])


SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
def test_conic_family_member(seed):
    start, step, c, ps = _random_member(random.Random(seed))
    curve = member(start, step, c, ps)
    d0 = curve_by_name(start, ps).degree
    assert curve.degree == 5 * d0

    s0, t0 = point_on_conic(curve.poly, curve.degree)
    cusp = ProjPoint.of(s0 * s0, s0 * t0, t0 * t0)
    report = classify(curve)
    assert [p for p, _ in report.singular_points] == [cusp]
    assert report.resolution is not None and report.resolution.point == cusp
    assert report.genus == 1
    assert report.verdict != VERDICT_ALARM
    assert report.resolution.strict_self_intersection <= 6
    # observations
    assert report.resolution.strict_self_intersection == 3
    assert report.resolution.full_sequence == (2 * d0,) * 6 + STARTS[start]


def test_the_family_draws_every_start_curve():
    assert {_random_member(random.Random(seed))[0] for seed in SEEDS} == set(STARTS)
