import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unicusp import uniroots as ur


F = Fraction


def mul_uni(a: list, b: list) -> list:
    """Product of two coefficient lists, lowest degree first."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return ur.trim(out)


def test_trim_and_deg():
    assert ur.trim([F(1), F(0), F(0)]) == [F(1)]
    assert ur.deg([F(2), F(0), F(3)]) == 2
    assert ur.deg([]) == -1


def test_eval():
    # 1 + 2x + x^2 at x = 3 -> 16
    assert ur.eval_uni_int([1, 2, 1], 3) == 16


def test_derivative():
    assert ur.derivative([F(5), F(0), F(3)]) == [F(0), F(6)]


def test_divmod_q():
    # (x^2 - 1) / (x - 1) = x + 1 remainder 0
    q, r = ur.divmod_q([F(-1), F(0), F(1)], [F(-1), F(1)])
    assert q == [F(1), F(1)]
    assert r == []


def test_divide_exact_int():
    assert ur.divide_exact_int([-1, 0, 1], [-1, 1]) == [1, 1]
    assert ur.divide_exact_int([1, 0, 1], [-1, 1]) is None


def test_content_primitive():
    assert ur.content_int([6, -9, 12]) == 3
    assert ur.primitive_int([6, -9, 12]) == [2, -3, 4]


def test_gcd_int_via_modular():
    # (x-1)(x+2) and (x-1)(x-5)
    a = mul_uni([-1, 1], [2, 1])
    b = mul_uni([-1, 1], [-5, 1])
    g = ur.gcd_int([int(c) for c in a], [int(c) for c in b])
    assert g == [-1, 1]


# a common factor x - N whose coefficients need well over a hundred primes
# near 2^30
BIG_N = 2**4000 + 1


def _spy_gcd_mod_p(monkeypatch) -> list[tuple[int, int]]:
    """Record (p, degree of the image) for every prime gcd_int reduces by."""
    seen, real = [], ur.gcd_mod_p

    def spy(a, b, p):
        g = real(a, b, p)
        seen.append((p, ur.deg(g)))
        return g

    monkeypatch.setattr(ur, "gcd_mod_p", spy)
    return seen


def test_gcd_int_runs_until_the_candidate_divides(monkeypatch):
    # (x - N)(x + 1) and (x - N)(x + 2)
    seen = _spy_gcd_mod_p(monkeypatch)
    assert ur.gcd_int([-BIG_N, 1 - BIG_N, 1], [-2 * BIG_N, 2 - BIG_N, 1]) == [-BIG_N, 1]
    assert len(seen) > 120 and {d for _, d in seen} == {1}


def test_gcd_int_skips_a_prime_dividing_a_leading_coefficient(monkeypatch):
    # (p1 x + 1)(x - 1) and (x - 1)(x + 2): p1 would drop the degree of a
    primes = ur.large_primes()
    p1, p2 = next(primes), next(primes)
    seen = _spy_gcd_mod_p(monkeypatch)
    a = [int(c) for c in mul_uni([1, p1], [-1, 1])]
    assert ur.gcd_int(a, [-2, 1, 1]) == [-1, 1]
    assert seen == [(p2, 1)]


def test_gcd_int_skips_an_image_of_higher_degree(monkeypatch):
    # (x - N) x and (x - N)(x - p2): modulo p2 the cofactors share x
    primes = ur.large_primes()
    p1, p2 = next(primes), next(primes)
    seen = _spy_gcd_mod_p(monkeypatch)
    a = [0, -BIG_N, 1]
    b = [int(c) for c in mul_uni([-BIG_N, 1], [-p2, 1])]
    assert ur.gcd_int(a, b) == [-BIG_N, 1]
    assert seen[:2] == [(p1, 1), (p2, 2)] and len(seen) > 2


def test_rational_roots():
    # 2x^3 - 3x^2 - 3x + 2 has roots -1, 1/2, 2
    roots, _ = ur.rational_roots_int([2, -3, -3, 2])
    assert roots == {F(-1): 1, F(1, 2): 1, F(2): 1}
    # double root
    roots2, _ = ur.rational_roots_int([1, 2, 1])  # (x+1)^2
    assert roots2 == {F(-1): 2}
    # no rational roots
    roots3, _ = ur.rational_roots_int([2, 0, 1])  # x^2 + 2
    assert roots3 == {}


def test_rational_roots_read_a_power_of_a_linear_form_off(monkeypatch):
    # t**2 * (2t - 3)**5: past t**2 the squarefree part is linear, so no
    # residue of a small prime is tried.
    real = ur._primes_from

    def no_scan(start):
        assert start >= 2**30, "a power of a linear form needs no residue scan"
        return real(start)

    monkeypatch.setattr(ur, "_primes_from", no_scan)
    f = [0, 0, 1]
    for _ in range(5):
        f = mul_uni(f, [-3, 2])
    assert ur.rational_roots_int(f) == ({F(0): 2, F(3, 2): 5}, [1])
    assert ur.rational_roots_int([-3, 2]) == ({F(3, 2): 1}, [1])
    assert ur.rational_roots_int([4, -4, 1]) == ({F(2): 2}, [1])


def _forms_share_a_root(forms) -> bool:
    """The exact answer for binary forms given as (t, 1) lists with formal
    degrees: a common root of the lists, or all short of their degrees."""
    lists = [ur.trim(list(a)) for a, _ in forms]
    g = []
    for a in lists:
        g = ur.gcd_int(g, a) if g else ur.primitive_int(a)
    return ur.deg(g) != 0 or all(ur.deg(a) < d for a, (_, d) in zip(lists, forms))


def test_coprime_mod_p_on_small_forms():
    p = 7
    assert ur.coprime_mod_p([([-1, 1], 1), ([-2, 1], 1)], p)
    # a shared factor t - 1
    assert not ur.coprime_mod_p([(mul_uni([-1, 1], [-2, 1]), 2), (mul_uni([-1, 1], [3, 1]), 2)], p)
    # t - 1 and t - 8 share a root modulo 7 only
    assert not ur.coprime_mod_p([([-1, 1], 1), ([-8, 1], 1)], 7)
    assert ur.coprime_mod_p([([-1, 1], 1), ([-8, 1], 1)], 11)
    # z and z*(x + z) share (1 : 0); z and x + z do not
    assert not ur.coprime_mod_p([([1], 1), ([1, 1], 2)], p)
    assert ur.coprime_mod_p([([1], 1), ([1, 1], 1)], p)
    # 7*t - 1 falls short modulo 7 only: z is then a factor of both images
    assert not ur.coprime_mod_p([([-1, 7], 1), ([1], 1)], p)
    # zero forms: all zero decides nothing, and no form shares a root
    # with a nonzero constant
    assert not ur.coprime_mod_p([([], 2), ([0, 7], 1)], p)
    assert ur.coprime_mod_p([([], 2), ([5], 0)], p)
    assert not ur.coprime_mod_p([([], 2), ([-1, 1], 1)], p)
    # three forms that share a root pairwise but not all together
    t, t1, t2 = [0, 1], [-1, 1], [-2, 1]
    assert ur.coprime_mod_p([(mul_uni(t, t1), 2), (mul_uni(t, t2), 2), (mul_uni(t1, t2), 2)], p)


def test_binary_roots_reads_directions_with_their_orders():
    # z**2 * (2x - z)**3 * (x**2 + z**2): the list of (t, 1) falls short of
    # the formal degree 7 by 2, so (1 : 0) comes last with order 2
    form = mul_uni(mul_uni(mul_uni([-1, 2], [-1, 2]), [-1, 2]), [1, 0, 1])
    assert ur.binary_roots(form, 7) == ([(F(1, 2), 3), (None, 2)], [1, 0, 1])
    # x**2 * z: the root 0 of order 2, then (1 : 0); a list with zeros at
    # the top is read as its trimmed list, and the caller's list is kept
    cone = [0, 0, 1, 0]
    assert ur.binary_roots(cone, 3) == ([(F(0), 2), (None, 1)], [1])
    assert cone == [0, 0, 1, 0]
    # z**3: only (1 : 0); at full degree there is no (1 : 0)
    assert ur.binary_roots([5], 3) == ([(None, 3)], [1])
    assert ur.binary_roots([-6, 1, 1], 2) == ([(F(-3), 1), (F(2), 1)], [1])


def test_coprime_mod_p_is_sound_and_decides_at_a_large_prime():
    rng = random.Random(2718)
    p = next(ur.large_primes())
    shared = 0
    for _ in range(300):
        common = [[rng.randint(-4, 4), rng.randint(1, 3)] for _ in range(rng.randint(0, 1))]
        forms = []
        for _ in range(rng.randint(1, 3)):
            a = [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))]
            for c in common:
                a = mul_uni(a, c)
            forms.append((ur.trim(a), max(ur.deg(ur.trim(a)), 0) + rng.randint(0, 1)))
        exact = _forms_share_a_root(forms)
        shared += exact
        for q in (p, 5, 7):
            assert not (ur.coprime_mod_p(forms, q) and exact), (forms, q)
        assert ur.coprime_mod_p(forms, p) == (not exact), forms
    assert 50 < shared < 250


def test_squarefree_part():
    sq = ur.squarefree_part_int([1, 2, 1])
    assert ur.deg(sq) == 1


def test_resultant():
    # res(x-2, x-3) = 2 - 3 or 3 - 2 depending on convention; nonzero anyway
    r = ur.resultant_q([F(-2), F(1)], [F(-3), F(1)])
    assert abs(r) == 1
    # shared root -> zero
    shared = ur.resultant_q([F(-2), F(1)], [F(4), F(-4), F(1)])
    assert shared == 0


def test_newton_interpolate():
    # through (0, 1), (1, 2), (2, 5): x^2 + 1
    coeffs = ur.newton_interpolate([0, 1, 2], [F(1), F(2), F(5)])
    assert coeffs == [F(1), F(0), F(1)]


def _interpolate_reference(xs, ys, modulus):
    """Newton's divided differences modulo `modulus` at any points whose
    differences are units: the quadratic loop interpolate_mod_p replaced."""
    n = len(xs)
    inv: dict[int, int] = {}
    coef = [y % modulus for y in ys]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            d = xs[i] - xs[i - j]
            if d not in inv:
                inv[d] = pow(d, -1, modulus)
            coef[i] = (coef[i] - coef[i - 1]) * inv[d] % modulus
    poly = [0] * n
    for i in range(n - 1, -1, -1):
        # poly <- poly * (x - xs[i]) + coef[i]; its degree stays below n - i.
        root = xs[i]
        for k in range(n - 1 - i, 0, -1):
            poly[k] = (poly[k - 1] - root * poly[k]) % modulus
        poly[0] = (coef[i] - root * poly[0]) % modulus
    return poly


def _large_prime_products():
    """One prime from large_primes(), a product of two, a product of 12."""
    primes = ur.large_primes()
    first = [next(primes) for _ in range(12)]
    return (first[0], first[0] * first[1], math.prod(first))


_MODULI = _large_prime_products()


@st.composite
def _interpolation_cases(draw):
    """(x0, ys, modulus) with n = len(ys) in 1..200 and x0 in 0..6.  Besides
    random values, the ys may all be modulus - 1, or alternate between 0
    and modulus - 1: those make the forward differences and the Newton
    coefficients as large as they get, so a slot width short by a few bits
    overflows."""
    modulus = draw(st.sampled_from(_MODULI))
    n, x0 = draw(st.integers(1, 200)), draw(st.integers(0, 6))
    kind = draw(st.sampled_from(("random", "top", "alternating")))
    if kind == "top":
        ys = [modulus - 1] * n
    elif kind == "alternating":
        ys = [(modulus - 1) * (i % 2) for i in range(n)]
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        ys = [rng.randrange(-modulus, 2 * modulus) for _ in range(n)]
    return x0, ys, modulus


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_interpolation_cases())
def test_interpolate_mod_p_agrees_with_newton_reference(case):
    x0, ys, modulus = case
    n = len(ys)
    got = ur.interpolate_mod_p(x0, ys, modulus)
    assert got == _interpolate_reference(list(range(x0, x0 + n)), ys, modulus)


def test_interpolate_mod_p_at_the_largest_values_and_run():
    # The generated cases draw these shapes too; here each one is also
    # taken at the longest run, for every modulus.
    for modulus in _MODULI:
        for ys in ([modulus - 1] * 200, [(modulus - 1) * (i % 2) for i in range(200)]):
            for x0 in (0, 6):
                want = _interpolate_reference(list(range(x0, x0 + 200)), ys, modulus)
                assert ur.interpolate_mod_p(x0, ys, modulus) == want


def test_interpolate_mod_product_of_primes_is_crt_of_per_prime_results():
    # On a run of consecutive points Newton's form divides only by j! for
    # j below the run's length, a unit modulo the product of two primes
    # from large_primes().
    rng = random.Random(4401)
    primes = ur.large_primes()
    p1, p2 = next(primes), next(primes)
    for x0, n in ((0, 1), (0, 9), (3, 9), (5, 40)):
        for _ in range(5):
            ys = [rng.randint(-(10**40), 10**40) for _ in range(n)]
            per_prime = ur.crt_merge(ur.interpolate_mod_p(x0, ys, p1), p1, ur.interpolate_mod_p(x0, ys, p2), p2)
            assert ur.interpolate_mod_p(x0, ys, p1 * p2) == per_prime
        # A polynomial with coefficients below half the modulus comes back exactly.
        coeffs = [rng.randint(-(2**50), 2**50) for _ in range(n)]
        got = ur.interpolate_mod_p(x0, [ur.eval_uni_int(coeffs, x0 + i) for i in range(n)], p1 * p2)
        assert [c - p1 * p2 if c > p1 * p2 // 2 else c for c in got] == coeffs
    assert ur.interpolate_mod_p(4, [], p1) == []


def test_unpack_slots_reads_signed_slots_of_whole_bytes():
    rng = random.Random(4402)
    for size in (1, 2, 5):
        half = 1 << (8 * size - 1)
        for _ in range(20):
            slots = [rng.randrange(-half + 1, half) for _ in range(rng.randint(1, 12))] + [rng.randrange(1, half)]
            val = sum(c << (8 * size * j) for j, c in enumerate(slots))
            assert ur.unpack_slots(val, size) == slots
            assert ur.unpack_slots(-val, size) == [-c for c in slots]


def _random_int_poly(rng, d):
    """Integer coefficient list of degree exactly d (empty when d < 0)."""
    if d < 0:
        return []
    lead = rng.choice([-3, -2, -1, 1, 2, 3, 7])
    return [rng.randint(-20, 20) for _ in range(d)] + [lead]


def _kernel_cases(rng):
    """Pairs (a, b) covering deg a < deg b, equal degrees, constants, the
    zero polynomial, a shared factor, and remainders whose degree drops by
    more than one."""
    cases = [([], [1, 2]), ([3, 1], []), ([5], [7]), ([5], [1, 0, 2]), ([2, 0, 0, 1], [-4])]
    for _ in range(8):
        short, long = rng.randint(1, 4), rng.randint(5, 8)
        cases.append((_random_int_poly(rng, short), _random_int_poly(rng, long)))
        d = rng.randint(1, 7)
        cases.append((_random_int_poly(rng, d), _random_int_poly(rng, d)))
        g = _random_int_poly(rng, rng.randint(1, 3))
        shared = mul_uni(g, _random_int_poly(rng, 3)), mul_uni(g, _random_int_poly(rng, 2))
        cases.append(shared)
        # a = q*b + r with deg r = deg b - 3, and b = q2*r + s with
        # deg s = deg r - 2: two remainders that drop by more than one.
        s = _random_int_poly(rng, 1)
        r = _random_int_poly(rng, 3)
        b = [x + y for x, y in zip(mul_uni(_random_int_poly(rng, 3), r), s + [0] * 6)]
        a = mul_uni(_random_int_poly(rng, 2), b)
        a = [x + y for x, y in zip(a, r + [0] * len(a))]
        assert ur.deg(b) == 6 and ur.deg(a) == 8
        cases.append((a, b))
    return cases


def _resultant_q_mod(a, b, m):
    exact = ur.resultant_q([F(c) for c in a], [F(c) for c in b])
    assert exact.denominator == 1
    return exact.numerator % m


def test_resultant_mod_p_at_a_prime_is_the_exact_resultant_reduced():
    rng = random.Random(6101)
    primes = ur.large_primes()
    p = next(primes)
    for a, b in _kernel_cases(rng):
        assert ur.resultant_mod_p(a, b, p) == _resultant_q_mod(a, b, p), (a, b)
        assert ur.resultant_mod_p(a, b, 10007) == _resultant_q_mod(a, b, 10007), (a, b)


def test_resultant_mod_product_of_primes_is_crt_of_per_prime_results():
    rng = random.Random(6102)
    primes = ur.large_primes()
    p, q = next(primes), next(primes)
    for a, b in _kernel_cases(rng):
        [want] = ur.crt_merge([ur.resultant_mod_p(a, b, p)], p, [ur.resultant_mod_p(a, b, q)], q)
        assert ur.resultant_mod_p(a, b, p * q) == want, (a, b)
        assert want == _resultant_q_mod(a, b, p * q)


def test_resultant_mod_product_is_none_at_a_zero_divisor_leading_coefficient():
    primes = ur.large_primes()
    p, q = next(primes), next(primes)
    # y^5 + p*y^3 + 5 = y*(y^4 + 1) + p*y^3 - y + 5: the first remainder
    # has leading coefficient p, a zero divisor modulo p*q.
    a, b = [5, 0, 0, p, 0, 1], [1, 0, 0, 0, 1]
    assert ur.resultant_mod_p(a, b, p * q) is None
    # Modulo each prime alone the kernel still answers exactly.
    for m in (p, q):
        assert ur.resultant_mod_p(a, b, m) == _resultant_q_mod(a, b, m)


# p = 2, primes below the degrees drawn (up to 10) and a prime near 2^30
_EUCLID_PRIMES = (2, 3, 5, 7, 101, 1073741827)


@st.composite
def _pairs_mod_p(draw):
    """Two integer lists with a drawn common factor (a constant or a zero
    one too), and a prime."""
    coeffs = st.lists(st.integers(-40, 40), min_size=1, max_size=6)
    common, u, v = draw(coeffs), draw(coeffs), draw(coeffs)
    return mul_uni(common, u), mul_uni(common, v), draw(st.sampled_from(_EUCLID_PRIMES))


def _gf_p(a, p):
    import sympy

    return sympy.Poly(list(reversed(a)) or [0], sympy.symbols("x"), modulus=p)


def _sylvester_mod_p(a, b, p):
    """Res(a, b) over GF(p), rows of a first: the determinant of the
    Sylvester matrix of the reduced lists, 0 when one of them is zero.
    (sympy's `resultant` is not used: it gives Res(x, x^3 + 1) = -1.)"""
    import sympy
    from sympy.polys.subresultants_qq_zz import sylvester

    x = sympy.symbols("x")
    a, b = (ur.trim([c % p for c in f]) for f in (a, b))
    if not a or not b:
        return 0
    fa, fb = (sum(c * x**i for i, c in enumerate(f)) for f in (a, b))
    return int(sylvester(fa, fb, x).det()) % p


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_pairs_mod_p())
def test_gcd_mod_p_and_resultant_mod_p_agree_with_sympy_over_gf_p(case):
    a, b, p = case
    g = ur.gcd_mod_p(a, b, p)
    want = _gf_p(a, p).gcd(_gf_p(b, p))
    assert g == ([] if want.is_zero else [int(c) % p for c in reversed(want.monic().all_coeffs())])
    res = ur.resultant_mod_p(a, b, p)
    assert res == _sylvester_mod_p(a, b, p)
    if any(c % p for c in a) and any(c % p for c in b):
        assert (res != 0) == (g == [1])
    else:  # Res(0, b) = 0 even for a constant b, whose gcd with 0 is 1
        assert res == 0


def _sympy_rational_roots(f):
    import sympy

    x = sympy.symbols("x")
    _, factors = sympy.factor_list(sympy.Poly(list(reversed(f)), x))
    out = {}
    for fac, m in factors:
        if fac.degree() == 1:
            a, b = (int(c) for c in fac.all_coeffs())
            out[F(-b, a)] = m
    return out


def _assert_rational_roots_agree(f):
    roots, cofactor = ur.rational_roots_int(f)
    assert roots == _sympy_rational_roots(f)
    # f is the cofactor times the linear factors, up to a scalar.
    prod = cofactor
    for r, m in roots.items():
        for _ in range(m):
            prod = mul_uni(prod, [-r.numerator, r.denominator])
    assert ur.primitive_int(prod) == ur.primitive_int(f)
    return roots


def test_rational_roots_match_sympy():
    rng = random.Random(4401)
    found = 0
    for _ in range(40):
        f = [rng.randint(-20, 20) for _ in range(rng.randint(1, 4))] or [1]
        for _ in range(rng.randint(0, 4)):
            u, w = rng.randint(-30, 30), rng.randint(1, 12)
            f = mul_uni(f, [-u, w])
            if rng.random() < 0.3:
                f = mul_uni(f, [-u, w])
        if not ur.trim(f):
            continue
        found += len(_assert_rational_roots_agree(f))
    assert found >= 40


def test_rational_roots_skip_primes_that_divide_the_lead_or_a_difference():
    # The first prime tried for a small degree is 101.  Here 101 divides
    # the leading coefficient, so the root 5/101 does not exist mod 101.
    roots = _assert_rational_roots_agree(mul_uni([-5, 101], [3, 1, 1]))
    assert roots == {F(5, 101): 1}
    # The roots 1 and 102 coincide mod 101, so the input is not squarefree
    # mod 101 and a larger prime is used.
    roots = _assert_rational_roots_agree(mul_uni(mul_uni([-1, 1], [-102, 1]), [7, 0, 1]))
    assert roots == {F(1): 1, F(102): 1}
    # Both at once, with repeated roots.
    f = mul_uni(mul_uni([-5, 101], [-5, 101]), mul_uni([-1, 1], [-102, 1]))
    assert _assert_rational_roots_agree(f) == {F(5, 101): 2, F(1): 1, F(102): 1}


# -- differential fuzz against sympy for the readers of the eliminant --------

# The cofactor of e1 = Res_y of two partials of image-deg15 at (a, b, c) =
# (1, 1, 0), as the singular search forms it: e1(t, 1) = t^155 times this.
_IMAGE_DEG15_E1_COFACTOR = [
    1133952082255872,
    -10109488816929024,
    -372734840195472384,
    -680211306348782400,
    -1971440545658544000,
    -3972173589105663600,
    -9558873900653760000,
    -32324555624528947500,
    47658796293565125000,
    34176488588538187500,
    -44885150081021250000,
    2176912656425390625,
]
_IMAGE_DEG15_E1 = [0] * 155 + _IMAGE_DEG15_E1_COFACTOR


def _sympy_list(f):
    import sympy

    return sympy.Poly(list(reversed(f)), sympy.symbols("x"))


def _primitive_from_sympy(p):
    return ur.primitive_int([] if p.is_zero else [int(c) for c in reversed(p.all_coeffs())])


@st.composite
def _eliminant_like(draw, max_power=160):
    """t^k * g(t) * prod (w*t - u)^e, the shape of the singular search's
    eliminants: a power of t up to e1's 155 and beyond, a cofactor of
    degree up to 11 with large coefficients, and rational linear factors,
    some repeated."""
    k = draw(st.sampled_from((0, 1, 155)) | st.integers(0, max_power))
    g = draw(st.lists(st.integers(-(10**20), 10**20), max_size=11))
    f = [0] * k + g + [draw(st.integers(1, 10**6) | st.integers(-(10**6), -1))]
    for u, w, e in draw(st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 12), st.integers(1, 3)), max_size=3)):
        for _ in range(e):
            f = mul_uni(f, [-u, w])
    return f


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_eliminant_like())
def test_rational_roots_int_matches_sympy_on_eliminant_shapes(f):
    _assert_rational_roots_agree(f)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_eliminant_like())
def test_squarefree_part_int_matches_sympy_on_eliminant_shapes(f):
    assert ur.squarefree_part_int(f) == _primitive_from_sympy(_sympy_list(f).sqf_part())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_eliminant_like(max_power=80), _eliminant_like(max_power=80), _eliminant_like(max_power=80))
def test_gcd_int_matches_sympy_on_eliminant_shapes(f, g, h):
    a, b = mul_uni(f, h), mul_uni(g, h)
    assert ur.gcd_int(a, b) == _primitive_from_sympy(_sympy_list(a).gcd(_sympy_list(b)))


def test_eliminant_readers_match_sympy_on_image_deg15_e1():
    e1 = _IMAGE_DEG15_E1
    assert _assert_rational_roots_agree(e1)[F(0)] == 155
    assert ur.squarefree_part_int(e1) == _primitive_from_sympy(_sympy_list(e1).sqf_part())
    for other in (e1, ur.derivative(e1), [0] * 150 + [1, 2, 3], _IMAGE_DEG15_E1_COFACTOR):
        want = _primitive_from_sympy(_sympy_list(e1).gcd(_sympy_list(other)))
        assert ur.gcd_int(e1, other) == want


def test_prime_test_matches_sympy():
    from sympy import isprime

    for n in list(range(-2, 3001)) + list(range(2**30 - 500, 2**30 + 5000)):
        assert ur._is_prime(n) == isprime(n), n
    # Strong pseudoprimes to the bases 2; 2, 3; and 2, 3, 5 are rejected.
    for n in (2047, 1373653, 25326001):
        assert not ur._is_prime(n), n
    # The first strong pseudoprime to all four bases is out of range.
    assert ur._is_prime(3215031749)
    with pytest.raises(ValueError, match="beyond"):
        ur._is_prime(3215031751)
    assert [next(ur._primes_from(s)) for s in range(-1, 10)] == [2, 2, 2, 2, 3, 5, 5, 7, 7, 11, 11]


def test_large_primes_follow_the_next_prime_chain():
    from sympy import nextprime

    want = [nextprime(2**30 - 1)]
    while len(want) < 32:
        want.append(nextprime(want[-1]))
    got = ur.large_primes()
    assert [next(got) for _ in range(32)] == want
