import random
from fractions import Fraction

from unicusp import uniroots as ur


F = Fraction


def test_trim_and_deg():
    assert ur.trim([F(1), F(0), F(0)]) == [F(1)]
    assert ur.deg([F(2), F(0), F(3)]) == 2
    assert ur.deg([]) == -1


def test_eval():
    # 1 + 2x + x^2 at x = 3 -> 16
    assert ur.eval_uni([F(1), F(2), F(1)], F(3)) == 16
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


def test_clear_denominators():
    assert ur.clear_denominators([F(1, 2), F(1, 3)]) == [3, 2]


def test_gcd_int_via_modular():
    # (x-1)(x+2) and (x-1)(x-5)
    a = ur.mul_uni([-1, 1], [2, 1])
    b = ur.mul_uni([-1, 1], [-5, 1])
    g = ur.gcd_int([int(c) for c in a], [int(c) for c in b])
    assert g == [-1, 1]


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


def test_interpolate_mod_product_of_primes_is_crt_of_per_prime_results():
    # The xs differences are below 2**30, so they are units modulo the
    # product of two primes from large_primes().
    rng = random.Random(4401)
    primes = ur.large_primes()
    p1, p2 = next(primes), next(primes)
    xs = [0, 1, -1, 2, -2, 3, 5, -7, 11]
    for _ in range(5):
        ys = [rng.randint(-(10**40), 10**40) for _ in xs]
        per_prime = ur.crt_merge(ur.interpolate_mod_p(xs, ys, p1), p1, ur.interpolate_mod_p(xs, ys, p2), p2)
        assert ur.interpolate_mod_p(xs, ys, p1 * p2) == per_prime
    # A polynomial with coefficients below half the modulus comes back exactly.
    coeffs = [rng.randint(-(2**50), 2**50) for _ in xs]
    got = ur.interpolate_mod_p(xs, [ur.eval_uni_int(coeffs, x) for x in xs], p1 * p2)
    assert [c - p1 * p2 if c > p1 * p2 // 2 else c for c in got] == coeffs
