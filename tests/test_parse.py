from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unicusp.parse import ParseError, parse_poly
from unicusp.poly import X, Y, Z, Poly, poly_to_text


def test_simple_forms():
    assert parse_poly("x") == X
    assert parse_poly("x*z - y^2") == X * Z - Y**2
    assert parse_poly("x*z - y**2") == X * Z - Y**2
    assert parse_poly("-x + 2*y") == -X + 2 * Y


def test_rational_coefficients():
    assert parse_poly("1/2*x + 3/4") == Fraction(1, 2) * X + Fraction(3, 4)
    assert parse_poly("(2/3)*y^2") == Fraction(2, 3) * Y**2


def test_implicit_multiplication_not_allowed():
    with pytest.raises(ParseError):
        parse_poly("2x")


def test_parentheses_and_nesting():
    p = parse_poly("(x + y)*(x - y) + y^2")
    assert p == X**2


def test_power_binds_tighter_than_times():
    assert parse_poly("2*x^3") == 2 * X**3
    assert parse_poly("x^2*y") == X**2 * Y


def test_unary_minus_chains():
    assert parse_poly("-(x - y)") == Y - X


def test_whitespace_insensitive():
    assert parse_poly("  x *z-y ^ 2 ") == X * Z - Y**2


def test_errors():
    for bad in ["", "x +", "w", "x^", "((x)", "x^-2", "1//2", "x y"]:
        with pytest.raises(ParseError):
            parse_poly(bad)


def test_round_trip_through_text():
    cases = [
        X * Z - Y**2,
        X**5 - 2 * X * Y * Z**3 + Fraction(7, 2) * Y**4 * Z,
        Poly.const(Fraction(-3, 8)),
    ]
    for p in cases:
        assert parse_poly(poly_to_text(p)) == p


# Every monomial in x, y, z of total degree at most 6.
_MONOMIALS = [(a, b, c) for a in range(7) for b in range(7 - a) for c in range(7 - a - b)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.dictionaries(
        st.sampled_from(_MONOMIALS),
        st.fractions(min_value=-100, max_value=100, max_denominator=30),
        max_size=10,
    )
)
@example({})
@example({(0, 0, 0): Fraction(-7, 3)})
@example({(6, 0, 0): -1, (0, 3, 3): Fraction(1, 2), (0, 0, 0): -5})
@example({(0, 0, 6): Fraction(-2, 9), (1, 0, 0): 1})
def test_text_round_trip_of_random_polys(terms):
    # Any Poly of degree <= 6 over Q, negative leading coefficients and
    # constants included, parses back from its text, which it prints again.
    p = Poly(terms)
    text = poly_to_text(p)
    q = parse_poly(text)
    assert q == p
    assert poly_to_text(q) == text
