"""Birational self-maps of the projective plane.

A map is a triple of coprime homogeneous polynomials of one degree.  The
module provides pullback and strict transform of curves, involution
testing, extension of (factored) affine-plane automorphisms to maps fixing
the line z = 0, a parameterization checker, and the degree-five
involution attached to the conic pencil that the curve corpus is built
from.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction

from . import uniroots
from .curves import PlaneCurve, repeated_factor, restrict_to_line
from .poly import (
    Poly,
    X,
    Y,
    Z,
    exact_divide,
    gcd,
    normalized,
    poly_to_text,
    strip_factors,
)

logger = logging.getLogger(__name__)


class CremonaError(ValueError):
    pass


@dataclass(frozen=True)
class CremonaMap:
    components: tuple[Poly, Poly, Poly]

    @property
    def degree(self) -> int:
        return max(p.total_degree() for p in self.components if not p.is_zero())

    def __str__(self) -> str:
        return "(" + ", ".join(poly_to_text(p) for p in self.components) + ")"


def make_map(p1: Poly, p2: Poly, p3: Poly) -> CremonaMap:
    """Validate a component triple, dividing out (and logging) any common
    factor.  The gcd runs only when `_coprime_on_line` cannot certify the
    components coprime."""
    comps = (p1, p2, p3)
    nonzero = [p for p in comps if not p.is_zero()]
    if not nonzero:
        raise CremonaError("all map components are zero")
    for p in nonzero:
        if not p.is_homogeneous():
            raise CremonaError(f"map component {poly_to_text(p)} is not homogeneous")
    if not _coprime_on_line(nonzero):
        g = nonzero[0]
        for p in nonzero[1:]:
            g = gcd(g, p)
        if g.total_degree() > 0:
            comps = tuple(
                Poly.zero() if p.is_zero() else exact_divide(p, g) for p in comps
            )
            logger.warning("divided out common factor %s", poly_to_text(g))
            nonzero = [p for p in comps if not p.is_zero()]
    degrees = {p.total_degree() for p in nonzero}
    if len(degrees) != 1:
        raise CremonaError(f"map components have different degrees {sorted(degrees)}")
    if _jacobian_vanishes(comps, degrees.pop()):
        raise CremonaError(
            "the Jacobian determinant of the map vanishes: the image is a point or a curve"
        )
    return CremonaMap(comps)


def _coprime_on_line(forms: list[Poly]) -> bool:
    """True when the first prime of `uniroots.large_primes` certifies that
    the nonzero forms have no common factor, so that `make_map` needs no
    gcd; False when it cannot tell.

    A common factor G of positive degree restricts to the line z = x + y
    either as zero, when the line is a component of G, or as a binary form
    of degree deg G; either way the restrictions share a root on the line.
    So restrictions that share no root, which `uniroots.coprime_mod_p`
    certifies from their integer lists at (t : 1 : t + 1)
    (`curves.restrict_to_line`) and their formal degrees, prove the forms
    coprime.
    """
    restricted = [(restrict_to_line(p, X + Y - Z)[0], p.total_degree()) for p in forms]
    return uniroots.coprime_mod_p(restricted, next(uniroots.large_primes()))


def _jacobian_vanishes(comps: tuple[Poly, Poly, Poly], d: int) -> bool:
    """True iff det(dp_i/dx_j) is identically zero, i.e. (in characteristic
    0) the components are algebraically dependent and the image is a point
    or a curve.  Proportional components, or a single nonzero one, are
    constants once their gcd is divided out: d = 0 and J = 0.

    The determinant J is a form of degree D = 3(d - 1), and J(x, y, 1) is
    a polynomial of degree at most D that is zero only when J is.  A
    nonzero one cannot vanish on the whole grid {0..D} x {0..D}, so the
    grid decides the question exactly; a valid map stops at its first
    point off the curve J = 0.  Each row is taken from a component's
    integer numerators, a positive multiple of the component, which
    scales J by a positive factor.
    """
    top = 3 * (d - 1)
    for x in range(top + 1):
        for y in range(top + 1):
            (a, b, c), (e, f, g), (h, k, m) = (_numerator_gradient(p, x, y) for p in comps)
            if a * (f * m - g * k) - b * (e * m - g * h) + c * (e * k - f * h):
                return False
    return True


def _numerator_gradient(p: Poly, x: int, y: int) -> list[int]:
    """The gradient at (x, y, 1) of p's integer numerators."""
    out = [0, 0, 0]
    for (a, b, c), k in p._num.items():
        if a:
            out[0] += k * a * x ** (a - 1) * y**b
        if b:
            out[1] += k * b * x**a * y ** (b - 1)
        out[2] += k * c * x**a * y**b
    return out


def pullback(m: CremonaMap, curve: PlaneCurve) -> Poly:
    """Total transform: the curve equation composed with the map components."""
    return curve.poly.substitute(m.components)


def strict_transform(
    m: CremonaMap, curve: PlaneCurve, exceptional: list[PlaneCurve]
) -> PlaneCurve:
    """Pullback with every power of the declared exceptional curves removed
    (on integer coefficients, by `strip_factors`).

    The squarefree check runs once.  A repeated factor left after that
    is an exceptional curve missing from `exceptional`, so CremonaError is
    raised naming the witness.
    """
    total = pullback(m, curve)
    if total.is_zero():
        raise CremonaError("pullback vanished identically")
    total = strip_factors(total, [exc.poly for exc in exceptional])
    if total.is_constant():
        raise CremonaError("curve is exceptional for the map: nothing remains")
    witness = repeated_factor(total)
    if witness is not None:
        raise CremonaError(
            f"strict transform has a repeated factor dividing {poly_to_text(witness)}: "
            "an exceptional curve is missing"
        )
    # make_curve's checks all hold: total is a squarefree nonconstant form
    return PlaneCurve(normalized(total), total.total_degree())


def is_involution(m: CremonaMap) -> bool:
    """True iff m composed with itself is the identity as a rational map.

    The components c1, c2, c3 of m composed with m are compared unreduced,
    with no gcd: the answer is True iff they are not all zero and
    c1*y = c2*x, c2*z = c3*y and c1*z = c3*x.  A composite that is the
    identity is proportional to (x, y, z), so the relations hold.
    Conversely, x divides c1*y, so c1 = x*G; then c2*x = x*y*G and
    c3*x = x*z*G give c2 = y*G and c3 = z*G, so the composite is
    G*(x, y, z) with G != 0: the identity once the common factor G is
    divided out.
    """
    c1, c2, c3 = (p.substitute(m.components) for p in m.components)
    if not (c1 or c2 or c3):
        return False
    return c1 * Y == c2 * X and c2 * Z == c3 * Y and c1 * Z == c3 * X


def base_conic() -> Poly:
    """The conic xz - y^2 all corpus constructions are adapted to."""
    return X * Z - Y**2


def base_cubic(c) -> Poly:
    """The one-parameter nodal cubic (cx + y)(xz - y^2) + x^3."""
    c = Fraction(c)
    return (Poly.const(c) * X + Y) * base_conic() + X**3


def base_quintic(c) -> Poly:
    """The rational quintic with tenfold conic contact at (0 : 0 : 1)."""
    c = Fraction(c)
    f2 = base_conic()
    inner = Poly.const(2) * X**2 * (Poly.const(c) * X + Y) + (
        Poly.const(c * c) * X + Poly.const(2 * c) * Y + Z
    ) * f2
    return inner * f2 + X**5


def quintic_involution(c) -> CremonaMap:
    """The degree-five involution (x*f2^2, -f3*f2, f5) built on the conic.

    The constructor certifies that the conic pulls back to its own fifth
    power, i.e. the map restricts to an automorphism of the conic
    complement; a certificate failure raises ArithmeticError.
    """
    f2 = base_conic()
    f3 = base_cubic(c)
    f5 = base_quintic(c)
    m = make_map(X * f2**2, -f3 * f2, f5)
    if f2.substitute(m.components) != f2**5:
        raise ArithmeticError("involution certificate failed: conic is not preserved")
    return m


def _homogenize_affine(p: Poly, degree: int) -> Poly:
    if 2 in p.variables():
        raise CremonaError("affine component unexpectedly mentions z")
    return Poly._of({(a, b, degree - a - b): k for (a, b, _), k in p._num.items()}, p._den)


def extend_affine_automorphism(steps) -> CremonaMap:
    """Extend a factored affine-plane automorphism to a map fixing z = 0.

    Each step is a tuple:
      ("swap",)                     exchange the coordinates
      ("affine", a, b, c, d, e, f)  (x, y) -> (ax + by + e, cx + dy + f)
      ("shear", p)                  (x, y) -> (x, y + p(x)), p a Poly in x

    Steps compose in the order given.  The factored form certifies that the
    map is invertible; a non-invertible linear part or a shear in the wrong
    variable is rejected.
    """
    cx, cy = X, Y
    for step in steps:
        if not step:
            raise CremonaError("empty automorphism step")
        tag = step[0]
        if tag == "swap":
            if len(step) != 1:
                raise CremonaError("swap step takes no arguments")
            cx, cy = cy, cx
        elif tag == "affine":
            if len(step) != 7:
                raise CremonaError("affine step needs six coefficients")
            a, b, c, d, e, f = (Fraction(v) for v in step[1:])
            if a * d - b * c == 0:
                raise CremonaError("affine step is not invertible")
            cx, cy = (
                Poly.const(a) * cx + Poly.const(b) * cy + Poly.const(e),
                Poly.const(c) * cx + Poly.const(d) * cy + Poly.const(f),
            )
        elif tag == "shear":
            if len(step) != 2 or not isinstance(step[1], Poly):
                raise CremonaError("shear step needs one polynomial argument")
            p = step[1]
            if not p.variables() <= {0}:
                raise CremonaError("shear polynomial must depend on x only")
            cy = cy + p.substitute((cx, Y, Z))
            # cx unchanged
        else:
            raise CremonaError(f"unknown automorphism step {tag!r}")
    degree = max(cx.total_degree(), cy.total_degree(), 1)
    return make_map(
        _homogenize_affine(cx, degree),
        _homogenize_affine(cy, degree),
        Z**degree,
    )


def check_parameterization(curve: PlaneCurve, param: tuple[Poly, Poly, Poly]) -> bool:
    """True iff the (s, t)-parameterization lies on the curve identically.

    The three parameterizing forms live in the first two variable slots
    (s, t) and must be homogeneous of one shared degree.
    """
    if len(param) != 3:
        raise CremonaError("parameterization needs exactly three forms")
    degrees = set()
    for p in param:
        if p.is_zero():
            continue
        if not p.variables() <= {0, 1}:
            raise CremonaError("parameterizing forms must use the two variables s, t only")
        if not p.is_homogeneous():
            raise CremonaError(f"parameterizing form {poly_to_text(p)} is not homogeneous")
        degrees.add(p.total_degree())
    if len(degrees) != 1:
        raise CremonaError(f"parameterizing forms have mismatched degrees {sorted(degrees)}")
    return curve.poly.substitute(tuple(param)).is_zero()
