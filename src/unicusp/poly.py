"""Exact sparse polynomial arithmetic over the rationals in x, y, z.

A polynomial is a map from exponent triples (a, b, c) to nonzero integer
numerators over one positive integer denominator, standing for
sum (num / den) * x^a * y^b * z^c.  No factor is shared by the denominator
and every numerator, so each polynomial has one representation.  Values are
immutable by convention: no operation mutates its arguments, so results can
be shared freely.  The term order used for leading terms, canonical signs
and printing is graded lexicographic with x > y > z.
"""

import heapq
from fractions import Fraction
from math import lcm
from math import gcd as _int_gcd
from typing import Iterable, Iterator, Mapping

from . import uniroots

Exponents = tuple[int, int, int]

VAR_NAMES = ("x", "y", "z")


def _grlex_key(e: Exponents) -> tuple[int, int, int]:
    # Two triples with equal total degree, equal x and equal y exponents are
    # identical, so this key is a complete graded-lex comparison key.
    return (e[0] + e[1] + e[2], e[0], e[1])


IntTerms = dict[Exponents, int]


# A packed polynomial: int keys standing for the exponents of two variables,
# each value one int holding the coefficients in the third (Poly.substitute).
Packed = dict[int, int]


def _packed_mul(p: Packed, q: Packed) -> Packed:
    """Product of two packed polynomials (see Poly.substitute).

    Keys add and values multiply as Python ints.  The shorter factor drives
    the outer loop.  Zero values are kept; Poly.substitute skips them once,
    when it decodes the result.
    """
    if len(p) < len(q):
        p, q = q, p
    out: Packed = {}
    get = out.get
    for k2, v2 in q.items():
        for k1, v1 in p.items():
            k = k1 + k2
            out[k] = get(k, 0) + v1 * v2
    return out


def _packed_horner(nested: dict, tables: list[list[Packed]]) -> Packed:
    """Sum of c_d * t^d over nested = {d: c_d}, by sparse Horner.

    tables[0] = [t^0, t^1, ...] is extended as needed and shared between
    calls.  Each c_d is nested[d] evaluated by the remaining tables, or the
    packed polynomial nested[d] when none remain; it is made when Horner
    reaches degree d, so one coefficient per level is alive at a time.
    """
    powers, inner = tables[0], tables[1:]
    degs = sorted(nested, reverse=True)
    top = nested[degs[0]]
    acc = _packed_horner(top, inner) if inner else top
    for hi, lo in zip(degs, degs[1:] + [0]):
        if hi == lo:  # the constant coefficient is already in
            break
        while len(powers) <= hi - lo:
            powers.append(_packed_mul(powers[-1], powers[1]))
        acc = _packed_mul(acc, powers[hi - lo])
        if lo in nested:
            c = nested[lo]
            for k, v in (_packed_horner(c, inner) if inner else c).items():
                acc[k] = acc.get(k, 0) + v
    return acc


class Poly:
    """Sparse exact polynomial in Q[x, y, z]."""

    __slots__ = ("_num", "_den", "_hash")

    def __init__(self, terms: Mapping[Exponents, Fraction | int] | None = None):
        clean: dict[Exponents, Fraction] = {}
        if terms:
            for e, c in terms.items():
                if len(e) != 3 or any((not isinstance(k, int)) or k < 0 for k in e):
                    raise ValueError(f"bad exponent triple {e!r}")
                c = Fraction(c)
                if c:
                    clean[(e[0], e[1], e[2])] = c
        den = lcm(*(c.denominator for c in clean.values()))
        self._num = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        self._den = den
        self._hash: int | None = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def _of(num: IntTerms, den: int = 1) -> "Poly":
        """The polynomial num / den, brought to canonical form.

        For terms the package made itself: exponent triples of
        nonnegative ints, nonzero int numerators and den > 0.  The dict is
        owned by the result from here on.  The one gcd of den with the
        numerators is divided out here and nowhere else.  `Poly(terms)`
        checks its input and gives the same form.
        """
        if den != 1:
            g = _int_gcd(den, *num.values())
            if g != 1:
                num = {e: k // g for e, k in num.items()}
                den //= g
        p = Poly.__new__(Poly)
        p._num = num
        p._den = den
        p._hash = None
        return p

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def const(c: Fraction | int) -> "Poly":
        return Poly({(0, 0, 0): Fraction(c)})

    @staticmethod
    def variable(i: int) -> "Poly":
        e = [0, 0, 0]
        e[i] = 1
        return Poly._of({(e[0], e[1], e[2]): 1})

    @staticmethod
    def monomial(e: Exponents, c: Fraction | int = 1) -> "Poly":
        return Poly({e: Fraction(c)})

    # -- basic queries -------------------------------------------------

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        """The coefficients as Fractions, in a new dict."""
        den = self._den
        return {e: Fraction(k, den) for e, k in self._num.items()}

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def is_constant(self) -> bool:
        return not self._num or set(self._num) == {(0, 0, 0)}

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._num:
            return -1
        return max(a + b + c for (a, b, c) in self._num)

    def degree_in(self, i: int) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self._num:
            return -1
        return max(e[i] for e in self._num)

    def variables(self) -> set[int]:
        used = set()
        for e in self._num:
            for i in range(3):
                if e[i]:
                    used.add(i)
        return used

    def is_homogeneous(self) -> bool:
        if not self._num:
            return True
        degs = {a + b + c for (a, b, c) in self._num}
        return len(degs) == 1

    def lead_exponents(self) -> Exponents:
        if not self._num:
            raise ValueError("zero polynomial has no leading term")
        return max(self._num, key=_grlex_key)

    def lead_coeff(self) -> Fraction:
        return Fraction(self._num[self.lead_exponents()], self._den)

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    # -- equality / hashing -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._den, frozenset(self._num.items())))
        return self._hash

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(v: "Poly | Fraction | int") -> "Poly":
        if isinstance(v, Poly):
            return v
        return Poly.const(v)

    def __add__(self, other: "Poly | Fraction | int") -> "Poly":
        other = Poly._coerce(other)
        d1, d2 = self._den, other._den
        den = lcm(d1, d2)
        s1, s2 = den // d1, den // d2
        out = {e: k * s1 for e, k in self._num.items()} if s1 != 1 else dict(self._num)
        for e, k in other._num.items():
            s = out.get(e, 0) + k * s2
            if s:
                out[e] = s
            else:
                del out[e]
        return Poly._of(out, den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._of({e: -k for e, k in self._num.items()}, self._den)

    def __sub__(self, other: "Poly | Fraction | int") -> "Poly":
        return self + (-Poly._coerce(other))

    def __rsub__(self, other: "Poly | Fraction | int") -> "Poly":
        return Poly._coerce(other) + (-self)

    def __mul__(self, other: "Poly | Fraction | int") -> "Poly":
        if isinstance(other, (int, Fraction)):
            c0 = Fraction(other)
            if not c0:
                return Poly.zero()
            n = c0.numerator
            return Poly._of({e: k * n for e, k in self._num.items()}, self._den * c0.denominator)
        out: IntTerms = {}
        for (a1, b1, c1), k1 in self._num.items():
            for (a2, b2, c2), k2 in other._num.items():
                e = (a1 + a2, b1 + b2, c1 + c2)
                s = out.get(e, 0) + k1 * k2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Poly._of(out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus and evaluation --------------------------------------

    def partial(self, i: int) -> "Poly":
        out: IntTerms = {}
        for e, k in self._num.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[(ne[0], ne[1], ne[2])] = k * e[i]
        return Poly._of(out, self._den)

    def substitute(self, images: "tuple[Poly, Poly, Poly]") -> "Poly":
        """Evaluate at a triple of polynomials (ring homomorphism).

        Each image is psi_i / L_i, its numerators over its denominator;
        with self = own / D and A, B, C its degrees, the numerator k of
        x^a*y^b*z^c becomes the integer v = k*L_0^(A-a)*L_1^(B-b)*L_2^(C-c),
        the integer polynomial sum v*psi_0^a*psi_1^b*psi_2^c is evaluated,
        and the result is that over D*L_0^A*L_1^B*L_2^C.

        Kronecker packing.  One variable t is packed: a polynomial is a map
        from the exponents of the other two (one int key) to a single int
        holding its coefficients in t in W-bit slots, i.e. its image under
        t -> 2^W.  That is a ring map, so products and sums are int * and +
        in CPython's big-integer arithmetic, and every intermediate is exact
        however its slots overflow; only the result is decoded.  Each
        integer coefficient of the result is at most
        sum |v|*|psi_0|^a*|psi_1|^b*|psi_2|^c in absolute value, |psi| the
        sum of the absolute coefficients, so W is that bound's bit length
        plus a sign bit, rounded up to whole bytes, and the slots are read
        back by `uniroots.unpack_slots`.  t is the variable in
        which the result can have the largest degree (y on ties).  When
        self is homogeneous and the images are nonzero forms of one degree
        k, the images are evaluated at z = 1, which merges no terms, and
        the result is re-homogenized to degree k*deg(self).

        Evaluation is nested three deep, one variable of self per level.
        The innermost level is a sum of integer multiples of its image's
        powers, formed in the one pass over the terms of self; the other
        two are sparse Horner.  Each present degree there costs a pass over
        the accumulator, so the variable with the most distinct exponents
        in self is innermost and the one with the fewest outermost.
        """
        if not self._num:
            return Poly.zero()
        cleared = [(g._num, g._den) for g in images]
        forms = {a + b + c for psi, _ in cleared for (a, b, c) in psi}
        degree = -1  # the result's total degree when the inputs are forms
        if len(forms) == 1 and all(psi for psi, _ in cleared) and self.is_homogeneous():
            degree = forms.pop() * self.total_degree()
            cleared = [({(a, b, 0): c for (a, b, _), c in psi.items()}, ell) for psi, ell in cleared]
        own = self._num
        cols = list(zip(*own))  # the exponents of each variable
        degs = [max(col) for col in cols]
        reach = [0, 0, 0]  # the result's degree in each variable is at most this
        for d, (psi, _) in zip(degs, cleared):
            for j, top in enumerate(map(max, zip(*psi))):
                reach[j] += d * top
        t = max((1, 0, 2), key=reach.__getitem__)
        u, w = ((1, 2), (0, 2), (0, 1))[t]
        stride = reach[w] + 1  # no key's w-exponent reaches it

        scale = []
        weight = []
        for d, (psi, ell) in zip(degs, cleared):
            n = sum(map(abs, psi.values()))
            scale.append([ell ** (d - j) for j in range(d + 1)])
            weight.append([ell ** (d - j) * n**j for j in range(d + 1)])
        bound = 0  # sum |v| * |psi_0|^a * |psi_1|^b * |psi_2|^c
        for (a, b, c), k in own.items():
            bound += abs(k) * weight[0][a] * weight[1][b] * weight[2][c]
        size = bound.bit_length() // 8 + 1  # bytes per slot, sign bit included
        powers = []
        for psi, _ in cleared:
            packed: Packed = {}
            for e, c in psi.items():
                key = e[u] * stride + e[w]
                packed[key] = packed.get(key, 0) + (c << 8 * size * e[t])
            powers.append([{0: 1}, packed])

        spread = [len(set(col)) for col in cols]
        inner, middle, outer = sorted(range(3), key=spread.__getitem__, reverse=True)
        low = powers[inner]
        while len(low) <= degs[inner]:
            low.append(_packed_mul(low[-1], low[1]))
        nested: dict[int, dict[int, Packed]] = {}
        for e, k in own.items():
            v = k * scale[0][e[0]] * scale[1][e[1]] * scale[2][e[2]]
            row = nested.setdefault(e[outer], {}).setdefault(e[middle], {})
            for key, val in low[e[inner]].items():
                row[key] = row.get(key, 0) + v * val
        acc = _packed_horner(nested, [powers[outer], powers[middle]])

        out: IntTerms = {}
        exps = [0, 0, 0]
        for key, val in acc.items():
            if not val:
                continue
            exps[u], exps[w] = divmod(key, stride)
            for j, c in enumerate(uniroots.unpack_slots(val, size)):
                if c:
                    exps[t] = j
                    if degree >= 0:
                        exps[2] = degree - exps[0] - exps[1]
                    out[(exps[0], exps[1], exps[2])] = c
        return Poly._of(out, self._den * scale[0][0] * scale[1][0] * scale[2][0])

    def evaluate(self, point: Iterable[Fraction | int]) -> Fraction:
        """The value at a point, summed in integers: with the point written
        as (n0, n1, n2) / D over one denominator D, each term k*x^a*y^b*z^c
        contributes k * n0^a * n1^b * n2^c * D^(top - a - b - c), and one
        Fraction divides the sum by den * D^top, top the total degree."""
        xs = [Fraction(v) for v in point]
        d = lcm(*(v.denominator for v in xs))
        n0, n1, n2 = (v.numerator * (d // v.denominator) for v in xs)
        top = max(self.total_degree(), 0)
        total = 0
        for (a, b, c), k in self._num.items():
            total += k * n0 ** a * n1 ** b * n2 ** c * d ** (top - a - b - c)
        return Fraction(total, self._den * d ** top)

    def coeffs_wrt(self, i: int) -> dict[int, "Poly"]:
        """Coefficients as polynomials in the other two variables."""
        out: dict[int, IntTerms] = {}
        for e, k in self._num.items():
            ne = list(e)
            d = ne[i]
            ne[i] = 0
            out.setdefault(d, {})[(ne[0], ne[1], ne[2])] = k
        return {d: Poly._of(terms, self._den) for d, terms in out.items()}

    def __str__(self) -> str:
        return poly_to_text(self)

    def __repr__(self) -> str:
        return f"Poly({poly_to_text(self)})"


X = Poly.variable(0)
Y = Poly.variable(1)
Z = Poly.variable(2)
ONE = Poly.const(1)


# -- printing ----------------------------------------------------------


def _monomial_text(e: Exponents) -> str:
    parts = []
    for i, k in enumerate(e):
        if k == 1:
            parts.append(VAR_NAMES[i])
        elif k > 1:
            parts.append(f"{VAR_NAMES[i]}^{k}")
    return "*".join(parts)


def poly_to_text(p: Poly) -> str:
    """Canonical text: descending graded-lex, explicit '*' and '^'.

    The output always re-parses to the same polynomial; a negative leading
    coefficient keeps its magnitude as an explicit factor ("-1*x").
    """
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    for idx, (e, c) in enumerate(p.sorted_terms()):
        mono = _monomial_text(e)
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if idx == 0:
            if c < 0:
                body = f"-{mag}*{mono}" if mono else f"-{mag}"
            pieces.append(body)
        else:
            pieces.append(("- " if c < 0 else "+ ") + body)
    return " ".join(pieces)


# -- content, normalization, divisibility ------------------------------


def content(p: Poly) -> Fraction:
    """Positive rational c such that p/c has coprime integer coefficients."""
    # In canonical form the numerators' gcd is already coprime to den.
    return Fraction(_int_gcd(*p._num.values()), p._den)


def normalized(p: Poly) -> Poly:
    """Scale to content 1 with positive graded-lex leading coefficient."""
    if p.is_zero():
        return p
    g = _int_gcd(*p._num.values())
    if p._num[p.lead_exponents()] < 0:
        g = -g
    return Poly._of({e: k // g for e, k in p._num.items()})


def proportional(p: Poly, q: Poly) -> bool:
    """True iff p = c*q for some nonzero rational c (or both are zero)."""
    return normalized(p) == normalized(q)


def _primitive(p: Poly) -> tuple[IntTerms, int]:
    """(P, g) with p = g * P / p._den, P integral with coprime coefficients
    and g > 0 the gcd of p's numerators."""
    g = _int_gcd(*p._num.values())
    return ({e: k // g for e, k in p._num.items()} if g != 1 else p._num), g


def _heap_key(e: Exponents) -> tuple[int, int, int]:
    # Negated graded-lex key: heapq pops the graded-lex largest first.
    return (-(e[0] + e[1] + e[2]), -e[0], -e[1])


def _divide_int(p: IntTerms, q: IntTerms) -> IntTerms | None:
    """r with q*r = p in Z[x,y,z], or None when q does not divide p; q is
    nonzero and primitive (its coefficients are coprime integers).

    Sparse division after Monagan and Pearce (JSC 2011).  The dividend's
    terms are walked in descending graded-lex order; the terms each step
    subtracts are kept apart, their exponents in a heap, so the leading
    term of the remainder is the larger of the two heads.  Every term a
    step subtracts lies below the current leading term, so one pass
    suffices.  An exponent is pushed when it enters the subtracted terms;
    a popped one that has cancelled since is skipped.  A one-term divisor
    needs no order: the division is an exponent shift, term by term, that
    stops at the first term it does not divide.

    By Gauss's lemma a primitive q that divides p in Q[x,y,z] divides it
    in Z[x,y,z], and each quotient term the division meets is a term of
    that integral quotient.  So every coefficient step is an exact divmod,
    and a nonzero remainder proves that q does not divide p.
    """
    quot: IntTerms = {}
    if len(q) == 1:
        [(qe, qc)] = q.items()
        for e, k in p.items():
            mc, rem = divmod(k, qc)
            if rem or e[0] < qe[0] or e[1] < qe[1] or e[2] < qe[2]:
                return None
            quot[(e[0] - qe[0], e[1] - qe[1], e[2] - qe[2])] = mc
        return quot
    qe = max(q, key=_grlex_key)
    qc = q[qe]
    tail = [(e, k) for e, k in q.items() if e != qe]
    terms = sorted(p.items(), key=lambda t: _grlex_key(t[0]), reverse=True)
    n, i = len(terms), 0
    sub: IntTerms = {}
    heap: list[tuple[tuple[int, int, int], Exponents]] = []
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
        mc, rem = divmod(lc, qc)
        if rem:
            return None
        me = (e[0] - qe[0], e[1] - qe[1], e[2] - qe[2])
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
    return quot


def exact_divide(p: Poly, q: Poly) -> Poly | None:
    """Return r with q*r = p exactly, or None when q does not divide p.

    With p = P / D and q = g * Q / E, Q primitive, `_divide_int` divides
    P by Q on integers and r is that quotient times E / (D * g); for a
    constant q = k / E that is P times E / (D * k).
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if q.is_constant():
        k = q._num[(0, 0, 0)]
        s = q._den if k > 0 else -q._den
        return Poly._of({e: v * s for e, v in p._num.items()}, p._den * abs(k))
    small, g = _primitive(q)
    quot = _divide_int(p._num, small)
    if quot is None:
        return None
    return Poly._of({e: k * q._den for e, k in quot.items()}, p._den * g)


def strip_factors(p: Poly, factors: Iterable[Poly]) -> Poly:
    """p with every power of each nonconstant factor divided out, factor by
    factor, by `exact_divide` until it stops dividing."""
    if p.is_zero():
        return p
    for f in factors:
        if f.is_constant():
            raise ValueError("strip_factors needs nonconstant factors")
        while (quot := exact_divide(p, f)) is not None:
            p = quot
    return p


def _lc_wrt(p: Poly, v: int) -> Poly:
    d = p.degree_in(v)
    return p.coeffs_wrt(v).get(d, Poly.zero())


def prem(p: Poly, q: Poly, v: int) -> Poly:
    """Pseudo-remainder of p by q with respect to variable v.

    Returns lc_v(q)^(deg_v p - deg_v q + 1) * p  mod  q, computed without
    fractions in the coefficient ring.
    """
    dp, dq = p.degree_in(v), q.degree_in(v)
    if dq < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    if dp < dq:
        return p
    lcq = _lc_wrt(q, v)
    e = dp - dq + 1
    r = p
    while not r.is_zero() and r.degree_in(v) >= dq:
        dr = r.degree_in(v)
        lcr = _lc_wrt(r, v)
        shift = Poly.monomial(tuple(dr - dq if i == v else 0 for i in range(3)))  # type: ignore[arg-type]
        r = r * lcq - lcr * shift * q
        e -= 1
    if e > 0:
        r = r * lcq ** e
    return r


def gcd(p: Poly, q: Poly) -> Poly:
    """Greatest common divisor in Q[x,y,z], normalized (content 1,
    positive graded-lex leading coefficient).

    Contents are split off recursively and the primitive parts run through
    a subresultant pseudo-remainder sequence on the variable of highest
    degree.
    """
    if p.is_zero():
        return normalized(q)
    if q.is_zero():
        return normalized(p)
    if p.is_constant() or q.is_constant():
        return ONE
    used = p.variables() | q.variables()
    main = max(used, key=lambda i: (max(p.degree_in(i), q.degree_in(i)), -i))
    if p.degree_in(main) < q.degree_in(main):
        p, q = q, p
    cont_p, pp_p = _content_and_primitive(p, main)
    cont_q, pp_q = _content_and_primitive(q, main)
    cont = gcd(cont_p, cont_q)
    return normalized(cont * _prs_gcd(pp_p, pp_q, main))


def content_wrt(p: Poly, v: int) -> Poly:
    """Gcd of the coefficients of nonzero p as a polynomial in v.

    The coefficients are taken fewest terms first (then by v-degree), and
    the chain of gcds stops at 1, so the work done does not depend on the
    term order of p.
    """
    items = sorted(p.coeffs_wrt(v).items(), key=lambda kc: (len(kc[1]._num), kc[0]))
    c = items[0][1]
    for _, extra in items[1:]:
        c = gcd(c, extra)
        if c == ONE:
            break
    return c


def _content_and_primitive(p: Poly, v: int) -> tuple[Poly, Poly]:
    c = content_wrt(p, v)
    pp = exact_divide(p, c)
    assert pp is not None
    return c, pp


def _prs_gcd(a: Poly, b: Poly, v: int) -> Poly:
    """Subresultant PRS gcd of primitive inputs, deg_v(a) >= deg_v(b)."""
    if b.degree_in(v) == 0:
        return ONE
    g = ONE
    h = ONE
    while True:
        d = a.degree_in(v) - b.degree_in(v)
        r = prem(a, b, v)
        if r.is_zero():
            break
        if r.degree_in(v) == 0:
            return ONE
        denom = g * h ** d
        nxt = exact_divide(r, denom)
        assert nxt is not None, "subresultant division must be exact"
        a, b = b, nxt
        g = _lc_wrt(a, v)
        if d > 0:
            hd = exact_divide(g ** d, h ** (d - 1))
            assert hd is not None
            h = hd
    _, pp = _content_and_primitive(b, v)
    return pp


def squarefree_witness(p: Poly) -> Poly:
    """gcd(p, all partial derivatives): constant iff p is squarefree."""
    w = p
    for i in range(3):
        d = p.partial(i)
        if not d.is_zero():
            w = gcd(w, d)
            if w == ONE:
                break
    return w


def dehomogenize(p: Poly, i: int) -> Poly:
    """p with variable i set to 1.

    An exponent relabel, linear in the terms of p: terms that meet are
    added (none do when p is a form).
    """
    out: IntTerms = {}
    for e, k in p._num.items():
        f = (0, e[1], e[2]) if i == 0 else (e[0], 0, e[2]) if i == 1 else (e[0], e[1], 0)
        s = out.get(f)
        s = k if s is None else s + k
        if s:
            out[f] = s
        else:
            del out[f]
    return Poly._of(out, p._den)


# -- univariate conversions ---------------------------------------------


def from_univariate(coeffs: Iterable[Fraction | int], v: int) -> Poly:
    """sum c_k * (variable v)**k; the constructor drops the zero c_k."""
    return Poly({tuple(k if i == v else 0 for i in range(3)): c for k, c in enumerate(coeffs)})


# -- resultants ---------------------------------------------------------


def resultant_wrt(p: Poly, q: Poly, v: int) -> Poly:
    """Sylvester resultant of p and q with respect to variable v.

    Sign convention: the determinant of the Sylvester matrix with the rows
    of p first.  The inputs must together use at most one variable besides
    v, or both be homogeneous; anything else raises ValueError.  The
    integer kernel `resultant_int` gives Res_v(P, Q) for the primitive
    parts P = p/content(p) and Q = q/content(q), exactly (two forms are
    dehomogenized at their last variable first, by `form_resultant_int`);
    the result is that coefficient list times content(p)**n *
    content(q)**m, re-homogenized to degree n*deg p + m*deg q - m*n for
    forms.
    """
    other = sorted(({0, 1, 2} - {v}))
    used = (p.variables() | q.variables()) - {v}
    bivariate = len(used) <= 1
    if not bivariate and not (p.is_homogeneous() and q.is_homogeneous()):
        raise ValueError("resultant_wrt needs bivariate or homogeneous input")
    if p.is_zero() or q.is_zero():
        return Poly.zero()
    m, n = p.degree_in(v), q.degree_in(v)
    if m == 0 and n == 0:
        return ONE
    if n == 0:
        return q ** m
    if m == 0:
        return p ** n
    scale = content(p) ** n * content(q) ** m
    if bivariate:
        w = used.pop() if used else other[0]
        return from_univariate([c * scale for c in resultant_int(p, q, v, w, 0)], w)
    w, top = other
    total = n * p.total_degree() + m * q.total_degree() - m * n
    terms: dict[Exponents, Fraction] = {}
    for k, c in enumerate(form_resultant_int(p, q, v, 0)):
        if c:
            e = [0, 0, 0]
            e[w], e[top] = k, total - k
            terms[(e[0], e[1], e[2])] = c * scale
    return Poly(terms)


def form_resultant_int(p: Poly, q: Poly, v: int, prime: int, cut: int = 0) -> list[int] | None:
    """`resultant_int` of two forms of positive v-degree, dehomogenized at
    the last variable other than v: the coefficients of Res_v(P, Q)(t, 1),
    t standing for the first other variable.

    A `cut` k says that s**k divides the binary form Res_v(P, Q)(t, s), of
    degree n*deg p + m*deg q - m*n for the v-degrees m, n.  With P = s**i *
    P1 and Q = s**j * Q1 for the homogenized dehomogenizations P1, Q1, that
    form is s**(n*i + m*j) * Res_v(P1, Q1), so the form that
    `resultant_int` reads keeps s**(k - n*i - m*j).
    """
    w, top = sorted({0, 1, 2} - {v})
    pd, qd = dehomogenize(p, top), dehomogenize(q, top)
    m, n = p.degree_in(v), q.degree_in(v)
    lost = n * (p.total_degree() - pd.total_degree()) + m * (q.total_degree() - qd.total_degree())
    return resultant_int(pd, qd, v, w, prime, max(cut - lost, 0))


def resultant_int(p: Poly, q: Poly, v: int, w: int, prime: int, cut: int = 0) -> list[int] | None:
    """The coefficients (low to high, trimmed) in w of Res_v(P, Q), where
    p and q use no variable besides v and w, have positive v-degrees m and
    n, and P, Q are p, q divided by their contents.

    With prime = 0 the list is exact; otherwise it is reduced modulo
    prime, and it is None when prime divides a v-leading row of P or Q as
    a whole (no evaluation point then keeps the formal degrees), the
    convention of `sample_points`.  A prime given here must exceed the
    degree bound below by far, as the primes from `uniroots.large_primes`
    do: the run of points below needs bound + 1 consecutive residues at
    which neither leading row vanishes, and ValueError is raised when the
    prime is at most the bound or the walk of `sample_points` ends
    without such a run.

    The degree in w is at most the Sylvester bound n*deg_w p + m*deg_w q,
    and at most n*D_p + m*D_q - m*n with D the total degree: that is the
    degree of the resultant of p and q homogenized, a form in w and the
    new variable that has Res_v(p, q) as its dehomogenization.  The points
    are the first run of bound + 1 consecutive integers that
    `sample_points` yields; after a t it skips, the run starts again.  On
    a run, Newton's forward form divides only by j! for j <= bound, and
    two points differ by at most bound: both are units modulo every prime
    above the bound.

    Modulo a prime, each point takes one Euclid modulo the prime, and one
    interpolation gives the image.  Exactly, it is Collins' modular
    method with one interpolation: the primes near 2**30 that divide none
    of the leading-coefficient values are kept, so both leading
    coefficients are units modulo their product M and the formal degrees
    hold there.  At each point one inverse-free Euclid modulo M gives
    Res(P, Q)(t) mod M; where a later leading coefficient is a zero
    divisor mod M, that point alone takes one Euclid per prime, combined
    by CRT.  One interpolation modulo M (`uniroots.interpolate_mod_p`)
    recovers the coefficients: every prime exceeds 2**30, far above the
    bound, so j! is a unit modulo M.

    The primes stop once M**2 > 4 * (sum_k |P_k|**2)**n *
    (sum_k |Q_k|**2)**m, where P_k, Q_k are the v-coefficients and |.| is
    the sum of the absolute values of the coefficients (Goldstein and
    Graham's bound).  On |w| = 1 each Sylvester row of P has Euclidean norm
    at most sqrt(sum_k |P_k|**2), and likewise for Q, so Hadamard's
    inequality bounds |Res(P, Q)(w)|**2 by the right-hand side over 4.
    By Parseval the sum of the squared coefficients of Res(P, Q) is the
    mean of |Res(P, Q)(w)|**2 over the unit circle, so every coefficient
    is below half of M and the symmetric residues are exact.

    A `cut` k is a fact the caller knows about the result R: the form of
    degree n*D_p + m*D_q - m*n above, R homogenized with s, is divisible
    by s**k.  So deg R <= n*D_p + m*D_q - m*n - k, and that lowers the
    bound by up to k.

    Reduce once.  When the v-leading row of one input S (v-degree s) is a
    nonzero constant c and the other input B has v-degree b >= s, the
    points run on S and R = c**e * B rem S in v, e = b - s + 1, formed once
    in Z[w][v] (`_prem_rows`), not on S and B.  The proof:

    - The identity.  For A of degree a and B = F*A + R with deg F <= b - a,
      the part v**i * F * A of the Sylvester row v**i * B (i < a) is a sum
      of the rows v**j * A (j < b), so Res_{a,b}(A, B) = Res_{a,b}(A, R)
      with R given the formal degree b; expanding along the b - r leading columns,
      where only rows of A have an entry (lc(A)), gives
          Res_{a,b}(A, B) = lc(A)**(b - r) * Res_{a,r}(A, R)
      for any formal degree r >= deg R (von zur Gathen and Gerhard, Modern
      Computer Algebra, ch. 6).  It holds over any commutative ring: it is
      a polynomial identity in the coefficients.  Scaling the s rows of B
      by c**e gives, with A = S,
          c**(e*s) * Res(S, B) = c**(b - r) * Res(S, R).
    - Evaluation commutes.  Each pseudo-division row is r <- c*r -
      f*v**k*S, f the leading row of r, so c**e * B = F*S + R in Z[w][v].
      Setting w = t is a ring map, and c does not depend on w, so
      c**e * B_t = F_t*S_t + R_t at every point, with S_t of degree s.
      Modulo the modulus, with r the degree of R_t after reduction,
          Res(S_t, B_t) = c**(b - r - e*s) * Res(S_t, R_t),
      an inverse power of c, since e*s - b = (b - s)*(s - 1) >= 0.  R_t = 0
      gives 0.  Res(P, Q) = (-1)**(m*n) * Res(Q, P) when S is Q.  The skip
      rule, the degree bound, the primes and the interpolation read only
      P and Q (c and B's leading row are the two leading rows), so the
      points, the modulus and the lift are those of the unreduced pair.
    - The slot bound.  R is formed on Kronecker-packed rows, w -> 2**W, one
      int per v-row: a ring map, so every intermediate is exact and only
      R is decoded (`uniroots.unpack_slots`).  With |.|_1 the sum of the
      absolute coefficients, c*r - f*v**k*S = c*(r - f*v**(k+s)) -
      f*v**k*(S - c*v**s), so |r'|_1 <= |S|_1 * |r|_1, and every
      coefficient of R is at most |B|_1 * |S|_1**e: W is that bound's bit
      length and a sign bit, rounded up to whole bytes.
    - The zero divisor.  c is a unit modulo the given prime (it does not
      divide S's leading row) and modulo a product M of primes (no prime
      kept divides a leading value, and c is S's at every point).  The
      leading coefficient of R_t need not be a unit modulo M: Euclid then
      meets it first and returns None, and the point takes one Euclid per
      prime, by the same rule, combined by CRT.
    """
    m, n = p.degree_in(v), q.degree_in(v)
    bound = min(
        n * p.degree_in(w) + m * q.degree_in(w),
        n * p.total_degree() + m * q.total_degree() - m * n - cut,
    )
    pl, ql = primitive_rows(p, v, w), primitive_rows(q, v, w)
    if prime and not (any(c % prime for c in pl[-1]) and any(c % prime for c in ql[-1])):
        return None
    # The rows each point evaluates, the row the skip rule reads last; the
    # reduced pair carries B's leading row after R's rows.
    pair, twist = (pl, ql), None
    for left, right, sign in ((ql, pl, (-1) ** (m * n)), (pl, ql, 1)):
        if len(left) <= len(right) and not any(left[-1][1:]):
            s, b = len(left) - 1, len(right) - 1
            e = b - s + 1
            pair = (left, _prem_rows(right, left, e) + [right[-1]])
            twist = (sign, left[-1][0], b - e * s)
            break
    points: list[tuple[int, list[int], list[int]]] = []
    for point in sample_points(*pair, prime):
        if points and point[0] != points[-1][0] + 1:
            points = []
        points.append(point)
        if len(points) > bound:
            break
    if len(points) <= bound or prime and bound >= prime:
        raise ValueError(
            f"prime {prime} is too small for degree bound {bound}: it needs {bound + 1} "
            "consecutive residues at which neither leading row vanishes"
        )
    if prime:
        primes, modulus = [prime], prime
    else:
        norm_p, norm_q = (sum(sum(map(abs, cs)) ** 2 for cs in rows) for rows in (pl, ql))
        limit = 4 * norm_p ** n * norm_q ** m
        primes, modulus = [], 1
        for r in uniroots.large_primes():
            if modulus * modulus > limit:
                break
            if all(lp[-1] % r and lq[-1] % r for _, lp, lq in points):
                primes.append(r)
                modulus *= r
    residues = []
    for _, lp, lq in points:
        value = _point_resultant(lp, lq, modulus, twist)
        if value is None:
            # A leading coefficient met on the way is a zero divisor modulo
            # the product: one Euclid per prime, combined by CRT.
            value, done = 0, 1
            for r in primes:
                image = _point_resultant(lp, lq, r, twist)
                [value] = uniroots.crt_merge([value], done, [image], r)
                done *= r
        residues.append(value)
    coeffs = uniroots.interpolate_mod_p(points[0][0], residues, modulus)
    if not prime:
        half = modulus // 2
        coeffs = [c - modulus if c > half else c for c in coeffs]
    return uniroots.trim(coeffs)


def _prem_rows(b_rows: list[list[int]], s_rows: list[list[int]], e: int) -> list[list[int]]:
    """The w-rows of c**e * B rem S in v, for B and S as rows from
    `primitive_rows` and S's leading row the constant c, on Kronecker-packed
    rows (the slot bound is in `resultant_int`)."""
    c = s_rows[-1][0]
    norm_b, norm_s = (sum(abs(x) for row in rows for x in row) for rows in (b_rows, s_rows))
    limit = norm_b * norm_s**e
    size = limit.bit_length() // 8 + 1
    width = 8 * size
    divisor = [sum(x << width * j for j, x in enumerate(row)) for row in s_rows[:-1]]
    r = [sum(x << width * j for j, x in enumerate(row)) for row in b_rows]
    while len(r) > len(divisor):
        f = r.pop()
        k = len(r) - len(divisor)
        r[:k] = [c * x for x in r[:k]]
        r[k:] = [c * x - f * y for x, y in zip(r[k:], divisor)]
    return [uniroots.unpack_slots(x, size) for x in r]


def _point_resultant(
    lp: list[int], lq: list[int], modulus: int, twist: tuple[int, int, int] | None
) -> int | None:
    """Res(P, Q)(t) modulo `modulus` from one point of `resultant_int`: the
    values of P's and Q's rows, or with twist = (sign, c, b - e*s) those of
    S's rows and of R's rows then B's leading row (c is a unit modulo the
    modulus); None on a zero divisor."""
    if twist is None:
        return uniroots.resultant_mod_p(lp, lq, modulus)
    sign, c, top = twist
    rest = uniroots.trim([x % modulus for x in lq[:-1]])
    value = uniroots.resultant_mod_p(lp, rest, modulus)
    if value is None:
        return None
    return sign * value * pow(c, top - uniroots.deg(rest), modulus) % modulus


def primitive_rows(f: Poly, v: int, w: int) -> list[list[int]]:
    """For k = 0 .. deg_v f, the integer coefficient list in w of the v**k
    coefficient of f / content(f); f uses no variable besides v and w."""
    terms, _ = _primitive(f)
    width = f.degree_in(w) + 1
    rows = [[0] * width for _ in range(f.degree_in(v) + 1)]
    for e, k in terms.items():
        rows[e[v]][e[w]] = k
    return rows


def sample_points(
    pl: list[list[int]], ql: list[list[int]], prime: int
) -> Iterator[tuple[int, list[int], list[int]]]:
    """The integers t = 0, 1, 2, ... at which neither leading row
    (pl[-1], ql[-1]) vanishes, over Z when prime is 0 and modulo prime
    otherwise, each with every row of pl and ql evaluated at t: the
    coefficient lists in v of both inputs at w = t.  Modulo prime the walk
    ends at t = 2*prime: the residues repeat with period prime, so when
    some n <= prime consecutive residues avoid both leading rows' roots,
    the walk meets n consecutive points below 2*prime.

    Between two skipped t the points are consecutive integers.  On a run
    of n of them, Newton's forward form divides only by j! for j < n, and
    two points differ by less than n, so both are units modulo any prime
    at least n (`uniroots.interpolate_mod_p`).

    The caller takes finitely many, and makes sure that they exist: a
    leading row that is nonzero (modulo prime) has finitely many roots,
    and modulo prime at most its degree among any prime consecutive t, so
    a run of n points exists when the prime is large beside n and the
    degree.
    """
    t = 0
    while not prime or t < 2 * prime:
        lp, lq = uniroots.eval_uni_int(pl[-1], t), uniroots.eval_uni_int(ql[-1], t)
        if (lp % prime and lq % prime) if prime else (lp and lq):
            yield (
                t,
                [uniroots.eval_uni_int(cs, t) for cs in pl[:-1]] + [lp],
                [uniroots.eval_uni_int(cs, t) for cs in ql[:-1]] + [lq],
            )
        t += 1
