"""Projective plane curves over Q: singular loci and intersection theory.

Curves are squarefree homogeneous polynomials in x, y, z up to scalar.
Points are exact rational projective points.  The singular-locus search is
certified: eliminating y from a pair of forms among F and its partial
derivatives yields a binary form in (x, z).  Two such forms that are
coprime modulo one prime show that no point off the centre of projection
is singular.  Otherwise the rational roots of the first give all
candidate lines, and the eliminant of the next pair, reduced modulo the
prime, shows that no line of irrational direction holds a singular
point; factors that cannot be excluded over Q are either separated by
the unimodular shears of `_shears` or reported as structured blockers
naming the offending factor, never silently dropped.  The germ walk
(`germ_walk`) lives here too: one preorder walk of a germ's infinitely
near points, which gives delta for any germ whose repeated tangent
directions are rational and, for one branch, the minimal embedded
resolution's record.  The search keeps the walk of each point it returns,
the one source of its multiplicity, delta, resolution and tangent line
(`GermWalk.tangent`, `tangent_line`), and cuts the factors that its
projection vertex's delta proves out of its eliminants.

Intersection cycles take the cheapest certified route.  Against a line L,
I_P(C, L) is the order of C's restriction to L at P, so a line's cycle is
read off one binary form of degree d, `restrict_to_line`'s, with no
eliminant or frame (`_line_numbers`).  Two curves of degree >= 2 are cut
by one eliminant Res_y in a frame whose centre lies on neither curve
(`_local_numbers`): a coordinate vertex first, whose frame is an
exponent relabel (`_apply_matrix`), then the shears.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, count, islice
from math import lcm

from . import uniroots
from .poly import (
    ONE,
    Poly,
    X,
    Y,
    dehomogenize,
    exact_divide,
    form_resultant_int,
    from_univariate,
    normalized,
    primitive_rows,
    sample_points,
    squarefree_witness,
)


class CurveError(ValueError):
    """Invalid curve input or operation precondition."""


class IrrationalLocusError(CurveError):
    """An operation needed the full singular locus but part of it lives in
    an extension field; carries the blocking factors."""

    def __init__(self, message: str, blockers: "list[ExtensionFieldSingularity]"):
        super().__init__(message)
        self.blockers = blockers


def _fr_json(v: Fraction):
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


@dataclass(frozen=True)
class ProjPoint:
    """Rational projective point, normalized so its last nonzero
    coordinate equals 1."""

    x: Fraction
    y: Fraction
    z: Fraction

    @staticmethod
    def of(x, y, z) -> "ProjPoint":
        coords = [Fraction(x), Fraction(y), Fraction(z)]
        last = next((i for i in (2, 1, 0) if coords[i] != 0), None)
        if last is None:
            raise CurveError("(0 : 0 : 0) is not a projective point")
        s = coords[last]
        return ProjPoint(coords[0] / s, coords[1] / s, coords[2] / s)

    def coords(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.x, self.y, self.z)

    def as_json(self) -> list:
        return [_fr_json(c) for c in self.coords()]

    def __str__(self) -> str:
        return "(" + " : ".join(str(c) for c in self.coords()) + ")"


@dataclass(frozen=True)
class PlaneCurve:
    """Reduced projective plane curve, stored in normalized form."""

    poly: Poly
    degree: int

    def __str__(self) -> str:
        return str(self.poly)


def make_curve(p: Poly) -> PlaneCurve:
    """Validate and wrap a defining polynomial.

    Requires a nonzero homogeneous squarefree polynomial of degree >= 1;
    failures raise CurveError, and the squarefree failure names the
    witness of `repeated_factor`.
    """
    if p.is_zero():
        raise CurveError("the zero polynomial defines no curve")
    if not p.is_homogeneous():
        raise CurveError("defining polynomial must be homogeneous")
    d = p.total_degree()
    if d < 1:
        raise CurveError("a curve must have degree at least 1")
    witness = repeated_factor(p)
    if witness is not None:
        raise CurveError(f"polynomial is not squarefree; the square of {witness} divides it")
    return PlaneCurve(normalized(p), d)


def repeated_factor(p: Poly) -> Poly | None:
    """None when p is squarefree, otherwise a witness whose square divides
    p: a variable, or else the product of the repeated factors of p, each
    taken once, which is w / gcd(w, grad w) for w = gcd(p, grad p).

    Certified by evaluation modulo one prime.  After the variable factors
    are split off and z is set to 1, q has a repeated factor involving v
    iff Res_v(q, q_v) vanishes identically in the other variable w: a
    factor h with h**2 | q divides q_v, and a common factor h of q and q_v
    with deg_v h > 0 divides h_v * q / h, hence q / h.  Every nonconstant
    factor involves x or y, so the passes v = x and v = y decide.  At
    w = t, with the prime dividing neither the v-leading coefficient of q
    nor deg_v q, both formal degrees hold modulo the prime, so a nonzero
    resultant of the two integer coefficient lists modulo the prime proves
    Res_v(q, q_v)(t) != 0.  The prime leaves some coefficient of lc_v(q)
    nonzero, so such points t exist.  When each of more points than the
    degree of Res_v(q, q_v) gives zero, the exact gcd witness decides, as
    zeros modulo the prime may be false.
    """
    work = p
    for i in range(3):
        k = min(e[i] for e in work._num)
        if k >= 2:
            return Poly.variable(i)
        if k == 1:
            q = exact_divide(work, Poly.variable(i))
            assert q is not None
            work = q
    # Now no variable divides work; dehomogenize z -> 1 (harmless: the z
    # factor, if any, was stripped above, so distinct factors stay distinct).
    q = dehomogenize(work, 2)
    for v, w in ((0, 1), (1, 0)):
        d = q.degree_in(v)
        if d <= 0:
            continue
        rows = primitive_rows(q, v, w)
        drows = [[k * c for c in row] for k, row in enumerate(rows)][1:]
        bound = (2 * d - 1) * (max(len(row) for row in rows) - 1) + 1
        prime = next(r for r in uniroots.large_primes() if d % r and any(c % r for c in rows[-1]))
        points = islice(sample_points(rows, drows, prime), bound + 1)
        if not any(uniroots.resultant_mod_p(a, b, prime) for _, a, b in points):
            witness = squarefree_witness(p)
            if witness.is_constant():
                return None
            return normalized(exact_divide(witness, squarefree_witness(witness)))
    return None


# -- local charts and germs ----------------------------------------------


def chart_of(point: ProjPoint) -> tuple[int, int]:
    """Indices of the two affine coordinates in the standard chart at the
    point (the chart of its normalization coordinate)."""
    if point.z == 1:
        return (0, 1)
    if point.y == 1:
        return (0, 2)
    return (1, 2)


def germ_at(p: Poly, point: ProjPoint) -> Poly:
    """Bivariate local equation at the point, centered at the origin.

    Slot 0 carries the first chart variable, slot 1 the second (see
    chart_of); slot 2 is unused.  Moving p into the chart is an exponent
    relabel, `dehomogenize` and then the chart's variables into slots 0
    and 1; only a point off the chart's origin then needs a substitution,
    the shift to it.
    """
    i, j = chart_of(point)
    g = dehomogenize(p, 3 - i - j)
    g = Poly._of({(e[i], e[j], 0): k for e, k in g._num.items()}, g._den)
    a, b = point.coords()[i], point.coords()[j]
    return g.substitute((X + a, Y + b, ONE)) if a or b else g


def tangent_line(point: ProjPoint, r: Fraction | None) -> Poly:
    """The line through a point in the direction r of its chart (`germ_at`):
    v = r*u, or u = 0 when r is None, for the germ's slots u and v.  With
    (i, j) the chart, x_k the coordinate the point has as 1 and (a, b) its
    chart coordinates, r = p/q, or (p, q) = (1, 0) for None, gives the line
    q*(x_j - b*x_k) = p*(x_i - a*x_k)."""
    i, j = chart_of(point)
    p, q = (1, 0) if r is None else (r.numerator, r.denominator)
    c = point.coords()
    return Poly({_IDENTITY[i]: -p, _IDENTITY[j]: q, _IDENTITY[3 - i - j]: p * c[i] - q * c[j]})


class NotUnibranchError(CurveError):
    """The germ is not a single analytic branch."""


def germ_order(g: Poly) -> int:
    """Order of a germ at the origin: its multiplicity there.  A zero germ
    has none (the curve through it is not reduced): CurveError."""
    if g.is_zero():
        raise CurveError("zero germ: the input is not a reduced curve")
    return min(a + b + c for (a, b, c) in g._num)


def cone_coefficients(g: Poly, m: int) -> list[int]:
    """The tangent cone of a germ of order m, the degree-m part of g, up to
    a positive scalar, as integer coefficients: entry b belongs to
    u**(m - b) * v**b."""
    coeffs = [0] * (m + 1)
    for (a, b, c), k in g._num.items():
        if a + b + c == m:
            coeffs[b] += k
    return coeffs


def tangent_directions(g: Poly, m: int) -> tuple[list[tuple[Fraction | None, int]], bool]:
    """The rational tangent directions of a germ of order m with their
    multiplicities in the cone, u = 0 (None) first, and whether the cone has
    a repeated factor outside Q.  The cone is a binary form of degree m in
    (v, u), and its list of coefficients is the one of (t, 1)
    (`cone_coefficients`), so the lines v = r*u are its roots (r : 1) and
    u = 0 is (1 : 0) (`uniroots.binary_roots`)."""
    dirs, rest = uniroots.binary_roots(cone_coefficients(g, m), m)
    dirs.sort(key=lambda rk: rk[0] is not None)
    return dirs, uniroots.deg(uniroots.squarefree_part_int(rest)) < uniroots.deg(rest)


def _split_reason(dirs: list[tuple[Fraction | None, int]], m: int) -> str | None:
    """Why a cone of order m with these rational directions is not the
    m-th power of one line, so that its germ is not one branch; or None."""
    if len(dirs) == 1 and dirs[0][1] == m:
        return None
    if dirs and dirs[0][0] is None:
        return "tangent cone has several directions; the germ is not one branch"
    return "tangent cone is not the power of a single line; the germ splits"


# -- the germ walk ---------------------------------------------------------


class ResolutionIncompleteError(CurveError):
    """Normal crossings not reached within the bound: the germ is not reduced."""

    def __init__(self, steps_done: int):
        super().__init__(f"normal crossings not reached within {steps_done} blowups")
        self.steps_done = steps_done


@dataclass(frozen=True)
class BlowupRecord:
    index: int
    multiplicity: int
    label: str
    center_on: tuple[str, ...]


def delta_of(records: list[BlowupRecord]) -> int:
    """sum m(m-1)/2 over a record: the delta of the germ walked to it."""
    return sum(r.multiplicity * (r.multiplicity - 1) // 2 for r in records)


def blow_up_once(g: Poly, m: int, r: Fraction | None) -> Poly:
    """Strict transform of a germ of multiplicity m at the origin under one
    blowup, in the chart of tangent direction y = r*x (vertical x = 0 when r
    is None).  The point of that direction is again the origin.

    The total transform is an exponent relabel of g's terms: x^a*y^b goes to
    x^a*y^(a+b) in the vertical chart and to x^(a+b)*y^b in the chart
    y = r*x.  Dividing out the m-th power of the exceptional variable is a
    shift of exponents that fails exactly when g has order below m, and only
    r != 0 then needs a substitution, y -> y + r.
    """
    if r is None:
        moved, exc_var = Poly._of({(a, a + b, 0): k for (a, b, _), k in g._num.items()}, g._den), Y
    else:
        moved, exc_var = Poly._of({(a + b, b, 0): k for (a, b, _), k in g._num.items()}, g._den), X
    strict = exact_divide(moved, exc_var ** m)
    assert strict is not None, "total transform must be divisible by the m-th power"
    return strict.substitute((X, Y + r, ONE)) if r else strict


@dataclass(frozen=True)
class GermWalk:
    """What `germ_walk` found: the records of the points it visited, why
    the germ is not one branch (`split`, None when it is), whether every
    repeated tangent direction was rational (`exact`), and the root's one
    tangent direction when split is None (`tangent`, r for v = r*u and None
    for u = 0, as in `tangent_directions`)."""

    records: list[BlowupRecord]
    split: str | None
    exact: bool
    tangent: Fraction | None

    @property
    def delta(self) -> int:
        if not self.exact:
            raise CurveError("repeated tangent direction outside Q; delta invariant not computable exactly")
        return delta_of(self.records)


def germ_walk(g: Poly, d: int) -> GermWalk:
    """The infinitely near points of a germ g of a degree-d curve, in
    preorder.  A point of multiplicity m >= 2 has a child for each rational
    direction of multiplicity >= 2 in its cone (`tangent_directions`); one
    of multiplicity 1 has its direction as a child while an older
    exceptional curve passes there.  Only children get a strict transform.

    The strict transform meets the new exceptional curve at a direction
    with intersection number the direction's multiplicity, so a point of
    multiplicity >= 2 lies in a repeated direction: when those are rational
    (`exact`), the walk holds every point of delta = sum m(m-1)/2 (Noether's
    formula; Casas-Alvero, *Singularities of Plane Curves*, ch. 3).  The
    germ is one branch exactly when every cone is the m-th power of one
    line (`split` names the first that is not; x(y^2 - x^3) walks to the
    chain (3, 1, 1) with two branches).  Then the walk is the minimal
    embedded resolution: the strict transform is smooth and transversal to
    the new curve exactly after a blowup of multiplicity 1, and the total
    transform is normal crossings once no older curve passes there too.

    A reduced germ walks to at most (d - 1)(d - 2) + 1 points.  With m1 the
    root's multiplicity, each other point of multiplicity >= 2 adds at
    least 1 to delta: there are s <= delta - m1(m1 - 1)/2 + 1 of them.  A
    point of multiplicity 1 lies on E_p for the point p of multiplicity
    >= 2 that it follows (the smooth transform stays tangent to E_p), as do
    p's children, so the proximity inequality m_p >= the sum of m_q over
    the q on E_p (Casas-Alvero, ch. 3), from the leaves up, leaves t <= m1
    points of multiplicity 1.  The r <= m1 components through the point
    make a reduced curve of degree at most d, so delta <= (d - 1)(d - 2)/2
    + r - 1 by the genus formula, and s + t <= (d - 1)(d - 2)/2 + 2*m1 -
    m1(m1 - 1)/2 <= (d - 1)(d - 2)/2 + 3: within the bound for d >= 4.  For
    d <= 3: a smooth point, a node or three concurrent lines walk to 1
    point, a conic and its tangent to 2, a cusp to 3.  A walk at the bound
    with points left has a germ that is not reduced: ResolutionIncompleteError.
    """
    limit = (d - 1) * (d - 2) + 1
    records: list[BlowupRecord] = []
    split, exact, tangent = None, True, None
    # Each point waits with the exceptional curves through it, newest
    # first, each as the chart axis it lies on: 0 for x = 0, 1 for y = 0.
    stack: list[tuple[Poly, list[tuple[str, int]]]] = [(g, [])]
    while stack:
        if len(records) == limit:
            raise ResolutionIncompleteError(limit)
        g, exc = stack.pop()
        m = germ_order(g)
        dirs, repeated_outside_q = tangent_directions(g, m)
        split = split or _split_reason(dirs, m)
        exact = exact and not repeated_outside_q
        if not records and dirs:
            tangent = dirs[0][0]
        label = f"E{len(records) + 1}"
        records.append(BlowupRecord(len(records) + 1, m, label, tuple(lab for lab, _ in exc)))
        children = []
        for r, k in dirs:
            # The new curve is the axis y = 0 of the vertical chart and
            # x = 0 of the others.  An old one reaches the child only as
            # the other axis: x = 0 in the vertical chart, y = 0 in r = 0.
            axis = 1 if r is None else 0
            kept = [(lab, a) for lab, a in exc if a != axis and (r is None or r == 0)]
            if k >= 2 or (m == 1 and kept):
                children.append((blow_up_once(g, m, r), [(label, axis)] + kept))
        stack.extend(reversed(children))
    return GermWalk(records, split, exact, tangent)


# -- singular locus -------------------------------------------------------


@dataclass(frozen=True)
class ExtensionFieldSingularity:
    """A potential singular locus component that is not rational: the
    squarefree obstruction factor and where it arose."""

    factor: Poly
    context: str


@dataclass
class SingularLocus:
    """Result of the rational singular point search: certified points with
    multiplicities, plus blockers for any part of the locus that could not
    be decided over Q.

    `walks` maps each point to its germ walk (`germ_walk`), the one source
    of its multiplicity, the first record's, of its delta and of its
    resolution.  It is in no JSON and no comparison.
    """

    points: list[tuple[ProjPoint, int]]
    blockers: list[ExtensionFieldSingularity]
    walks: dict[ProjPoint, GermWalk] = field(default_factory=dict, compare=False, repr=False)

    def require_rational(self) -> "SingularLocus":
        if self.blockers:
            raise IrrationalLocusError(
                "singular locus has components outside Q: "
                + "; ".join(str(b.factor) for b in self.blockers),
                self.blockers,
            )
        return self


_IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _shears():
    """The identity, then for k = 1, 2, ... the shear taking the centre
    (0 : 1 : 0) to (k : 1 : 2**k).

    No two of these centres are equal, and no curve holds infinitely many
    of them: P(k, 1, 2**k) is dominated by its top power of 2**k once k is
    large.
    """
    yield _IDENTITY
    for k in count(1):
        yield ((1, k, 0), (0, 1, 0), (0, 2 ** k, 1))


# The frames the singular search tries after its first one.
_SHEARS = list(islice(_shears(), 7))


def _apply_matrix(p: Poly, m: tuple[tuple[int, int, int], ...]) -> Poly:
    """p in the frame of m: p(m * (x, y, z)), each variable x_r replaced by
    row r of m applied to (x, y, z).

    A permutation matrix, the identity included, is an exponent relabel:
    row r is the unit vector e_s, so x_r goes to x_s, the monomial with
    exponent e_r at r goes to the one with e_r at s, and distinct monomials
    stay distinct.  That is the substitution's result, in the same
    canonical form: the coefficients and the denominator do not change.
    Any other matrix goes through `Poly.substitute`.
    """
    if sorted(map(tuple, m)) == sorted(_IDENTITY):
        src = [col.index(1) for col in zip(*m)]
        return Poly._of({(e[src[0]], e[src[1]], e[src[2]]): k for e, k in p._num.items()}, p._den)
    imgs = tuple(
        Poly({(1, 0, 0): Fraction(row[0]), (0, 1, 0): Fraction(row[1]), (0, 0, 1): Fraction(row[2])})
        for row in m
    )
    return p.substitute(imgs)  # type: ignore[arg-type]


def _map_point(m: tuple[tuple[int, int, int], ...], q: ProjPoint) -> ProjPoint:
    c = q.coords()
    img = [sum(Fraction(m[r][k]) * c[k] for k in range(3)) for r in range(3)]
    return ProjPoint.of(*img)


def projection_vertex(curve: PlaneCurve) -> ProjPoint:
    """The coordinate vertex e_v of least deg_v F, ties preferring y: the
    vertex of highest multiplicity, d - deg_v F, and the centre of the
    first frame of `find_rational_singular_points`."""
    v = min(range(3), key=lambda i: (curve.poly.degree_in(i), i != 1))
    return ProjPoint.of(*(int(i == v) for i in range(3)))


def _tangent_frame(slope: Fraction | None) -> tuple[tuple[int, int, int], ...]:
    """A change of (x, z) that fixes Q = (0 : 1 : 0) and moves Q's tangent
    to z = 0, for the tangent direction at Q of a form whose tangent cone
    there is the power of one line (`GermWalk.tangent`), with x in slot 0
    and z in slot 1 (`germ_at`).  The cone x**m (None) takes x <-> z; the
    cone (z - (p/q)*x)**m takes x -> q*x, z -> p*x + z, which makes it
    (q*z)**m, and nothing for p = 0."""
    if slope is None:
        return ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    return ((slope.denominator, 0, 0), (0, 1, 0), (slope.numerator, 0, 1))


def find_rational_singular_points(curve: PlaneCurve) -> SingularLocus:
    """All rational singular points with multiplicities, sorted by
    coordinates when a search is blocker-free.

    Works projectively, in frames that project from (0 : 1 : 0), with
    (x, z)-eliminants of pairs of forms among F and its partials
    (`_singular_search`, which lists the pairs).  Certificate first: when
    the first two eliminants, less the powers of z the centre is known to
    give them, are coprime modulo one prime, no point but the centre is
    singular, and no eliminant is formed exactly.  Otherwise the rational
    roots of one exact eliminant give candidate lines through the centre,
    each decided by exact univariate gcds in y.  The rest of that
    eliminant is checked against the next pair's image modulo the prime;
    only when that check fails are the later eliminants formed exactly,
    and a factor they share, or an irrational y-locus on a candidate line,
    triggers a retry in the next frame.  Whatever survives every frame is
    reported, as found in the unsheared frame, as a blocker rather than
    ignored.

    The first frame projects from the coordinate vertex e_v of least
    deg_v F, after swapping v with y (ties keep y); the first seven frames
    of `_shears`, the identity first, follow.
    The v^k coefficient of F is a form of degree d - k in the other two
    variables, so F has multiplicity m = d - deg_v F at e_v: the vertex of
    highest multiplicity.  The partials then have y-degree at most d - m,
    so Res_y of two of them has degree at most (d-1)^2 - (m-1)^2 instead
    of (d-1)^2, and each of its evaluation points runs Euclid on degree
    d - m.  This is sound because a rational singular point and its
    multiplicity do not depend on the frame: a blocker-free search in any
    frame certifies the whole locus, and its points are mapped back.

    When m >= 2 the search first walks e_v's germ (`germ_walk`); every
    other point it returns is walked once, after the points are mapped
    back, and the locus keeps each walk (`SingularLocus.walks`), so that
    no caller walks a point again.  When e_v is one branch, the first frame
    also moves its tangent to z = 0 (`_tangent_frame`), and that frame's
    search cuts the powers of z that the walk's delta proves
    (`_vertex_cuts`) from its first two pairs; the other frames, and a
    vertex of several branches, take the same pairs without them.
    """
    if curve.degree == 1:
        return SingularLocus([], [])
    centre = projection_vertex(curve)
    v = centre.coords().index(1)
    walks, delta = {}, None
    rows = list(_IDENTITY)
    if curve.degree - curve.poly.degree_in(v) >= 2:
        walks[centre] = germ_walk(germ_at(curve.poly, centre), curve.degree)
        if walks[centre].split is None:
            # The germ at e_v has the swapped frame's (x, z) in its slots.
            delta, rows = walks[centre].delta, list(_tangent_frame(walks[centre].tangent))
    # The swap after the tangent move permutes the move's rows.
    rows[1], rows[v] = rows[v], rows[1]
    first = tuple(rows)
    unsheared = None
    # the swap is the unsheared frame when v is y: run it once
    for m in dict.fromkeys((first, *_SHEARS)):
        points, blockers = _singular_search(_apply_matrix(curve.poly, m), delta if m == first else None)
        if not blockers:
            points = [_map_point(m, q) for q in points]
            break
        if m == _IDENTITY:
            unsheared = points, blockers
    else:
        points, blockers = unsheared
    points.sort(key=ProjPoint.coords)
    walks = {q: walks.get(q) or germ_walk(germ_at(curve.poly, q), curve.degree) for q in points}
    return SingularLocus([(q, walks[q].records[0].multiplicity) for q in points], blockers, walks)


def _singular_search(
    f: Poly, delta: int | None = None
) -> tuple[list[ProjPoint], list[ExtensionFieldSingularity]]:
    """Singular points of f, plus blockers.

    A singular point zeroes the three partials, and F by Euler's formula,
    so it lies on the line through (0 : 1 : 0) whose direction (x : z) is a
    common root of the eliminants e = Res_y of the pairs (F_x, F_z),
    (F_z, F), (F_x, F_y) and (F_y, F_z), in that order, leaving out a pair
    with a zero partial.  Each pair carries a known factor z**k of its
    eliminant: k0 and k1 from `_vertex_cuts` for the first two when
    `delta` is the delta invariant of (0 : 1 : 0), a unibranch singular
    point of f with the tangent z = 0, and 0 otherwise.

    Certificate first: the images modulo the first prime p of
    `uniroots.large_primes` of the first two pairs' cut eliminants
    e/z**k, a member free of y standing in for e (`_eliminant`).  When
    they share no root (`uniroots.coprime_mod_p`), no point but
    (0 : 1 : 0) is singular, and no eliminant is formed exactly.

    Otherwise one lazy pass over the pairs forms their cut eliminants
    exactly, by the same function, as integer lists of c(t, 1).  The first
    nonzero one, c1, gives the candidate lines: its rational roots, and
    (1 : 0) when its list falls short of its formal degree
    (`uniroots.binary_roots`), each decided exactly by `_points_on_line`.
    What is left of c1(t, 1) once its rational linear factors are divided
    out, L1, is a form of its own degree whose roots are the irrational
    directions that may hold a singular point.  When L1 and the image of
    the next pair modulo p (the one already formed when c1 is the first
    pair's) share no root (`coprime_mod_p`), L1 shares no factor with that
    pair's cut eliminant, whose values at (t, 1) are those of its
    eliminant, so no singular point lies on a line of irrational
    direction.  Otherwise (an irrational singular point, or an unlucky
    prime) the pass goes on to the next nonzero exact eliminant c2, and
    the squarefree part of gcd(L1, c2(t, 1)) is reported as a blocker when
    it is not constant; when no later pair has a nonzero eliminant, L1
    itself is.  Every point found zeroes all three partials, so it lies on
    f and is singular.
    """
    partials = [f.partial(i) for i in range(3)]
    fx, fy, fz = partials
    live = [p for p in partials if not p.is_zero()]
    if len(live) < 2:
        # f uses a single variable; squarefree => a line, handled earlier.
        raise CurveError("degenerate curve: fewer than two nonzero partials")

    k0, k1 = (0, 0) if delta is None else _vertex_cuts(f, fx, fz, delta)
    pairs = [
        (a, b, k)
        for a, b, k in ((fx, fz, k0), (fz, f, k1), (fx, fy, 0), (fy, fz, 0))
        if not (a.is_zero() or b.is_zero())
    ]
    prime = next(uniroots.large_primes())
    images = [_eliminant(pair, prime) for pair in pairs[:2]]
    points: list[ProjPoint] = []
    blockers: list[ExtensionFieldSingularity] = []
    if None in images or not uniroots.coprime_mod_p(images, prime):
        exact = ((i, e) for i, e in enumerate(map(_eliminant, pairs)) if e is not None)
        i, e1 = next(exact, (0, None))
        if e1 is None:
            raise CurveError("partial derivatives are pairwise degenerate; cannot certify locus")
        lines, l1 = uniroots.binary_roots(*e1)
        if uniroots.deg(l1) > 0:
            # the next pair's image, formed already when c1 is the first pair's
            image = None if i + 1 == len(pairs) else images[1] if i == 0 else _eliminant(pairs[i + 1], prime)
            if image is None or not uniroots.coprime_mod_p([(l1, uniroots.deg(l1)), image], prime):
                _, e2 = next(exact, (0, None))
                common = uniroots.squarefree_part_int(l1 if e2 is None else uniroots.gcd_int(l1, e2[0]))
                if uniroots.deg(common) > 0:
                    blockers.append(
                        ExtensionFieldSingularity(
                            _uni_to_binary(common), "common eliminant factor without rational roots"
                        )
                    )
        for r, _ in lines:
            found, blk = _points_on_line(live, r)
            points.extend(found)
            blockers.extend(blk)
    # the single point not covered by (x : z) candidates
    if all(p.evaluate((0, 1, 0)) == 0 for p in live):
        points.append(ProjPoint.of(0, 1, 0))
    return points, blockers


def _eliminant(pair: tuple[Poly, Poly, int], prime: int = 0) -> tuple[list[int], int] | None:
    """The eliminant of a pair (A, B, k) cut by its known factor z**k, as
    `uniroots.coprime_mod_p` and `uniroots.binary_roots` read a binary
    form: the integer list of c(t, 1) for c = Res_y(A, B)/z**k, from
    `form_resultant_int`, exact for prime 0 and reduced modulo the prime
    otherwise, and c's formal degree deg e - k.  None when e is exactly
    zero, or when the prime divides a y-leading row of A or B
    (`resultant_int`).  A member free of y stands in for e in both modes,
    uncut: its list, or the gcd of both lists when both are free, whose
    degree is that of the gcd plus the smaller deficit at (1 : 0);
    `coprime_mod_p` reduces an exact list itself.

    Every singular point S other than (0 : 1 : 0) gives a root of c: the
    direction (x0 : z0) of the line through the centre and S.  S zeroes A
    and B, so (x0 : z0) is a root of e, and of a member free of y itself.
    It is a root of the cut too: z**k is a unit off z = 0, and on the line
    z = 0 the order of e counts S on top of the cut, which holds only the
    centre's own part, the intersection number at the point infinitely
    near (0 : 1 : 0) in the direction z = 0 (`_vertex_cuts`).  So the
    rational roots of an exact c (`uniroots.binary_roots`), (1 : 0) when
    the list falls short of c's formal degree, hold every rational
    singular point off the centre.

    Why two pairs' images that `coprime_mod_p` certifies prove that no
    point but (0 : 1 : 0) is singular.  Each image is the reduction of c's
    integral list: the Sylvester resultant at fixed formal degrees is a
    polynomial in the coefficients, so it commutes with reduction at every
    point t where neither leading coefficient vanishes modulo the prime,
    and the interpolation recovers the reduced list.  So the two cuts
    share no root over Q (by Gauss's lemma: a primitive common factor
    stays nonzero modulo the prime), and no S gives a root of both.
    """
    a, b, cut = pair
    free = [h for h in (a, b) if h.degree_in(1) == 0]
    if free:
        rows = [primitive_rows(dehomogenize(h, 2), 1, 0)[0] for h in free]
        deficit = min(h.total_degree() - uniroots.deg(r) for h, r in zip(free, rows))
        g = rows[0] if len(rows) == 1 else uniroots.gcd_int(*rows)
        return g, uniroots.deg(g) + deficit
    coeffs = form_resultant_int(a, b, 1, prime, cut)
    if coeffs is None or not (coeffs or prime):
        return None
    m, n = a.degree_in(1), b.degree_in(1)
    return coeffs, n * a.total_degree() + m * b.total_degree() - m * n - cut


def _vertex_cuts(f: Poly, fx: Poly, fz: Poly, delta: int) -> tuple[int, int]:
    """The powers k0 of z in Res_y(F_x, F_z) and k1 of z in Res_y(F_z, F)
    that are known when Q = (0 : 1 : 0) is a unibranch singular point of f
    of multiplicity m with the tangent z = 0 and delta invariant `delta`:
    k0 = mu_Q - r*s, with mu_Q = 2*delta, r = ord_Q F_x and s = ord_Q F_z,
    and k1 = 2*delta - (m - 1)**2.  A form h has the order
    deg h - deg_y h at Q: that is the least a + c over its terms
    x**a * y**b * z**c.

    In the chart y = 1, F, F_x and F_z are the germ g of f at Q and its
    partials g_x and g_z, so I_Q(F_x, F_z) is the Milnor number mu_Q,
    which is 2*delta for one branch (Milnor's formula mu = 2*delta -
    branches + 1).  Q's tangent cone is c*z**m, so the degree m - 1 part
    of g_z is c*m*z**(m-1): s = m - 1, and the strict transforms of g and
    of g_z under the blowup of Q meet the exceptional curve only at the
    point p of the direction z = 0.  By Noether's formula (Fulton,
    Algebraic Curves, ch. 7), I_Q(A, B) = ord_Q A * ord_Q B + the sum,
    over the points of the exceptional curve, of the intersection numbers
    of the strict transforms of A and B there; for the pairs below only p
    can lie on both, so that sum is I_p.  After the blowup the projection
    from Q is a morphism to the lines through Q, and the order of the
    eliminant at the line z = 0, the point (1 : 0) of (x : z), counts the
    intersections of the two strict transforms on the fibre over that
    line (the resultant argument of Fulton, 5.1), p among them.  So
    z**I_p divides Res_y(A, B).

    For (F_x, F_z), I_p = mu_Q - r*s = k0.  For (F_z, F), Teissier's
    lemma gives I_Q(g, g_z) = mu_Q + I_Q(g, x) - 1: on each branch phi(s)
    of g_z = 0, d/ds g(phi) = g_x(phi) * x'(s), so I(g, phi) =
    I(g_x, phi) + I(x, phi); summing over the branches gives
    I(g, g_z) = I(g_x, g_z) + I(x, g_z) = mu_Q + ord g_z(0, z) =
    mu_Q + m - 1, because x = 0 is not the tangent.  F and F_z have the
    orders m and m - 1 at Q, so I_p = 2*delta + m - 1 - m*(m - 1) =
    2*delta - (m - 1)**2 = k1.
    """
    r, s = (h.total_degree() - h.degree_in(1) for h in (fx, fz))
    m = f.total_degree() - f.degree_in(1)
    return 2 * delta - r * s, 2 * delta - (m - 1) ** 2


def _uni_to_binary(coeffs: list[int]) -> Poly:
    d = uniroots.deg(coeffs)
    return normalized(Poly({(i, 0, d - i): c for i, c in enumerate(coeffs[: d + 1])}))


def _direction_point(r: Fraction | None) -> tuple:
    """The point of P^1 of a direction of `uniroots.binary_roots`: (r : 1),
    or (1 : 0) for None."""
    return (1, 0) if r is None else (r, 1)


def _points_on_line(
    forms: list[Poly], r: Fraction | None
) -> tuple[list[ProjPoint], list[ExtensionFieldSingularity]]:
    """The rational common points of the forms on the line through
    (0 : 1 : 0) of direction r, all (x0 : y : z0) for (x0 : z0) = (r : 1),
    or (1 : 0) for None, plus a blocker for their common irrational y-locus
    there: the rational roots of the gcd of the restrictions, and what is
    left of it."""
    evals = [h for h in (_restrict_to_pencil_line(p, r) for p in forms) if any(h)]
    if not evals:
        raise CurveError("a whole line of singular points: input cannot be squarefree")
    g = evals[0]
    for extra in evals[1:]:
        g = uniroots.gcd_int(g, extra)
        if uniroots.deg(g) == 0:
            break
    if uniroots.deg(g) == 0:
        return [], []
    roots, leftover = uniroots.rational_roots_int(g)
    x0, z0 = _direction_point(r)
    points = [ProjPoint.of(x0, y0, z0) for y0 in roots]
    blockers = []
    if uniroots.deg(leftover) > 0:
        blockers.append(
            ExtensionFieldSingularity(
                normalized(from_univariate(leftover, 1)),
                f"irrational singular y-locus on the line (x : z) = ({x0} : {z0})",
            )
        )
    return points, blockers


def _restrict_to_pencil_line(p: Poly, r: Fraction | None) -> list[int]:
    """Coefficient list in y of a form p on the line through (0 : 1 : 0) of
    direction r, at (x0 : y : z0) for (x0 : z0) = `_direction_point(r)`,
    up to a positive scale, in integers: with (x0 : z0) = (u/D : w/D) over
    one denominator D, the term k*x^a*y^b*z^c of p's numerators adds
    k * u^a * w^c * D^b at y^b, which makes D^deg(p) * p(x0, y, z0) times
    p's denominator.  Not `restrict_to_line`: this list leaves out the
    centre (0 : 1 : 0) by construction; the shared kernel would branch on
    its caller for it."""
    x0, z0 = _direction_point(r)
    d = lcm(x0.denominator, z0.denominator)
    u, w = x0.numerator * (d // x0.denominator), z0.numerator * (d // z0.denominator)
    out = [0] * (p.degree_in(1) + 1)
    for (a, b, c), k in p._num.items():
        out[b] += k * u ** a * w ** c * d ** b
    return out


# -- intersection theory --------------------------------------------------


# The frames whose centres are the coordinate vertices (0 : 1 : 0),
# (1 : 0 : 0) and (0 : 0 : 1): the identity, and the swaps of y with x and
# with z.  Each is a relabel of exponents (`_apply_matrix`).
_VERTEX_FRAMES = (_IDENTITY, ((0, 1, 0), (1, 0, 0), (0, 0, 1)), ((1, 0, 0), (0, 0, 1), (0, 1, 0)))


def _local_numbers(f: Poly, g: Poly) -> list[tuple[ProjPoint, int]]:
    """Rational common points of two forms with their local intersection
    numbers, sorted by coordinates.

    In a frame whose centre, the image of (0 : 1 : 0), lies on neither
    curve, e = Res_y(f, g) is a binary form of degree deg f * deg g in
    (x, z).  It is zero exactly when f and g share a component, and on a
    line through the centre that meets f and g in a single point P, the
    order of e is I_P(f, g) (Fulton, Algebraic Curves, 5.1).  A rational
    point lies on a rational line through the centre, so the rational
    roots of e, read off its integer list (`_eliminant`) with (1 : 0) of
    order the degree deficit (`uniroots.binary_roots`), give every
    rational point.  `_points_on_line` certifies that
    each line holds one common point: one rational root of the gcd of the
    two restrictions and no blocker.  When a line holds two, the next
    frame is tried.

    The frames are those of the coordinate vertices (0 : 1 : 0), (1 : 0 : 0)
    and (0 : 0 : 1), each a relabel of exponents, then the shears of
    `_shears` after the identity, with the centres (k : 1 : 2**k).  No two
    centres are equal, and only finitely many of them lie on a curve or on
    a line through two of the finitely many common points, so the search
    ends.
    """
    if f.is_zero() or g.is_zero():
        raise CurveError("the zero polynomial defines no curve")
    for m in chain(_VERTEX_FRAMES, islice(_shears(), 1, None)):
        centre = (m[0][1], m[1][1], m[2][1])
        if f.evaluate(centre) == 0 or g.evaluate(centre) == 0:
            continue
        fm, gm = _apply_matrix(f, m), _apply_matrix(g, m)
        e = _eliminant((fm, gm, 0))
        if e is None:
            raise CurveError("curves share a component; intersection numbers are undefined")
        points = []
        for r, k in uniroots.binary_roots(*e)[0]:
            found, blockers = _points_on_line([fm, gm], r)
            if len(found) != 1 or blockers:
                break
            points.append((_map_point(m, found[0]), k))
        else:
            return sorted(points, key=lambda t: t[0].coords())
    raise AssertionError("unreachable: the shears never run out")


def restrict_to_line(f: Poly, line: Poly) -> tuple[list[int], list[tuple[int, int]]]:
    """A form f of degree d on a line: the integer list of the binary form
    f(s, t), entry n the coefficient of s**n * t**(d - n), and the map of
    P^1 onto the line that it is read on, (s : t) -> the point whose v-th
    coordinate is a_v*s + b_v*t, as the pairs (a_v, b_v).

    With l_x*x + l_y*y + l_z*z the line, l_i its last nonzero coefficient
    and j < k the other two indices, (s : t) -> x_j = l_i*s, x_k = l_i*t,
    x_i = -(l_j*s + l_k*t) maps P^1 one to one onto the line, as l_i != 0,
    so each point of the line has one parameter.  The term
    c*x_i**a*x_j**b*x_k**c' of f's numerators adds c*l_i**(b + c') *
    s**b * t**c' times (-(l_j*s + l_k*t))**a, so the list is f(s, t) times
    f's denominator.  It is zero exactly when the line is a component of f.
    """
    coeffs = [line._num.get(e, 0) for e in _IDENTITY]  # the rows are the exponents of x, y and z
    i = max(v for v in range(3) if coeffs[v])
    j, k = (v for v in range(3) if v != i)
    li, lj, lk = coeffs[i], coeffs[j], coeffs[k]
    d = f.total_degree()
    # powers[a][n]: the coefficient of s**n * t**(a - n) in (-(l_j*s + l_k*t))**a
    powers = [[1]]
    for _ in range(f.degree_in(i)):
        last = powers[-1]
        powers.append([-lk * u - lj * w for u, w in zip(last + [0], [0] + last)])
    restricted = [0] * (d + 1)
    for e, c in f._num.items():
        scale = c * li ** (d - e[i])
        for n, w in enumerate(powers[e[i]]):
            restricted[e[j] + n] += scale * w
    param = [(0, 0)] * 3
    param[i], param[j], param[k] = (-lj, -lk), (li, 0), (0, li)
    return restricted, param


def _line_numbers(f: Poly, line: Poly) -> list[tuple[ProjPoint, int]]:
    """Rational common points of a form f and a line with their local
    intersection numbers, sorted by coordinates.

    The restriction f(s, t) to the line (`restrict_to_line`) is a binary
    form of degree d = deg f.  It is zero exactly when the line is a
    component of f, and otherwise I_P(f, L) is the order of f(s, t) at the
    parameter of P (Fulton, Algebraic Curves, ch. 3).  So the rational
    roots (s : 1) of f(s, 1), and (1 : 0) with order the degree deficit
    (`uniroots.binary_roots`), are the rational common points with their
    numbers; no eliminant is formed.
    """
    restricted, param = restrict_to_line(f, line)
    if not any(restricted):
        raise CurveError("curves share a component; intersection numbers are undefined")
    points = []
    for r, order in uniroots.binary_roots(restricted, f.total_degree())[0]:
        s, t = _direction_point(r)
        points.append((ProjPoint.of(*(a * s + b * t for a, b in param)), order))
    return sorted(points, key=lambda pm: pm[0].coords())


@dataclass
class IntersectionCycle:
    """Rational part of an intersection cycle: located points with local
    numbers, the full Bezout total, and the unlocated residual."""

    points: list[tuple[ProjPoint, int]]
    residual: int
    bezout: int

    def as_json(self) -> dict:
        return {
            "points": [{"P": p.as_json(), "m": m} for p, m in self.points],
            "residual": self.residual,
            "bezout": self.bezout,
        }


def intersection_cycle(c1: PlaneCurve, c2: PlaneCurve) -> IntersectionCycle:
    """Locate all rational intersection points with local multiplicities.

    When either curve is a line, the numbers are the orders of the other
    curve's restriction to it (`_line_numbers`); otherwise they come from
    one eliminant in a frame whose centre lies on neither curve
    (`_local_numbers`).  Both give every rational common point with its
    number, so the sum of located numbers never exceeds the Bezout total;
    whatever lives in extension fields stays in the residual.  Curves
    that share a component raise CurveError.
    """
    if c1.degree == 1 or c2.degree == 1:
        line, other = (c1, c2) if c1.degree == 1 else (c2, c1)
        located = _line_numbers(other.poly, line.poly)
    else:
        located = _local_numbers(c1.poly, c2.poly)
    bez = c1.degree * c2.degree
    return IntersectionCycle(located, bez - sum(m for _, m in located), bez)
