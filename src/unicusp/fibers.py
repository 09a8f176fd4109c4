"""Intersection-graph calculus for degenerate fibers of elliptic fibrations.

A candidate fiber is a weighted multigraph: vertices are irreducible
components (weight = self-intersection, loops = self-tangencies counted as
nodes of the component), edges carry intersection multiplicities.  A graph
supports a fiber when the intersection matrix has a one-dimensional kernel
spanned by a positive vector: F = sum n_i E_i with F.E_j = 0 for every j.

The module provides the kernel solver, a recognizer for the simple-normal-
crossing Kodaira types made of (-2)-curves (I_n, I_n*, II*, III*, IV*), the
(-1)-contraction move, and a bounded completion search that starts from the
fiber part carved out of a cusp resolution and enumerates every way to finish
it into a 9-component fiber.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .dualgraph import GraphError, WeightedDualGraph
from .resolution import ResolutionResult


class _NotAFiberType:
    """Falsy sentinel returned when a graph carries no fiber structure."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NotAFiber"

    def __bool__(self) -> bool:
        return False


NotAFiber = _NotAFiberType()

UNRECOGNIZED = "Unrecognized"

CASE_ON = "QOnE_nm1"
CASE_OFF = "QOffE_nm1"

# label of the virtual 1-section vertex used during completion search
_SECTION = "S"
# vertices the completion search is never allowed to contract
_E0 = "E0"
_E0P = "E0'"


def intersection_matrix(g: WeightedDualGraph) -> tuple[list[str], list[list[int]]]:
    """Vertex order and the symmetric intersection matrix of the graph.

    Diagonal entries are weight + 2*loops (a loop contributes twice to the
    self-intersection of the reduced component), off-diagonal entries are
    edge multiplicities.
    """
    verts = g.vertices
    idx = {v: i for i, v in enumerate(verts)}
    mat = [[0] * len(verts) for _ in verts]
    for i, v in enumerate(verts):
        mat[i][i] = g.weight(v) + 2 * g.loops(v)
    for a, b, m in g.edges():
        i, j = idx[a], idx[b]
        mat[i][j] = m
        mat[j][i] = m
    return verts, mat


def is_fiber_solution(g: WeightedDualGraph, mults: dict[str, int]) -> bool:
    """Check F.E_j = 0 for all j, recomputed from the graph itself."""
    verts, mat = intersection_matrix(g)
    if set(mults) != set(verts):
        return False
    vec = [mults[v] for v in verts]
    return all(
        sum(mat[j][i] * vec[i] for i in range(len(verts))) == 0
        for j in range(len(verts))
    )


def solve_multiplicities(g: WeightedDualGraph):
    """Primitive positive multiplicities n_i with F.E_j = 0, or NotAFiber.

    The kernel of the intersection matrix must be one-dimensional and
    spanned by a strictly positive vector; the result is scaled to coprime
    positive integers, listed in graph vertex order.
    """
    verts, mat = intersection_matrix(g)
    r = len(verts)
    if r == 0 or not g.is_connected():
        return NotAFiber
    rows = [[Fraction(x) for x in row] for row in mat]
    pivots: list[int] = []
    rank = 0
    for col in range(r):
        sel = None
        for k in range(rank, r):
            if rows[k][col]:
                sel = k
                break
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for k in range(r):
            if k != rank and rows[k][col]:
                f = rows[k][col]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(r) if c not in pivots]
    if len(free) != 1:
        return NotAFiber
    fc = free[0]
    sol = [Fraction(0)] * r
    sol[fc] = Fraction(1)
    for k, col in enumerate(pivots):
        sol[col] = -rows[k][fc]
    if any(x <= 0 for x in sol):
        return NotAFiber
    den = 1
    for x in sol:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in sol]
    g0 = 0
    for n in ints:
        g0 = gcd(g0, n)
    return [n // g0 for n in ints]


def _arm_lengths(g: WeightedDualGraph, branch: str) -> list[int] | None:
    arms = []
    for start, _ in g.neighbors(branch):
        length = 1
        prev, cur = branch, start
        while True:
            nxt = [w for w, _ in g.neighbors(cur) if w != prev]
            if not nxt:
                break
            if len(nxt) > 1:
                return None
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    return arms


def classify_kodaira(g: WeightedDualGraph) -> str:
    """Recognize SNC fiber supports made of (-2)-curves.

    Returns "In" (n >= 2, cycles; n = 2 is the double edge), "In*" (n >= 0),
    "II*", "III*", "IV*", or UNRECOGNIZED.  Tangential configurations
    (loops), wrong weights, and shapes outside the list are UNRECOGNIZED.
    """
    verts = g.vertices
    r = len(verts)
    if r == 0 or not g.is_connected():
        return UNRECOGNIZED
    if any(g.loops(v) for v in verts):
        return UNRECOGNIZED
    if any(g.weight(v) != -2 for v in verts):
        return UNRECOGNIZED
    edges = g.edges()
    total_mult = sum(m for _, _, m in edges)
    degrees = {v: g.degree(v) for v in verts}

    # cycles: every vertex meets the rest of the fiber twice
    if all(degrees[v] == 2 for v in verts) and total_mult == r:
        if r == 2:
            if len(edges) == 1 and edges[0][2] == 2:
                return "I2"
            return UNRECOGNIZED
        if all(m == 1 for _, _, m in edges):
            return f"I{r}"
        return UNRECOGNIZED

    # everything else on the list is a tree with simple edges
    if any(m != 1 for _, _, m in edges) or total_mult != r - 1:
        return UNRECOGNIZED
    branch = [v for v in verts if degrees[v] >= 3]
    leaves = [v for v in verts if degrees[v] == 1]

    if len(branch) == 1:
        b = branch[0]
        if degrees[b] == 4 and r == 5 and len(leaves) == 4:
            return "I0*"
        if degrees[b] == 3:
            arms = _arm_lengths(g, b)
            if arms is not None:
                arms = sorted(arms)
                if arms == [1, 2, 5] and r == 9:
                    return "II*"
                if arms == [1, 3, 3] and r == 8:
                    return "III*"
                if arms == [2, 2, 2] and r == 7:
                    return "IV*"
        return UNRECOGNIZED

    if len(branch) == 2 and len(leaves) == 4:
        b1, b2 = branch
        if degrees[b1] == 3 and degrees[b2] == 3:
            l1 = sum(1 for u, _ in g.neighbors(b1) if degrees[u] == 1)
            l2 = sum(1 for u, _ in g.neighbors(b2) if degrees[u] == 1)
            if l1 == 2 and l2 == 2:
                # stripping the four leaves leaves the central path b1..b2
                return f"I{r - 5}*"
        return UNRECOGNIZED

    return UNRECOGNIZED


def blow_down(g: WeightedDualGraph, v: str) -> WeightedDualGraph:
    """Contract a loop-free (-1)-vertex and rewire its neighbors.

    Every former neighbor with incidence k gains k^2 in weight and
    k*(k-1)/2 loops; every pair of former neighbors gains an edge of
    multiplicity k1*k2.
    """
    if v not in g:
        raise GraphError(f"unknown vertex {v!r}")
    if g.weight(v) != -1:
        raise GraphError(f"cannot contract {v!r}: weight {g.weight(v)} is not -1")
    if g.loops(v):
        raise GraphError(f"cannot contract {v!r}: it carries a loop")
    nbrs = g.neighbors(v)
    out = g.copy()
    out.remove_vertex(v)
    for u, k in nbrs:
        out.bump_weight(u, k * k)
        if k >= 2:
            out.add_loop(u, k * (k - 1) // 2)
    for i in range(len(nbrs)):
        for j in range(i + 1, len(nbrs)):
            (u, ku), (w, kw) = nbrs[i], nbrs[j]
            out.add_edge(u, w, ku * kw)
    return out


@dataclass(frozen=True)
class FiberConfig:
    """A candidate fiber graph, optionally with solved multiplicities.

    multiplicities, when present, are listed in graph vertex order.
    section_contact names the component met by the 1-section, when known.
    """

    graph: WeightedDualGraph
    multiplicities: tuple[int, ...] | None = None
    case: str | None = None
    section_contact: str | None = None

    @property
    def components(self) -> int:
        return len(self.graph)

    def multiplicity_of(self, label: str) -> int:
        if self.multiplicities is None:
            raise GraphError("multiplicities have not been solved")
        return self.multiplicities[self.graph.vertices.index(label)]

    def validate(self) -> None:
        if not self.graph.is_connected():
            raise GraphError("fiber graph must be connected")
        if self.multiplicities is not None:
            mults = dict(zip(self.graph.vertices, self.multiplicities))
            if any(n <= 0 for n in self.multiplicities):
                raise GraphError("fiber multiplicities must be positive")
            g0 = 0
            for n in self.multiplicities:
                g0 = gcd(g0, n)
            if g0 != 1:
                raise GraphError("fiber multiplicities must be primitive")
            if not is_fiber_solution(self.graph, mults):
                raise GraphError("multiplicities do not annihilate the intersection matrix")

    def as_json(self) -> dict:
        out = {"graph": self.graph.to_json()}
        if self.multiplicities is not None:
            out["multiplicities"] = list(self.multiplicities)
        if self.case is not None:
            out["case"] = self.case
        if self.section_contact is not None:
            out["section_contact"] = self.section_contact
        return out

    def to_dot(self, name: str = "fiber") -> str:
        ann = None
        if self.multiplicities is not None:
            ann = {
                v: f"x{n}"
                for v, n in zip(self.graph.vertices, self.multiplicities)
            }
        return self.graph.to_dot(name, annotations=ann)


def build_F0(res: ResolutionResult, n: int, case: str) -> FiberConfig:
    """Carve the fiber part out of a cusp resolution.

    Starting from the resolution graph (exceptional curves plus the strict
    transform C' of self-intersection n), blow up the point C'&D0 a total of
    n-1 times, producing a chain T1..T_{n-1} hanging off D0 with C' moved to
    the end of the chain, then blow up once more at a point Q of C'.  The
    candidate fiber part drops C' and the last exceptional curve; where Q
    sits decides the case:

    - CASE_ON  (Q = C' & T_{n-1}): T_{n-1} drops to -2 and stays in the
      fiber part; the 1-section meets T_{n-1}.
    - CASE_OFF (Q on C' away from the chain): T_{n-1} keeps weight -1 and is
      dropped together with C'; the 1-section meets no fiber-part component
      (it will meet the non-contracted curve added by the completion).
    """
    if case not in (CASE_ON, CASE_OFF):
        raise GraphError(f"unknown attachment case {case!r}")
    if n < 3:
        raise GraphError(f"need self-intersection n >= 3 to build a fiber part, got {n}")
    if n != res.strict_self_intersection:
        raise GraphError(
            f"n={n} does not match the resolution's strict transform "
            f"self-intersection {res.strict_self_intersection}"
        )
    g = res.graph.copy()
    cp = "C'"
    if cp not in g:
        raise GraphError("resolution graph lacks a strict transform vertex")
    attached = g.neighbors(cp)
    if len(attached) != 1:
        raise GraphError("strict transform must meet exactly one exceptional curve")
    prev = attached[0][0]
    chain = [f"T{i}" for i in range(1, n)]
    for t in chain:
        g.add_vertex(t, -1)
        g.bump_weight(prev, -1)
        g.remove_edge(cp, prev)
        g.add_edge(prev, t)
        g.add_edge(cp, t)
        prev = t
    last = chain[-1]
    if case == CASE_ON:
        g.bump_weight(last, -1)
        g.remove_edge(cp, last)
        contact = last
    else:
        g.remove_vertex(last)
        contact = None
    g.remove_vertex(cp)
    return FiberConfig(graph=g, case=case, section_contact=contact)


@dataclass(frozen=True)
class Completion:
    """One successful way to finish a fiber part into a full fiber."""

    e0: str
    e0_prime: str | None
    contractions: tuple[str, ...]
    kodaira: str
    fiber: FiberConfig
    section_pairing: int

    def as_json(self) -> dict:
        out = {
            "e0": self.e0,
            "contractions": list(self.contractions),
            "kodaira": self.kodaira,
            "fiber": self.fiber.as_json(),
            "section_pairing": self.section_pairing,
        }
        if self.e0_prime is not None:
            out["e0_prime"] = self.e0_prime
        return out


def _eligible(g: WeightedDualGraph) -> list[str]:
    return [
        v
        for v in g.vertices
        if v not in (_SECTION, _E0P) and g.weight(v) == -1 and g.loops(v) == 0
    ]


def _finalize(
    g: WeightedDualGraph,
    e0: str,
    e0p: str | None,
    seq: tuple[str, ...],
    results: list[Completion],
    seen: set,
    case: str,
) -> None:
    sec_edges = g.neighbors(_SECTION)
    fiber = g.copy()
    fiber.remove_vertex(_SECTION)
    if len(fiber) != 9:
        return
    tag = classify_kodaira(fiber)
    if tag == UNRECOGNIZED:
        return
    mults = solve_multiplicities(fiber)
    if mults is NotAFiber:
        return
    order = {v: i for i, v in enumerate(fiber.vertices)}
    pairing = sum(k * mults[order[u]] for u, k in sec_edges)
    if pairing != 1:
        return
    coeffs = dict(zip(fiber.vertices, mults))
    if fiber.divisor_square(coeffs) != 0:
        return
    key = (e0, e0p, frozenset(seq))
    if key in seen:
        return
    seen.add(key)
    results.append(
        Completion(
            e0=e0,
            e0_prime=e0p,
            contractions=seq,
            kodaira=tag,
            fiber=FiberConfig(fiber, tuple(mults), case=case),
            section_pairing=pairing,
        )
    )


def _search(
    g: WeightedDualGraph,
    e0: str,
    e0p: str | None,
    seq: list[str],
    budget: int,
    results: list[Completion],
    seen: set,
    case: str,
) -> None:
    elig = _eligible(g)
    if not elig:
        _finalize(g, e0, e0p, tuple(seq), results, seen, case)
        return
    if len(seq) >= budget:
        # contractions remain but the budget is spent: not a maximal
        # sequence of admissible length
        return
    for v in elig:
        seq.append(v)
        _search(blow_down(g, v), e0, e0p, seq, budget, results, seen, case)
        seq.pop()


def contraction_budget(res: ResolutionResult) -> int:
    """The contraction budget of the completion search for a resolution:
    its number of components (the exceptional curves and C') plus
    (C')**2, minus 10."""
    return len(res.records) + 1 + res.strict_self_intersection - 10


def complete_and_classify(f0: FiberConfig, case: str, budget: int) -> list[Completion]:
    """Every way to finish the fiber part into a recognized 9-component fiber.

    Attaches one new (-1)-curve E0 by a single edge (CASE_ON), plus one new
    (-2)-curve E0' by a single edge that is never contracted and carries the
    1-section (CASE_OFF), then runs every maximal contraction sequence of
    length <= budget and keeps the outcomes that are recognized Kodaira
    fibers with exactly 9 components whose pairing with the section is 1.
    """
    if case not in (CASE_ON, CASE_OFF):
        raise GraphError(f"unknown attachment case {case!r}")
    if budget < 1:
        raise GraphError(f"contraction budget must be at least 1, got {budget}")
    base = f0.graph
    targets = base.vertices
    if case == CASE_ON and f0.section_contact is None:
        raise GraphError("fiber part lacks a section contact component")
    results: list[Completion] = []
    seen: set = set()
    e0p_targets: list[str | None] = list(targets) if case == CASE_OFF else [None]
    for u in targets:
        for w in e0p_targets:
            g = base.copy()
            g.add_vertex(_E0, -1)
            g.add_edge(_E0, u)
            if case == CASE_OFF:
                g.add_vertex(_E0P, -2)
                g.add_edge(_E0P, w)
                contact = _E0P
            else:
                contact = f0.section_contact
            g.add_vertex(_SECTION, 0)
            g.add_edge(_SECTION, contact)
            _search(g, u, w, [], budget, results, seen, case)
    return results
