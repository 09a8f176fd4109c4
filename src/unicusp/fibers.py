"""Intersection-graph calculus for degenerate fibers of elliptic fibrations.

A candidate fiber is a weighted multigraph: vertices are irreducible
components with a weight and a number of loops (nodes of the component,
as in I1), edges carry intersection multiplicities.  A graph
supports a fiber when the intersection matrix has a one-dimensional kernel
spanned by a positive vector: F = sum n_i E_i with F.E_j = 0 for every j.

The module provides the kernel solver, which also names the simple-normal-
crossing Kodaira types made of (-2)-curves (I_n, I_n*, II*, III*, IV*) by
their null vector, the (-1)-contraction move, and a bounded completion
search that starts from the fiber part carved out of a cusp resolution and
enumerates every way to finish it into a 9-component fiber.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterator

from .dualgraph import GraphError, WeightedDualGraph
from .resolution import ResolutionResult


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

    This is the graph's one intersection pairing.  Diagonal entries are
    the squares of the components, weight + 2*loops (a loop is a node and
    adds 2, as in I1), off-diagonal entries are edge multiplicities.
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


def solve_multiplicities(g: WeightedDualGraph) -> list[int] | None:
    """Primitive positive multiplicities n_i with F.E_j = 0, or None.

    The kernel of the intersection matrix must be one-dimensional and
    spanned by a strictly positive vector; the result is scaled to coprime
    positive integers, listed in graph vertex order.
    """
    verts, mat = intersection_matrix(g)
    r = len(verts)
    if r == 0 or not g.is_connected():
        return None
    # Gauss-Jordan on integer rows, each kept primitive
    pivots: list[int] = []
    for col in range(r):
        rank = len(pivots)
        sel = next((k for k in range(rank, r) if mat[k][col]), None)
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        prow = mat[rank]
        pv = prow[col]
        for k in range(r):
            f = mat[k][col]
            if k != rank and f:
                row = [pv * a - f * b for a, b in zip(mat[k], prow)]
                c = gcd(*row) or 1
                mat[k] = [a // c for a in row]
        pivots.append(col)
    if len(pivots) != r - 1:
        return None
    fc = next(c for c in range(r) if c not in pivots)
    # the kernel vector with entry lcm(pivots) at the free column
    scale = lcm(*(mat[k][col] for k, col in enumerate(pivots)))
    sol = [0] * r
    sol[fc] = scale
    for k, col in enumerate(pivots):
        sol[col] = -mat[k][fc] * scale // mat[k][col]
    if any(n <= 0 for n in sol):
        return None
    g0 = gcd(*sol)
    return [n // g0 for n in sol]


# the largest multiplicity of each exceptional type; the I_n and I_n*
# families are named by their number of components instead
_EXCEPTIONAL = {3: "IV*", 4: "III*", 6: "II*"}


def _kodaira(g: WeightedDualGraph) -> tuple[str, list[int]] | None:
    """The Kodaira type and multiplicities of a (-2)-fiber support, or None."""
    if any(g.loops(v) or g.weight(v) != -2 for v in g.vertices):
        return None
    mults = solve_multiplicities(g)
    if mults is None:
        return None
    r, top = len(mults), max(mults)
    return (f"I{r}" if top == 1 else f"I{r - 5}*" if top == 2 else _EXCEPTIONAL[top]), mults


def classify_kodaira(g: WeightedDualGraph) -> str:
    """Recognize SNC fiber supports made of (-2)-curves.

    Returns "In" (n >= 2, cycles; n = 2 is the double edge), "In*" (n >= 0),
    "II*", "III*", "IV*", or UNRECOGNIZED.  Tangential configurations
    (loops), wrong weights, and graphs that support no fiber are
    UNRECOGNIZED.

    The type is read off the kernel.  With every weight -2 and no loop,
    minus the intersection matrix is a symmetric generalized Cartan matrix,
    and a connected one with a positive null vector is of affine type
    (Kac, *Infinite-dimensional Lie algebras*, Thm 4.3).  The symmetric
    affine diagrams are A~_n, D~_n, E~6, E~7 and E~8 (Table Aff 1), which are
    Kodaira's I_r, I_{r-5}*, IV*, III* and II* on r components (Barth,
    Hulek, Peters and Van de Ven, *Compact Complex Surfaces*, V.7), and
    the largest entry of the primitive null vector tells them apart: 1, 2,
    3, 4 and 6.
    """
    found = _kodaira(g)
    return UNRECOGNIZED if found is None else found[0]


def blow_down(g: WeightedDualGraph, v: str) -> WeightedDualGraph:
    """Contract a loop-free (-1)-vertex and rewire its neighbors.

    Every former neighbor with incidence k gains k^2 in its square: k in
    weight and k*(k-1)/2 loops, each worth 2.  Every pair of former
    neighbors gains an edge of multiplicity k1*k2.  So the intersection
    pairing of the other components is kept: contracting the E of a
    blown-up I1, met twice by a curve of weight -4, gives I1 back.
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
        out.bump_weight(u, k)
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


def build_F0(res: ResolutionResult, case: str) -> FiberConfig:
    """Carve the fiber part out of a cusp resolution.

    Starting from the resolution graph (exceptional curves plus the strict
    transform C' of self-intersection n = res.strict_self_intersection),
    blow up the point C'&D0, D0 = res.d0, a total of n-1 times, producing a
    chain T1..T_{n-1} hanging off D0 with C' moved to the end of the chain,
    then blow up once more at a point Q of C'.  The candidate fiber part drops
    C' and the last exceptional curve; where Q sits decides the case:

    - CASE_ON  (Q = C' & T_{n-1}): T_{n-1} drops to -2 and stays in the
      fiber part; the 1-section meets T_{n-1}.
    - CASE_OFF (Q on C' away from the chain): T_{n-1} keeps weight -1 and is
      dropped together with C'; the 1-section meets no fiber-part component
      (it will meet the non-contracted curve added by the completion).
    """
    if case not in (CASE_ON, CASE_OFF):
        raise GraphError(f"unknown attachment case {case!r}")
    n = res.strict_self_intersection
    if n < 3:
        raise GraphError(f"need self-intersection n >= 3 to build a fiber part, got {n}")
    g = res.graph.copy()
    cp, prev = "C'", res.d0
    for i in range(1, n):
        g.blow_up(f"T{i}", (cp, prev))
        prev = f"T{i}"
    on = case == CASE_ON
    g.blow_up("Q", (cp, prev) if on else (cp,))
    for v in ("Q", cp) if on else ("Q", cp, prev):
        g.remove_vertex(v)
    return FiberConfig(graph=g, case=case, section_contact=prev if on else None)


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


def _contractions(
    g: WeightedDualGraph, budget: int, seq: tuple[str, ...] = ()
) -> Iterator[tuple[tuple[str, ...], WeightedDualGraph]]:
    """Each maximal sequence of at most `budget` contractions of loop-free
    (-1)-curves other than E0' and the section, depth first in vertex
    order, with the graph it leaves.  A branch that still has a (-1)-curve
    to contract when the budget is spent yields nothing."""
    eligible = [
        v
        for v in g.vertices
        if v not in (_SECTION, _E0P) and g.weight(v) == -1 and g.loops(v) == 0
    ]
    if not eligible:
        yield seq, g
    elif len(seq) < budget:
        for v in eligible:
            yield from _contractions(blow_down(g, v), budget, seq + (v,))


def contraction_budget(res: ResolutionResult) -> int:
    """The contraction budget of the completion search for a resolution:
    its number of components (the exceptional curves and C') plus
    (C')**2, minus 10."""
    return len(res.records) + 1 + res.strict_self_intersection - 10


def complete_and_classify(
    res: ResolutionResult, case: str
) -> tuple[FiberConfig, list[Completion]]:
    """The resolution's fiber part, and every way to finish it into a
    recognized 9-component fiber.

    Builds the fiber part with `build_F0`, attaches one new (-1)-curve E0
    by a single edge (CASE_ON), plus one new (-2)-curve E0' by a single
    edge that is never contracted and carries the 1-section (CASE_OFF),
    then runs every maximal contraction sequence of length at most
    `contraction_budget(res)` and keeps the outcomes that are recognized
    Kodaira fibers with exactly 9 components whose pairing with the
    section is 1, once per choice of E0, E0' and set of contracted curves.
    """
    budget = contraction_budget(res)
    if budget < 1:
        raise GraphError(f"no room to complete a fiber: contraction budget is {budget}")
    f0 = build_F0(res, case)
    targets = f0.graph.vertices
    results: list[Completion] = []
    seen: set = set()
    e0p_targets: list[str | None] = list(targets) if case == CASE_OFF else [None]
    for u in targets:
        for w in e0p_targets:
            g = f0.graph.copy()
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
            for seq, leaf in _contractions(g, budget):
                fiber = leaf.copy()
                fiber.remove_vertex(_SECTION)
                found = _kodaira(fiber) if len(fiber) == 9 else None
                if found is None:
                    continue
                tag, mults = found
                order = {v: i for i, v in enumerate(fiber.vertices)}
                pairing = sum(k * mults[order[v]] for v, k in leaf.neighbors(_SECTION))
                key = (u, w, frozenset(seq))
                if pairing != 1 or key in seen:
                    continue
                seen.add(key)
                results.append(
                    Completion(u, w, seq, tag, FiberConfig(fiber, tuple(mults), case=case), pairing)
                )
    return f0, results
