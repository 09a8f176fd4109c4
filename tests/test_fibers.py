import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from unicusp import fibers
from unicusp.corpus import DEFAULT_PARAMS, analysis
from unicusp.curves import make_curve, ProjPoint
from unicusp.dualgraph import GraphError, WeightedDualGraph
from unicusp.fibers import (
    CASE_OFF,
    CASE_ON,
    Completion,
    FiberConfig,
    UNRECOGNIZED,
    blow_down,
    build_F0,
    classify_kodaira,
    complete_and_classify,
    contraction_budget,
    intersection_matrix,
    solve_multiplicities,
)
from unicusp.poly import X, Y, Z
from unicusp.resolution import minimal_embedded_resolution


# -- graph builders used throughout ------------------------------------------


def _edge_mult(g, a, b):
    """Multiplicity of the edge a-b, 0 when there is none."""
    return dict(g.neighbors(a)).get(b, 0)


def divisor_square(g, coeffs):
    """(sum coeffs[v] * v)^2 under the pairing of `intersection_matrix`."""
    verts, mat = intersection_matrix(g)
    vec = [coeffs.get(v, 0) for v in verts]
    return sum(a * b * mat[i][j] for i, a in enumerate(vec) for j, b in enumerate(vec))


def cycle_fiber(n):
    """I_n for n >= 3: a cycle of (-2)-curves."""
    g = WeightedDualGraph()
    for i in range(n):
        g.add_vertex(f"C{i}", -2)
    for i in range(n):
        g.add_edge(f"C{i}", f"C{(i + 1) % n}")
    return g


def i2_fiber():
    g = WeightedDualGraph()
    g.add_vertex("A", -2)
    g.add_vertex("B", -2)
    g.add_edge("A", "B", 2)
    return g


def star_fiber():
    """I0*: central (-2) with four leaves."""
    g = WeightedDualGraph()
    g.add_vertex("MID", -2)
    for i in range(4):
        g.add_vertex(f"L{i}", -2)
        g.add_edge("MID", f"L{i}")
    return g


def instar_fiber(n):
    """I_n* for n >= 1: central chain of n+1, two leaves at each end."""
    g = WeightedDualGraph()
    chain = [f"M{i}" for i in range(n + 1)]
    for lab in chain:
        g.add_vertex(lab, -2)
    for a, b in zip(chain, chain[1:]):
        g.add_edge(a, b)
    for i in range(2):
        g.add_vertex(f"P{i}", -2)
        g.add_edge(f"P{i}", chain[0])
        g.add_vertex(f"Q{i}", -2)
        g.add_edge(f"Q{i}", chain[-1])
    return g


def estar_fiber(arms):
    """Tree with one branch vertex and the given arm lengths (all -2)."""
    g = WeightedDualGraph()
    g.add_vertex("HUB", -2)
    for ai, length in enumerate(arms):
        prev = "HUB"
        for j in range(length):
            lab = f"A{ai}_{j}"
            g.add_vertex(lab, -2)
            g.add_edge(prev, lab)
            prev = lab
    return g


# -- multiplicity kernels ------------------------------------------------------


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


def test_intersection_matrix():
    g = i2_fiber()
    verts, mat = intersection_matrix(g)
    assert verts == ["A", "B"]
    assert mat == [[-2, 2], [2, -2]]


def test_cycle_multiplicities_all_one():
    g = cycle_fiber(5)
    sol = solve_multiplicities(g)
    assert sol == [1, 1, 1, 1, 1]
    assert is_fiber_solution(g, dict(zip(g.vertices, sol)))


def test_star_multiplicities():
    g = star_fiber()
    sol = solve_multiplicities(g)
    mults = dict(zip(g.vertices, sol))
    assert mults["MID"] == 2
    assert all(mults[f"L{i}"] == 1 for i in range(4))


def test_e8_shaped_multiplicities():
    g = estar_fiber([1, 2, 5])
    sol = solve_multiplicities(g)
    mults = dict(zip(g.vertices, sol))
    assert mults["HUB"] == 6
    assert mults["A0_0"] == 3
    assert [mults[f"A1_{j}"] for j in range(2)] == [4, 2]
    assert [mults[f"A2_{j}"] for j in range(5)] == [5, 4, 3, 2, 1]


def test_not_a_fiber_cases():
    # a plain chain of (-2)s supports no kernel vector
    g = WeightedDualGraph()
    for i in range(3):
        g.add_vertex(f"V{i}", -2)
    g.add_edge("V0", "V1")
    g.add_edge("V1", "V2")
    assert solve_multiplicities(g) is None
    # a (-3) vertex in a cycle breaks it too
    h = cycle_fiber(4)
    h.bump_weight("C0", -1)
    assert solve_multiplicities(h) is None


def test_loop_vertex_is_i1():
    g = WeightedDualGraph()
    g.add_vertex("ONLY", -2)
    g.add_loop("ONLY")
    assert solve_multiplicities(g) == [1]


# -- Kodaira recognition -------------------------------------------------------


def test_classify_cycles():
    assert classify_kodaira(cycle_fiber(3)) == "I3"
    assert classify_kodaira(cycle_fiber(9)) == "I9"
    assert classify_kodaira(i2_fiber()) == "I2"


def test_classify_stars():
    assert classify_kodaira(star_fiber()) == "I0*"
    assert classify_kodaira(instar_fiber(1)) == "I1*"
    assert classify_kodaira(instar_fiber(4)) == "I4*"


def test_classify_e_types():
    assert classify_kodaira(estar_fiber([1, 2, 5])) == "II*"
    assert classify_kodaira(estar_fiber([1, 3, 3])) == "III*"
    assert classify_kodaira(estar_fiber([2, 2, 2])) == "IV*"


def test_classify_rejects_wrong_weights():
    g = cycle_fiber(4)
    g.bump_weight("C1", -1)
    assert classify_kodaira(g) == UNRECOGNIZED


def test_classify_rejects_odd_trees():
    assert classify_kodaira(estar_fiber([1, 1, 4])) == UNRECOGNIZED
    assert classify_kodaira(estar_fiber([2, 2, 3])) == UNRECOGNIZED


# -- the shape recognizer the null vector replaced ------------------------------


def _arm_lengths(g, branch):
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


def _classify_kodaira_reference(g):
    """Kodaira type by degree, arm and leaf rules, or UNRECOGNIZED."""
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
    degrees = {v: sum(m for _, m in g.neighbors(v)) for v in verts}

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


def _solve_multiplicities_reference(g):
    """The primitive positive kernel vector by Gauss-Jordan over Q, or None."""
    verts, mat = intersection_matrix(g)
    r = len(verts)
    if r == 0 or not g.is_connected():
        return None
    rows = [[Fraction(x) for x in row] for row in mat]
    pivots = []
    for col in range(r):
        rank = len(pivots)
        sel = next((k for k in range(rank, r) if rows[k][col]), None)
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
    free = [c for c in range(r) if c not in pivots]
    if len(free) != 1:
        return None
    sol = [Fraction(0)] * r
    sol[free[0]] = Fraction(1)
    for k, col in enumerate(pivots):
        sol[col] = -rows[k][free[0]]
    if any(x <= 0 for x in sol):
        return None
    den = math.lcm(*(x.denominator for x in sol))
    ints = [int(x * den) for x in sol]
    return [n // math.gcd(*ints) for n in ints]


def _minus_two_graph(r, mults):
    """(-2)-curves V0..V{r-1}, with mults[k] the multiplicity of the k-th pair."""
    g = WeightedDualGraph()
    for i in range(r):
        g.add_vertex(f"V{i}", -2)
    for (i, j), m in zip(itertools.combinations(range(r), 2), mults):
        if m:
            g.add_edge(f"V{i}", f"V{j}", m)
    return g


def _same_as_reference(graphs):
    """Assert both recognizers and both kernel solvers agree on each graph;
    count the types."""
    tags = Counter()
    for g in graphs:
        want = _classify_kodaira_reference(g)
        assert classify_kodaira(g) == want, g.to_json()
        assert solve_multiplicities(g) == _solve_multiplicities_reference(g), g.to_json()
        tags[want] += 1
    return tags


def test_classify_matches_reference_on_small_graphs():
    graphs = [
        _minus_two_graph(r, mults)
        for r in range(1, 5)
        for mults in itertools.product(range(4), repeat=r * (r - 1) // 2)
    ]
    graphs += [_minus_two_graph(5, mults) for mults in itertools.product(range(2), repeat=10)]
    tags = _same_as_reference(graphs)
    assert sum(tags.values()) == 1 + 4 + 4**3 + 4**6 + 2**10
    # on labelled vertices: one double edge, one triangle, three 4-cycles,
    # twelve 5-cycles and five 5-stars
    assert tags["I2"] == 1 and tags["I3"] == 1 and tags["I4"] == 3
    assert tags["I5"] == 12 and tags["I0*"] == 5


def test_classify_matches_reference_on_seeded_sparse_graphs():
    rng = random.Random(20261018)
    graphs = []
    for _ in range(600):
        r = rng.randint(6, 12)
        g = WeightedDualGraph()
        for i in range(r):
            g.add_vertex(f"V{i}", -2)
        for i in range(1, r):
            g.add_edge(f"V{rng.randrange(max(0, i - 3), i)}", f"V{i}")
        for _ in range(rng.choice((0, 0, 0, 1, 2))):
            a, b = rng.sample(range(r), 2)
            g.add_edge(f"V{a}", f"V{b}")
        if rng.random() < 0.1:
            v = f"V{rng.randrange(r)}"
            g.bump_weight(v, rng.choice((-1, 1))) if rng.random() < 0.5 else g.add_loop(v)
        graphs.append(g)
    tags = _same_as_reference(graphs)
    assert {"I1*", "I2*", "IV*", "III*", "II*"} <= set(tags), tags


def test_classify_matches_reference_on_fiber_families():
    families = [(i2_fiber(), "I2")] + [(cycle_fiber(n), f"I{n}") for n in range(3, 13)]
    families += [(star_fiber(), "I0*")] + [(instar_fiber(n), f"I{n}*") for n in range(1, 9)]
    assert _same_as_reference(g for g, _ in families) == Counter(tag for _, tag in families)
    trees = [
        estar_fiber([p, q, r])
        for p in range(1, 8)
        for q in range(p, 8)
        for r in range(q, 8)
        if p + q + r <= 9
    ]
    tags = _same_as_reference(trees)
    # arms (1, 1, n) make the finite D_{n+3}, not a fiber
    assert tags == Counter({UNRECOGNIZED: len(trees) - 3, "IV*": 1, "III*": 1, "II*": 1})


def test_classify_matches_reference_on_corpus_searches(monkeypatch):
    seen = []
    contractions = fibers._contractions

    def recorded(g, budget, seq=()):
        # the recursion re-enters this name: record the leaves once, at
        # the top-level call
        for found in contractions(g, budget, seq):
            if not seq:
                fiber = found[1].copy()
                fiber.remove_vertex(fibers._SECTION)
                seen.append(fiber)
            yield found

    monkeypatch.setattr(fibers, "_contractions", recorded)
    for ps in DEFAULT_PARAMS:
        for name in ("cusp-quartic", "image-quintic", "image-deg15"):
            res = analysis(name, ps)["report"].resolution
            for case in (CASE_ON, CASE_OFF):
                complete_and_classify(res, case)
    assert len(seen) == 512
    tags = _same_as_reference(seen)
    assert tags["II*"] and tags["I4*"] and tags[UNRECOGNIZED]


def test_classify_rejects_positive_kernels_off_the_minus_two_graphs():
    graphs = []
    for base in [cycle_fiber(5), i2_fiber(), star_fiber(), instar_fiber(2)] + [
        estar_fiber(arms) for arms in ([2, 2, 2], [1, 3, 3], [1, 2, 5])
    ]:
        mults = dict(zip(base.vertices, solve_multiplicities(base)))
        graphs.append(_blow_up_smooth(base, mults, base.vertices[0], "NEW")[0])
        a, b, _ = base.edges()[0]
        graphs.append(_blow_up_node(base, mults, a, b, "NEW")[0])
    lone = WeightedDualGraph()
    lone.add_vertex("ZERO", 0)
    graphs.append(lone)
    looped = WeightedDualGraph()
    looped.add_vertex("ONLY", -2)
    looped.add_loop("ONLY")
    graphs.append(looped)
    for g in graphs:
        assert solve_multiplicities(g) == _solve_multiplicities_reference(g) is not None
        assert classify_kodaira(g) == UNRECOGNIZED
        assert _classify_kodaira_reference(g) == UNRECOGNIZED


# -- the blowdown move ---------------------------------------------------------


def test_blow_down_two_neighbors():
    g = WeightedDualGraph()
    g.add_vertex("E", -1)
    g.add_vertex("A", -2)
    g.add_vertex("B", -3)
    g.add_edge("E", "A")
    g.add_edge("E", "B")
    h = blow_down(g, "E")
    assert "E" not in h
    assert h.weight("A") == -1
    assert h.weight("B") == -2
    assert _edge_mult(h, "A", "B") == 1


def test_blow_down_multiplicity_two_contact():
    # contracting a (-1) met twice by one curve adds k^2 = 4 to its square:
    # k = 2 to the weight and k(k-1)/2 = 1 loop, worth 2
    g = WeightedDualGraph()
    g.add_vertex("E", -1)
    g.add_vertex("A", -2)
    g.add_edge("E", "A", 2)
    h = blow_down(g, "E")
    assert h.weight("A") == 0
    assert h.loops("A") == 1
    assert divisor_square(h, {"A": 1}) == divisor_square(g, {"A": 1}) + 4


def test_blow_down_of_the_blown_up_node_of_i1_is_i1():
    # blowing up the node of I1 leaves C~ of weight -4 meeting E twice;
    # contracting E must give back I1, with its null vector [1]
    i1 = WeightedDualGraph()
    i1.add_vertex("C", -2, loops=1)
    g = WeightedDualGraph()
    g.add_vertex("C", -4)
    g.add_vertex("E", -1)
    g.add_edge("C", "E", 2)
    assert solve_multiplicities(g) == [1, 2]
    h = blow_down(g, "E")
    assert h == i1
    assert solve_multiplicities(h) == solve_multiplicities(i1) == [1]


def test_blow_down_three_neighbors_pairwise_edges():
    g = WeightedDualGraph()
    g.add_vertex("E", -1)
    for lab in "ABC":
        g.add_vertex(lab, -2)
        g.add_edge("E", lab)
    g.add_edge("A", "B")  # existing edge accumulates
    h = blow_down(g, "E")
    assert _edge_mult(h, "A", "B") == 2
    assert _edge_mult(h, "A", "C") == 1
    assert _edge_mult(h, "B", "C") == 1


@pytest.mark.parametrize("through", [(), ("A",), ("A", "B")])
def test_blow_down_undoes_blow_up(through):
    g = WeightedDualGraph()
    g.add_vertex("A", -2)
    g.add_vertex("B", 1)
    g.add_edge("A", "B")
    h = g.copy()
    h.blow_up("E", through)
    assert blow_down(h, "E") == g


def test_blow_down_preconditions():
    g = WeightedDualGraph()
    g.add_vertex("V", -2)
    with pytest.raises(GraphError):
        blow_down(g, "V")
    g2 = WeightedDualGraph()
    g2.add_vertex("W", -1)
    g2.add_loop("W")
    with pytest.raises(GraphError):
        blow_down(g2, "W")
    with pytest.raises(GraphError):
        blow_down(g, "MISSING")


# -- conservation under blowup/blowdown round trips ----------------------------


def _blow_up_smooth(g, mults, v, label):
    h = g.copy()
    h.add_vertex(label, -1)
    h.add_edge(label, v)
    h.bump_weight(v, -1)
    m = dict(mults)
    m[label] = mults[v]
    return h, m


def _blow_up_node(g, mults, u, v, label):
    h = g.copy()
    k = _edge_mult(h, u, v)
    h.remove_edge(u, v)
    if k > 1:
        h.add_edge(u, v, k - 1)
    h.add_vertex(label, -1)
    h.add_edge(label, u)
    h.add_edge(label, v)
    h.bump_weight(u, -1)
    h.bump_weight(v, -1)
    m = dict(mults)
    m[label] = mults[u] + mults[v]
    return h, m


STANDARD = [cycle_fiber(5), i2_fiber(), star_fiber(), estar_fiber([1, 2, 5]), instar_fiber(2)]


def test_blowup_blowdown_conservation_randomized():
    rng = random.Random(20260801)
    for trial in range(20):
        base = rng.choice(STANDARD).copy()
        mults = dict(zip(base.vertices, solve_multiplicities(base)))
        g, m = base, mults
        stack = []
        for step in range(rng.randint(1, 4)):
            label = f"NEW{trial}_{step}"
            if rng.random() < 0.5:
                v = rng.choice(g.vertices)
                g, m = _blow_up_smooth(g, m, v, label)
            else:
                edges = [(a, b) for a, b, _ in g.edges()]
                a, b = rng.choice(edges)
                g, m = _blow_up_node(g, m, a, b, label)
            stack.append(label)
            # still a fiber, with the tracked multiplicities
            sol = solve_multiplicities(g)
            assert sol is not None
            assert dict(zip(g.vertices, sol)) == m
            assert divisor_square(g, m) == 0
        # contract back in reverse order and land on the start
        for label in reversed(stack):
            g = blow_down(g, label)
        assert g == base


# -- fiber parts from an actual resolution --------------------------------------


QUINTIC = make_curve(
    X**5 + X**4 * Z - X**3 * Y**2 + 2 * X**3 * Y * Z - X**3 * Z**2
    - 2 * X**2 * Y**3 + 2 * X**2 * Y**2 * Z + 2 * X**2 * Y * Z**2 + X**2 * Z**3
    - X * Y**4 - 4 * X * Y**3 * Z - 2 * X * Y**2 * Z**2 + 2 * Y**5 + Y**4 * Z
)


def _quintic_resolution():
    return minimal_embedded_resolution(QUINTIC, ProjPoint.of(0, 0, 1))


def test_build_f0_shapes():
    res = _quintic_resolution()
    assert res.strict_self_intersection == 3
    off = build_F0(res, CASE_OFF)
    on = build_F0(res, CASE_ON)
    # r(D) = 8 components; off drops three, on drops two
    assert len(off.graph) == 8
    assert len(on.graph) == 9
    assert off.section_contact is None
    assert on.section_contact == "T2"
    assert on.graph.weight("T2") == -2
    # the strict transform is gone from both
    assert "C'" not in off.graph and "C'" not in on.graph


def test_build_f0_validation():
    res = analysis("rational-quintic", DEFAULT_PARAMS[0])["report"].resolution
    assert res.strict_self_intersection == -1
    with pytest.raises(GraphError, match="n >= 3 .* got -1"):
        build_F0(res, CASE_ON)
    with pytest.raises(GraphError, match="unknown attachment case"):
        build_F0(_quintic_resolution(), "sideways")


def test_quintic_off_case_completion():
    res = _quintic_resolution()
    assert contraction_budget(res) == 1
    part, found = complete_and_classify(res, CASE_OFF)
    assert part == build_F0(res, CASE_OFF)
    assert [c.kodaira for c in found] == ["I4*"]
    comp = found[0]
    fib = comp.fiber
    assert len(fib.graph) == 9
    assert all(fib.graph.weight(v) == -2 for v in fib.graph.vertices)
    assert comp.section_pairing == 1
    assert comp.e0_prime is not None
    assert fib.graph.is_connected()
    assert min(fib.multiplicities) > 0 and math.gcd(*fib.multiplicities) == 1
    assert is_fiber_solution(fib.graph, dict(zip(fib.graph.vertices, fib.multiplicities)))


def test_quintic_on_case_has_no_completion():
    part, found = complete_and_classify(_quintic_resolution(), CASE_ON)
    assert found == [] and part.section_contact == "T2"


def test_budget_validation():
    # the cuspidal cubic: three blowups, (C')^2 = 3, budget 3 + 1 + 3 - 10
    res = minimal_embedded_resolution(make_curve(Y**2 * Z - X**3), ProjPoint.of(0, 0, 1))
    assert contraction_budget(res) == -3
    for case in (CASE_ON, CASE_OFF):
        with pytest.raises(GraphError, match="contraction budget is -3"):
            complete_and_classify(res, case)


def test_fiber_config_json_and_dot():
    g = i2_fiber()
    fib = FiberConfig(graph=g, multiplicities=(1, 1), case=CASE_OFF)
    data = fib.as_json()
    assert data["multiplicities"] == [1, 1]
    assert data["case"] == CASE_OFF
    dot = fib.to_dot()
    assert "x1" in dot


# -- the completion search against the recursion it replaced -------------------


def _eligible(g: WeightedDualGraph) -> list[str]:
    return [
        v
        for v in g.vertices
        if v not in (fibers._SECTION, fibers._E0P) and g.weight(v) == -1 and g.loops(v) == 0
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
    sec_edges = g.neighbors(fibers._SECTION)
    fiber = g.copy()
    fiber.remove_vertex(fibers._SECTION)
    if len(fiber) != 9:
        return
    found = fibers._kodaira(fiber)
    if found is None:
        return
    tag, mults = found
    order = {v: i for i, v in enumerate(fiber.vertices)}
    pairing = sum(k * mults[order[u]] for u, k in sec_edges)
    if pairing != 1:
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


def _complete_reference(res, case) -> list[Completion]:
    """complete_and_classify's completions by the recursive search that
    threaded its state through every call."""
    budget = contraction_budget(res)
    f0 = build_F0(res, case)
    targets = f0.graph.vertices
    results: list[Completion] = []
    seen: set = set()
    e0p_targets = list(targets) if case == CASE_OFF else [None]
    for u in targets:
        for w in e0p_targets:
            g = f0.graph.copy()
            g.add_vertex(fibers._E0, -1)
            g.add_edge(fibers._E0, u)
            if case == CASE_OFF:
                g.add_vertex(fibers._E0P, -2)
                g.add_edge(fibers._E0P, w)
                contact = fibers._E0P
            else:
                contact = f0.section_contact
            g.add_vertex(fibers._SECTION, 0)
            g.add_edge(fibers._SECTION, contact)
            _search(g, u, w, [], budget, results, seen, case)
    return results


def _completions_json(found):
    return [c.as_json() for c in found]


@pytest.mark.parametrize("ps", DEFAULT_PARAMS, ids=str)
@pytest.mark.parametrize("name", ["cusp-quartic", "image-quintic", "image-deg15"])
def test_completions_match_the_reference_on_the_corpus(name, ps):
    res = analysis(name, ps)["report"].resolution
    for case in (CASE_ON, CASE_OFF):
        part, found = complete_and_classify(res, case)
        assert part == build_F0(res, case)
        assert _completions_json(found) == _completions_json(_complete_reference(res, case))


def _two_blowups_off_a_fiber(records):
    """A stand-in for a resolution with (C')^2 = 3 whose fiber part
    (CASE_ON) is II* with two of its components blown up once more.

    The long arm HUB-A1-A2-A3-T1-T2 of II* ends in the chain build_F0
    adds (A3 meets C'), so the section meets T2, of multiplicity 1.  The
    short arm B0 and the tip C1 of the middle arm have weight -3, and a
    (-1)-curve X meets C1: with E0 on B0, X and E0 are disjoint and both
    contractible, and two contractions in either order give II*.
    """
    g = WeightedDualGraph()
    for v, w in [("HUB", -2), ("A1", -2), ("A2", -2), ("A3", -1), ("B0", -3)]:
        g.add_vertex(v, w)
    for v, w in [("C0", -2), ("C1", -3), ("X", -1), ("C'", 2)]:
        g.add_vertex(v, w)
    for a, b in [("HUB", "A1"), ("A1", "A2"), ("A2", "A3"), ("A3", "C'")]:
        g.add_edge(a, b)
    for a, b in [("HUB", "B0"), ("HUB", "C0"), ("C0", "C1"), ("C1", "X")]:
        g.add_edge(a, b)
    # build_F0, contraction_budget and _complete_reference read only these,
    # and of the records only their number.
    return SimpleNamespace(graph=g, records=[None] * records, strict_self_intersection=3, d0="A3")


def test_a_contracted_set_reached_in_two_orders_completes_once():
    res = _two_blowups_off_a_fiber(records=8)
    assert contraction_budget(res) == 2
    part, found = complete_and_classify(res, CASE_ON)
    # the search reaches {X, E0} from E0 on B0 in both orders
    g = part.graph.copy()
    g.add_vertex(fibers._E0, -1)
    g.add_edge(fibers._E0, "B0")
    g.add_vertex(fibers._SECTION, 0)
    g.add_edge(fibers._SECTION, "T2")
    orders = [seq for seq, _ in fibers._contractions(g, 2) if set(seq) == {"X", fibers._E0}]
    assert orders == [("X", fibers._E0), (fibers._E0, "X")]
    keys = Counter((c.e0, c.e0_prime, frozenset(c.contractions)) for c in found)
    assert keys[("B0", None, frozenset({"X", fibers._E0}))] == 1
    assert set(keys.values()) == {1}
    assert [c.kodaira for c in found if c.e0 == "B0"] == ["II*"]
    assert _completions_json(found) == _completions_json(_complete_reference(res, CASE_ON))


def test_a_completion_one_contraction_over_the_budget_is_not_found():
    # the same part needs two contractions to reach nine components
    roomy = _two_blowups_off_a_fiber(records=8)
    assert [len(c.contractions) for c in complete_and_classify(roomy, CASE_ON)[1]] == [2]
    tight = _two_blowups_off_a_fiber(records=7)
    assert contraction_budget(tight) == 1
    assert complete_and_classify(tight, CASE_ON)[1] == []
    assert _complete_reference(tight, CASE_ON) == []
