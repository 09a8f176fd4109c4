import random
from fractions import Fraction

import pytest

from unicusp.curves import make_curve, ProjPoint
from unicusp.dualgraph import GraphError, WeightedDualGraph
from unicusp.fibers import (
    CASE_OFF,
    CASE_ON,
    Completion,
    FiberConfig,
    NotAFiber,
    UNRECOGNIZED,
    blow_down,
    build_F0,
    classify_kodaira,
    complete_and_classify,
    intersection_matrix,
    is_fiber_solution,
    solve_multiplicities,
)
from unicusp.poly import X, Y, Z
from unicusp.resolution import minimal_embedded_resolution


# -- graph builders used throughout ------------------------------------------


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
    assert solve_multiplicities(g) is NotAFiber
    assert not solve_multiplicities(g)
    # a (-3) vertex in a cycle breaks it too
    h = cycle_fiber(4)
    h.bump_weight("C0", -1)
    assert solve_multiplicities(h) is NotAFiber


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
    assert h.edge_mult("A", "B") == 1


def test_blow_down_multiplicity_two_contact():
    # contracting a (-1) met twice by one curve adds 4 to the weight
    # and a loop worth k(k-1)/2 = 1
    g = WeightedDualGraph()
    g.add_vertex("E", -1)
    g.add_vertex("A", -2)
    g.add_edge("E", "A", 2)
    h = blow_down(g, "E")
    assert h.weight("A") == 2
    assert h.loops("A") == 1


def test_blow_down_three_neighbors_pairwise_edges():
    g = WeightedDualGraph()
    g.add_vertex("E", -1)
    for lab in "ABC":
        g.add_vertex(lab, -2)
        g.add_edge("E", lab)
    g.add_edge("A", "B")  # existing edge accumulates
    h = blow_down(g, "E")
    assert h.edge_mult("A", "B") == 2
    assert h.edge_mult("A", "C") == 1
    assert h.edge_mult("B", "C") == 1


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
    k = h.edge_mult(u, v)
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
            assert sol is not NotAFiber
            assert dict(zip(g.vertices, sol)) == m
            assert g.divisor_square(m) == 0
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
    n = res.strict_self_intersection
    assert n == 3
    off = build_F0(res, n, CASE_OFF)
    on = build_F0(res, n, CASE_ON)
    # r(D) = 8 components; off drops three, on drops two
    assert off.components == 8
    assert on.components == 9
    assert off.section_contact is None
    assert on.section_contact == "T2"
    assert on.graph.weight("T2") == -2
    # the strict transform is gone from both
    assert "C'" not in off.graph and "C'" not in on.graph


def test_build_f0_validation():
    res = _quintic_resolution()
    with pytest.raises(GraphError):
        build_F0(res, 2, CASE_ON)
    with pytest.raises(GraphError):
        build_F0(res, res.strict_self_intersection, "sideways")


def test_quintic_off_case_completion():
    res = _quintic_resolution()
    f0 = build_F0(res, 3, CASE_OFF)
    found = complete_and_classify(f0, CASE_OFF, budget=1)
    assert [c.kodaira for c in found] == ["I4*"]
    comp = found[0]
    fib = comp.fiber
    assert fib.components == 9
    assert all(fib.graph.weight(v) == -2 for v in fib.graph.vertices)
    assert comp.section_pairing == 1
    assert comp.e0_prime is not None
    fib.validate()


def test_quintic_on_case_has_no_completion():
    res = _quintic_resolution()
    f0 = build_F0(res, 3, CASE_ON)
    assert complete_and_classify(f0, CASE_ON, budget=1) == []


def test_budget_validation():
    res = _quintic_resolution()
    f0 = build_F0(res, 3, CASE_OFF)
    with pytest.raises(GraphError):
        complete_and_classify(f0, CASE_OFF, budget=0)


def test_fiber_config_validate_catches_bad_multiplicities():
    g = cycle_fiber(3)
    good = FiberConfig(graph=g, multiplicities=(1, 1, 1))
    good.validate()
    with pytest.raises(GraphError):
        FiberConfig(graph=g, multiplicities=(2, 2, 2)).validate()  # not primitive
    with pytest.raises(GraphError):
        FiberConfig(graph=g, multiplicities=(1, 1, 2)).validate()  # not a kernel vector


def test_fiber_config_json_and_dot():
    g = i2_fiber()
    fib = FiberConfig(graph=g, multiplicities=(1, 1), case=CASE_OFF)
    data = fib.as_json()
    assert data["multiplicities"] == [1, 1]
    assert data["case"] == CASE_OFF
    dot = fib.to_dot()
    assert "x1" in dot
