"""The acceptance gate: one test per numbered criterion, all arithmetic exact.

Each criterion is a single test so the terminal summary (see conftest.py)
prints one pass/fail line per criterion.  Everything runs at both built-in
parameter points unless the criterion itself pins the parameters.
"""

import random

import pytest

from unicusp.corpus import (
    CORPUS,
    DEFAULT_PARAMS,
    PAIRS,
    REFERENCE_FORMULAS,
    analysis,
    curve_by_name,
    random_poly,
)
from unicusp.cremona import (
    CremonaError,
    base_conic,
    base_cubic,
    base_quintic,
    check_parameterization,
    is_involution,
    quintic_involution,
)
from unicusp.curves import ProjPoint, intersection_cycle
from unicusp.fibers import (
    CASE_OFF,
    CASE_ON,
    blow_down,
    complete_and_classify,
    contraction_budget,
    intersection_matrix,
    solve_multiplicities,
)
from unicusp.poly import ONE, Poly, X, Y, Z, exact_divide, proportional

ELLIPTIC_UNICUSPIDAL = {"image-quintic", "image-deg15", "cusp-quartic"}
RESOLVED = {"rational-quintic", "image-quintic", "image-deg15", "cusp-quartic"}


def divisor_square(g, coeffs):
    """(sum coeffs[v] * v)^2 under the pairing of `intersection_matrix`."""
    verts, mat = intersection_matrix(g)
    vec = [coeffs.get(v, 0) for v in verts]
    return sum(a * b * mat[i][j] for i, a in enumerate(vec) for j, b in enumerate(vec))


def _cycle(c1, c2):
    cyc = intersection_cycle(c1, c2)
    return {p: m for p, m in cyc.points}, cyc.residual, cyc.bezout


def test_criterion_01_contact_cubic_configuration():
    for ps in DEFAULT_PARAMS:
        assert analysis("contact-cubic", ps)["smooth"] is True
        cubic = curve_by_name("contact-cubic", ps)
        tangent_pt = ProjPoint.of(0, 0, 1)
        crossing_pt = ProjPoint.of(0, 1, 2 * ps.b)
        pts, residual, _ = _cycle(cubic, curve_by_name("line-x", ps))
        assert pts == {crossing_pt: 1, tangent_pt: 2} and residual == 0
        pts, residual, _ = _cycle(cubic, curve_by_name("conic", ps))
        assert pts == {tangent_pt: 6} and residual == 0


def test_criterion_02_pencil_intersection_cycles():
    assert {ps.c for ps in DEFAULT_PARAMS} == {0, 1}
    for ps in DEFAULT_PARAMS:
        contact = ProjPoint.of(0, 0, 1)
        second = ProjPoint.of(0, 1, -2 * ps.c)
        cubic = curve_by_name("node-cubic", ps)
        quintic = curve_by_name("rational-quintic", ps)
        conic = curve_by_name("conic", ps)
        line = curve_by_name("line-x", ps)
        for left, right, want in (
            (cubic, conic, {contact: 6}),
            (quintic, line, {contact: 4, second: 1}),
            (quintic, conic, {contact: 10}),
            (quintic, cubic, {contact: 15}),
        ):
            pts, residual, _ = _cycle(left, right)
            assert pts == want and residual == 0


def test_criterion_03_involution_identities():
    for c in (0, 1, -2):
        h = quintic_involution(c)
        f2, f3, f5 = base_conic(), base_cubic(c), base_quintic(c)
        assert is_involution(h)
        assert f2.substitute(h.components) == f2**5
        assert exact_divide(f5.substitute(h.components), Z * f2**12) == ONE
        assert X * f5 - f3**2 == f2**3


def test_criterion_04_quintic_image():
    for ps in DEFAULT_PARAMS:
        curve = curve_by_name("image-quintic", ps)
        assert proportional(curve.poly, REFERENCE_FORMULAS["image-quintic"](ps))
        data = analysis("image-quintic", ps)
        assert data["genus"] == 1
        assert len(data["singular-points"]) == 1
        assert data["singular-points"][0][0] == ProjPoint.of(0, 0, 1)
        assert data["multiplicity-sequence"] == (2, 2, 2, 2, 2)
        assert data["strict-self-intersection"] == 3
        assert data["verdict"] == "NON_AMS_MAX"


def test_criterion_05_degree_fifteen_image():
    for ps in DEFAULT_PARAMS:
        curve = curve_by_name("image-deg15", ps)
        assert curve.degree == 15
        assert proportional(curve.poly, REFERENCE_FORMULAS["image-deg15"](ps))
        data = analysis("image-deg15", ps)
        assert data["genus"] == 1
        assert data["multiplicity-sequence"] == (6, 6, 6, 6, 6, 6)
        assert data["strict-self-intersection"] == 3


def test_criterion_06_tangency_maximal_quartic():
    for ps in DEFAULT_PARAMS:
        assert analysis("weierstrass-cubic", ps)["smooth"] is True
        data = analysis("cusp-quartic", ps)
        assert data["genus"] == 1
        assert data["unicuspidal"] is True
        cusp = ProjPoint.of(0, 1, 0)
        assert data["cusp"] == cusp
        quartic = curve_by_name("cusp-quartic", ps)
        pts, residual, _ = _cycle(quartic, curve_by_name("line-z", ps))
        assert pts == {cusp: 4} and residual == 0
        assert data["strict-self-intersection"] == 6
        assert data["verdict"] == "AMS"


def test_criterion_07_self_intersection_bounds():
    found = set()
    for e in CORPUS:
        for ps in DEFAULT_PARAMS:
            data = analysis(e.name, ps)
            if data.get("genus") != 1 or not data.get("unicuspidal"):
                continue
            found.add(e.name)
            square = data["strict-self-intersection"]
            assert square in (3, 6)
            assert square not in (4, 5) and square <= 6
            is_max = square == 6
            assert (data["verdict"] == "AMS") == is_max
            assert data["report"].tangent_contact_only == is_max
    assert found == ELLIPTIC_UNICUSPIDAL


def test_criterion_08_fiber_completion_search():
    for ps in DEFAULT_PARAMS:
        # the square-3 quintic: second base point off the last curve
        res = analysis("image-quintic", ps)["report"].resolution
        n = res.strict_self_intersection
        assert n == 3
        assert contraction_budget(res) == len(res.records) + 1 + n - 10
        _, done = complete_and_classify(res, CASE_OFF)
        assert done and {c.kodaira for c in done} == {"I4*"}
        for comp in done:
            labels = comp.fiber.graph.vertices
            assert len(labels) == 9  # sum of (r - 1) over fibers is 8
            assert all(comp.fiber.graph.weight(v) == -2 for v in labels)
            assert comp.section_pairing == 1
        # forcing the wrong case must find nothing
        _, wrong = complete_and_classify(res, CASE_ON)
        assert wrong == []

        # the square-6 quartic: second base point on the last curve
        res = analysis("cusp-quartic", ps)["report"].resolution
        n = res.strict_self_intersection
        assert n == 6
        assert contraction_budget(res) == len(res.records) + 1 + n - 10
        _, done = complete_and_classify(res, CASE_ON)
        assert done and {c.kodaira for c in done} == {"II*"}
        for comp in done:
            assert len(comp.fiber.graph.vertices) == 9
            assert comp.section_pairing == 1


def test_criterion_09_nodal_cubic_parameterization():
    # the middle form as stated, s^2*t*(s - c*t), has degree four and so is
    # not a parameterization at all; the checker proves that by refusing it,
    # and the degree-three form s*t*(s - c*t) passes identically
    for ps in DEFAULT_PARAMS:
        curve = curve_by_name("node-cubic", ps)
        s, t = X, Y
        lin = s - Poly.const(ps.c) * t
        assert check_parameterization(curve, (s * t**2, s * t * lin, s * lin**2 - t**3))
        with pytest.raises(CremonaError, match="mismatched degrees"):
            check_parameterization(curve, (s * t**2, s**2 * t * lin, s * lin**2 - t**3))


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
    k = dict(h.neighbors(u))[v]
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


def _standard_fibers():
    from unicusp.dualgraph import WeightedDualGraph

    def cycle(n):
        g = WeightedDualGraph()
        for i in range(n):
            g.add_vertex(f"C{i}", -2)
        for i in range(n):
            g.add_edge(f"C{i}", f"C{(i + 1) % n}")
        return g

    def star(arms):
        g = WeightedDualGraph()
        g.add_vertex("H", -2)
        for i, length in enumerate(arms):
            prev = "H"
            for j in range(length):
                lab = f"A{i}_{j}"
                g.add_vertex(lab, -2)
                g.add_edge(prev, lab)
                prev = lab
        return g

    def instar(n):
        g = WeightedDualGraph()
        chain = [f"M{i}" for i in range(n + 1)]
        for lab in chain:
            g.add_vertex(lab, -2)
        for a, b in zip(chain, chain[1:]):
            g.add_edge(a, b)
        for end, tag in ((chain[0], "L"), (chain[-1], "R")):
            for k in range(2):
                g.add_vertex(f"{tag}{k}", -2)
                g.add_edge(f"{tag}{k}", end)
        return g

    return [cycle(5), cycle(3), star([1, 1, 1, 1]), star([1, 2, 5]), instar(2)]


def test_criterion_10_property_suites():
    # ring axioms on 200 random triples of degree <= 4
    rng = random.Random(20260817)
    for _ in range(200):
        p, q, r = (random_poly(rng, max_degree=4) for _ in range(3))
        assert p * (q + r) == p * q + p * r
        assert (p * q) * r == p * (q * r)

    # multiply-then-divide round trip on 200 random pairs
    rng = random.Random(424242)
    for _ in range(200):
        p = random_poly(rng, max_degree=4)
        q = random_poly(rng, max_degree=4)
        if q.is_zero():
            q = ONE
        assert exact_divide(p * q, q) == p

    # blowing a fiber up (smooth point or node) and back down conserves
    # its multiplicity kernel, its zero square, and the graph itself
    rng = random.Random(987123)
    standard = _standard_fibers()
    for trial in range(20):
        base = rng.choice(standard).copy()
        g = base
        mults = dict(zip(g.vertices, solve_multiplicities(g)))
        stack = []
        for step in range(rng.randint(1, 4)):
            label = f"N{trial}_{step}"
            if rng.random() < 0.5:
                g, mults = _blow_up_smooth(g, mults, rng.choice(g.vertices), label)
            else:
                a, b, _ = rng.choice(g.edges())
                g, mults = _blow_up_node(g, mults, a, b, label)
            stack.append(label)
            sol = solve_multiplicities(g)
            assert sol is not None
            assert dict(zip(g.vertices, sol)) == mults
            assert divisor_square(g, mults) == 0
        for label in reversed(stack):
            g = blow_down(g, label)
        assert g == base

    # every corpus resolution graph, with the curve itself removed,
    # contracts back to nothing in exactly as many steps as it took to build
    found = set()
    for e in CORPUS:
        for ps in DEFAULT_PARAMS:
            rep = analysis(e.name, ps).get("report")
            if rep is None or rep.resolution is None:
                continue
            found.add(e.name)
            res = rep.resolution
            g = res.graph.copy()
            g.remove_vertex("C'")
            steps = 0
            while g.vertices:
                ready = [
                    v for v in sorted(g.vertices)
                    if g.weight(v) == -1 and g.loops(v) == 0
                ]
                assert ready, f"contraction of {e.name} stuck with {g.vertices}"
                g = blow_down(g, ready[0])
                steps += 1
            assert steps == len(res.records)
    assert found == RESOLVED

    # located intersection mass plus the residual always fills the degree
    # product, for every corpus pair at every parameter point
    for pair in PAIRS:
        for ps in DEFAULT_PARAMS:
            left = curve_by_name(pair.left, ps)
            right = curve_by_name(pair.right, ps)
            cyc = intersection_cycle(left, right)
            assert cyc.bezout == left.degree * right.degree
            assert sum(m for _, m in cyc.points) + cyc.residual == cyc.bezout
