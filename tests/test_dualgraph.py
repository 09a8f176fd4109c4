import pytest

from unicusp.dualgraph import GraphError, WeightedDualGraph
from unicusp.fibers import intersection_matrix


def _edge_mult(g, a, b):
    """Multiplicity of the edge a-b, 0 when there is none."""
    return dict(g.neighbors(a)).get(b, 0)


def divisor_square(g, coeffs):
    """(sum coeffs[v] * v)^2 under the pairing of `intersection_matrix`."""
    verts, mat = intersection_matrix(g)
    vec = [coeffs.get(v, 0) for v in verts]
    return sum(a * b * mat[i][j] for i, a in enumerate(vec) for j, b in enumerate(vec))


def chain(weights):
    g = WeightedDualGraph()
    labels = [f"V{i}" for i in range(len(weights))]
    for lab, w in zip(labels, weights):
        g.add_vertex(lab, w)
    for a, b in zip(labels, labels[1:]):
        g.add_edge(a, b)
    return g, labels


def test_vertex_and_edge_basics():
    g = WeightedDualGraph()
    g.add_vertex("A", -1)
    g.add_vertex("B", -2)
    g.add_edge("A", "B")
    assert "A" in g and "C" not in g
    assert len(g) == 2
    assert g.weight("A") == -1
    assert _edge_mult(g, "A", "B") == 1
    assert g.neighbors("A") == [("B", 1)]


def test_edges_are_oriented_by_creation_order():
    # an edge added from the younger end is listed from the older one,
    # and removing a vertex keeps the order of the rest
    g = WeightedDualGraph()
    for lab in "ABCD":
        g.add_vertex(lab, -2)
    g.add_edge("D", "A")
    g.add_edge("C", "B", 2)
    g.add_edge("B", "A")
    assert g.edges() == [("A", "B", 1), ("A", "D", 1), ("B", "C", 2)]
    assert g.neighbors("A") == [("B", 1), ("D", 1)]
    g.remove_vertex("B")
    assert g.vertices == ["A", "C", "D"]
    assert g.edges() == [("A", "D", 1)]
    assert g.neighbors("C") == []


def test_duplicate_vertex_rejected():
    g = WeightedDualGraph()
    g.add_vertex("A", 0)
    with pytest.raises(GraphError):
        g.add_vertex("A", -1)


def test_edges_accumulate_multiplicity():
    g = WeightedDualGraph()
    g.add_vertex("A", -2)
    g.add_vertex("B", -2)
    g.add_edge("A", "B")
    g.add_edge("A", "B")
    assert _edge_mult(g, "A", "B") == 2
    assert g.neighbors("A") == [("B", 2)]


def test_loops_count_in_self_intersection():
    g = WeightedDualGraph()
    g.add_vertex("A", -3)
    g.add_loop("A")
    assert g.loops("A") == 1
    # each loop contributes 2 to the square
    assert divisor_square(g, {"A": 1}) == -1


def test_unknown_labels_raise_graph_error():
    g = WeightedDualGraph()
    g.add_vertex("A", -1)
    with pytest.raises(GraphError, match="unknown vertex 'B'"):
        g.remove_edge("A", "B")
    with pytest.raises(GraphError, match="unknown vertex 'B'"):
        g.neighbors("B")


def test_blow_up_on_a_point_of_two_curves():
    # the new (-1)-curve meets both curves once, each loses 1 in weight,
    # and the two stop meeting
    g, _ = chain([-2, -3])
    g.blow_up("E", ("V0", "V1"))
    assert g.vertices == ["V0", "V1", "E"]
    assert [g.weight(v) for v in g.vertices] == [-3, -4, -1]
    assert g.edges() == [("V0", "E", 1), ("V1", "E", 1)]


def test_blow_up_on_one_curve_and_off_every_curve():
    g, _ = chain([-2, -3])
    g.blow_up("E", ("V1",))
    g.blow_up("F", ())
    assert [g.weight(v) for v in g.vertices] == [-2, -4, -1, -1]
    assert g.edges() == [("V0", "V1", 1), ("V1", "E", 1)]
    with pytest.raises(GraphError, match="unknown vertex 'W'"):
        g.blow_up("G", ("W",))


def test_remove_vertex_cleans_edges():
    g, labels = chain([-2, -1, -2])
    g.remove_vertex("V1")
    assert "V1" not in g
    assert g.neighbors("V0") == []
    assert ("V0", "V1", 1) not in g.edges()


def test_connectivity():
    g, _ = chain([-2, -2, -2])
    assert g.is_connected()
    g.add_vertex("ISLAND", -1)
    assert not g.is_connected()


def test_copy_independent():
    g, _ = chain([-2, -2])
    h = g.copy()
    h.bump_weight("V0", -1)
    assert g.weight("V0") == -2
    assert h.weight("V0") == -3
    assert g == g.copy()
    assert g != h


def test_pairing_and_divisor_square():
    # two (-2)-curves meeting once: (E1+E2)^2 = -2 -2 + 2 = -2
    g, labels = chain([-2, -2])
    sq = divisor_square(g, {labels[0]: 1, labels[1]: 1})
    assert sq == -2
    # the cycle of an I2 fiber has square 0
    g2 = WeightedDualGraph()
    g2.add_vertex("A", -2)
    g2.add_vertex("B", -2)
    g2.add_edge("A", "B", 2)
    assert divisor_square(g2, {"A": 1, "B": 1}) == 0


def test_to_json_shape():
    g, _ = chain([-2, -1])
    data = g.to_json()
    assert {v["label"] for v in data["vertices"]} == {"V0", "V1"}
    assert data["edges"] == [{"a": "V0", "b": "V1", "m": 1}]


def test_to_dot_annotations():
    g, _ = chain([-2, -1])
    dot = g.to_dot("demo", annotations={"V0": "x3"})
    assert '"V0" [label="V0\\n(-2)\\nx3"];' in dot
    assert '"V1" [label="V1\\n(-1)"];' in dot
    assert '"V0" -- "V1";' in dot
