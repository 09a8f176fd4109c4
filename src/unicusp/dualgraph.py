"""Weighted dual graphs of curve configurations.

Vertices are labeled curve components carrying an integer weight (the
self-intersection of the underlying smooth component) and a loop count
(self-tangencies or nodes acquired by pushing components together).
Edges carry multiplicities.  The divisor-theoretic square of a component
is weight + 2*loops.  Vertex order is creation order and all exports
(JSON, DOT) are deterministic.
"""

from fractions import Fraction


class GraphError(ValueError):
    pass


class WeightedDualGraph:
    def __init__(self) -> None:
        self._order: list[str] = []
        self._weights: dict[str, int] = {}
        self._loops: dict[str, int] = {}
        self._edges: dict[tuple[str, str], int] = {}

    # -- construction ---------------------------------------------------

    def add_vertex(self, label: str, weight: int, loops: int = 0) -> None:
        if label in self._weights:
            raise GraphError(f"duplicate vertex {label!r}")
        self._order.append(label)
        self._weights[label] = weight
        self._loops[label] = loops

    def _key(self, a: str, b: str) -> tuple[str, str]:
        for v in (a, b):
            if v not in self._weights:
                raise GraphError(f"unknown vertex {v!r}")
        ia, ib = self._order.index(a), self._order.index(b)
        return (a, b) if ia <= ib else (b, a)

    def add_edge(self, a: str, b: str, mult: int = 1) -> None:
        if a == b:
            raise GraphError("use add_loop for self-edges")
        k = self._key(a, b)
        if mult <= 0:
            raise GraphError("edge multiplicity must be positive")
        self._edges[k] = self._edges.get(k, 0) + mult

    def remove_edge(self, a: str, b: str) -> None:
        k = self._key(a, b)
        if k not in self._edges:
            raise GraphError(f"no edge between {a!r} and {b!r}")
        del self._edges[k]

    def add_loop(self, label: str, count: int = 1) -> None:
        if label not in self._weights:
            raise GraphError(f"unknown vertex {label!r}")
        self._loops[label] += count

    def bump_weight(self, label: str, delta: int) -> None:
        if label not in self._weights:
            raise GraphError(f"unknown vertex {label!r}")
        self._weights[label] += delta

    def blow_up(self, label: str, through: tuple[str, ...]) -> None:
        """Blow up a point on the curves `through` (at most two, meeting
        transversally there), the inverse of `fibers.blow_down`: the new
        (-1)-curve `label` meets each of them once, each loses 1 in weight,
        and two of them stop meeting."""
        self.add_vertex(label, -1)
        for v in through:
            self.bump_weight(v, -1)
            self.add_edge(label, v)
        if len(through) == 2:
            self.remove_edge(*through)

    def remove_vertex(self, label: str) -> None:
        if label not in self._weights:
            raise GraphError(f"unknown vertex {label!r}")
        self._order.remove(label)
        del self._weights[label]
        del self._loops[label]
        for k in [k for k in self._edges if label in k]:
            del self._edges[k]

    # -- queries ----------------------------------------------------------

    @property
    def vertices(self) -> list[str]:
        return list(self._order)

    def __contains__(self, label: str) -> bool:
        return label in self._weights

    def __len__(self) -> int:
        return len(self._order)

    def weight(self, label: str) -> int:
        return self._weights[label]

    def loops(self, label: str) -> int:
        return self._loops[label]

    def self_intersection(self, label: str) -> int:
        """Square of the component as a divisor: weight + 2*loops."""
        return self._weights[label] + 2 * self._loops[label]

    def edge_mult(self, a: str, b: str) -> int:
        if a == b:
            raise GraphError("use loops() for self-incidence")
        return self._edges.get(self._key(a, b), 0)

    def neighbors(self, label: str) -> list[tuple[str, int]]:
        out = []
        for v in self._order:
            if v == label:
                continue
            m = self._edges.get(self._key(label, v), 0)
            if m:
                out.append((v, m))
        return out

    def degree(self, label: str) -> int:
        """Total edge multiplicity at the vertex, loops not counted."""
        return sum(m for _, m in self.neighbors(label))

    def edges(self) -> list[tuple[str, str, int]]:
        idx = {v: i for i, v in enumerate(self._order)}
        return sorted(
            ((a, b, m) for (a, b), m in self._edges.items()),
            key=lambda t: (idx[t[0]], idx[t[1]]),
        )

    def is_connected(self) -> bool:
        if not self._order:
            return True
        seen = {self._order[0]}
        stack = [self._order[0]]
        while stack:
            v = stack.pop()
            for w, _ in self.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self._order)

    def copy(self) -> "WeightedDualGraph":
        g = WeightedDualGraph()
        g._order = list(self._order)
        g._weights = dict(self._weights)
        g._loops = dict(self._loops)
        g._edges = dict(self._edges)
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedDualGraph):
            return NotImplemented
        return (
            self._order == other._order
            and self._weights == other._weights
            and self._loops == other._loops
            and self._edges == other._edges
        )

    # -- intersection calculus -------------------------------------------

    def divisor_square(self, coeffs: dict[str, int | Fraction]) -> Fraction:
        """(sum coeffs[v] * v)^2 under the intersection pairing."""
        total = Fraction(0)
        labels = [v for v in self._order if coeffs.get(v)]
        for i, a in enumerate(labels):
            total += Fraction(coeffs[a]) ** 2 * self.self_intersection(a)
            for b in labels[i + 1:]:
                total += 2 * Fraction(coeffs[a]) * Fraction(coeffs[b]) * self.edge_mult(a, b)
        return total

    # -- exports -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": [
                {"label": v, "weight": self._weights[v], "loops": self._loops[v]}
                for v in self._order
            ],
            "edges": [{"a": a, "b": b, "m": m} for a, b, m in self.edges()],
        }

    def to_dot(self, name: str = "dualgraph", annotations: dict[str, str] | None = None) -> str:
        lines = [f'graph "{name}" {{']
        lines.append("  node [shape=circle];")
        for v in self._order:
            extra = ""
            if annotations and v in annotations:
                extra = f"\\n{annotations[v]}"
            lines.append(f'  "{v}" [label="{v}\\n({self._weights[v]}){extra}"];')
        for a, b, m in self.edges():
            attr = f' [label="{m}"]' if m > 1 else ""
            lines.append(f'  "{a}" -- "{b}"{attr};')
        for v in self._order:
            for _ in range(self._loops[v]):
                lines.append(f'  "{v}" -- "{v}";')
        lines.append("}")
        return "\n".join(lines) + "\n"
