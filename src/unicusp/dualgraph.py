"""Weighted dual graphs of curve configurations.

Vertices are labeled curve components carrying an integer weight and a
loop count.  A loop is a node of the component (as in an I1 fiber) and
adds 2 to its square; `fibers.intersection_matrix` is the one place that
reads that square off a vertex.  Edges carry multiplicities.  Three
per-vertex tables hold the graph: weights, loops and a symmetric
adjacency.  Vertex order is creation order and all exports (JSON, DOT)
are deterministic.
"""


class GraphError(ValueError):
    pass


class WeightedDualGraph:
    def __init__(self) -> None:
        self._weights: dict[str, int] = {}
        self._loops: dict[str, int] = {}
        self._adj: dict[str, dict[str, int]] = {}

    # -- construction ---------------------------------------------------

    def add_vertex(self, label: str, weight: int, loops: int = 0) -> None:
        if label in self._weights:
            raise GraphError(f"duplicate vertex {label!r}")
        self._weights[label] = weight
        self._loops[label] = loops
        self._adj[label] = {}

    def _require(self, *labels: str) -> None:
        for v in labels:
            if v not in self._weights:
                raise GraphError(f"unknown vertex {v!r}")

    def add_edge(self, a: str, b: str, mult: int = 1) -> None:
        if a == b:
            raise GraphError("use add_loop for self-edges")
        self._require(a, b)
        if mult <= 0:
            raise GraphError("edge multiplicity must be positive")
        self._adj[a][b] = self._adj[b][a] = self._adj[a].get(b, 0) + mult

    def remove_edge(self, a: str, b: str) -> None:
        self._require(a, b)
        if b not in self._adj[a]:
            raise GraphError(f"no edge between {a!r} and {b!r}")
        del self._adj[a][b], self._adj[b][a]

    def add_loop(self, label: str, count: int = 1) -> None:
        self._require(label)
        self._loops[label] += count

    def bump_weight(self, label: str, delta: int) -> None:
        self._require(label)
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
        self._require(label)
        del self._weights[label], self._loops[label]
        for v in self._adj.pop(label):
            del self._adj[v][label]

    # -- queries ----------------------------------------------------------

    @property
    def vertices(self) -> list[str]:
        return list(self._weights)

    def __contains__(self, label: str) -> bool:
        return label in self._weights

    def __len__(self) -> int:
        return len(self._weights)

    def weight(self, label: str) -> int:
        return self._weights[label]

    def loops(self, label: str) -> int:
        return self._loops[label]

    def neighbors(self, label: str) -> list[tuple[str, int]]:
        """(neighbour, multiplicity) pairs in vertex order."""
        self._require(label)
        adj = self._adj[label]
        return [(v, adj[v]) for v in self._weights if v in adj]

    def edges(self) -> list[tuple[str, str, int]]:
        """Each edge once as (a, b, m), a before b, in vertex order."""
        verts = self.vertices
        out = []
        for i, a in enumerate(verts):
            adj = self._adj[a]
            out.extend((a, b, adj[b]) for b in verts[i + 1:] if b in adj)
        return out

    def is_connected(self) -> bool:
        if not self._weights:
            return True
        stack = [next(iter(self._weights))]
        seen = set(stack)
        while stack:
            for w in self._adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self._weights)

    def copy(self) -> "WeightedDualGraph":
        g = WeightedDualGraph()
        g._weights = dict(self._weights)
        g._loops = dict(self._loops)
        g._adj = {v: dict(adj) for v, adj in self._adj.items()}
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedDualGraph):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and self._weights == other._weights
            and self._loops == other._loops
            and self._adj == other._adj
        )

    # -- exports -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": [
                {"label": v, "weight": w, "loops": self._loops[v]}
                for v, w in self._weights.items()
            ],
            "edges": [{"a": a, "b": b, "m": m} for a, b, m in self.edges()],
        }

    def to_dot(self, name: str = "dualgraph", annotations: dict[str, str] | None = None) -> str:
        lines = [f'graph "{name}" {{']
        lines.append("  node [shape=circle];")
        for v, w in self._weights.items():
            extra = ""
            if annotations and v in annotations:
                extra = f"\\n{annotations[v]}"
            lines.append(f'  "{v}" [label="{v}\\n({w}){extra}"];')
        for a, b, m in self.edges():
            attr = f' [label="{m}"]' if m > 1 else ""
            lines.append(f'  "{a}" -- "{b}"{attr};')
        for v, k in self._loops.items():
            lines.extend([f'  "{v}" -- "{v}";'] * k)
        lines.append("}")
        return "\n".join(lines) + "\n"
