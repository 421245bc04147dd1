"""Mixed causal graph with endpoint marks.

``MixedGraph`` is the single container used throughout the discovery and
inference layers.  It can represent an undirected skeleton, a PAG produced by
FCI, or a fully resolved ADMG, depending on which marks its edges carry.
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from types import MappingProxyType
from typing import Iterable, Iterator

from repro.graph.edges import Edge, Mark


class MixedGraph:
    """A graph over named nodes whose edges carry endpoint marks.

    The graph is simple: at most one edge between any pair of nodes.  Marks
    are stored per ordered pair so that ``mark(x, y)`` is the mark at the
    ``y`` end of the edge between ``x`` and ``y`` — this matches the usual
    reading of FCI orientation rules ("orient the mark at *y* on the edge
    x *-* y").
    """

    def __init__(self, nodes: Iterable[str] = ()) -> None:
        self._nodes: list[str] = []
        self._node_set: set[str] = set()
        # _marks[(x, y)] is the mark at the *y* endpoint of edge {x, y}.
        self._marks: dict[tuple[str, str], Mark] = {}
        self._adj: dict[str, set[str]] = {}
        for node in nodes:
            self.add_node(node)

    # ------------------------------------------------------------------ nodes
    @property
    def nodes(self) -> list[str]:
        """Nodes in insertion order."""
        return list(self._nodes)

    def add_node(self, node: str) -> None:
        if node not in self._node_set:
            self._nodes.append(node)
            self._node_set.add(node)
            self._adj[node] = set()

    def has_node(self, node: str) -> bool:
        return node in self._node_set

    def remove_node(self, node: str) -> None:
        """Remove ``node`` and every edge incident to it."""
        if node not in self._node_set:
            raise KeyError(node)
        for other in list(self._adj[node]):
            self.remove_edge(node, other)
        self._nodes.remove(node)
        self._node_set.remove(node)
        del self._adj[node]

    def __contains__(self, node: str) -> bool:
        return node in self._node_set

    def __len__(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------ edges
    def add_edge(self, u: str, v: str, mark_u: Mark = Mark.CIRCLE,
                 mark_v: Mark = Mark.CIRCLE) -> None:
        """Add (or replace) the edge between ``u`` and ``v``.

        ``mark_u`` is placed at the ``u`` endpoint, ``mark_v`` at ``v``.
        """
        if u == v:
            raise ValueError(f"self loops are not allowed: {u!r}")
        self.add_node(u)
        self.add_node(v)
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._marks[(v, u)] = mark_u
        self._marks[(u, v)] = mark_v

    def add_directed_edge(self, cause: str, effect: str) -> None:
        """Add ``cause --> effect``."""
        self.add_edge(cause, effect, Mark.TAIL, Mark.ARROW)

    def add_bidirected_edge(self, u: str, v: str) -> None:
        """Add ``u <-> v`` (latent confounding)."""
        self.add_edge(u, v, Mark.ARROW, Mark.ARROW)

    def remove_edge(self, u: str, v: str) -> None:
        if not self.has_edge(u, v):
            raise KeyError(f"no edge between {u!r} and {v!r}")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        del self._marks[(u, v)]
        del self._marks[(v, u)]

    def has_edge(self, u: str, v: str) -> bool:
        return v in self._adj.get(u, ())

    def mark(self, u: str, v: str) -> Mark:
        """Mark at the ``v`` endpoint of the edge between ``u`` and ``v``."""
        return self._marks[(u, v)]

    def set_mark(self, u: str, v: str, mark: Mark) -> None:
        """Set the mark at the ``v`` endpoint of edge ``{u, v}``."""
        if not self.has_edge(u, v):
            raise KeyError(f"no edge between {u!r} and {v!r}")
        self._marks[(u, v)] = mark

    def edge(self, u: str, v: str) -> Edge:
        return Edge(u, v, self.mark(v, u), self.mark(u, v))

    def edges(self) -> Iterator[Edge]:
        """Iterate over each edge once (in canonical node order)."""
        seen: set[frozenset[str]] = set()
        for u in self._nodes:
            for v in sorted(self._adj[u]):
                key = frozenset((u, v))
                if key in seen:
                    continue
                seen.add(key)
                yield self.edge(u, v)

    def num_edges(self) -> int:
        return sum(1 for _ in self.edges())

    # ------------------------------------------------------------ adjacency
    def neighbors(self, node: str) -> set[str]:
        """All nodes adjacent to ``node`` regardless of marks."""
        return set(self._adj[node])

    @property
    def adjacency(self) -> Mapping[str, Set[str]]:
        """Every node's adjacent nodes, read-only and live: it follows
        later edits.  For searches that read many adjacencies without
        the copy :meth:`neighbors` makes; do not modify the sets."""
        return MappingProxyType(self._adj)

    @property
    def marks(self) -> Mapping[tuple[str, str], Mark]:
        """Every endpoint mark, read-only and live: ``marks[(u, v)]`` is
        :meth:`mark` ``(u, v)``."""
        return MappingProxyType(self._marks)

    def degree(self, node: str) -> int:
        return len(self._adj[node])

    def average_degree(self) -> float:
        """Mean node degree; the paper reports this in the scalability study."""
        if not self._nodes:
            return 0.0
        return sum(self.degree(n) for n in self._nodes) / len(self._nodes)

    # -------------------------------------------------- directional queries
    def parents(self, node: str) -> set[str]:
        """Nodes ``p`` with a fully directed edge ``p --> node``."""
        out = set()
        for other in self._adj[node]:
            if (self.mark(other, node) is Mark.ARROW
                    and self.mark(node, other) is Mark.TAIL):
                out.add(other)
        return out

    def children(self, node: str) -> set[str]:
        """Nodes ``c`` with a fully directed edge ``node --> c``."""
        out = set()
        for other in self._adj[node]:
            if (self.mark(node, other) is Mark.ARROW
                    and self.mark(other, node) is Mark.TAIL):
                out.add(other)
        return out

    def spouses(self, node: str) -> set[str]:
        """Nodes connected to ``node`` by a bidirected edge."""
        out = set()
        for other in self._adj[node]:
            if (self.mark(node, other) is Mark.ARROW
                    and self.mark(other, node) is Mark.ARROW):
                out.add(other)
        return out

    def ancestors(self, node: str) -> set[str]:
        """All nodes with a directed path into ``node`` (excluding itself)."""
        out: set[str] = set()
        frontier = [node]
        while frontier:
            current = frontier.pop()
            for parent in self.parents(current):
                if parent not in out:
                    out.add(parent)
                    frontier.append(parent)
        return out

    def descendants(self, node: str) -> set[str]:
        """All nodes reachable from ``node`` via directed edges."""
        out: set[str] = set()
        frontier = [node]
        while frontier:
            current = frontier.pop()
            for child in self.children(current):
                if child not in out:
                    out.add(child)
                    frontier.append(child)
        return out

    # ------------------------------------------------------------ conversion
    def to_dict(self) -> dict:
        """Plain-JSON form: nodes plus ``[u, v, mark_u, mark_v]`` edges.

        Edges are emitted in the canonical order of :meth:`edges` and marks
        as their single-character values, so equal graphs serialize to equal
        documents — the golden-graph regression fixtures rely on this.
        """
        return {
            "nodes": list(self._nodes),
            "edges": [[e.u, e.v, e.mark_u.value, e.mark_v.value]
                      for e in self.edges()],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MixedGraph":
        graph = cls(payload["nodes"])
        for u, v, mark_u, mark_v in payload["edges"]:
            graph.add_edge(u, v, Mark(mark_u), Mark(mark_v))
        return graph

    def undetermined_edges(self) -> list[Edge]:
        """Edges with at least one circle mark (still ambiguous)."""
        return [e for e in self.edges() if e.is_undetermined()]

    def is_fully_oriented(self) -> bool:
        return not self.undetermined_edges()

    def directed_edges(self) -> list[tuple[str, str]]:
        """List of ``(cause, effect)`` pairs for fully directed edges."""
        out = []
        for edge in self.edges():
            target = edge.points_to()
            if target is not None:
                source = edge.u if target == edge.v else edge.v
                out.append((source, target))
        return out

    def bidirected_edges(self) -> list[tuple[str, str]]:
        return [(e.u, e.v) for e in self.edges() if e.is_bidirected()]

    def copy(self) -> "MixedGraph":
        clone = MixedGraph(self._nodes)
        clone._marks = dict(self._marks)
        clone._adj = {n: set(adj) for n, adj in self._adj.items()}
        return clone

    def to_networkx(self):
        """Export the directed part of the graph as a ``networkx.DiGraph``."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self._nodes)
        graph.add_edges_from(self.directed_edges())
        return graph

    def __repr__(self) -> str:
        return (f"MixedGraph(nodes={len(self._nodes)}, "
                f"edges={self.num_edges()})")

    def summary(self) -> str:
        """Human-readable listing of every edge, one per line."""
        return "\n".join(str(edge) for edge in self.edges())
