"""Directed acyclic causal graphs.

Ground-truth models (the data-generating SCMs of the simulator) and the final
resolved causal performance models are DAG-shaped (possibly with bidirected
edges for latent confounding, in which case they form an ADMG; the bidirected
part is held by :class:`~repro.graph.mixed_graph.MixedGraph`).  ``CausalDAG``
is a thin convenience wrapper that enforces acyclicity and offers topological
ordering, which the SCM sampler and the structural-equation fitter rely on.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, Sequence

from repro.graph.edges import Mark
from repro.graph.mixed_graph import MixedGraph


class CycleError(ValueError):
    """Raised when an operation would introduce a directed cycle."""


class CausalDAG:
    """A directed acyclic graph over named variables.

    Parameters
    ----------
    nodes:
        Variable names.  Order is preserved and used as a tie-breaker for the
        topological order.
    edges:
        Iterable of ``(cause, effect)`` pairs.
    """

    def __init__(self, nodes: Iterable[str] = (),
                 edges: Iterable[tuple[str, str]] = ()) -> None:
        self._parents: dict[str, set[str]] = {}
        self._children: dict[str, set[str]] = {}
        self._order: list[str] = []
        self._topo: list[str] | None = None  # kept until the graph changes
        for node in nodes:
            self.add_node(node)
        for cause, effect in edges:
            self.add_edge(cause, effect)

    # ------------------------------------------------------------------ nodes
    @property
    def nodes(self) -> list[str]:
        return list(self._order)

    def add_node(self, node: str) -> None:
        """Add a variable (idempotent; order of first add is kept)."""
        if node not in self._parents:
            self._parents[node] = set()
            self._children[node] = set()
            self._order.append(node)
            self._topo = None

    def has_node(self, node: str) -> bool:
        """Whether ``node`` is a variable of this graph."""
        return node in self._parents

    def __contains__(self, node: str) -> bool:
        return node in self._parents

    def __len__(self) -> int:
        return len(self._order)

    # ------------------------------------------------------------------ edges
    def add_edge(self, cause: str, effect: str) -> None:
        """Add ``cause -> effect``, refusing self loops and cycles."""
        if cause == effect:
            raise CycleError(f"self loop on {cause!r}")
        self.add_node(cause)
        self.add_node(effect)
        if cause in self.descendants(effect):
            raise CycleError(f"edge {cause!r} -> {effect!r} creates a cycle")
        self._parents[effect].add(cause)
        self._children[cause].add(effect)
        self._topo = None

    def remove_edge(self, cause: str, effect: str) -> None:
        """Remove ``cause -> effect`` if present."""
        self._parents[effect].discard(cause)
        self._children[cause].discard(effect)
        self._topo = None

    def has_edge(self, cause: str, effect: str) -> bool:
        """Whether the directed edge ``cause -> effect`` exists."""
        return cause in self._parents.get(effect, ())

    def edges(self) -> list[tuple[str, str]]:
        """All ``(cause, effect)`` pairs, child-major, deterministic."""
        return [(p, c) for c in self._order for p in sorted(self._parents[c])]

    def num_edges(self) -> int:
        """Number of directed edges."""
        return sum(len(p) for p in self._parents.values())

    # ------------------------------------------------------------- relations
    def parents(self, node: str) -> set[str]:
        """Direct causes of ``node``."""
        return set(self._parents[node])

    def children(self, node: str) -> set[str]:
        """Direct effects of ``node``."""
        return set(self._children[node])

    def ancestors(self, node: str) -> set[str]:
        """Transitive causes of ``node`` (excluding itself)."""
        out: set[str] = set()
        frontier = [node]
        while frontier:
            for parent in self._parents[frontier.pop()]:
                if parent not in out:
                    out.add(parent)
                    frontier.append(parent)
        return out

    def descendants(self, node: str) -> set[str]:
        """Transitive effects of ``node`` (excluding itself)."""
        out: set[str] = set()
        frontier = [node]
        while frontier:
            for child in self._children[frontier.pop()]:
                if child not in out:
                    out.add(child)
                    frontier.append(child)
        return out

    def roots(self) -> list[str]:
        """Nodes with no parents (configuration options in a ground truth)."""
        return [n for n in self._order if not self._parents[n]]

    def leaves(self) -> list[str]:
        """Nodes with no children (performance objectives)."""
        return [n for n in self._order if not self._children[n]]

    def topological_order(self) -> list[str]:
        """Kahn's algorithm with insertion order as tie-breaker."""
        if self._topo is None:
            self._topo = self._kahn()
        return list(self._topo)

    def _kahn(self) -> list[str]:
        position = {n: k for k, n in enumerate(self._order)}.__getitem__
        in_degree = {n: len(self._parents[n]) for n in self._order}
        ready = deque(n for n in self._order if in_degree[n] == 0)
        out: list[str] = []
        while ready:
            node = ready.popleft()
            out.append(node)
            for child in sorted(self._children[node], key=position):
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    ready.append(child)
        if len(out) != len(self._order):
            raise CycleError("graph contains a cycle")
        return out

    # ------------------------------------------------------------ conversion
    def to_mixed_graph(self) -> MixedGraph:
        """Convert to a fully oriented :class:`MixedGraph`."""
        graph = MixedGraph(self._order)
        for cause, effect in self.edges():
            graph.add_edge(cause, effect, Mark.TAIL, Mark.ARROW)
        return graph

    @classmethod
    def from_mixed_graph(cls, graph: MixedGraph) -> "CausalDAG":
        """Extract the directed part of a mixed graph as a DAG.

        Bidirected and undetermined edges are dropped; a cycle in the directed
        part raises :class:`CycleError` (one topological sort, kept).
        """
        dag = cls(graph.nodes)
        marks = graph.marks
        for (cause, effect), mark in marks.items():
            if mark is Mark.ARROW and marks[(effect, cause)] is Mark.TAIL:
                dag._parents[effect].add(cause)
                dag._children[cause].add(effect)
        dag._topo = dag._kahn()
        return dag

    @classmethod
    def from_parent_map(cls, parents: Mapping[str, Sequence[str]]) -> "CausalDAG":
        """Build a DAG from a ``{child: [parents]}`` mapping."""
        dag = cls()
        for child in parents:
            dag.add_node(child)
        for child, child_parents in parents.items():
            for parent in child_parents:
                dag.add_edge(parent, child)
        return dag

    def __repr__(self) -> str:
        return f"CausalDAG(nodes={len(self)}, edges={self.num_edges()})"
