"""Graphical separation criteria.

``d_separated`` implements Pearl's d-separation on a DAG via the standard
"reachable via active trails" ball-bouncing algorithm.  It is used to derive
the conditional-independence oracle of ground-truth models (tests and the
simulated-annealing checks in discovery tests use it) and to validate that
learned graphs entail the same independencies as the data-generating model.

``possible_d_sep`` computes the Possible-D-Sep set used by FCI's second
pruning phase (Spirtes et al., *Causation, Prediction, and Search*).
"""

from __future__ import annotations

from typing import Iterable

from repro.graph.dag import CausalDAG
from repro.graph.edges import Mark
from repro.graph.mixed_graph import MixedGraph


def d_separated(dag: CausalDAG, x: str, y: str,
                conditioning: Iterable[str] = ()) -> bool:
    """Return True when ``x`` and ``y`` are d-separated given ``conditioning``.

    Implementation follows the reachability formulation: ``x`` and ``y`` are
    d-connected iff there is an active trail from ``x`` to ``y``.  A trail is
    active when every collider on it is in (or has a descendant in) the
    conditioning set and no non-collider on it is in the conditioning set.
    """
    if x == y:
        return False
    z = set(conditioning)
    if x in z or y in z:
        raise ValueError("endpoints must not be in the conditioning set")

    # Ancestors of the conditioning set (colliders are active when they or a
    # descendant is conditioned on, i.e. when the collider is an ancestor of Z).
    ancestors_of_z = set(z)
    frontier = list(z)
    while frontier:
        node = frontier.pop()
        for parent in dag.parents(node):
            if parent not in ancestors_of_z:
                ancestors_of_z.add(parent)
                frontier.append(parent)

    # States are (node, direction) where direction is "up" (arrived via an
    # edge into the node's parents, i.e. travelling against arrows) or "down"
    # (arrived travelling along arrows).
    visited: set[tuple[str, str]] = set()
    frontier = [(x, "up")]
    while frontier:
        node, direction = frontier.pop()
        if (node, direction) in visited:
            continue
        visited.add((node, direction))
        if node == y:
            return False  # reached y via an active trail -> d-connected
        if direction == "up" and node not in z:
            for parent in dag.parents(node):
                frontier.append((parent, "up"))
            for child in dag.children(node):
                frontier.append((child, "down"))
        elif direction == "down":
            if node not in z:
                for child in dag.children(node):
                    frontier.append((child, "down"))
            if node in ancestors_of_z:
                for parent in dag.parents(node):
                    frontier.append((parent, "up"))
    return True


def possible_d_sep(graph: MixedGraph, x: str, y: str) -> set[str]:
    """Possible-D-Sep(x, y) for the FCI pruning phase.

    A node ``v`` is in Possible-D-Sep(x, y) iff there is a path between ``x``
    and ``v`` on which every non-endpoint vertex is either a collider on the
    path or adjacent to both of its path-neighbours (i.e. part of a triangle).
    It is :func:`possible_d_sep_reach` of ``x`` without ``x`` and ``y``.
    """
    return possible_d_sep_reach(graph, x) - {x, y}


def possible_d_sep_reach(graph: MixedGraph, x: str) -> set[str]:
    """Every node such a path from ``x`` reaches, ``x`` itself included
    when a path returns to it.

    The set does not depend on the other end of the tested edge, so a
    caller testing many edges can keep one per node.  Removing an edge
    only removes paths, and it changes the set only when both of its
    ends are ``x`` or in the set.
    """
    # The search reads the graph's live adjacency and marks views, without
    # per-call copies: it runs for every endpoint of an FCI pruning pass,
    # on every relearn.
    adjacency, marks, arrow = graph.adjacency, graph.marks, Mark.ARROW
    reached: set[str] = set()
    # frontier entries are (previous, current) node pairs along a path.
    visited: set[tuple[str, str]] = set()
    frontier = [(x, n) for n in adjacency[x]]
    while frontier:
        step = frontier.pop()
        if step in visited:
            continue
        visited.add(step)
        prev, current = step
        reached.add(current)
        into_current = marks[step] is arrow
        near_prev = adjacency[prev]
        for nxt in adjacency[current]:
            # Go on through ``current`` if it is a collider on the path
            # or ``prev`` and ``nxt`` are adjacent (a triangle).
            if nxt != prev and (nxt in near_prev or (
                    into_current and marks[(nxt, current)] is arrow)):
                frontier.append((current, nxt))
    return reached
