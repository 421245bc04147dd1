"""Structural constraints over causal performance models.

The paper defines a causal performance model as a probabilistic graphical
model with *structural constraints* encoding domain assumptions, for example:

* configuration options do not cause other configuration options,
* performance objectives cannot be causes of configuration options or system
  events (software options cannot be children of objectives),
* some variables can only be observed, never intervened on (system events),
* the user may restrict the variability space of specific options.

``StructuralConstraints`` captures these assumptions and is consulted both
when building the initial fully connected skeleton (forbidden pairs are never
connected) and when orienting edges (forbidden directions are rejected).
Encoding the constraints up front gives the sparsity that lets FCI work at the
low sample sizes Unicorn operates with.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np


class VariableRole(enum.Enum):
    """Role of a variable in the performance model."""

    OPTION = "option"          # software / kernel / hardware configuration
    EVENT = "event"            # intermediate system event (perf counter etc.)
    OBJECTIVE = "objective"    # end-to-end performance objective

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VariableRole.{self.name}"


@dataclass
class StructuralConstraints:
    """Domain assumptions for causal performance model learning.

    Parameters
    ----------
    roles:
        Mapping from variable name to its :class:`VariableRole`.
    forbid_option_option_edges:
        If True (the default and the paper's assumption), no edge is allowed
        between two configuration options.
    forbidden_edges:
        Extra directed edges ``(cause, effect)`` that must never appear.
    required_edges:
        Directed edges that domain knowledge asserts must exist; they are
        added to the skeleton even if a CI test would remove them.
    non_intervenable:
        Variables that can only be observed (system events, objectives).
        Events and objectives are always non-intervenable regardless of this
        set; it exists to let the user freeze specific options as well.
    """

    roles: Mapping[str, VariableRole]
    forbid_option_option_edges: bool = True
    forbidden_edges: set[tuple[str, str]] = field(default_factory=set)
    required_edges: set[tuple[str, str]] = field(default_factory=set)
    non_intervenable: set[str] = field(default_factory=set)

    # ------------------------------------------------------------------ roles
    def role(self, variable: str) -> VariableRole:
        return self.roles[variable]

    def options(self) -> list[str]:
        return [v for v, r in self.roles.items() if r is VariableRole.OPTION]

    def events(self) -> list[str]:
        return [v for v, r in self.roles.items() if r is VariableRole.EVENT]

    def objectives(self) -> list[str]:
        return [v for v, r in self.roles.items()
                if r is VariableRole.OBJECTIVE]

    # ------------------------------------------------------------ adjacency
    def adjacency_allowed(self, u: str, v: str) -> bool:
        """May an edge (of any orientation) exist between ``u`` and ``v``?"""
        role_u, role_v = self.roles[u], self.roles[v]
        if (self.forbid_option_option_edges
                and role_u is VariableRole.OPTION
                and role_v is VariableRole.OPTION):
            return False
        if ((u, v) in self.forbidden_edges
                and (v, u) in self.forbidden_edges):
            return False
        return True

    def adjacency_matrices(self, names: Sequence[str]
                           ) -> tuple[np.ndarray, np.ndarray]:
        """``(allowed, required)`` boolean matrices over the positions of
        ``names``.

        ``allowed[i, j]`` is ``adjacency_allowed(names[i], names[j])`` and
        ``required[i, j]`` holds when a required edge joins the two, either
        way round.  The roles are read once into a mask; only the few
        forbidden and required edges are looped over.
        """
        size = len(names)
        local = {name: k for k, name in enumerate(names)}
        allowed = np.ones((size, size), dtype=bool)
        required = np.zeros((size, size), dtype=bool)
        if self.forbid_option_option_edges:
            option = np.array([self.roles[name] is VariableRole.OPTION
                               for name in names], dtype=bool)
            allowed[np.ix_(option, option)] = False
        for u, v in self.forbidden_edges:
            if (v, u) in self.forbidden_edges and u in local and v in local:
                allowed[local[u], local[v]] = allowed[local[v], local[u]] = \
                    False
        for u, v in self.required_edges:
            if u in local and v in local:
                required[local[u], local[v]] = \
                    required[local[v], local[u]] = True
        return allowed, required

    # ------------------------------------------------------------ direction
    def direction_allowed(self, cause: str, effect: str) -> bool:
        """May a directed edge ``cause -> effect`` exist?"""
        if (cause, effect) in self.forbidden_edges:
            return False
        role_cause, role_effect = self.roles[cause], self.roles[effect]
        # Nothing causes a configuration option: options are exogenous knobs.
        if role_effect is VariableRole.OPTION:
            return False
        # Objectives are sinks: they cause neither options nor events.
        if role_cause is VariableRole.OBJECTIVE:
            return False
        return True

    def is_intervenable(self, variable: str) -> bool:
        """Can ``variable`` be set by an intervention (a configuration change)?"""
        if variable in self.non_intervenable:
            return False
        return self.roles[variable] is VariableRole.OPTION

    def conditioning_allowed(self, variable: str) -> bool:
        """May ``variable`` appear in a conditioning set of a CI test?

        Performance objectives are sinks of the causal performance model
        (they cause neither options nor events), so they can never be part of
        a valid separating set — conditioning on them can only open collider
        paths and, at finite sample sizes, induce spurious independencies
        between their strong causes.  Excluding them is therefore both sound
        and a large robustness win at Unicorn's small sample sizes.
        """
        return self.roles[variable] is not VariableRole.OBJECTIVE

    # ----------------------------------------------------------- construction
    @classmethod
    def from_variable_lists(cls, options: Iterable[str],
                            events: Iterable[str],
                            objectives: Iterable[str],
                            **kwargs) -> "StructuralConstraints":
        roles: dict[str, VariableRole] = {}
        for name in options:
            roles[name] = VariableRole.OPTION
        for name in events:
            roles[name] = VariableRole.EVENT
        for name in objectives:
            roles[name] = VariableRole.OBJECTIVE
        return cls(roles=roles, **kwargs)
