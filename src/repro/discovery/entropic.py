"""Entropic resolution of ambiguous edge marks.

FCI leaves circle marks wherever the observational data cannot distinguish
between statistically equivalent structures.  Unicorn resolves every partially
directed edge with the information-theoretic approach of Kocaoglu et al.:

1. Run *LatentSearch* to find a joint distribution ``q(X, Y, Z)`` for a
   candidate latent confounder ``Z``; if the achievable entropy ``H(Z)`` is
   below ``theta_r = 0.8 * min(H(X), H(Y))`` declare a latent confounder and
   replace the edge by a bidirected one.
2. Otherwise compare the entropy of the exogenous noise required by the two
   candidate directions (``Y = f(X, E)`` versus ``X = g(Y, E~)``) and pick the
   direction with the lower noise entropy.

``LatentSearch`` here follows the iterative-update formulation of the
original paper (alternating updates of ``q(z | x, y)`` driven by the current
marginals) on the empirical joint distribution of the discretized pair.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.discovery.constraints import StructuralConstraints
from repro.graph.edges import Mark
from repro.graph.mixed_graph import MixedGraph
from repro.stats.dataset import Dataset
from repro.stats.entropy import (
    conditional_entropy,
    discrete_entropy,
    entropy_of_distribution,
)
from repro.stats.sufficient import SufficientStats


@dataclass
class LatentSearchResult:
    """Outcome of a LatentSearch run for one variable pair."""

    latent_entropy: float
    threshold: float

    @property
    def confounder_found(self) -> bool:
        return self.latent_entropy < self.threshold

    @classmethod
    def judged(cls, latent_entropy: float, h_x: float, h_y: float,
               factor: float) -> "LatentSearchResult":
        """Judge ``H(Z)`` against ``theta_r = factor * min(H(X), H(Y))``."""
        return cls(float(latent_entropy), factor * min(h_x, h_y))


def latent_entropies(x_codes: np.ndarray, y_codes: np.ndarray,
                     rngs: list[np.random.Generator],
                     n_latent_states: int = 8, iterations: int = 50,
                     sparsity: float = 0.5) -> np.ndarray:
    """``H(Z)`` of the latent LatentSearch finds, for a batch of pairs.

    Row ``k`` of the ``(pairs, rows)`` code matrices is one pair, and
    ``rngs[k]`` draws its initial ``q(z | x, y)``.  The algorithm maintains
    ``q(z | x, y)`` and alternates between computing the implied marginal
    ``q(z)`` and re-assigning mass so that, conditioned on ``z``, ``x`` and
    ``y`` become as independent as possible while keeping ``H(Z)`` small.  We
    follow the multiplicative-update scheme of Kocaoglu et al.'s LatentSearch,
    whose Lagrangian trades off ``I(X;Y|Z)`` against ``H(Z)``: each iteration
    sets ``q(z|x,y) ∝ q(z)^(1+sparsity) * q(x|z) * q(y|z)``, with the
    ``sparsity`` exponent playing the role of the entropy-penalty multiplier
    (larger values concentrate the latent on fewer states).

    All pairs run as one array pass over joint tables zero-padded to the
    largest ``(nx, ny)``: padded cells add exact zeros to every sum, so with
    two or more latent states each pair's entropy is bitwise its own.
    """
    x_codes, y_codes = np.atleast_2d(x_codes), np.atleast_2d(y_codes)
    pairs = len(x_codes)
    nx, ny = x_codes.max(axis=1) + 1, y_codes.max(axis=1) + 1
    width, height, nz = int(nx.max()), int(ny.max()), n_latent_states
    cells = (np.arange(pairs)[:, None] * width + x_codes) * height + y_codes
    counts = np.bincount(cells.ravel(), minlength=pairs * width * height
                         ).reshape(pairs, width, height)
    joint = counts / counts.sum(axis=(1, 2), keepdims=True)    # p(x, y)

    # Random initial q(z | x, y); padded cells hold a never-read placeholder.
    q_z_given_xy = np.ones((pairs, width, height, nz))
    for k, rng in enumerate(rngs):
        draw = rng.random((nx[k], ny[k], nz))
        q_z_given_xy[k, :nx[k], :ny[k]] = draw / draw.sum(axis=2,
                                                          keepdims=True)

    for _ in range(iterations):
        # q(x, y, z) = p(x, y) * q(z | x, y)
        q_xyz = joint[..., None] * q_z_given_xy
        q_z = q_xyz.sum(axis=(1, 2))[:, None]             # q(z)
        q_xz = q_xyz.sum(axis=2)                          # q(x, z)
        q_yz = q_xyz.sum(axis=1)                          # q(y, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            q_x_given_z = np.where(q_z > 0, q_xz / q_z, 0.0)  # q(x | z)
            q_y_given_z = np.where(q_z > 0, q_yz / q_z, 0.0)  # q(y | z)
        # Multiplicative update with the entropy-penalised marginal.
        updated = (np.power(q_z[:, None], 1.0 + sparsity)
                   * q_x_given_z[:, :, None, :]
                   * q_y_given_z[:, None, :, :])
        totals = updated.sum(axis=3, keepdims=True)
        # Where the update degenerates keep the previous value.
        q_z_given_xy = np.where(totals > 0, updated / np.maximum(totals, 1e-12),
                                q_z_given_xy)

    q_z = (joint[..., None] * q_z_given_xy).sum(axis=(1, 2))
    return np.array([entropy_of_distribution(row) for row in q_z])


def latent_search(x_codes: np.ndarray, y_codes: np.ndarray,
                  n_latent_states: int = 8, iterations: int = 50,
                  rng: np.random.Generator | None = None,
                  entropy_threshold_factor: float = 0.8,
                  sparsity: float = 0.5) -> LatentSearchResult:
    """Search for a low-entropy latent confounder explaining p(x, y).

    The one-pair call of :func:`latent_entropies`.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    latent_entropy, = latent_entropies(x_codes, y_codes, [rng],
                                       n_latent_states, iterations, sparsity)
    return LatentSearchResult.judged(latent_entropy, discrete_entropy(x_codes),
                                     discrete_entropy(y_codes),
                                     entropy_threshold_factor)


def entropic_direction(x_codes: np.ndarray, y_codes: np.ndarray) -> str:
    """Return ``"x->y"`` or ``"y->x"`` by comparing noise entropies.

    The direction requiring the lower exogenous-noise entropy (approximated by
    the conditional entropy of the effect given the cause) is simpler in the
    entropic-causality sense and is chosen as the causal direction.
    """
    h_noise_xy = conditional_entropy(y_codes, x_codes)   # Y = f(X, E)
    h_noise_yx = conditional_entropy(x_codes, y_codes)   # X = g(Y, E~)
    return "x->y" if h_noise_xy <= h_noise_yx else "y->x"


class EntropicOrienter:
    """Resolve the circle marks of a PAG into a fully directed ADMG.

    Discretization codes come from a (shareable) :class:`SufficientStats`
    over the orienter's dataset, computed once per column, and each edge's
    LatentSearch uses an RNG derived deterministically from ``(seed, x, y)``
    so resolution order (and how many times the orienter ran before) does
    not matter.
    """

    def __init__(self, data: Dataset, bins: int = 8,
                 n_latent_states: int = 8,
                 entropy_threshold_factor: float = 0.8,
                 latent_search_iterations: int = 30,
                 seed: int = 0,
                 stats: SufficientStats | None = None) -> None:
        self._data = data
        self._bins = bins
        self._n_latent_states = n_latent_states
        self._threshold_factor = entropy_threshold_factor
        self._iterations = latent_search_iterations
        self._seed = seed
        self._stats = stats if stats is not None else SufficientStats(data)

    def _edge_rng(self, x: str, y: str) -> np.random.Generator:
        """Per-edge RNG: the same (seed, edge) always yields the same stream."""
        a, b = sorted((x, y))
        return np.random.default_rng(
            [self._seed, zlib.crc32(a.encode()), zlib.crc32(b.encode())])

    def resolve(self, pag: MixedGraph,
                constraints: StructuralConstraints | None = None) -> MixedGraph:
        """Return a copy of ``pag`` with every circle mark resolved.

        Resolution is deterministic given the data: codes come from the
        sufficient statistics over it and each edge draws
        from its own ``(seed, edge)``-derived RNG, so resolving the same PAG
        over the same data always yields the same graph regardless of how
        (or how often) the orienter was used before.  Every LatentSearch of
        the call runs in one :func:`latent_entropies` pass.
        """
        graph = pag.copy()
        edges = [(edge.u, edge.v) for edge in graph.undetermined_edges()]
        columns = list(dict.fromkeys(c for edge in edges for c in edge))
        codes = dict(zip(columns, self._stats.column_codes(columns, self._bins)))
        # (x -> y admissible, y -> x admissible) per edge.
        allowed = {edge: tuple(constraints is None
                               or constraints.direction_allowed(*pair)
                               for pair in (edge, edge[::-1]))
                   for edge in edges}
        # Step 1 searches the edges whose two directions are admissible.
        searched = [edge for edge in edges if all(allowed[edge])]
        entropy = {c: discrete_entropy(codes[c]) for c in set().union(*searched)}
        latent = latent_entropies(
            np.array([codes[x] for x, _ in searched]),
            np.array([codes[y] for _, y in searched]),
            [self._edge_rng(x, y) for x, y in searched],
            n_latent_states=self._n_latent_states,
            iterations=self._iterations) if searched else []
        searches = {(x, y): LatentSearchResult.judged(
            h, entropy[x], entropy[y], self._threshold_factor)
            for (x, y), h in zip(searched, latent)}
        for x, y in edges:
            self._resolve_edge(graph, x, y, codes, searches.get((x, y)),
                               *allowed[(x, y)])
        return graph

    # ------------------------------------------------------------------ impl
    def _resolve_edge(self, graph: MixedGraph, x: str, y: str,
                      codes: dict[str, np.ndarray],
                      search: LatentSearchResult | None,
                      allowed_xy: bool, allowed_yx: bool) -> None:
        # Step 1: a low-entropy latent confounder, searched only when both
        # directions are admissible (a constrained edge cannot hide a
        # confounder between an exogenous option and its effect).
        if search is not None and search.confounder_found:
            graph.set_mark(x, y, Mark.ARROW)
            graph.set_mark(y, x, Mark.ARROW)
            return

        # If neither direction is admissible (e.g. an association between two
        # performance objectives, which are both sinks), the dependence can
        # only be due to shared causes: keep the edge but mark it bidirected.
        if not allowed_xy and not allowed_yx:
            graph.set_mark(x, y, Mark.ARROW)
            graph.set_mark(y, x, Mark.ARROW)
            return

        # Step 2: pick the direction with the lower exogenous-noise entropy,
        # subject to the structural constraints and acyclicity of the already
        # directed part of the graph.
        if allowed_xy and not allowed_yx:
            direction = "x->y"
        elif allowed_yx and not allowed_xy:
            direction = "y->x"
        else:
            direction = entropic_direction(codes[x], codes[y])

        cause, effect = (x, y) if direction == "x->y" else (y, x)
        if cause in graph.descendants(effect):
            # The preferred direction would close a directed cycle; fall back
            # to the opposite direction if it is admissible and acyclic,
            # otherwise record latent confounding.
            opposite_ok = allowed_yx if cause == x else allowed_xy
            if opposite_ok and effect not in graph.descendants(cause):
                cause, effect = effect, cause
            else:
                graph.set_mark(x, y, Mark.ARROW)
                graph.set_mark(y, x, Mark.ARROW)
                return
        graph.set_mark(cause, effect, Mark.ARROW)
        graph.set_mark(effect, cause, Mark.TAIL)


def resolve_with_entropy(pag: MixedGraph, data: Dataset,
                         constraints: StructuralConstraints | None = None,
                         **kwargs) -> MixedGraph:
    """Convenience wrapper around :class:`EntropicOrienter`."""
    return EntropicOrienter(data, **kwargs).resolve(pag, constraints)
