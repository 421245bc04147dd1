"""Causal structure learning.

This package implements Stage II of Unicorn:

1. :mod:`repro.discovery.skeleton` recovers the skeleton of the causal
   performance model from a fully connected graph restricted by structural
   constraints, pruning edges with conditional-independence tests.
2. :mod:`repro.discovery.fci` applies the FCI orientation machinery
   (collider/v-structure orientation and the Zhang orientation rules) to
   produce a partial ancestral graph.
3. :mod:`repro.discovery.entropic` resolves the remaining circle marks with
   entropic causal discovery (LatentSearch for low-entropy confounders, then
   the lower-noise-entropy direction), producing a fully directed ADMG.
4. :mod:`repro.discovery.pipeline` wires the three together behind
   :class:`CausalModelLearner`, including the structural constraints that
   encode performance-modeling assumptions and incremental re-learning as the
   active loop acquires new samples.
"""

from repro.discovery.constraints import StructuralConstraints, VariableRole
from repro.discovery.skeleton import learn_skeleton, SkeletonResult
from repro.discovery.fci import fci, orient_colliders, apply_orientation_rules
from repro.discovery.entropic import (
    EntropicOrienter,
    latent_search,
    resolve_with_entropy,
)
from repro.discovery.pipeline import CausalModelLearner, LearnedModel

__all__ = [
    "StructuralConstraints",
    "VariableRole",
    "learn_skeleton",
    "SkeletonResult",
    "fci",
    "orient_colliders",
    "apply_orientation_rules",
    "EntropicOrienter",
    "latent_search",
    "resolve_with_entropy",
    "CausalModelLearner",
    "LearnedModel",
]
