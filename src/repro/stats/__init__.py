"""Statistical substrate for causal discovery.

Unicorn's structure-learning stage prunes a fully connected skeleton with
statistical tests of conditional independence: Fisher's z test on partial
correlations for continuous variables and a G-test (equivalently, a mutual
information test) for discrete variables, as stated in Stage II of the paper.
This package implements both, a mixed-data dispatcher that discretizes on
demand, and the entropy estimators required by the entropic orientation step.
"""

from repro.stats.dataset import Dataset
from repro.stats.independence import (
    CachedCITest,
    CIDecisionCache,
    CITest,
    FisherZTest,
    GSquareTest,
    MixedCITest,
    fisher_z,
    g_square,
)
from repro.stats.sufficient import SufficientStats
from repro.stats.entropy import (
    conditional_entropy,
    discrete_entropy,
    joint_entropy,
    mutual_information,
)
from repro.stats.discretize import discretize_column, discretize_matrix

__all__ = [
    "Dataset",
    "SufficientStats",
    "CachedCITest",
    "CIDecisionCache",
    "CITest",
    "FisherZTest",
    "GSquareTest",
    "MixedCITest",
    "fisher_z",
    "g_square",
    "discrete_entropy",
    "joint_entropy",
    "conditional_entropy",
    "mutual_information",
    "discretize_column",
    "discretize_matrix",
]
