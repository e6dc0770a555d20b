"""Conceptual similarity from capacity-constrained description distributions.

Subpackages:

* :mod:`ccdae.core` — Gibbs weights, rate curves, distance curves, AUC.
* :mod:`ccdae.oracle` — exact enumeration over finite hypothesis tables.
* :mod:`ccdae.backends` — n-gram, fixture-table, and remote scoring models.
* :mod:`ccdae.pipeline` — end-to-end pair comparison and explanations.
* :mod:`ccdae.baselines` — trajectory distance, conditional likelihood, NCD.
* :mod:`ccdae.bench` — dataset loaders, Spearman/accuracy harness.
* :mod:`ccdae.descgen` — atom extraction and beam-composed descriptions.
* :mod:`ccdae.cli` — the ``ccdae`` command.
"""

from .backends import (
    NGramBackend,
    NGramModel,
    RemoteBackend,
    TableBackend,
    train_ngram,
)
from .core import (
    CapacityCurve,
    DistanceCurve,
    Hypothesis,
    ScoredBatch,
    auc,
    capacity_estimate,
    cross_expected_loss,
    default_lambda_grid,
    distance_curve,
    expected_loss,
    gibbs_weights,
    intersection_distance,
    log_partition_estimate,
    trace_rate_curve,
)
from .oracle import (
    FiniteHypothesisTable,
    exact_capacity,
    exact_distance_curve,
    exact_gibbs,
    solve_discrete_description,
    structure_function,
    universal_augment,
)
from .pipeline import CompareConfig, DistanceReport, build_batch, compare

__version__ = "0.1.0"

__all__ = [
    "NGramBackend",
    "NGramModel",
    "RemoteBackend",
    "TableBackend",
    "train_ngram",
    "CapacityCurve",
    "DistanceCurve",
    "Hypothesis",
    "ScoredBatch",
    "auc",
    "capacity_estimate",
    "cross_expected_loss",
    "default_lambda_grid",
    "distance_curve",
    "expected_loss",
    "gibbs_weights",
    "intersection_distance",
    "log_partition_estimate",
    "trace_rate_curve",
    "FiniteHypothesisTable",
    "exact_capacity",
    "exact_distance_curve",
    "exact_gibbs",
    "solve_discrete_description",
    "structure_function",
    "universal_augment",
    "CompareConfig",
    "DistanceReport",
    "build_batch",
    "compare",
    "__version__",
]
