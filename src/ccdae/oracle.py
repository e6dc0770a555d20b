"""Exact brute-force computations over finite hypothesis tables.

Ground truth for the importance-sampling estimators in :mod:`ccdae.core`:
everything here enumerates the full table, normalizes explicitly and takes
the KL as an explicit sum, with no shared estimator code, so the two routes
stay independent. Only the curve tail (c_max check, interpolation, AUC) and
the block size of the lambda trace are shared with the estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (_BLOCK_ELEMENTS, DistanceCurve, ScoredBatch, _check_target,
                   _pair, _validate_grid, curve_from_traces, default_lambda_grid)

__all__ = [
    "FiniteHypothesisTable",
    "NoFeasibleDescriptionError",
    "proposal_batch",
    "exact_batch",
    "exact_gibbs",
    "exact_capacity",
    "exact_expected_loss",
    "exact_cross_expected_loss",
    "solve_discrete_description",
    "structure_function",
    "exact_distance_curve",
    "exact_intersection_distance",
    "dirac_restricted_optimum",
    "universal_augment",
]

_KRAFT_SLACK = 1e-9


class NoFeasibleDescriptionError(ValueError):
    """No hypothesis fits under the requested capacity."""


@dataclass(frozen=True)
class FiniteHypothesisTable:
    """A finite description code plus a loss matrix.

    ``code_lengths[j]`` is -log p_code(h_j) in nats; ``loss[i][j]`` the
    reconstruction loss of sample i under hypothesis j. Sub-probability
    codes are allowed (Kraft sum <= 1); the Gibbs computations use the
    unnormalized masses exp(-code_length) consistently so the slack
    cancels.
    """

    code_lengths: np.ndarray
    loss: np.ndarray
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "code_lengths", np.asarray(self.code_lengths, dtype=float)
        )
        object.__setattr__(self, "loss", np.atleast_2d(np.asarray(self.loss, dtype=float)))
        if self.code_lengths.ndim != 1:
            raise ValueError("code_lengths must be 1-D")
        if self.loss.shape[1] != self.code_lengths.size:
            raise ValueError("loss columns must match code_lengths")
        if not (np.all(np.isfinite(self.code_lengths)) and np.all(np.isfinite(self.loss))):
            raise ValueError("table entries must be finite")
        if np.exp(-self.code_lengths).sum() > 1.0 + _KRAFT_SLACK:
            raise ValueError("code violates Kraft inequality")
        if not self.labels:
            object.__setattr__(
                self, "labels", tuple(f"h{j}" for j in range(self.code_lengths.size))
            )
        if len(self.labels) != self.code_lengths.size:
            raise ValueError("labels must match hypothesis count")

    @property
    def n_hypotheses(self) -> int:
        return int(self.code_lengths.size)

    @property
    def n_samples(self) -> int:
        return int(self.loss.shape[0])

    # -- plain-text round-trip -------------------------------------------
    # Format: '#' comments, then one line of labels, one line of code
    # lengths, then one loss row per sample. Floats are written with
    # repr() so the round trip is bit-exact.

    def dumps(self) -> str:
        rows = [" ".join(repr(float(v)) for v in row) for row in (self.code_lengths, *self.loss)]
        return "\n".join([" ".join(self.labels), *rows]) + "\n"

    @classmethod
    def loads(cls, text: str) -> "FiniteHypothesisTable":
        rows = [
            line.strip()
            for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        ]
        if len(rows) < 3:
            raise ValueError("table file needs labels, code lengths, and >=1 loss row")
        labels = tuple(rows[0].split())
        code = np.array([float(v) for v in rows[1].split()])
        loss = np.array([[float(v) for v in row.split()] for row in rows[2:]])
        return cls(code_lengths=code, loss=loss, labels=labels)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @classmethod
    def load(cls, path) -> "FiniteHypothesisTable":
        with open(path, encoding="utf-8") as fh:
            return cls.loads(fh.read())


def proposal_batch(
    table: FiniteHypothesisTable,
    n_draws: int,
    seed: int = 0,
    proposal: np.ndarray | None = None,
) -> ScoredBatch:
    """i.i.d. proposal draws from a finite table, merged into a ScoredBatch.

    The default proposal is the normalized code distribution. Duplicate
    draws merge into count weights, so the batch feeds the importance
    sampling estimators exactly as pooled sampled descriptions would.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    if proposal is None:
        mass = np.exp(-table.code_lengths)
        proposal = mass / mass.sum()
    proposal = np.asarray(proposal, dtype=float)
    rng = np.random.default_rng(seed)
    draws = rng.choice(table.n_hypotheses, size=n_draws, p=proposal)
    idx, counts = np.unique(draws, return_counts=True)
    return ScoredBatch(
        texts=[table.labels[j] for j in idx.tolist()],
        log_pcode=-table.code_lengths[idx],
        log_proposal=np.log(proposal[idx]),
        loss=table.loss[:, idx],
        mode="generative",
        counts=counts.astype(float),
    )


def exact_batch(table: FiniteHypothesisTable) -> ScoredBatch:
    """Full-support batch with counts proportional to the proposal.

    With the whole table enumerated and fractional counts equal to the
    proposal probabilities, the self-normalized estimators reproduce exact
    expectations; useful for exact-mode invariant tests.
    """
    mass = np.exp(-table.code_lengths)
    proposal = mass / mass.sum()
    return ScoredBatch(
        texts=table.labels,
        log_pcode=-table.code_lengths,
        log_proposal=np.log(proposal),
        loss=table.loss.copy(),
        mode="generative",
        counts=proposal,
    )


def _gibbs_rows(table: FiniteHypothesisTable, sample: int, lams: np.ndarray,
                u: np.ndarray, q: np.ndarray) -> tuple:
    """Gibbs rows q[k] proportional to exp(-code_lengths - lams[k]*loss[sample])
    and KL(q[k] || exp(-code_lengths)) >= 0, with log q = shifted logits - log Z
    (no log of q, so a q that underflows to 0 adds exactly 0 to the KL).

    ``u`` and ``q`` are the caller's buffers of shape (len(lams), H): ``u``
    ends up holding log q + code_lengths, and ``q`` is returned.
    """
    np.multiply(lams[:, None], table.loss[sample], out=q)
    np.subtract(-table.code_lengths, q, out=u)
    u -= u.max(axis=1, keepdims=True)
    # a logit that overflowed to -inf has q == 0: keep its log q finite so it adds 0
    np.maximum(u, np.finfo(float).min, out=u)
    np.exp(u, out=q)
    z = q.sum(axis=1, keepdims=True)
    q /= z
    u -= np.log(z)
    u += table.code_lengths
    return q, np.maximum(np.vecdot(q, u), 0.0)


def _gibbs_point(table: FiniteHypothesisTable, sample: int, lam: float) -> tuple:
    _check_target(table.n_samples, sample)
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    u, q = (np.empty((1, table.n_hypotheses)) for _ in range(2))
    q, kl = _gibbs_rows(table, sample, np.array([float(lam)]), u, q)
    return q[0], float(kl[0])


def exact_gibbs(table: FiniteHypothesisTable, sample: int, lam: float) -> np.ndarray:
    """Normalized q_j proportional to exp(-code_length_j - lam*loss_j)."""
    return _gibbs_point(table, sample, lam)[0]


def exact_capacity(table: FiniteHypothesisTable, sample: int, lam: float) -> float:
    """KL(q || exp(-code_lengths)) in nats; >= 0 for sub-probability codes."""
    return _gibbs_point(table, sample, lam)[1]


def exact_cross_expected_loss(
    table: FiniteHypothesisTable, source: int, target: int, lam: float
) -> float:
    _check_target(table.n_samples, target)
    return float(exact_gibbs(table, source, lam) @ table.loss[target])


def exact_expected_loss(table: FiniteHypothesisTable, sample: int, lam: float) -> float:
    return exact_cross_expected_loss(table, sample, sample, lam)


def _feasible(table: FiniteHypothesisTable, capacity: float) -> np.ndarray:
    """Hypotheses with code length <= capacity; a Dirac's KL is its code length."""
    feas = np.flatnonzero(table.code_lengths <= capacity + 1e-12)
    if feas.size == 0:
        raise NoFeasibleDescriptionError(
            f"no hypothesis (or Dirac) with code length <= {capacity:.6g}")
    return feas


def solve_discrete_description(
    table: FiniteHypothesisTable, sample: int, capacity: float
) -> int:
    """Best single description with code length <= capacity.

    Ties break toward smaller code length, then lower index.
    """
    _check_target(table.n_samples, sample)
    return int(min(_feasible(table, capacity),
                   key=lambda j: (table.loss[sample][j], table.code_lengths[j], j)))


def structure_function(
    table: FiniteHypothesisTable, sample: int, capacity: float
) -> float:
    """Two-part code value: min over feasible h of loss + code length."""
    _check_target(table.n_samples, sample)
    feas = _feasible(table, capacity)
    return float(np.min(table.loss[sample][feas] + table.code_lengths[feas]))


def dirac_restricted_optimum(
    table: FiniteHypothesisTable, sample: int, capacity: float
) -> float:
    """Optimal expected loss over Dirac distributions with KL <= capacity.

    A Dirac on h_j has KL(delta || p_code) = code_length_j, so this is
    the same feasible set as the discrete problem; returned is the loss.
    """
    _check_target(table.n_samples, sample)
    return float(np.min(table.loss[sample][_feasible(table, capacity)]))


def exact_intersection_distance(
    table: FiniteHypothesisTable, pair: tuple[int, int], lam: float
) -> float:
    for sample in pair:
        _check_target(table.n_samples, sample)
    i, j = pair
    qi = exact_gibbs(table, i, lam)
    qj = exact_gibbs(table, j, lam)
    mix = 0.5 * (qi + qj)
    total = table.loss[i] + table.loss[j]
    return float(mix @ total - qi @ table.loss[i] - qj @ table.loss[j])


def exact_distance_curve(
    table: FiniteHypothesisTable,
    pair: tuple[int, int] = (0, 1),
    lambda_grid=None,
    capacity_grid_size: int = 100,
    c_max: float | None = None,
) -> DistanceCurve:
    """Exact counterpart of :func:`ccdae.core.distance_curve`, in blocks of lambdas."""
    for sample in pair:
        _check_target(table.n_samples, sample)
    grid = default_lambda_grid() if lambda_grid is None else _validate_grid(lambda_grid)
    per_block = max(1, _BLOCK_ELEMENTS // table.n_hypotheses)
    cap, beta, cross = (np.empty((2, grid.size)) for _ in range(3))

    def trace(s: int) -> None:
        # direction s writes row s of cap, beta and cross, and nothing else
        i, j = (pair, pair[::-1])[s]
        u, q = (np.empty((min(per_block, grid.size), table.n_hypotheses))
                for _ in range(2))
        for start in range(0, grid.size, per_block):
            block = slice(start, start + per_block)
            lams = grid[block]
            w, cap[s, block] = _gibbs_rows(table, i, lams, u[: lams.size], q[: lams.size])
            # vecdot rounds as one dot per lambda does; a matmul would not.
            beta[s, block] = np.vecdot(w, table.loss[i])
            cross[s, block] = np.vecdot(w, table.loss[j])

    _pair(trace, table.n_hypotheses * grid.size > _BLOCK_ELEMENTS)
    return curve_from_traces(
        cap, beta, cross, grid, capacity_grid_size, c_max, mode="generative"
    )


def universal_augment(
    table: FiniteHypothesisTable, epsilon_code: float = 0.1
) -> FiniteHypothesisTable:
    """Append a search hypothesis attaining the optimal two-part code.

    The new hypothesis has code length ``epsilon_code`` and, for every
    sample, loss equal to the best two-part code minus ``epsilon_code``,
    so its two-part value equals the table minimum simultaneously for all
    samples. Existing code mass is rescaled (lengths increased) to keep
    the Kraft sum <= 1.
    """
    if epsilon_code <= 0:
        raise ValueError("epsilon_code must be positive")
    two_part = table.loss + table.code_lengths[None, :]
    search_loss = two_part.min(axis=1) - epsilon_code

    old_mass = float(np.exp(-table.code_lengths).sum())
    budget = 1.0 - math.exp(-epsilon_code)
    scale = min(1.0, budget / old_mass)
    new_lengths = np.append(table.code_lengths - math.log(scale), epsilon_code)
    new_loss = np.column_stack([table.loss, search_loss])
    return FiniteHypothesisTable(
        code_lengths=new_lengths,
        loss=new_loss,
        labels=table.labels + ("h_search",),
    )
