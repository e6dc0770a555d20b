"""End-to-end pair comparison.

Samples descriptions from both inputs, scores every pooled hypothesis
under both, assembles a :class:`~ccdae.core.ScoredBatch`, runs the
distance-curve math, and extracts shared/distinctive explanations.

The one loss is encoder-only: the loss of h on x_i is the log ratio
log p_hat(h) - log p(h|x_i) with p_hat the equal mixture of the two
conditionals; no unconditional data likelihood ever enters the data model.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DistanceCurve,
    InvalidBatchError,
    ScoredBatch,
    _check_c_max,
    _check_count,
    _check_lambda,
    _check_seed,
    _check_temperature,
    _curve,
    _gibbs_trace,
    _validate_grid,
    distance_curve,
    gibbs_weights,
)

__all__ = [
    "CompareConfig",
    "DistanceReport",
    "build_batch",
    "compare",
    "distance_curve",  # re-exported: bench.pair_score calls it through here
    "explain",
    "effective_sample_size",
]

#: Weight-concentration warning threshold for the ESS diagnostic.
ESS_WARN = 5.0

#: Lambda at which ``compare`` ranks the explanation lists.
EXPLAIN_LAMBDA = 1.0


@dataclass(frozen=True)
class CompareConfig:
    samples_per_input: int = 20
    max_tokens: int = 20
    temperature: float = 1.0
    seed: int = 0
    pcode_mode: str = "proposal_mix"  # proposal_mix | lm_code
    lambda_grid: tuple[float, ...] | None = None
    c_max: float | None = None
    prompt: str | None = None

    def __post_init__(self) -> None:
        _check_count("samples_per_input", self.samples_per_input)
        _check_count("max_tokens", self.max_tokens)
        _check_temperature(self.temperature)
        if self.pcode_mode not in ("proposal_mix", "lm_code"):
            raise ValueError(f"unknown pcode_mode {self.pcode_mode!r}")
        # the config's own copy, read-only
        grid = np.array(_validate_grid(self.lambda_grid))
        grid.flags.writeable = False
        object.__setattr__(self, "_grid", grid)
        _check_c_max(self.c_max)
        _check_seed(self.seed)
        if not (self.prompt is None or isinstance(self.prompt, str)):
            raise ValueError(f"prompt must be None or a string, got {self.prompt!r}")

    def grid(self) -> np.ndarray:
        """The lambda grid, built once per config and read-only."""
        return self._grid


@dataclass
class DistanceReport:
    curve: DistanceCurve
    auc: float
    shared_descriptions: list[tuple[str, float]]
    distinctive_descriptions: tuple[
        list[tuple[str, float]], list[tuple[str, float]]
    ]
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "auc": self.auc,
            "curve": self.curve.report(),
            "shared_descriptions": [
                {"text": t, "weight": w} for t, w in self.shared_descriptions
            ],
            "distinctive_descriptions": [
                [{"text": t, "weight": w} for t, w in side]
                for side in self.distinctive_descriptions
            ],
            "diagnostics": self.diagnostics,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def explanation_table(self, top: int = 10) -> str:
        """Ranked plain-text rendering of the explanation lists."""
        lines = ["shared descriptions (mixture weight):"]
        for text, w in self.shared_descriptions[:top]:
            lines.append(f"  {w:10.6f}  {text}")
        for i, side in enumerate(self.distinctive_descriptions, start=1):
            lines.append(f"distinctive for sample {i} (weight excess):")
            for text, w in side[:top]:
                lines.append(f"  {w:+10.6f}  {text}")
        return "\n".join(lines)


def _content_key(x: str) -> str:
    return hashlib.sha256(str(x).encode("utf-8")).hexdigest()


def _canonical_order(x1, x2):
    """Deterministic input ordering so swapped calls see identical batches."""
    if _content_key(x1) <= _content_key(x2):
        return x1, x2
    return x2, x1


@functools.lru_cache(maxsize=256)
def _rank_seed(seed: int, rank: int) -> int:
    """The sampling seed of the input at canonical ``rank`` under ``seed``."""
    return int(np.random.default_rng([seed, rank]).integers(2**31))


def _too_few_descriptions(n_draws: int, n_distinct: int, dropped: int = 0):
    unscorable = f", {dropped} dropped as unscorable" if dropped else ""
    return InvalidBatchError(
        f"{n_draws} draws gave {n_distinct} distinct description(s){unscorable}; "
        "a distance needs at least 2 distinct descriptions, so sample more per input")


def _encoder_loss(cond: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(log p_hat, loss)`` from ``cond[i] = log p(h|x_i)``: p_hat is the
    equal mixture of the two conditionals, and ``loss[i] = log p_hat - cond[i]``."""
    log_phat = np.logaddexp(cond[0], cond[1]) - math.log(2.0)
    return log_phat, log_phat - cond


def _fetch(pairs, backend, config: CompareConfig) -> list[tuple]:
    """``build_batch``'s backend traffic for every ``(x1, x2)`` in ``pairs``, in
    one ``sample_many`` and one ``score_many`` call. Per pair: the draw count,
    the distinct draws (key -> [first draw, count], first-seen order) and their
    ``log p(h|x_i)`` rows; fewer than 2 distinct draws raise before rescoring."""
    sides = backend.sample_many(
        [(str(x), _rank_seed(config.seed, rank))
         for pair in pairs for rank, x in enumerate(_canonical_order(*pair))],
        config.samples_per_input, max_tokens=config.max_tokens,
        temperature=config.temperature, prompt=config.prompt)
    fetched = []
    for draws in ([*a, *b] for a, b in zip(sides[::2], sides[1::2])):
        merged: dict[tuple, list] = {}
        for s in draws:
            merged.setdefault((s.text, s.terminated), [s, 0])[1] += 1
        if len(merged) < 2:
            raise _too_few_descriptions(len(draws), len(merged))
        fetched.append((len(draws), merged))
    totals = (r.total for r in backend.score_many(
        [(str(x), s.text, s.terminated) for pair, (_, merged) in zip(pairs, fetched)
         for x in pair for s, _ in merged.values()],
        prompt=config.prompt))
    return [(n, merged, np.fromiter(totals, float, 2 * len(merged)).reshape(2, -1))
            for n, merged in fetched]


def build_batch(x1, x2, backend, config: CompareConfig | None = None) -> ScoredBatch:
    """Sample the proposal mixture and score every pooled hypothesis.

    Draws ``samples_per_input`` descriptions from each conditional; the
    pooled set is ordered (first-canonical draws, second-canonical draws)
    so the batch is invariant under swapping the inputs up to exchanging
    the two loss rows. Duplicate descriptions merge into one hypothesis
    carrying their draw multiplicity, rescored under both inputs, with the
    encoder-only loss. A hypothesis with a non-finite score would poison
    every softmax, so it is dropped with a warning and counted in
    ``dropped``; fewer than 2 distinct descriptions raise
    :class:`InvalidBatchError`. The backend traffic is :func:`_fetch`'s for
    the one pair, and under ``lm_code`` one more ``score_many`` call for the
    code scores of the distinct descriptions. Every draw, an empty one
    included, is scored from its text and ``terminated`` flag alone; how a
    text splits into tokens and how a terminated draw's end is scored are
    the backend's rules.
    """
    config = config or CompareConfig()
    n_draws, merged, cond = _fetch([(x1, x2)], backend, config)[0]
    unique = [s for s, _ in merged.values()]
    log_pi, loss = _encoder_loss(cond)
    if config.pcode_mode == "proposal_mix":
        log_pcode = log_pi
    else:
        log_pcode = np.array([r.total for r in backend.score_many(
            [(None, s.text, s.terminated) for s in unique], prompt=config.prompt)])

    keep = np.isfinite(loss).all(axis=0) & np.isfinite(log_pcode) & np.isfinite(log_pi)
    dropped = int((~keep).sum())
    if dropped:
        warnings.warn(f"dropping {dropped} hypotheses with non-finite scores")
        if keep.sum() < 2:
            raise _too_few_descriptions(n_draws, len(merged), dropped)
    return ScoredBatch(
        texts=[s.text for s, k in zip(unique, keep) if k],
        log_pcode=log_pcode[keep],
        log_proposal=log_pi[keep],
        loss=loss[:, keep],
        counts=np.array([n for _, n in merged.values()], dtype=float)[keep],
        log_conditionals=cond[:, keep],
        dropped=dropped,
    )


def _ess(weights: np.ndarray, counts: np.ndarray) -> float:
    return float(1.0 / np.sum(weights**2 / counts))


def effective_sample_size(batch: ScoredBatch, lam: float, target: int) -> float:
    """1 / sum of squared per-draw weights; low values flag degeneracy."""
    return _ess(gibbs_weights(batch, lam, target), batch.counts)


def _rank_explanations(batch: ScoredBatch, w0: np.ndarray, w1: np.ndarray):
    mix = 0.5 * (w0 + w1)
    texts = batch.texts

    def ranked(values):
        order = sorted(range(len(texts)), key=lambda j: (-values[j], texts[j]))
        return [(texts[j], float(values[j])) for j in order]

    return ranked(mix), (ranked(w0 - mix), ranked(w1 - mix))


def explain(batch: ScoredBatch, lam: float):
    """Shared and distinctive description rankings at one lambda.

    Shared list ranks by the equal-mixture weight; each distinctive list
    ranks by that sample's weight excess over the mixture.
    """
    _check_lambda(lam)
    return _rank_explanations(batch, gibbs_weights(batch, lam, 0),
                              gibbs_weights(batch, lam, 1))


def compare(x1, x2, backend, config: CompareConfig | None = None) -> DistanceReport:
    """Full conceptual-distance comparison of two items.

    Either item may be any context the backend can condition on, e.g. an
    image id known to a multimodal server or a fixture table.
    """
    config = config or CompareConfig()
    batch = build_batch(x1, x2, backend, config)
    grid = config.grid()
    # the weights at the grid ends (ESS) and at EXPLAIN_LAMBDA ride after the
    # grid in the curve's kernel call; rows equal gibbs_weights at each point
    points = np.array([grid[0], EXPLAIN_LAMBDA, grid[-1]])
    trace = _gibbs_trace(batch, np.concatenate((grid, points)), keep_weights=points.size)
    curve = _curve(trace, grid, config.c_max)
    shared, distinctive = _rank_explanations(batch, *trace.weights[:, 1])
    diagnostics = {
        "dropped_hypotheses": batch.dropped,
        "n_hypotheses": batch.n_hypotheses,
        "ess": {
            "lambda_min": [_ess(w[0], batch.counts) for w in trace.weights],
            "lambda_max": [_ess(w[-1], batch.counts) for w in trace.weights],
        },
        "explain_lambda": EXPLAIN_LAMBDA,
    }
    ess_floor = min(
        min(diagnostics["ess"]["lambda_min"]), min(diagnostics["ess"]["lambda_max"])
    )
    if ess_floor < ESS_WARN:
        diagnostics["ess_warning"] = (
            f"effective sample size {ess_floor:.2f} < {ESS_WARN}; "
            "estimates may be unreliable"
        )
    return DistanceReport(
        curve=curve,
        auc=curve.auc,
        shared_descriptions=shared,
        distinctive_descriptions=distinctive,
        diagnostics=diagnostics,
    )
