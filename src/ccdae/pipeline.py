"""End-to-end pair comparison.

Samples descriptions from both inputs, scores every pooled hypothesis
under both, assembles a :class:`~ccdae.core.ScoredBatch`, runs the
distance-curve math, and extracts shared/distinctive explanations.

Losses default to encoder-only mode: the reconstruction loss is the log
ratio log p_hat(h) - log p(h|x_i) with p_hat the equal mixture of the two
conditionals; no unconditional data likelihood ever enters the data model.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DistanceCurve,
    Hypothesis,
    InvalidBatchError,
    ScoredBatch,
    default_lambda_grid,
    distance_curve,
    gibbs_weights,
)

__all__ = [
    "CompareConfig",
    "DistanceReport",
    "build_batch",
    "compare",
    "cross_modal_compare",
    "explain",
    "effective_sample_size",
]

#: Weight-concentration warning threshold for the ESS diagnostic.
ESS_WARN = 5.0


@dataclass(frozen=True)
class CompareConfig:
    samples_per_input: int = 20
    max_tokens: int = 20
    temperature: float = 1.0
    seed: int = 0
    pcode_mode: str = "proposal_mix"  # proposal_mix | lm_code
    loss_mode: str = "encoder_only"  # encoder_only | generative
    lambda_grid: tuple[float, ...] | None = None
    capacity_grid_size: int = 100
    c_max: float | None = None
    prompt: str | None = None
    explain_lambda: float = 1.0

    def __post_init__(self) -> None:
        if self.samples_per_input < 1 or self.max_tokens < 1:
            raise ValueError("counts must be >= 1")
        if self.pcode_mode not in ("proposal_mix", "lm_code"):
            raise ValueError(f"unknown pcode_mode {self.pcode_mode!r}")
        if self.loss_mode not in ("encoder_only", "generative"):
            raise ValueError(f"unknown loss_mode {self.loss_mode!r}")

    def grid(self) -> np.ndarray:
        if self.lambda_grid is None:
            return default_lambda_grid()
        return np.asarray(self.lambda_grid, dtype=float)


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
        return x1, x2, False
    return x2, x1, True


def build_batch(x1, x2, backend, config: CompareConfig | None = None) -> ScoredBatch:
    """Sample the proposal mixture and score every pooled hypothesis.

    Draws ``samples_per_input`` descriptions from each conditional; the
    pooled set is ordered (first-canonical draws, second-canonical draws)
    so the batch is invariant under swapping the inputs up to exchanging
    the two loss rows. Duplicate descriptions merge into one hypothesis
    carrying their draw multiplicity.
    """
    config = config or CompareConfig()
    xa, xb, _ = _canonical_order(x1, x2)
    draws = []
    for rank, x in enumerate((xa, xb)):
        seed = np.random.default_rng([config.seed, rank]).integers(2**31)
        draws.extend(
            backend.sample_descriptions(
                str(x),
                config.samples_per_input,
                max_tokens=config.max_tokens,
                temperature=config.temperature,
                seed=int(seed),
                prompt=config.prompt,
            )
        )

    # merge duplicates, keeping first-seen order
    merged: dict[tuple, int] = {}
    samples = {}
    for s in draws:
        key = (s.text, s.tokens, s.terminated)
        merged[key] = merged.get(key, 0) + 1
        samples[key] = s

    hypotheses: list[Hypothesis] = []
    counts = []
    cond = [[], []]
    for key, mult in merged.items():
        s = samples[key]
        la = backend.score_tokens(str(x1), s.tokens, s.terminated,
                                  prompt=config.prompt).total
        lb = backend.score_tokens(str(x2), s.tokens, s.terminated,
                                  prompt=config.prompt).total
        log_pi = float(np.logaddexp(la, lb)) - math.log(2.0)
        if config.pcode_mode == "proposal_mix":
            log_pcode = log_pi
        else:
            log_pcode = backend.code_logprob(s.text or "".join(s.tokens)).total
        hypotheses.append(
            Hypothesis(
                tokens=s.tokens,
                text=s.text,
                log_pcode=log_pcode,
                log_proposal=log_pi,
                terminated=s.terminated,
            )
        )
        counts.append(mult)
        cond[0].append(la)
        cond[1].append(lb)

    cond = np.array(cond)
    if config.loss_mode == "encoder_only":
        log_phat = np.logaddexp(cond[0], cond[1]) - math.log(2.0)
        loss = log_phat[None, :] - cond
    else:
        loss = np.empty_like(cond)
        for j, h in enumerate(hypotheses):
            loss[0, j] = -backend.cond_logprob(h.text, str(x1)).total
            loss[1, j] = -backend.cond_logprob(h.text, str(x2)).total

    return ScoredBatch.from_columns(
        hypotheses,
        loss,
        mode=config.loss_mode,
        counts=np.array(counts, dtype=float),
        log_conditionals=cond,
    )


def effective_sample_size(batch: ScoredBatch, lam: float, target: int) -> float:
    """1 / sum of squared per-draw weights; low values flag degeneracy."""
    alpha = gibbs_weights(batch, lam, target)
    return float(1.0 / np.sum(alpha**2 / batch.counts))


def explain(batch: ScoredBatch, lam: float):
    """Shared and distinctive description rankings at one lambda.

    Shared list ranks by the equal-mixture weight; each distinctive list
    ranks by that sample's weight excess over the mixture.
    """
    if lam < 0:
        raise InvalidBatchError("lambda must be nonnegative")
    w0 = gibbs_weights(batch, lam, 0)
    w1 = gibbs_weights(batch, lam, 1)
    mix = 0.5 * (w0 + w1)
    texts = [h.text for h in batch.hypotheses]

    def ranked(values):
        order = sorted(range(len(texts)), key=lambda j: (-values[j], texts[j]))
        return [(texts[j], float(values[j])) for j in order]

    return ranked(mix), (ranked(w0 - mix), ranked(w1 - mix))


def compare(x1, x2, backend, config: CompareConfig | None = None) -> DistanceReport:
    """Full conceptual-distance comparison of two items."""
    config = config or CompareConfig()
    batch = build_batch(x1, x2, backend, config)
    curve = distance_curve(
        batch,
        lambda_grid=config.grid(),
        capacity_grid_size=config.capacity_grid_size,
        c_max=config.c_max,
    )
    shared, distinctive = explain(batch, config.explain_lambda)
    grid = config.grid()
    diagnostics = {
        "dropped_hypotheses": batch.dropped,
        "n_hypotheses": batch.n_hypotheses,
        "ess": {
            "lambda_min": [
                effective_sample_size(batch, float(grid[0]), i) for i in (0, 1)
            ],
            "lambda_max": [
                effective_sample_size(batch, float(grid[-1]), i) for i in (0, 1)
            ],
        },
        "explain_lambda": config.explain_lambda,
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


def cross_modal_compare(
    x_text, x_other, backend, config: CompareConfig | None = None
) -> DistanceReport:
    """Compare items of different kinds through a shared description space.

    Identical algorithm to :func:`compare`; the second context may be any
    reference the backend can condition on (e.g. an image id known to a
    remote multimodal server or a fixture table).
    """
    return compare(x_text, x_other, backend, config)
