"""Benchmark harness: dataset loading, scoring loops, and metrics."""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import baselines, pipeline
from .backends import BackendError

__all__ = [
    "PairRecord",
    "ChoiceRecord",
    "LoadReport",
    "BenchError",
    "load_pairs",
    "load_choices",
    "spearman",
    "pair_score",
    "run_similarity_bench",
    "run_choice_bench",
]

#: Runs abort when more than this fraction of records fails to score.
FAILURE_BUDGET = 0.10

SCORE_KINDS = ("auc", "d_at_c", "traj", "cond_lik")

#: The ``CompareConfig`` fields a report echoes.
_ECHOED_CONFIG = ("samples_per_input", "max_tokens", "temperature", "seed",
                  "pcode_mode", "loss_mode")


class BenchError(RuntimeError):
    pass


@dataclass(frozen=True)
class PairRecord:
    id: str
    text_a: str
    text_b: str
    human_score: float


@dataclass(frozen=True)
class ChoiceRecord:
    id: str
    context: str
    positive: str
    negative: str

    def __post_init__(self) -> None:
        if self.positive == self.negative:
            raise ValueError("positive and negative must differ")


@dataclass
class LoadReport:
    records: list
    skipped: list[tuple[int, str]] = field(default_factory=list)


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def load_pairs(path) -> LoadReport:
    """Tab-separated pairs: [id]\\ttext_a\\ttext_b\\tscore, UTF-8.

    An optional header line is detected by a non-numeric final column.
    Malformed lines are skipped and reported with their line numbers.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    records: list[PairRecord] = []
    skipped: list[tuple[int, str]] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) not in (3, 4):
            skipped.append((lineno, "expected 3 or 4 tab-separated columns"))
            continue
        if not _is_number(cols[-1]):
            if lineno == 1:
                continue  # header
            skipped.append((lineno, "non-numeric score"))
            continue
        score = float(cols[-1])
        if not math.isfinite(score):
            skipped.append((lineno, "non-finite score"))
            continue
        if len(cols) == 4:
            rid, a, b = cols[0], cols[1], cols[2]
        else:
            rid, a, b = str(len(records)), cols[0], cols[1]
        records.append(PairRecord(id=rid, text_a=a, text_b=b, human_score=score))
    if not records:
        raise BenchError(f"{path}: no valid pair records")
    return LoadReport(records=records, skipped=skipped)


def load_choices(path) -> LoadReport:
    """Tab-separated choice records: id\\tcontext\\tpositive\\tnegative."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    records: list[ChoiceRecord] = []
    skipped: list[tuple[int, str]] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 4:
            skipped.append((lineno, "expected 4 tab-separated columns"))
            continue
        if lineno == 1 and cols[0].lower() in ("id", "#id"):
            continue
        try:
            records.append(ChoiceRecord(*cols))
        except ValueError as exc:
            skipped.append((lineno, str(exc)))
    if not records:
        raise BenchError(f"{path}: no valid choice records")
    return LoadReport(records=records, skipped=skipped)


def spearman(xs, ys) -> float:
    """Spearman rank correlation with average ranks for ties."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.size < 2:
        raise BenchError("need two equal-length sequences of length >= 2")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise BenchError("correlation undefined for non-finite input")
    if np.all(xs == xs[0]) or np.all(ys == ys[0]):
        raise BenchError("correlation undefined for constant input")
    # [1, 0], not [0, 1]: the two can differ by an ulp, and the reference
    # Spearman in the tests returns this one.
    return float(np.corrcoef(_average_ranks(xs), _average_ranks(ys))[1, 0])


def _average_ranks(xs: np.ndarray) -> np.ndarray:
    """1-based ranks, tied values sharing the mean of their ranks."""
    _, inverse, counts = np.unique(xs, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - 0.5 * (counts - 1))[inverse]


def pair_score(
    x1: str,
    x2: str,
    backend,
    config: pipeline.CompareConfig,
    score: str = "auc",
    capacity: float | None = None,
) -> float:
    """One similarity-oriented score for a pair (higher = more similar).

    Distance-valued scores (auc, d_at_c, traj) are negated so every score
    kind shares the similarity convention.
    """
    if score not in SCORE_KINDS:
        raise BenchError(f"unknown score kind {score!r}")
    if score == "cond_lik":
        return baselines.cond_likelihood_score(x1, x2, backend)
    if score == "traj":
        batch = pipeline.build_batch(x1, x2, backend, config)
        return -baselines.trajectory_distance(batch)
    report = pipeline.compare(x1, x2, backend, config)
    if score == "auc":
        return -report.auc
    c = report.curve
    cap = c.c_max if capacity is None else min(capacity, c.c_max)
    return -float(np.interp(cap, c.capacity_grid, c.distance))


@dataclass
class BenchReport:
    metric_name: str
    metric: float
    per_record: list[dict]
    failures: list[dict]
    config: dict
    backend_id: str
    wall_clock_s: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "score", "human"])
        for row in self.per_record:
            writer.writerow(
                [row["id"], f"{row['score']:.12g}",
                 "" if row.get("human") is None else f"{row['human']:.12g}"]
            )
        return buf.getvalue()


def _run_bench(records, score_record, metric_name, metric, config, score,
               backend_id) -> BenchReport:
    """Score every record and summarize the scored rows with ``metric``.

    A record whose backend call or data fails is listed in ``failures``;
    more than ``FAILURE_BUDGET`` of them abort the run.
    """
    if not records:
        raise BenchError("no records")
    t0 = time.perf_counter()
    per_record = []
    failures = []
    for rec in records:
        try:
            per_record.append(score_record(rec))
        except (BackendError, ValueError) as exc:  # flaky backends, bad records
            failures.append({"id": rec.id, "error": str(exc)})
    if len(failures) > FAILURE_BUDGET * len(records):
        raise BenchError(
            f"{len(failures)}/{len(records)} records failed; exceeding the "
            f"{FAILURE_BUDGET:.0%} failure budget"
        )
    return BenchReport(
        metric_name=metric_name,
        metric=metric(per_record),
        per_record=per_record,
        failures=failures,
        config={**{k: getattr(config, k) for k in _ECHOED_CONFIG}, "score": score},
        backend_id=backend_id,
        wall_clock_s=time.perf_counter() - t0,
    )


def run_similarity_bench(
    records: list[PairRecord],
    backend,
    config: pipeline.CompareConfig | None = None,
    score: str = "auc",
    capacity: float | None = None,
    backend_id: str = "?",
) -> BenchReport:
    """Spearman correlation (x100) of pair scores against human scores."""
    config = config or pipeline.CompareConfig()

    def score_record(rec: PairRecord) -> dict:
        s = pair_score(rec.text_a, rec.text_b, backend, config, score, capacity)
        return {"id": rec.id, "score": s, "human": rec.human_score}

    def metric(rows: list[dict]) -> float:
        return 100.0 * spearman([r["score"] for r in rows], [r["human"] for r in rows])

    return _run_bench(records, score_record, "spearman_x100", metric, config, score,
                      backend_id)


def run_choice_bench(
    records: list[ChoiceRecord],
    backend,
    config: pipeline.CompareConfig | None = None,
    score: str = "auc",
    capacity: float | None = None,
    backend_id: str = "?",
) -> BenchReport:
    """Binary-choice accuracy: does the positive look more similar?

    Choice mode defaults to 10 samples of at most 10 tokens per input.
    Ties count as half a hit.
    """
    if config is None:
        config = pipeline.CompareConfig(samples_per_input=10, max_tokens=10)

    def score_record(rec: ChoiceRecord) -> dict:
        s_pos = pair_score(rec.context, rec.positive, backend, config, score, capacity)
        s_neg = pair_score(rec.context, rec.negative, backend, config, score, capacity)
        hit = 1.0 if s_pos > s_neg else 0.5 if s_pos == s_neg else 0.0
        return {"id": rec.id, "score": s_pos - s_neg, "human": None, "hit": hit}

    def metric(rows: list[dict]) -> float:
        return sum(r["hit"] for r in rows) / len(rows)

    return _run_bench(records, score_record, "accuracy", metric, config, score,
                      backend_id)
