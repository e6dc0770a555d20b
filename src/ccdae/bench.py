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

#: The ``CompareConfig`` fields choice mode sets unless told otherwise.
CHOICE_DEFAULTS = {"samples_per_input": 10, "max_tokens": 10}

#: The ``CompareConfig`` fields a report echoes.
_ECHOED_CONFIG = ("samples_per_input", "max_tokens", "temperature", "seed",
                  "pcode_mode")


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
    kind shares the similarity convention. The sampled kinds score one
    ``build_batch``; auc and d_at_c trace it as ``pipeline.compare`` does,
    without the explanations and diagnostics that only a report shows.
    """
    if score not in SCORE_KINDS:
        raise BenchError(f"unknown score kind {score!r}")
    if score == "cond_lik":
        return baselines.cond_likelihood_score(x1, x2, backend)
    batch = pipeline.build_batch(x1, x2, backend, config)
    if score == "traj":
        return -baselines.trajectory_distance(batch)
    # called through the module, the one name that traces and tests patch
    c = pipeline.distance_curve(batch, lambda_grid=config.grid(), c_max=config.c_max)
    if score == "auc":
        return -c.auc
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


class _Reuse:
    """A backend whose ``sample_many`` and ``score_many`` answer each
    distinct request once, for one run of the benchmark loops.

    A draw's seed depends only on the config seed and the input's canonical
    rank, so an input paired with many others asks for the same draws and
    the same rescores again and again. A batched call passes on only the
    distinct requests it has not stored, in one batched call to the wrapped
    backend, so no two requests in flight are the same. Entries are kept
    per context, only for the inputs in ``last_use`` (input -> index of the
    last record that uses it); ``done(i, inputs)`` drops those whose last
    record is ``i``. Only results are stored: a batch that raises stores
    nothing, so the next record asks for it again. Every other call, the
    single ones among them, is the wrapped backend's, looked up on the
    instance at each call.
    """

    def __init__(self, backend, last_use: dict[str, int]):
        self._backend = backend
        self._last_use = last_use
        self._memo: dict[str, dict[tuple, object]] = {}

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def _many(self, keys, requests, call) -> list:
        """The answers to ``requests``, one per key in ``keys`` (a key starts
        with its context); ``call(misses)`` answers the distinct ones not
        stored."""
        answers, misses = {}, {}
        for key, request in zip(keys, requests):
            stored = self._memo.get(key[0])
            if stored is not None and key in stored:
                answers[key] = stored[key]
            else:
                misses.setdefault(key, request)
        if misses:
            for key, result in zip(misses, call(list(misses.values()))):
                answers[key] = result
                if key[0] in self._last_use:
                    self._memo.setdefault(key[0], {})[key] = result
        return [answers[key] for key in keys]

    def sample_many(self, requests, count, *, max_tokens, temperature, prompt):
        draws = self._many(
            [(context, "sample", count, max_tokens, temperature, seed, prompt)
             for context, seed in requests],
            requests,
            lambda misses: self._backend.sample_many(
                misses, count, max_tokens=max_tokens, temperature=temperature,
                prompt=prompt))
        return [list(d) for d in draws]

    def score_many(self, requests, *, prompt):
        return self._many(
            [(context, "score", tuple(tokens), terminated, prompt)
             for context, tokens, terminated in requests],
            requests,
            lambda misses: self._backend.score_many(misses, prompt=prompt))

    def done(self, index: int, inputs) -> None:
        for x in inputs:
            if self._last_use.get(x) == index:
                del self._last_use[x]
                self._memo.pop(x, None)


def _run_bench(records, backend, inputs, score_record, metric_name, metric, config,
               score, backend_id) -> BenchReport:
    """Score every record and summarize the scored rows with ``metric``.

    ``score_record(rec, backend)`` scores one record; ``inputs(rec)`` names
    the texts it compares. The backend is wrapped in ``_Reuse`` for the run.
    A record whose backend call or data fails is listed in ``failures``;
    more than ``FAILURE_BUDGET`` of them abort the run.
    """
    if not records:
        raise BenchError("no records")
    t0 = time.perf_counter()
    uses = [inputs(rec) for rec in records]
    reuse = _Reuse(backend, {x: i for i, xs in enumerate(uses) for x in xs})
    per_record = []
    failures = []
    for i, rec in enumerate(records):
        try:
            per_record.append(score_record(rec, reuse))
        except (BackendError, ValueError) as exc:  # flaky backends, bad records
            failures.append({"id": rec.id, "error": str(exc)})
        reuse.done(i, uses[i])
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
    if len(records) < 2:
        raise BenchError(f"Spearman needs at least two pairs, got {len(records)}")
    config = config or pipeline.CompareConfig()

    def score_record(rec: PairRecord, backend) -> dict:
        s = pair_score(rec.text_a, rec.text_b, backend, config, score, capacity)
        return {"id": rec.id, "score": s, "human": rec.human_score}

    def metric(rows: list[dict]) -> float:
        return 100.0 * spearman([r["score"] for r in rows], [r["human"] for r in rows])

    return _run_bench(records, backend, lambda r: (r.text_a, r.text_b), score_record,
                      "spearman_x100", metric, config, score, backend_id)


def run_choice_bench(
    records: list[ChoiceRecord],
    backend,
    config: pipeline.CompareConfig | None = None,
    score: str = "auc",
    capacity: float | None = None,
    backend_id: str = "?",
) -> BenchReport:
    """Binary-choice accuracy: does the positive look more similar?

    Without a config, choice mode uses ``CHOICE_DEFAULTS``: 10 samples of at
    most 10 tokens per input. Ties count as half a hit.
    """
    config = config or pipeline.CompareConfig(**CHOICE_DEFAULTS)

    def score_record(rec: ChoiceRecord, backend) -> dict:
        s_pos = pair_score(rec.context, rec.positive, backend, config, score, capacity)
        s_neg = pair_score(rec.context, rec.negative, backend, config, score, capacity)
        hit = 1.0 if s_pos > s_neg else 0.5 if s_pos == s_neg else 0.0
        return {"id": rec.id, "score": s_pos - s_neg, "human": None, "hit": hit}

    def metric(rows: list[dict]) -> float:
        return sum(r["hit"] for r in rows) / len(rows)

    return _run_bench(records, backend, lambda r: (r.context, r.positive, r.negative),
                      score_record, "accuracy", metric, config, score, backend_id)
