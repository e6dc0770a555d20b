"""Benchmark harness: dataset loading, scoring loops, and metrics."""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import baselines, pipeline
from .backends import BackendError
from .core import _csv_text, _is_real

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


def _load_tsv(path, kind: str, parse) -> LoadReport:
    """Records from a tab-separated UTF-8 file, one per nonblank line.

    ``parse(cols, lineno, index)`` turns a line's columns into a record
    (``index`` counts the records kept so far), returns ``None`` for a
    header line, or raises ``ValueError`` with the reason the line is
    skipped. Skipped lines are reported with their line numbers.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise BenchError(f"{path}: not UTF-8 text: {exc}") from exc
    report = LoadReport(records=[])
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = parse(line.split("\t"), lineno, len(report.records))
        except ValueError as exc:
            report.skipped.append((lineno, str(exc)))
            continue
        if record is not None:
            report.records.append(record)
    if not report.records:
        raise BenchError(f"{path}: no valid {kind} records")
    return report


def _pair_record(cols: list[str], lineno: int, index: int) -> PairRecord | None:
    if len(cols) not in (3, 4):
        raise ValueError("expected 3 or 4 tab-separated columns")
    try:
        score = float(cols[-1])
    except ValueError:
        if lineno == 1:
            return None  # header
        raise ValueError("non-numeric score") from None
    if not math.isfinite(score):
        raise ValueError("non-finite score")
    rid, a, b = cols[:3] if len(cols) == 4 else (str(index), *cols[:2])
    return PairRecord(id=rid, text_a=a, text_b=b, human_score=score)


def _choice_record(cols: list[str], lineno: int, index: int) -> ChoiceRecord | None:
    if len(cols) != 4:
        raise ValueError("expected 4 tab-separated columns")
    if lineno == 1 and cols[0].lower() in ("id", "#id"):
        return None  # header
    return ChoiceRecord(*cols)


def load_pairs(path) -> LoadReport:
    """Tab-separated pairs: [id]\\ttext_a\\ttext_b\\tscore, UTF-8.

    An optional header line is detected by a non-numeric final column.
    Malformed lines are skipped and reported with their line numbers.
    """
    return _load_tsv(path, "pair", _pair_record)


def load_choices(path) -> LoadReport:
    """Tab-separated choice records: id\\tcontext\\tpositive\\tnegative."""
    return _load_tsv(path, "choice", _choice_record)


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


def _check_score(score: str, capacity: float | None) -> None:
    if score not in SCORE_KINDS:
        raise BenchError(f"unknown score kind {score!r}")
    if capacity is not None:
        if score != "d_at_c":
            raise BenchError(f"capacity applies only to score 'd_at_c', not {score!r}")
        if not (_is_real(capacity) and math.isfinite(capacity) and capacity >= 0):
            raise BenchError(f"capacity must be finite and >= 0, got {capacity!r}")


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
    ``capacity``, finite and >= 0, applies to d_at_c only.
    """
    _check_score(score, capacity)
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
        return _csv_text(
            ["id", "score", "human"],
            ([row["id"], f"{row['score']:.12g}",
              "" if row.get("human") is None else f"{row['human']:.12g}"]
             for row in self.per_record))


class _Reuse:
    """A backend whose ``sample_many``, ``score_many`` and ``code_logprob``
    answer each distinct request once, for one run of the benchmark loops.

    A draw's seed depends only on the config seed and the input's canonical
    rank, so an input paired with many others asks for the same draws and
    the same rescores again and again. A batched call passes on only the
    distinct requests it has not stored, in one batched call to the wrapped
    backend, so no two requests in flight are the same. Entries are kept
    per context, only for the inputs in ``last_use`` (input -> index of the
    last record that uses it); ``done(i, inputs)`` drops those whose last
    record is ``i``. Only results are stored: a batch that raises stores
    nothing, so the next record asks for it again. The choice loop fetches
    a record's two pairs in one call of each kind, so their batches are
    then built from the memo. Code scores have no context, so they are kept
    for the whole run, by ``(description, terminated)``; a call that raises
    stores nothing. Every other call, single ones among them, is the
    wrapped backend's, looked up at each call.
    """

    def __init__(self, backend, last_use: dict[str, int]):
        self._backend = backend
        self._last_use = last_use
        self._memo: dict[str, dict[tuple, object]] = {}
        self._codes: dict[tuple[str, bool], object] = {}

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

    def code_logprob(self, description, terminated=True):
        key = (description, terminated)
        if key not in self._codes:
            self._codes[key] = self._backend.code_logprob(description,
                                                          terminated=terminated)
        return self._codes[key]

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
    most 10 tokens per input. Ties count as half a hit. A record's two pairs
    share one fan-out of draws and one of rescores (5 round trips, not 6-7).
    """
    config = config or pipeline.CompareConfig(**CHOICE_DEFAULTS)
    _check_score(score, capacity)

    def score_record(rec: ChoiceRecord, backend) -> dict:
        pairs = [(rec.context, rec.positive), (rec.context, rec.negative)]
        if score != "cond_lik":
            # rebuilding both batches from the memo costs ~0.3 ms of CPU,
            # against ~100 ms of waiting, and keeps one pair_score per pair
            pipeline._fetch(pairs, backend, config)
        s_pos, s_neg = (pair_score(*pair, backend, config, score, capacity)
                        for pair in pairs)
        hit = 1.0 if s_pos > s_neg else 0.5 if s_pos == s_neg else 0.0
        return {"id": rec.id, "score": s_pos - s_neg, "human": None, "hit": hit}

    def metric(rows: list[dict]) -> float:
        return sum(r["hit"] for r in rows) / len(rows)

    return _run_bench(records, backend, lambda r: (r.context, r.positive, r.negative),
                      score_record, "accuracy", metric, config, score, backend_id)
