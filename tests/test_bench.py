import hashlib
import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest
from conftest import ServingSession
from scipy import stats

from ccdae import bench, pipeline
from ccdae.backends import (
    Backend,
    BackendError,
    LogProbResult,
    RemoteBackend,
    SampledDescription,
)
from ccdae.bench import BenchError, ChoiceRecord, PairRecord


# ---------------------------------------------------------------------------
# loaders


def test_load_pairs_well_formed(tmp_path):
    path = tmp_path / "p.tsv"
    path.write_text("a\tb\t1.0\nc\td\t2.0\n")
    rep = bench.load_pairs(path)
    assert len(rep.records) == 2
    assert rep.records[0] == PairRecord(id="0", text_a="a", text_b="b",
                                        human_score=1.0)
    assert not rep.skipped


def test_load_pairs_header_and_ids(tmp_path):
    path = tmp_path / "p.tsv"
    path.write_text("id\ttext_a\ttext_b\tscore\nr1\ta\tb\t3.5\n")
    rep = bench.load_pairs(path)
    assert len(rep.records) == 1
    assert rep.records[0].id == "r1"


def test_load_pairs_skips_malformed(tmp_path):
    path = tmp_path / "p.tsv"
    path.write_text("a\tb\t1.0\nbroken line\na\tb\tNOTNUM\na\tb\tnan\n")
    rep = bench.load_pairs(path)
    assert len(rep.records) == 1
    assert [line for line, _ in rep.skipped] == [2, 3, 4]


def test_load_pairs_crlf(tmp_path):
    lf = tmp_path / "lf.tsv"
    crlf = tmp_path / "crlf.tsv"
    lf.write_text("a\tb\t1.0\nc\td\t2.0\n")
    crlf.write_bytes(b"a\tb\t1.0\r\nc\td\t2.0\r\n")
    assert bench.load_pairs(lf).records == bench.load_pairs(crlf).records


def test_load_pairs_zero_records(tmp_path):
    path = tmp_path / "p.tsv"
    path.write_text("just a header line\n")
    with pytest.raises(BenchError):
        bench.load_pairs(path)


def test_load_choices(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("id\tcontext\tpositive\tnegative\nr1\tx\tp\tn\nr2\tx\tsame\tsame\n")
    rep = bench.load_choices(path)
    assert len(rep.records) == 1
    assert rep.skipped[0][0] == 3


def test_choice_record_validation():
    with pytest.raises(ValueError):
        ChoiceRecord(id="x", context="c", positive="p", negative="p")


# ---------------------------------------------------------------------------
# spearman


def test_spearman_hand_values():
    assert bench.spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
    assert bench.spearman([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)
    assert bench.spearman([1, 2, 2, 3], [1, 2, 3, 4]) == pytest.approx(
        0.9487, abs=1e-4
    )


def test_spearman_errors():
    with pytest.raises(BenchError):
        bench.spearman([1.0, 1.0, 1.0], [1, 2, 3])
    with pytest.raises(BenchError):
        bench.spearman([1.0], [1.0])
    with pytest.raises(BenchError):
        bench.spearman([1, 2], [1, 2, 3])
    # a NaN would otherwise give nan, or rank as a tie and give a wrong number
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(BenchError, match="non-finite"):
            bench.spearman([1, 2, bad, 4], [1, 2, 3, 4])
        with pytest.raises(BenchError, match="non-finite"):
            bench.spearman([1, 2, 3, 4], [bad, 2, 3, 4])


@pytest.mark.parametrize("ties", [False, True], ids=["untied", "tied"])
def test_spearman_equals_scipy_bit_for_bit(ties):
    rng = np.random.default_rng(int(ties))
    for _ in range(500):
        n = int(rng.integers(3, 60))
        xs, ys = rng.normal(size=n), rng.normal(size=n)
        if ties:
            xs, ys = np.round(2 * xs), np.round(3 * ys)
            if np.all(xs == xs[0]) or np.all(ys == ys[0]):
                continue
        assert bench.spearman(xs, ys) == stats.spearmanr(xs, ys).statistic


def test_spearman_monotone_transform_invariance():
    xs = [0.3, 1.2, -0.7, 4.0, 2.2]
    ys = [10, 4, 7, 1, 2]
    base = bench.spearman(xs, ys)
    assert bench.spearman(np.exp(xs), ys) == pytest.approx(base, abs=1e-12)
    assert bench.spearman([3 * x + 1 for x in xs], ys) == pytest.approx(
        base, abs=1e-12
    )


# ---------------------------------------------------------------------------
# scoring runs


@pytest.fixture(scope="module")
def quick_config():
    return pipeline.CompareConfig(samples_per_input=10, max_tokens=10)


def test_pair_score_kinds(ngram_backend, quick_config):
    for kind in bench.SCORE_KINDS:
        s = bench.pair_score("rain", "iron", ngram_backend, quick_config,
                             score=kind)
        assert np.isfinite(s)
    with pytest.raises(BenchError):
        bench.pair_score("rain", "iron", ngram_backend, quick_config,
                         score="bogus")


@pytest.mark.parametrize("score, capacity, error", [
    ("d_at_c", -1.0, "^capacity must be finite and >= 0, got -1.0$"),
    ("d_at_c", float("nan"), "^capacity must be finite and >= 0, got nan$"),
    ("d_at_c", float("inf"), "^capacity must be finite and >= 0, got inf$"),
    ("auc", 0.5, "^capacity applies only to score 'd_at_c', not 'auc'$"),
    ("traj", 0.5, "^capacity applies only to score 'd_at_c', not 'traj'$"),
    ("cond_lik", 0.0, "^capacity applies only to score 'd_at_c', not 'cond_lik'$"),
], ids=["negative", "nan", "inf", "auc", "traj", "cond_lik"])
def test_pair_score_refuses_a_capacity_it_cannot_use(quick_config, score, capacity,
                                                     error):
    # refused before any backend call (this backend has none), and the
    # benchmark run fails as a whole rather than record by record
    records = [PairRecord(id=str(n), text_a="rain", text_b=b, human_score=n)
               for n, b in enumerate(("iron", "dust"))]
    with pytest.raises(BenchError, match=error):
        bench.pair_score("rain", "iron", object(), quick_config, score, capacity)
    with pytest.raises(BenchError, match=error):
        bench.run_similarity_bench(records, object(), quick_config, score, capacity)
    choices = [ChoiceRecord(id="0", context="rain", positive="iron", negative="dust")]
    with pytest.raises(BenchError, match=error):
        bench.run_choice_bench(choices, object(), quick_config, score, capacity)


@pytest.mark.parametrize("capacity", [True, False, "1", [0.5]])
def test_pair_score_refuses_a_capacity_that_is_not_a_real_number(quick_config, capacity):
    # refused by name before any backend call (this backend has none)
    error = re.escape(f"capacity must be finite and >= 0, got {capacity!r}")
    with pytest.raises(BenchError, match=f"^{error}$"):
        bench.pair_score("rain", "iron", object(), quick_config, "d_at_c", capacity)


@pytest.mark.parametrize("capacity", [None, 0.5])
def test_pair_score_equals_compare_bit_for_bit(data_dir, ngram_backend, capacity):
    config = pipeline.CompareConfig(seed=0)
    for rec in bench.load_pairs(data_dir / "pairs.tsv").records:
        c = pipeline.compare(rec.text_a, rec.text_b, ngram_backend, config).curve
        cap = c.c_max if capacity is None else min(capacity, c.c_max)
        d_at_c = float(np.interp(cap, c.capacity_grid, c.distance))
        for kind, given, want in (("auc", None, c.auc), ("d_at_c", capacity, d_at_c)):
            got = bench.pair_score(rec.text_a, rec.text_b, ngram_backend, config,
                                   kind, given)
            assert got.hex() == (-want).hex(), (rec.id, kind)


def test_similarity_bench_constructed_monotone(ngram_backend, quick_config):
    contexts = ["rain", "dust", "iron"]
    records = []
    for n, other in enumerate(contexts):
        auc = -bench.pair_score("rain", other, ngram_backend, quick_config)
        records.append(PairRecord(id=str(n), text_a="rain", text_b=other,
                                  human_score=-auc))
    rep = bench.run_similarity_bench(records, ngram_backend, quick_config)
    assert rep.metric == pytest.approx(100.0)
    negated = [
        PairRecord(id=r.id, text_a=r.text_a, text_b=r.text_b,
                   human_score=-r.human_score)
        for r in records
    ]
    rep2 = bench.run_similarity_bench(negated, ngram_backend, quick_config)
    assert rep2.metric == pytest.approx(-100.0)


def test_similarity_bench_refuses_one_pair_before_scoring(monkeypatch, quick_config):
    def no_scoring(*args, **kwargs):
        raise AssertionError("a pair was scored")

    monkeypatch.setattr(bench, "pair_score", no_scoring)
    one = [PairRecord(id="r1", text_a="rain", text_b="iron", human_score=1.0)]
    for records in (one, []):
        with pytest.raises(BenchError, match="Spearman needs at least two pairs"):
            bench.run_similarity_bench(records, None, quick_config)


def test_similarity_bench_failure_budget(ngram_backend, quick_config):
    records = [
        PairRecord(id="ok", text_a="rain", text_b="iron", human_score=1.0),
        PairRecord(id="ok2", text_a="rain", text_b="dust", human_score=2.0),
        # empty description makes the backend raise
        PairRecord(id="bad", text_a="rain", text_b="", human_score=3.0),
    ]
    with pytest.raises(BenchError, match="failure budget"):
        bench.run_similarity_bench(records, ngram_backend, quick_config,
                                   score="cond_lik")


def test_bench_loops_let_program_errors_through(ngram_backend, quick_config,
                                               monkeypatch):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("bug in core")

    monkeypatch.setattr(pipeline, "distance_curve", broken)
    # two pairs: the similarity bench refuses one before it scores anything
    pairs = [PairRecord(id="0", text_a="rain", text_b="iron", human_score=1.0),
             PairRecord(id="1", text_a="rain", text_b="dust", human_score=2.0)]
    with pytest.raises(ZeroDivisionError):
        bench.run_similarity_bench(pairs, ngram_backend, quick_config)
    choices = [ChoiceRecord(id="0", context="rain", positive="dust", negative="iron")]
    with pytest.raises(ZeroDivisionError):
        bench.run_choice_bench(choices, ngram_backend, quick_config)


def test_choice_bench_positive_equals_context(ngram_backend, quick_config):
    records = [
        ChoiceRecord(id="0", context="rain", positive="rain", negative="iron"),
        ChoiceRecord(id="1", context="dust", positive="dust", negative="rain"),
    ]
    rep = bench.run_choice_bench(records, ngram_backend, quick_config)
    assert rep.metric == 1.0
    swapped = [
        ChoiceRecord(id=r.id, context=r.context, positive=r.negative,
                     negative=r.positive)
        for r in records
    ]
    rep2 = bench.run_choice_bench(swapped, ngram_backend, quick_config)
    assert rep2.metric == pytest.approx(1.0 - rep.metric)


def test_reports_reproducible(ngram_backend, quick_config):
    records = [PairRecord(id="0", text_a="rain", text_b="fern", human_score=1.0),
               PairRecord(id="1", text_a="rain", text_b="iron", human_score=0.0)]
    a = bench.run_similarity_bench(records, ngram_backend, quick_config)
    b = bench.run_similarity_bench(records, ngram_backend, quick_config)
    assert a.per_record == b.per_record
    assert a.metric == b.metric


def test_report_serialization(ngram_backend, quick_config):
    records = [PairRecord(id="0", text_a="rain", text_b="fern", human_score=1.0),
               PairRecord(id="1", text_a="rain", text_b="iron", human_score=0.0)]
    rep = bench.run_similarity_bench(records, ngram_backend, quick_config,
                                     backend_id="ngram")
    doc = rep.to_json()
    assert '"backend_id": "ngram"' in doc
    lines = rep.to_csv().splitlines()
    assert lines[0] == "id,score,human"
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# reuse of draws and rescores within one run


class CountingBackend(Backend):
    """Logs every sampling and rescoring request before passing it on.

    With ``fail_once`` set to a context, the first sampling call for that
    context raises ``BackendError`` instead.
    """

    def __init__(self, backend, fail_once=None):
        self.backend = backend
        self.fail_once = fail_once
        self.samples = []
        self.scores = []

    def __getattr__(self, name):
        return getattr(self.backend, name)

    def sample_descriptions(self, context, count, max_tokens=20, temperature=1.0,
                            seed=0, prompt=None):
        self.samples.append((context, count, max_tokens, temperature, seed, prompt))
        if context == self.fail_once:
            self.fail_once = None
            raise BackendError(f"flaky backend on {context!r}")
        return self.backend.sample_descriptions(
            context, count, max_tokens=max_tokens, temperature=temperature,
            seed=seed, prompt=prompt)

    def score_many(self, requests, *, prompt):
        self.scores += [(*r, prompt) for r in requests]
        return self.backend.score_many(requests, prompt=prompt)


_TABLE_INPUTS = ("img_sunset", "cap_positive", "cap_negative")

#: kind -> (bench loop, the texts one record compares)
_RUNS = {
    "pairs": (bench.run_similarity_bench, lambda r: [(r.text_a, r.text_b)]),
    "choice": (bench.run_choice_bench,
               lambda r: [(r.context, r.positive), (r.context, r.negative)]),
}


def _records(kind, backend_name, data_dir):
    if backend_name == "ngram":
        if kind == "pairs":
            return bench.load_pairs(data_dir / "pairs.tsv").records
        return bench.load_choices(data_dir / "choices.tsv").records
    if kind == "pairs":
        return [PairRecord(id=f"{a}-{b}", text_a=a, text_b=b, human_score=float(n))
                for n, (a, b) in enumerate(
                    (a, b) for a in _TABLE_INPUTS for b in _TABLE_INPUTS if a != b)]
    return [ChoiceRecord(id=str(n), context=c, positive=p, negative=q)
            for n, (c, p, q) in enumerate(
                [_TABLE_INPUTS, _TABLE_INPUTS[::-1], _TABLE_INPUTS[1:] + _TABLE_INPUTS[:1]]
                * 2)]


def _reference(kind, records, backend, config, score="auc"):
    """The bench loop with no reuse: ``pair_score`` per record on the bare backend.

    Returns the per-record scores and hits, and the failures.
    """
    rows, failures = [], []
    for rec in records:
        try:
            s = [bench.pair_score(a, b, backend, config, score)
                 for a, b in _RUNS[kind][1](rec)]
        except (BackendError, ValueError) as exc:
            failures.append({"id": rec.id, "error": str(exc)})
            continue
        if kind == "pairs":
            rows.append({"id": rec.id, "score": s[0], "human": rec.human_score})
        else:
            hit = 1.0 if s[0] > s[1] else 0.5 if s[0] == s[1] else 0.0
            rows.append({"id": rec.id, "score": s[0] - s[1], "hit": hit})
    return rows, failures


def _assert_matches_reference(kind, report, rows, failures):
    assert report.failures == failures
    assert [r["id"] for r in report.per_record] == [r["id"] for r in rows]
    assert ([r["score"].hex() for r in report.per_record]
            == [r["score"].hex() for r in rows])
    if kind == "pairs":
        metric = 100.0 * bench.spearman([r["score"] for r in rows],
                                        [r["human"] for r in rows])
    else:
        assert [r["hit"] for r in report.per_record] == [r["hit"] for r in rows]
        metric = sum(r["hit"] for r in rows) / len(rows)
    assert report.metric.hex() == metric.hex()


def _config(kind, seed, **fields):
    if kind == "choice":
        fields = {"samples_per_input": 10, "max_tokens": 10, **fields}
    return pipeline.CompareConfig(seed=seed, **fields)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", ["pairs", "choice"])
@pytest.mark.parametrize("backend_name", ["ngram", "table"])
def test_bench_makes_each_request_once(request, data_dir, backend_name, kind, seed):
    bare = request.getfixturevalue(f"{backend_name}_backend")
    records = _records(kind, backend_name, data_dir)
    config = _config(kind, seed)
    counted, reference = CountingBackend(bare), CountingBackend(bare)
    report = _RUNS[kind][0](records, counted, config)
    rows, failures = _reference(kind, records, reference, config)

    _assert_matches_reference(kind, report, rows, failures)
    assert len(counted.samples) == len(set(counted.samples)) == len(set(reference.samples))
    assert len(counted.scores) == len(set(counted.scores)) == len(set(reference.scores))
    assert set(counted.samples) == set(reference.samples)
    assert set(counted.scores) == set(reference.scores)
    assert len(counted.scores) < len(reference.scores)
    if (backend_name, kind, seed) == ("ngram", "pairs", 0):
        assert (len(counted.samples), len(counted.scores)) == (18, 58)
        assert (len(reference.samples), len(reference.scores)) == (80, 382)

    # a second run asks for everything again: nothing outlives a run
    calls = len(counted.samples), len(counted.scores)
    again = _RUNS[kind][0](records, counted, config)
    assert (len(counted.samples), len(counted.scores)) == (2 * calls[0], 2 * calls[1])
    assert again.per_record == report.per_record


@pytest.mark.parametrize("kind", ["pairs", "choice"])
def test_reuse_keeps_only_inputs_still_to_come(monkeypatch, data_dir, ngram_backend,
                                               kind):
    records = _records(kind, "ngram", data_dir)
    calls_per_record = len(_RUNS[kind][1](records[0]))
    seen = []  # (record index, inputs of the call, contexts in the memo, backend)
    score = bench.pair_score

    def spying_pair_score(x1, x2, backend, *args, **kwargs):
        seen.append((len(seen) // calls_per_record, {x1, x2}, set(backend._memo),
                     backend))
        return score(x1, x2, backend, *args, **kwargs)

    monkeypatch.setattr(bench, "pair_score", spying_pair_score)
    _RUNS[kind][0](records, ngram_backend, _config(kind, 0))

    def still_to_come(i):
        return {x for rec in records[i:] for pair in _RUNS[kind][1](rec) for x in pair}

    for i, _, memo, _ in seen:
        assert memo <= still_to_come(i)
    assert any(inputs & memo for _, inputs, memo, _ in seen)  # reuse happened
    reuse = seen[-1][3]
    assert reuse._memo == {} and reuse._last_use == {}


def test_failed_request_is_retried_by_next_record(data_dir, ngram_backend):
    records = bench.load_pairs(data_dir / "pairs.tsv").records
    flaky = "snow"
    users = [r.id for r in records if flaky in (r.text_a, r.text_b)]
    assert len(users) >= 2
    config = pipeline.CompareConfig(seed=0)
    report = bench.run_similarity_bench(
        records, CountingBackend(ngram_backend, fail_once=flaky), config)
    rows, failures = _reference("pairs", records,
                                CountingBackend(ngram_backend, fail_once=flaky), config)

    _assert_matches_reference("pairs", report, rows, failures)
    assert [f["id"] for f in report.failures] == users[:1]
    assert users[1] in [r["id"] for r in report.per_record]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("score, fields", [
    ("traj", {}),
    ("cond_lik", {}),
    ("d_at_c", {}),
    ("auc", {"pcode_mode": "lm_code"}),
], ids=["traj", "condlik", "d_at_c", "lm_code"])
def test_reuse_matches_reference_for_every_score_kind(data_dir, ngram_backend, score,
                                                      fields, seed):
    for kind in ("pairs", "choice"):
        records = _records(kind, "ngram", data_dir)
        config = _config(kind, seed, samples_per_input=10, max_tokens=10, **fields)
        report = _RUNS[kind][0](records, ngram_backend, config, score=score)
        _assert_matches_reference(
            kind, report, *_reference(kind, records, ngram_backend, config, score))


def test_remote_choice_bench_fans_out_with_the_same_requests_and_scores(
        data_dir, ngram_backend):
    """The seed-0 choice benchmark through a remote backend, one record per
    run as the ``choice-remote`` benchmark workload runs it: 353 requests,
    several in flight, and the scores whose digest CI pins."""
    session = ServingSession(ngram_backend, latency_s=0.002)
    remote = RemoteBackend("http://stub", session=session)
    config = pipeline.CompareConfig(samples_per_input=10, max_tokens=10, seed=0)
    scores = [bench.run_choice_bench([rec], remote, config,
                                     backend_id="remote").per_record[0]["score"]
              for rec in bench.load_choices(data_dir / "choices.tsv").records]
    assert sum(session.sent.values()) == 353
    assert 2 <= session.peak <= 4 and session.in_flight == 0
    # scores at 12 significant digits, as the benchmark digests them
    text = "\n".join(f"{v:.12g}" for v in scores)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "e9836a22702b7d3d"


# ---------------------------------------------------------------------------
# one fetch for both pairs of a choice record


class CallLog:
    """Logs ``(method name, args)`` of every call made on ``backend``, then
    makes it, so that only the calls a caller makes itself are seen."""

    def __init__(self, backend):
        self.backend = backend
        self.log = []

    def __getattr__(self, name):
        method = getattr(self.backend, name)

        def logged(*args, **kwargs):
            self.log.append((name, args))
            return method(*args, **kwargs)

        return logged

    def names(self):
        return [name for name, _ in self.log]


def _logged_remote(ngram_backend):
    session = ServingSession(ngram_backend)
    return CallLog(RemoteBackend("http://stub", session=session)), session


def test_remote_choice_record_samples_once_and_rescores_once(data_dir, ngram_backend):
    """Both pairs of a seed-0 choice record send their draws in one
    ``sample_many`` call and their rescores in one ``score_many`` call, each
    distinct request once; no single call goes round them."""
    config = pipeline.CompareConfig(samples_per_input=10, max_tokens=10, seed=0)
    sampled = []
    for rec in bench.load_choices(data_dir / "choices.tsv").records:
        logged, session = _logged_remote(ngram_backend)
        report = bench.run_choice_bench([rec], logged, config)
        assert report.failures == []
        assert logged.names() == ["sample_many", "score_many"]
        assert set(session.sent.values()) == {1}
        sampled.append(sum(path == "/v1/sample" for path, _ in session.sent))
    # the context at one canonical rank in both pairs, or at both ranks
    assert sorted(set(sampled)) == [3, 4]
    assert sum(sampled) == 69


def test_remote_choice_bench_by_conditional_likelihood_samples_nothing(
        data_dir, ngram_backend):
    config = pipeline.CompareConfig(samples_per_input=10, max_tokens=10, seed=0)
    for rec in bench.load_choices(data_dir / "choices.tsv").records:
        logged, session = _logged_remote(ngram_backend)
        bench.run_choice_bench([rec], logged, config, score="cond_lik")
        assert logged.names() == ["score_many"] * 2
        assert {path for path, _ in session.sent} == {"/v1/logprob"}


def _lm_code_choice_config():
    return pipeline.CompareConfig(samples_per_input=10, max_tokens=10, seed=0,
                                  pcode_mode="lm_code")


def test_remote_choice_bench_scores_each_code_once_per_run(data_dir, ngram_backend):
    """Under ``lm_code`` a run asks for the code score of each distinct
    description once, however many of its pairs hold that description."""
    config = _lm_code_choice_config()
    total = 0
    for rec in bench.load_choices(data_dir / "choices.tsv").records:
        logged, _ = _logged_remote(ngram_backend)
        assert bench.run_choice_bench([rec], logged, config).failures == []
        asked = sorted(text for name, args in logged.log if name == "score_many"
                       for context, text, _ in args[0] if context is None)
        remote = RemoteBackend("http://stub", session=ServingSession(ngram_backend))
        batches = [pipeline.build_batch(rec.context, x, remote, config)
                   for x in (rec.positive, rec.negative)]
        assert all(b.dropped == 0 for b in batches)
        assert asked == sorted({t for b in batches for t in b.texts})
        total += len(asked)
    assert total == 104  # 180 when each pair asked for its own


def test_remote_lm_code_choice_bench_sends_each_code_score_once(data_dir, ngram_backend):
    """The seed-0 choice records under ``lm_code`` through a remote backend:
    72 requests in one run and 457 record by record (246 and 533 when every
    pair sent its own code scores), with the scores of the loop without reuse."""
    config = _lm_code_choice_config()
    records = bench.load_choices(data_dir / "choices.tsv").records
    want, failures = _reference("choice", records, ngram_backend, config)
    assert failures == []

    session = ServingSession(ngram_backend)
    remote = RemoteBackend("http://stub", session=session)
    _assert_matches_reference("choice", bench.run_choice_bench(records, remote, config),
                              want, [])
    assert sum(session.sent.values()) == 72
    assert set(session.sent.values()) == {1}

    session = ServingSession(ngram_backend)
    remote = RemoteBackend("http://stub", session=session)
    got = [bench.run_choice_bench([rec], remote, config).per_record[0]
           for rec in records]
    assert [r["score"].hex() for r in got] == [r["score"].hex() for r in want]
    assert sum(session.sent.values()) == 457


class _FlakyCodes(CountingBackend):
    """Counts code scores; the first call that asks for the code score of
    ``flaky`` raises ``BackendError``, and ``failed`` keeps its code scores."""

    def __init__(self, backend, flaky):
        super().__init__(backend)
        self.flaky, self.codes, self.failed = flaky, [], set()

    def score_many(self, requests, *, prompt):
        codes = [(text, terminated) for context, text, terminated in requests
                 if context is None]
        self.codes += codes
        if self.flaky in (text for text, _ in codes):
            error = BackendError(f"flaky code score of {self.flaky!r}")
            self.flaky, self.failed = None, set(codes)
            raise error
        return super().score_many(requests, prompt=prompt)


def test_failed_code_score_is_asked_again_by_next_record(data_dir, ngram_backend):
    records = bench.load_pairs(data_dir / "pairs.tsv").records
    config = pipeline.CompareConfig(seed=0, pcode_mode="lm_code")
    texts = [pipeline.build_batch(r.text_a, r.text_b, ngram_backend, config).texts
             for r in records]
    flaky = next(t for t in texts[0] if sum(t in ts for ts in texts) >= 2)
    users = [r.id for r, ts in zip(records, texts) if flaky in ts]
    backend = _FlakyCodes(ngram_backend, flaky)
    report = bench.run_similarity_bench(records, backend, config)

    assert [f["id"] for f in report.failures] == users[:1]
    assert users[1] in [r["id"] for r in report.per_record]
    # the failed call's code scores, the flaky one among them, are asked
    # twice, as that call stored nothing; every other code once
    asked = Counter(backend.codes)
    assert flaky in {d for d, _ in backend.failed}
    assert {code for code, n in asked.items() if n == 2} == backend.failed
    assert set(asked.values()) == {1, 2}


class _DrawsByContext(Backend):
    """Draws the texts listed for a context in turn, whatever the seed, and
    rescores each at -0.5 per word and per character of the context; a
    (context, text) in ``unscorable`` rescores at -inf. A code score is -2
    per word."""

    def __init__(self, texts, unscorable=()):
        self.texts, self.unscorable = texts, set(unscorable)

    def sample_descriptions(self, context, count, max_tokens=20, temperature=1.0,
                            seed=0, prompt=None):
        cycle = self.texts[context]
        return [SampledDescription(t, tuple(t.split()), (-1.0,), True)
                for t in (cycle[i % len(cycle)] for i in range(count))]

    def score_many(self, requests, *, prompt):
        return [LogProbResult.from_tokens(
                    [-2.0] * len(text.split()) if context is None
                    else [-math.inf] if (context, text) in self.unscorable
                    else [-0.5 * len(context)] * len(text.split()))
                for context, text, _ in requests]


def _batch_and_warnings(build):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        batch = build()
    return batch, [str(w.message) for w in caught]


def _assert_same_batches(got, want):
    for (a, a_warned), (b, b_warned) in zip(got, want, strict=True):
        assert a_warned == b_warned
        assert a.texts == b.texts and a.dropped == b.dropped
        for name in ("log_pcode", "log_proposal", "loss", "counts", "log_conditionals"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


#: backend -> pairs sharing an input that is first in one pair and second in
#: another, plus a pair of one input with itself
_SHARED_INPUT_PAIRS = {
    "ngram": [("rain", "iron"), ("rain", "dust"), ("rain", "rain")],
    "table": [("cap_positive", "img_sunset"), ("cap_positive", "cap_negative"),
              ("cap_positive", "cap_positive")],
    "dropping": [("two", "one"), ("two", "four"), ("two", "two")],
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("pcode_mode", ["proposal_mix", "lm_code"])
@pytest.mark.parametrize("backend_name", ["ngram", "table", "dropping"])
def test_batches_built_after_one_fetch_equal_batches_built_alone(
        request, backend_name, pcode_mode, seed):
    if backend_name == "dropping":
        bare = _DrawsByContext(
            {"two": ["a b", "c"], "one": ["c", "d e f"], "four": ["a b", "g"]},
            unscorable={("two", "d e f")})
    else:
        bare = request.getfixturevalue(f"{backend_name}_backend")
    pairs = _SHARED_INPUT_PAIRS[backend_name]
    ranks = {pipeline._canonical_order(*pair).index(pairs[0][0]) for pair in pairs[:2]}
    assert ranks == {0, 1}
    config = pipeline.CompareConfig(samples_per_input=10, max_tokens=10, seed=seed,
                                    pcode_mode=pcode_mode)

    counted = CountingBackend(bare)
    reuse = bench._Reuse(counted, {x: 0 for pair in pairs for x in pair})
    pipeline._fetch(pairs, reuse, config)
    # the shared input is asked for at both ranks; the last pair asks nothing new
    assert len(counted.samples) == 4
    def sent():  # draws and rescores; lm_code's code scores come with the batches
        return len(counted.samples), sum(r[0] is not None for r in counted.scores)

    fetched = sent()
    got = [_batch_and_warnings(lambda: pipeline.build_batch(*pair, reuse, config))
           for pair in pairs]
    assert sent() == fetched
    want = [_batch_and_warnings(lambda: pipeline.build_batch(*pair, bare, config))
            for pair in pairs]
    _assert_same_batches(got, want)
    if backend_name == "dropping":
        assert [b.dropped for b, _ in got] == [1, 0, 0]


def test_choice_record_whose_second_pair_collapses_fails_before_any_rescoring():
    backend = _DrawsByContext({"ctx": ["a"], "pos": ["b", "c"], "neg": ["a"],
                               "alt": ["d"]})
    records = ([ChoiceRecord("bad", "ctx", "pos", "neg")]
               + [ChoiceRecord(str(i), "ctx", "pos", "alt") for i in range(9)])
    logged = CallLog(backend)
    config = pipeline.CompareConfig(samples_per_input=10, max_tokens=10)
    report = bench.run_choice_bench(records, logged, config)
    assert report.failures == [{
        "id": "bad",
        "error": "20 draws gave 1 distinct description(s); a distance needs at "
                 "least 2 distinct descriptions, so sample more per input"}]
    # the failed record sampled once and rescored nothing; the next one, whose
    # first pair it had sampled, samples only the new input, then rescores
    assert logged.names()[:3] == ["sample_many", "sample_many", "score_many"]
    assert [ctx for ctx, _ in logged.log[1][1][0]] == ["alt"]

