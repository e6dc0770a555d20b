import numpy as np
import pytest
from scipy import stats

from ccdae import bench, pipeline
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
    pairs = [PairRecord(id="0", text_a="rain", text_b="iron", human_score=1.0)]
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
