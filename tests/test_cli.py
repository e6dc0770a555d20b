import json
import math
import os
import subprocess
import sys

import pytest
import requests
from conftest import DATA, ServingSession, StubSession

from ccdae import backends, baselines, cli, core


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fixture_path(data_dir):
    return str(data_dir / "multimodal_fixture.json")


@pytest.fixture
def model_path(data_dir):
    return str(data_dir / "toy_ngram.json")


# ---------------------------------------------------------------------------
# argument handling


def test_unknown_flag_exits_2(capsys):
    # ncd-demo has no --pattern: the disk is its only pattern
    for flag, argv in (("--bogus", ("--bogus", "compare", "a", "b")),
                       ("--pattern", ("ncd-demo", "--pattern", "disk"))):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {flag}" in err


def test_missing_subcommand_exits_2(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_unknown_backend_exits_2(capsys):
    code, _, err = run(capsys, "--backend", "alien", "compare", "a", "b")
    assert code == 2
    assert "invalid choice" in err


def test_backend_requires_source(capsys, tmp_path):
    code, _, err = run(capsys, "--backend", "table",
                       "compare", "a", "b")
    assert code == 2
    assert "--fixture" in err


def test_backend_missing_file(capsys):
    code, _, err = run(capsys, "--backend", "table", "--fixture",
                       "/no/such/fixture.json", "compare", "a", "b")
    assert code == 2
    assert "not found" in err


def test_remote_requires_endpoint(capsys, monkeypatch):
    monkeypatch.delenv("CCDAE_ENDPOINT", raising=False)
    code, _, err = run(capsys, "--backend", "remote", "compare", "a", "b")
    assert code == 2
    assert "CCDAE_ENDPOINT" in err


def test_endpoint_env_fallback(capsys, monkeypatch):
    # unreachable endpoint from the environment: past usage checks (not 2),
    # failing at runtime instead (1)
    monkeypatch.setenv("CCDAE_ENDPOINT", "http://127.0.0.1:1")
    code, _, _ = run(capsys, "--backend", "remote", "compare", "a", "b")
    assert code == 1


def test_remote_malformed_reply_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(requests, "Session", lambda: StubSession('{"ok": true}'))
    code, _, err = run(capsys, "--backend", "remote", "--endpoint", "http://stub",
                       "compare", "a", "b")
    assert code in (1, 2)
    assert "malformed reply" in err


class _EmptyFirstDraws(ServingSession):
    """Serves every ``/v1/sample`` reply with its first draw empty, an
    immediate end of sequence."""

    def _answer(self, path, payload):
        doc = super()._answer(path, payload)
        if path == "/v1/sample":
            doc["samples"][0].update(text="", per_token_logprobs=[-1.0])
        return doc


def test_remote_empty_draw_is_named_and_nothing_is_rescored(capsys, monkeypatch,
                                                            ngram_backend):
    session = _EmptyFirstDraws(ngram_backend)
    monkeypatch.setattr(requests, "Session", lambda: session)
    code, out, err = run(capsys, "--backend", "remote", "--endpoint", "http://stub",
                         "compare", "rain", "iron")
    assert code == 1
    assert out == ""
    assert err == ("error: description must be nonempty: /v1/logprob has no "
                   "end-of-sequence event, so an empty description (a draw that "
                   "ended at once) cannot be scored under context 'rain'\n")
    assert {path for path, _ in session.sent} == {"/v1/sample"}


def _ngram_doc(**fields):
    doc = {"magic": "CCDAE-NGRAM", "version": 1, "order": 2, "alpha": 0.01,
           "vocabulary": ["</s>", "a"], "counts": {"": {"a": 3, "</s>": 1}}}
    return json.dumps({**doc, **fields})


@pytest.mark.parametrize("flags, doc", [
    (("--model",), '{"magic": "CCDAE-NGRAM", "version": 1}'),
    (("--model",), "[]"),
    (("--backend", "table", "--fixture"), '{"magic": "CCDAE-TABLE"}'),
    (("--backend", "table", "--fixture"), "[]"),
    (("--model",), "{not json"),
    (("--backend", "table", "--fixture"), "{not json"),
    (("--backend", "table", "--fixture"),
     '{"magic": "CCDAE-TABLE", "descriptions": {"a": "x  y", "b": "x y"},'
     ' "cond": {}}'),
    (("--model",), _ngram_doc(counts={"": {"a": "3", "</s>": "1"}})),
    (("--model",), _ngram_doc(alpha=-1)),
    (("--model",), _ngram_doc(order=0)),
    # context "ab" is stored but its prefix "a" is not
    (("--model",), _ngram_doc(order=3, counts={"": {"a": 3}, "ab": {"a": 1}})),
], ids=["ngram-fields", "ngram-list", "table-fields", "table-list",
        "ngram-not-json", "table-not-json", "table-colliding-ids",
        "ngram-string-counts", "ngram-negative-alpha", "ngram-order-0",
        "ngram-not-prefix-closed"])
def test_malformed_backend_file_exits_1(capsys, tmp_path, flags, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    code, _, err = run(capsys, *flags, str(path), "compare", "a", "b")
    assert code == 1
    assert err.startswith(f"error: {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(floor=math.nan),
    lambda doc: doc.update(floor=math.inf),
    lambda doc: doc.update(floor=5),
    lambda doc: doc["cond"]["img_sunset"]["d_sun"].__setitem__(0, 0.5),
    lambda doc: doc["code"]["d_sun"].__setitem__(0, "NaN"),
], ids=["floor-nan", "floor-inf", "floor-positive", "cond-positive", "code-nan"])
def test_table_fixture_logprobs_must_be_finite_and_not_positive(
        capsys, tmp_path, fixture_path, edit):
    with open(fixture_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "--backend", "table", "--fixture", str(path),
                         "--out", str(tmp_path / "d.csv"),
                         "describe", "img_sunset", "cap_positive")
    assert code == 1
    assert err.startswith(f"error: {path}: malformed table-backend fixture: ")
    assert "not finite and <= 0" in err
    assert out == "" and not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("edit, reason", [
    (lambda doc: doc.update(floor="-5"), "log-prob '-5' is not a JSON number"),
    (lambda doc: doc["cond"]["img_sunset"]["d_sun"].__setitem__(0, "-0.5"),
     "log-prob '-0.5' is not a JSON number"),
    (lambda doc: doc["cond"]["img_sunset"]["d_sun"].__setitem__(0, False),
     "log-prob False is not a JSON number"),
    (lambda doc: doc["cond"].update(c={}), "context 'c' lists no descriptions"),
], ids=["str-floor", "str-cond", "bool-cond", "empty-context"])
def test_table_fixture_needs_json_number_logprobs_and_nonempty_contexts(
        capsys, tmp_path, fixture_path, edit, reason):
    with open(fixture_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "--backend", "table", "--fixture", str(path),
                         "--out", str(tmp_path / "c.csv"),
                         "compare", "c", "img_sunset")
    assert code == 1
    assert err.startswith(f"error: {path}: ") and reason in err
    assert "Traceback" not in err
    assert out == "" and not (tmp_path / "c.csv").exists()


def test_bad_lambda_grid(capsys, fixture_path):
    code, _, err = run(capsys, "--backend", "table", "--fixture", fixture_path,
                       "compare", "img_sunset", "cap_positive",
                       "--lambda", "10:5:3")
    assert code == 2


@pytest.mark.parametrize("grid", ["0:nan:5", "nan:5:3", "0:inf:5", "-inf:0:3"])
def test_non_finite_lambda_grid_exits_2(capsys, fixture_path, grid):
    code, _, err = run(capsys, "--backend", "table", "--fixture", fixture_path,
                       "compare", "img_sunset", "cap_positive", f"--lambda={grid}")
    assert code == 2
    assert err == f"error: lambda grid start and stop must be finite, got {grid!r}\n"


def test_lambda_grid_count_is_bounded(capsys, model_path):
    count = cli.MAX_LAMBDA_POINTS + 1
    code, _, err = run(capsys, "--model", model_path, "compare", "rain", "iron",
                       "--lambda", f"0:1:{count}")
    assert code == 2
    assert err == f"error: lambda grid count must be <= {cli.MAX_LAMBDA_POINTS}, got {count}\n"
    code, _, err = run(capsys, "--model", model_path, "compare", "rain", "iron",
                       "--lambda", "0:1:1000000000000")
    assert code == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("compare", "rain", "iron", "--samples", "0"),
    ("compare", "rain", "iron", "--max-tokens", "0"),
    ("compare", "rain", "iron", "--samples", "-2"),
    ("bench", "pairs", str(DATA / "pairs.tsv"), "--samples", "0"),
    ("bench", "choice", str(DATA / "choices.tsv"), "--max-tokens", "0"),
    ("describe", "rain", "iron", "--atoms", "0"),
    ("describe", "rain", "iron", "--beam", "0"),
    ("describe", "rain", "iron", "--max-atoms", "0"),
    ("describe", "rain", "iron", "--max-tokens", "0"),
])
def test_count_flags_below_one_exit_2(capsys, model_path, argv):
    code, out, err = run(capsys, "--model", model_path, *argv)
    assert code == 2
    assert out == ""
    assert f"argument {argv[-2]}: must be >= 1, got {argv[-1]}" in err


def test_count_flag_not_an_integer_exits_2(capsys, model_path):
    code, _, err = run(capsys, "--model", model_path, "compare", "rain", "iron",
                       "--samples", "two")
    assert code == 2
    assert "argument --samples: invalid int value: 'two'" in err


@pytest.mark.parametrize("argv", [
    ("compare", "rain", "iron", "--samples"),
    ("compare", "rain", "iron", "--max-tokens"),
    ("bench", "pairs", str(DATA / "pairs.tsv"), "--samples"),
    ("bench", "choice", str(DATA / "choices.tsv"), "--max-tokens"),
    ("describe", "rain", "iron", "--atoms"),
    ("describe", "rain", "iron", "--beam"),
    ("describe", "rain", "iron", "--max-atoms"),
    ("describe", "rain", "iron", "--max-tokens"),
])
def test_count_flags_above_bound_exit_2_before_any_backend(capsys, monkeypatch,
                                                           model_path, argv):
    def no_backend(args):
        raise AssertionError("the backend was built")

    monkeypatch.setattr(cli, "_make_backend", no_backend)
    count = cli.MAX_COUNT + 1
    code, out, err = run(capsys, "--model", model_path, *argv, str(count))
    assert code == 2
    assert out == ""
    assert f"argument {argv[-1]}: must be <= {cli.MAX_COUNT}, got {count}" in err
    assert cli._count(str(cli.MAX_COUNT)) == cli.MAX_COUNT


@pytest.mark.parametrize("temperature", ["0", "-1", "nan", "inf"])
def test_bad_temperature_exits_2(capsys, model_path, temperature):
    code, out, err = run(capsys, "--model", model_path, "compare", "rain", "iron",
                         "--temperature", temperature)
    assert code == 2
    assert out == ""
    assert (f"argument --temperature: must be finite and positive, got {temperature}"
            in err)


@pytest.mark.parametrize("argv", [
    ("compare", "rain", "snow"),
    ("bench", "pairs", str(DATA / "pairs.tsv")),
    ("describe", "rain", "iron"),
    ("ncd-demo", "--dims", "8"),
])
def test_negative_seed_exits_2_before_any_backend(capsys, monkeypatch, model_path,
                                                  argv):
    def no_backend(args):
        raise AssertionError("the backend was built")

    monkeypatch.setattr(cli, "_make_backend", no_backend)
    code, out, err = run(capsys, "--model", model_path, "--seed", "-1", *argv)
    assert code == 2
    assert out == ""
    assert "argument --seed: must be >= 0, got -1" in err


@pytest.mark.parametrize("fields", [
    {"order": True}, {"order": 2.9}, {"order": 2.0}, {"order": "3"}, {"order": None},
    {"alpha": True}, {"alpha": "0.5"}, {"alpha": None}, {"alpha": [0.5]},
], ids=lambda f: "-".join(f"{k}={v!r}" for k, v in f.items()))
def test_model_file_fields_must_have_their_types(capsys, tmp_path, fields):
    path = tmp_path / "bad.json"
    path.write_text(_ngram_doc(**fields))
    code, out, err = run(capsys, "--model", str(path), "compare", "a", "b")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path}: malformed model file")


def test_bad_cmax(capsys, fixture_path):
    code, _, err = run(capsys, "--backend", "table", "--fixture", fixture_path,
                       "compare", "img_sunset", "cap_positive",
                       "--cmax", "-1")
    assert code == 2


@pytest.mark.parametrize("fields", [
    {"alpha": 1e308},
    {"counts": {"": {"a": 10**400, "</s>": 1}}},
    {"alpha": 0, "counts": {"": {"a": 0, "</s>": 0}}},
    {"alpha": 0, "counts": {"a": {"a": 1, "</s>": 1}}},
    {"counts": {"": {"a": 3, "b": 1, "</s>": 1}}},
    {"vocabulary": ["</s>", "a", "a"]},
    {"vocabulary": ["a"]},
    {"vocabulary": "a"},
    {"vocabulary": ["</s>", 1]},
], ids=["alpha-overflows", "count-overflows", "zero-row", "alpha-0-no-root",
        "symbol-not-in-vocabulary", "repeated-symbol", "no-eos",
        "vocabulary-string", "vocabulary-not-strings"])
def test_unusable_model_file_exits_1(capsys, tmp_path, fields):
    path = tmp_path / "bad.json"
    path.write_text(_ngram_doc(**fields))
    code, out, err = run(capsys, "--model", str(path), "compare", "a", "aa")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path}: malformed model file")
    assert "Traceback" not in err


@pytest.mark.parametrize("cmax", ["nan", "inf", "-inf"])
def test_non_finite_cmax_exits_2(capsys, model_path, cmax):
    code, out, err = run(capsys, "--model", model_path, "compare", "rain", "iron",
                         f"--cmax={cmax}")
    assert code == 2
    assert out == ""
    assert err == f"error: --cmax must be finite and positive, got {cmax!r}\n"


# ---------------------------------------------------------------------------
# compare


def test_compare_self_zero(capsys, fixture_path, tmp_path):
    out = str(tmp_path / "c.csv")
    code, stdout, _ = run(capsys, "--backend", "table", "--fixture",
                          fixture_path, "--out", out, "compare",
                          "img_sunset", "img_sunset",
                          "--samples", "10", "--max-tokens", "10")
    assert code == 0
    assert stdout.strip() == "auc 0.000000"
    assert os.path.exists(out)
    assert os.path.exists(str(tmp_path / "c.report.json"))


def test_compare_with_collapsed_draws_names_the_cause(capsys, fixture_path):
    # both inputs draw only d_sun at this sample size
    code, _, err = run(capsys, "--backend", "table", "--fixture", fixture_path,
                       "compare", "img_sunset", "cap_positive", "--samples", "6")
    assert code == 1
    assert err == ("error: 12 draws gave 1 distinct description(s); a distance "
                   "needs at least 2 distinct descriptions, so sample more per input\n")


def test_compare_matches_golden(capsys, data_dir, fixture_path, tmp_path):
    out = str(tmp_path / "curve.csv")
    code, stdout, _ = run(capsys, "--backend", "table", "--fixture",
                          fixture_path, "--seed", "0", "--out", out,
                          "compare", "img_sunset", "cap_positive",
                          "--samples", "10", "--max-tokens", "10")
    assert code == 0
    golden = (data_dir / "golden_compare.csv").read_bytes()
    with open(out, "rb") as fh:
        assert fh.read() == golden


def test_compare_without_lambda_traces_the_default_grid(capsys, model_path, tmp_path):
    out = str(tmp_path / "c.csv")
    code, _, _ = run(capsys, "--model", model_path, "--out", out, "compare",
                     "rain", "iron", "--samples", "5", "--max-tokens", "5")
    assert code == 0
    with open(str(tmp_path / "c.report.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["curve"]["lambda_grid"] == core.default_lambda_grid().tolist()


def test_compare_default_out(capsys, fixture_path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "--backend", "table", "--fixture", fixture_path,
                     "compare", "img_sunset", "cap_negative",
                     "--samples", "10", "--max-tokens", "10")
    assert code == 0
    assert os.path.exists(tmp_path / "compare_curve.csv")
    assert os.path.exists(tmp_path / "compare_curve.report.json")


def test_compare_units_bits_scaling(capsys, fixture_path, tmp_path):
    def read_curve(path):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        return rows

    args = ["--backend", "table", "--fixture", fixture_path, "--seed", "0",
            "compare", "img_sunset", "cap_positive",
            "--samples", "10", "--max-tokens", "10"]
    nat_out = str(tmp_path / "nats.csv")
    bit_out = str(tmp_path / "bits.csv")
    code1, out1, _ = run(capsys, "--out", nat_out, *args)
    code2, out2, _ = run(capsys, "--units", "bits", "--out", bit_out, *args)
    assert code1 == code2 == 0
    nats = read_curve(nat_out)
    bits = read_curve(bit_out)
    ln2 = math.log(2.0)
    assert len(nats) == len(bits)
    for row_n, row_b in zip(nats, bits):
        for vn, vb in zip(row_n, row_b):
            assert vb == pytest.approx(vn / ln2, rel=1e-9, abs=1e-12)
    auc_nats = float(out1.split()[1])
    auc_bits = float(out2.split()[1])
    # area picks up the 1/ln2 factor twice (both axes rescale)
    assert auc_bits == pytest.approx(auc_nats / ln2**2, abs=2e-6)
    with open(str(tmp_path / "bits.report.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["units"] == "bits"


def test_compare_inputs_from_files(capsys, model_path, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("rain\n")
    b.write_text("iron\n")
    out = str(tmp_path / "f.csv")
    code, stdout, _ = run(capsys, "--model", model_path, "--out", out,
                          "compare", str(a), str(b),
                          "--samples", "10", "--max-tokens", "10")
    assert code == 0
    assert stdout.startswith("auc ")


# ---------------------------------------------------------------------------
# bench


def test_bench_pairs_small(capsys, model_path, tmp_path):
    data = tmp_path / "pairs.tsv"
    data.write_text(
        "rain\train\t3.0\n"
        "rain\twind\t2.0\n"
        "rain\tiron\t1.0\n"
    )
    out = str(tmp_path / "rep.json")
    code, stdout, _ = run(capsys, "--model", model_path, "--out", out,
                          "bench", "pairs", str(data),
                          "--samples", "10", "--max-tokens", "10")
    assert code == 0
    assert stdout.startswith("spearman_x100 ")
    assert float(stdout.split()[1]) == pytest.approx(100.0)
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["metric_name"] == "spearman_x100"
    with open(str(tmp_path / "rep.csv"), encoding="utf-8") as fh:
        assert fh.readline().strip() == "id,score,human"


def test_bench_choice_small(capsys, model_path, tmp_path):
    data = tmp_path / "choices.tsv"
    data.write_text(
        "id\tcontext\tpositive\tnegative\n"
        "r1\train\train\tiron\n"
        "r2\tdust\tdust\train\n"
    )
    code, stdout, _ = run(capsys, "--model", model_path,
                          "bench", "choice", str(data))
    assert code == 0
    assert stdout.strip() == "accuracy 1.0000"


@pytest.mark.parametrize("score, capacity, error", [
    ("dc", "-5", "--capacity must be finite and >= 0"),
    ("dc", "nan", "--capacity must be finite and >= 0"),
    ("dc", "inf", "--capacity must be finite and >= 0"),
    ("auc", "0.5", "--capacity applies only to --score dc"),
    ("traj", "0.5", "--capacity applies only to --score dc"),
    ("condlik", "0.5", "--capacity applies only to --score dc"),
])
def test_bench_capacity_usage_errors(capsys, model_path, score, capacity, error):
    code, _, err = run(capsys, "--model", model_path, "bench", "choice",
                       str(DATA / "choices.tsv"), "--score", score,
                       "--capacity", capacity)
    assert code == 2
    assert err == f"error: {error}\n"


@pytest.mark.parametrize("kind, data", [("pairs", "pairs.tsv"),
                                        ("choice", "choices.tsv")])
def test_bench_csv_matches_recorded(capsys, model_path, tmp_path, kind, data):
    # recorded before the bench loops reused draws and rescores within a run
    out = tmp_path / "rep.json"
    code, _, _ = run(capsys, "--model", model_path, "--seed", "0", "--out", str(out),
                     "bench", kind, str(DATA / data))
    assert code == 0
    recorded = os.path.join(os.path.dirname(__file__), "data",
                            f"bench_{kind}_seed0.csv")
    with open(recorded, "rb") as want, open(tmp_path / "rep.csv", "rb") as got:
        assert got.read() == want.read()


@pytest.mark.parametrize("kind", ["pairs", "choice"])
def test_bench_names_a_file_that_is_not_utf8(capsys, model_path, tmp_path, kind):
    data = tmp_path / "bad.tsv"
    data.write_bytes(b"rain\t\xff\tiron\t1.0\n")
    code, out, err = run(capsys, "--model", model_path, "bench", kind, str(data))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {data}: not UTF-8 text: ")
    assert "can't decode byte 0xff in position 5" in err
    assert "Traceback" not in err and err.count("\n") == 1


def test_bench_reports_skipped_lines(capsys, model_path, tmp_path):
    data = tmp_path / "pairs.tsv"
    data.write_text("rain\train\t3.0\nrain\twind\t2.0\nbroken\n")
    code, _, err = run(capsys, "--model", model_path, "bench", "pairs",
                       str(data), "--samples", "10", "--max-tokens", "10")
    assert code == 0
    assert "skipped line 3" in err


def test_runtime_needs_no_scipy(data_dir, tmp_path):
    """The package imports and benchmarks with scipy made unimportable."""
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import ccdae\n"
        "from ccdae import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(data_dir.parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, "--model", str(data_dir / "toy_ngram.json"),
         "--out", str(tmp_path / "rep.json"),
         "bench", "pairs", str(data_dir / "pairs.tsv")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("spearman_x100 ")


def test_bench_pairs_with_one_record_names_the_file(capsys, model_path, tmp_path):
    data = tmp_path / "pairs.tsv"
    data.write_text("id\ttext_a\ttext_b\tscore\nr1\train\tiron\t1.0\n")
    code, out, err = run(capsys, "--model", model_path, "bench", "pairs", str(data))
    assert code == 1
    assert out == ""
    assert err == f"error: {data}: Spearman needs at least two pairs, got 1\n"


def test_bench_missing_data_file(capsys, model_path):
    code, _, _ = run(capsys, "--model", model_path, "bench", "pairs",
                     "/no/such/data.tsv")
    assert code == 1


# ---------------------------------------------------------------------------
# ncd-demo


def test_ncd_demo_small(capsys, tmp_path):
    out = str(tmp_path / "noise.csv")
    code, stdout, _ = run(capsys, "--out", out, "ncd-demo", "--dims", "64")
    assert code == 0
    assert stdout.startswith("D=4096 measured ")
    with open(out, encoding="utf-8") as fh:
        assert fh.readline().strip() == (
            "dimension,p,ncd_measured,ncd_predicted,z_s_bits"
        )


def test_ncd_demo_bad_p(capsys):
    code, _, err = run(capsys, "ncd-demo", "--p", "0.7")
    assert code == 2


def test_ncd_demo_bad_dims(capsys):
    code, _, _ = run(capsys, "ncd-demo", "--dims", "64,notanumber")
    assert code == 2


def _stub_noise_experiment(monkeypatch):
    """Record the dimensions ncd-demo asks for, allocating nothing."""
    asked = []

    def stub(p, dimensions, seed, use_joint_bound):
        asked.extend(dimensions)
        return [baselines.NoiseExperimentPoint(dimension=d, p=p, ncd=0.5,
                                               predicted=0.5, z_s_bits=8)
                for d in dimensions]

    monkeypatch.setattr(baselines, "noise_experiment", stub)
    return asked


@pytest.mark.parametrize("dims", ["-64", "0", "64,0", str(cli.MAX_SIDE + 1),
                                  str(10**9)])
def test_ncd_demo_side_out_of_range_exits_2(capsys, monkeypatch, dims):
    asked = _stub_noise_experiment(monkeypatch)
    code, out, err = run(capsys, "ncd-demo", f"--dims={dims}")
    assert code == 2
    assert out == ""
    assert err == (f"error: --dims side lengths must be in [1, {cli.MAX_SIDE}], "
                   f"got {dims!r}\n")
    assert asked == []


def test_ncd_demo_side_bounds_are_inclusive(capsys, monkeypatch, tmp_path):
    asked = _stub_noise_experiment(monkeypatch)
    code, _, _ = run(capsys, "--out", str(tmp_path / "n.csv"), "ncd-demo",
                     "--dims", f"1,{cli.MAX_SIDE}")
    assert code == 0
    assert asked == [1, cli.MAX_SIDE**2]


# ---------------------------------------------------------------------------
# train-ngram


def test_train_ngram_round_trip(capsys, tmp_path):
    corpus = tmp_path / "c.txt"
    corpus.write_text("the cat sat\nthe dog ran\n" * 5)
    out = str(tmp_path / "m.json")
    code, stdout, _ = run(capsys, "--out", out, "train-ngram", str(corpus),
                          "--order", "3")
    assert code == 0
    assert "order-3" in stdout
    model = backends.NGramModel.load(out)
    assert model.order == 3
    assert math.exp(model.symbol_logprob("th", "e")) > 0.9


def test_train_ngram_empty_corpus(capsys, tmp_path):
    corpus = tmp_path / "empty.txt"
    corpus.write_text("\n\n")
    code, _, err = run(capsys, "train-ngram", str(corpus))
    assert code == 2
    assert err == "error: empty corpus\n"
    # a path that exists but is not a regular file is read too
    code, _, err = run(capsys, "--out", str(tmp_path / "m.json"), "train-ngram",
                       os.devnull)
    assert code == 2
    assert err == "error: empty corpus\n"


def test_train_ngram_negative_alpha(capsys, tmp_path):
    corpus = tmp_path / "c.txt"
    corpus.write_text("ab\nba\n")
    code, _, err = run(capsys, "--out", str(tmp_path / "m.json"), "train-ngram",
                       str(corpus), "--alpha", "-1")
    assert code == 2
    assert err.startswith("error: smoothing_alpha must be finite and >= 0")


def test_train_ngram_missing_corpus(capsys):
    code, _, err = run(capsys, "train-ngram", "/no/such/corpus.txt")
    assert code == 2
    assert err == "error: corpus not found: /no/such/corpus.txt\n"


# ---------------------------------------------------------------------------
# describe


# the whole table of the bundled fixture, recorded before the describe
# workflow moved into descgen.describe_pair
DESCRIBE_FIXTURE_CSV = (
    "capacity,best_h_x1,loss_x1,best_h_x2,loss_x2,best_common,loss_common\n"
    "2.1,a bright sun over calm water,-0.0950083111784,"
    "a bright sun over calm water,0.104991688822,"
    "a bright sun over calm water,0.00998337764329\n"
    "240,a bright sun over calm water,-0.0950083111784,"
    '"a bright sun over calm water, a small boat near the shore",0,'
    '"a bright sun over calm water, a small boat near the shore",0\n'
)


def test_describe_fixture(capsys, fixture_path, tmp_path):
    out = tmp_path / "desc.csv"
    code, _, _ = run(capsys, "--backend", "table", "--fixture", fixture_path,
                     "--out", str(out), "describe", "img_sunset", "cap_positive",
                     "--atoms", "4", "--beam", "3", "--max-atoms", "2")
    assert code == 0
    assert out.read_bytes() == DESCRIBE_FIXTURE_CSV.encode()
