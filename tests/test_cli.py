import json
import math
import os
import subprocess
import sys

import pytest
import requests
from conftest import DATA, StubSession

from ccdae import backends, cli


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
    code, _, _ = run(capsys, "--bogus", "compare", "a", "b")
    assert code == 2


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
], ids=["ngram-fields", "ngram-list", "table-fields", "table-list",
        "ngram-not-json", "table-not-json", "table-colliding-ids",
        "ngram-string-counts", "ngram-negative-alpha", "ngram-order-0"])
def test_malformed_backend_file_exits_1(capsys, tmp_path, flags, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    code, _, err = run(capsys, *flags, str(path), "compare", "a", "b")
    assert code == 1
    assert err.startswith(f"error: {path}: ")
    assert "Traceback" not in err


def test_bad_lambda_grid(capsys, fixture_path):
    code, _, err = run(capsys, "--backend", "table", "--fixture", fixture_path,
                       "compare", "img_sunset", "cap_positive",
                       "--lambda", "10:5:3")
    assert code == 2


def test_bad_cmax(capsys, fixture_path):
    code, _, err = run(capsys, "--backend", "table", "--fixture", fixture_path,
                       "compare", "img_sunset", "cap_positive",
                       "--cmax", "-1")
    assert code == 2


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
