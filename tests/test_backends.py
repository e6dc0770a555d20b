import json
import math
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from conftest import StubSession

from ccdae import backends
from ccdae.backends import (
    EOS,
    BackendDescriptor,
    BackendError,
    LogProbResult,
    NGramBackend,
    RemoteBackend,
    RemoteBackendError,
    TableBackend,
    train_ngram,
)


# ---------------------------------------------------------------------------
# LogProbResult


def test_logprob_result_total_must_match():
    with pytest.raises(ValueError):
        LogProbResult(total=-1.0, per_token=(-0.2, -0.2))
    r = LogProbResult.from_tokens([-0.5, -0.25])
    assert r.total == pytest.approx(-0.75)


# ---------------------------------------------------------------------------
# n-gram training


def test_train_ngram_conditional():
    model = train_ngram("ababababab", order=2, smoothing_alpha=0.01)
    assert math.exp(model.symbol_logprob("a", "b")) >= 0.9


def test_train_ngram_order_one_unigram():
    model = train_ngram("a" * 30, order=1, smoothing_alpha=0.01)
    assert math.exp(model.symbol_logprob("", "a")) >= 0.9


def test_train_ngram_rejects_empty():
    with pytest.raises(ValueError):
        train_ngram("\n\n")
    with pytest.raises(ValueError):
        train_ngram("ab", order=0)


def test_ngram_round_trip_bit_exact(tmp_path):
    model = train_ngram("the cat sat\nthe dog ran\n", order=4)
    path = tmp_path / "m.json"
    model.save(path)
    back = backends.NGramModel.load(path)
    for prefix in ("", "th", "the c", "xyz"):
        for sym in back.vocabulary:
            assert back.symbol_logprob(prefix, sym) == model.symbol_logprob(
                prefix, sym
            )


def test_ngram_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"magic": "nope"}))
    with pytest.raises(BackendError):
        backends.NGramModel.load(path)


def test_ngram_distributions_normalize():
    model = train_ngram("abcabcabc\nxyzxyz\n", order=3)
    for prefix in ("", "a", "ab", "zz", "xyzab"):
        assert model.distribution(prefix).sum() == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# n-gram backend scoring/sampling


@pytest.fixture(scope="module")
def ab_backend():
    return NGramBackend(train_ngram("abababababab\n" * 20, order=2))


def test_cond_logprob_extension_monotonicity(ab_backend):
    base = ab_backend.cond_logprob("a", "b", terminated=False).total
    longer = ab_backend.cond_logprob("a", "ba", terminated=False).total
    assert longer <= base


def test_cond_logprob_rejects_empty(ab_backend):
    with pytest.raises(ValueError):
        ab_backend.cond_logprob("a", "")


def test_eos_term_included_only_when_terminated(ab_backend):
    with_eos = ab_backend.score_tokens("a", ["b"], True)
    without = ab_backend.score_tokens("a", ["b"], False)
    assert len(with_eos.per_token) == len(without.per_token) + 1
    assert with_eos.per_token[:-1] == without.per_token


def test_sampling_deterministic(ab_backend):
    a = ab_backend.sample_descriptions("a", 10, max_tokens=5, seed=42)
    b = ab_backend.sample_descriptions("a", 10, max_tokens=5, seed=42)
    assert [s.text for s in a] == [s.text for s in b]


def test_sampling_conditional_frequency(ab_backend):
    draws = ab_backend.sample_descriptions("a", 1000, max_tokens=1, seed=0)
    first = [s.tokens[0] for s in draws]
    assert Counter(first)["b"] / len(first) >= 0.9


def test_low_temperature_greedy(ab_backend):
    draws = ab_backend.sample_descriptions("a", 20, max_tokens=4,
                                           temperature=1e-6, seed=5)
    assert len({s.text for s in draws}) == 1


def test_sampled_logprobs_match_rescoring(ab_backend):
    for s in ab_backend.sample_descriptions("ab", 20, max_tokens=6, seed=9):
        rescored = ab_backend.score_tokens("ab", s.tokens, s.terminated)
        assert rescored.total == pytest.approx(s.total_logprob, abs=1e-9)


def test_ensemble_equal_contexts_matches_single(ab_backend):
    single = ab_backend.sample_descriptions("a", 8, max_tokens=4, seed=11)
    double = ab_backend.ensemble_sample("a", "a", 8, max_tokens=4, seed=11)
    assert [s.text for s in single] == [s.text for s in double]


def test_prompt_precedes_context_with_newline():
    model = train_ngram("xxb\nyyc\n" * 10, order=3)
    be = NGramBackend(model, prompt="default")
    assert be._prefix("ctx", None) == "default\nctx"
    assert be._prefix("ctx", "override") == "override\nctx"
    assert NGramBackend(model)._prefix("ctx", None) == "ctx"


# ---------------------------------------------------------------------------
# table backend


def test_table_lookup_verbatim(table_backend):
    r = table_backend.cond_logprob("img_sunset", "d_sun")
    assert r.per_token == (-0.4, -0.3)
    # lookup by rendered text resolves to the same row
    text = table_backend.descriptions["d_sun"]
    assert table_backend.cond_logprob("img_sunset", text).total == r.total


def test_table_floor_fallback(table_backend):
    r = table_backend.cond_logprob("img_sunset", "unknown words here")
    assert r.per_token == (-20.0, -20.0, -20.0)


def test_table_ensemble_disjoint_one_hot_mixture(tmp_path):
    doc = {
        "magic": "CCDAE-TABLE",
        "floor": -20.0,
        "descriptions": {"u": "u", "v": "v"},
        "cond": {
            "c1": {"u": [-0.001], "v": [-40.0]},
            "c2": {"u": [-40.0], "v": [-0.001]},
        },
        "code": {},
    }
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    be = TableBackend.load(path)
    draws = be.ensemble_sample("c1", "c2", 2000, seed=0)
    freq = Counter(s.text for s in draws)
    assert abs(freq["u"] / 2000 - 0.5) < 0.05


def test_backend_descriptor_validation():
    with pytest.raises(ValueError):
        BackendDescriptor(kind="ngram")
    with pytest.raises(ValueError):
        BackendDescriptor(kind="alien", model_path="x")
    BackendDescriptor(kind="table", fixture_path="f.json")


# ---------------------------------------------------------------------------
# remote backend against a local HTTP server


class _Handler(BaseHTTPRequestHandler):
    fail_next = 0

    def log_message(self, *args):
        pass

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if _Handler.fail_next > 0:
            _Handler.fail_next -= 1
            self.send_response(503)
            self.end_headers()
            self.wfile.write(b'{"error": "busy"}')
            return
        if self.path == "/v1/logprob":
            per = [-0.1] * len(body["continuation"].split())
            out = {"per_token_logprobs": per, "total": sum(per)}
        elif self.path == "/v1/sample":
            rng = np.random.default_rng(body["seed"])
            out = {
                "samples": [
                    {
                        "text": f"desc {int(rng.integers(3))}",
                        "per_token_logprobs": [-0.2, -0.3],
                    }
                    for _ in range(body["num_samples"])
                ]
            }
        elif self.path == "/v1/bad":
            self.send_response(400)
            self.end_headers()
            self.wfile.write(b'{"error": "bad request"}')
            return
        else:
            self.send_response(404)
            self.end_headers()
            return
        payload = json.dumps(out).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


@pytest.fixture(scope="module")
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()


def test_remote_logprob_and_sample(server):
    be = RemoteBackend(server, backoff=0.01)
    r = be.cond_logprob("ctx", "three word caption")
    assert r.per_token == (-0.1, -0.1, -0.1)
    draws = be.sample_descriptions("ctx", 5, seed=1)
    assert len(draws) == 5
    again = be.sample_descriptions("ctx", 5, seed=1)
    assert [s.text for s in draws] == [s.text for s in again]


def test_remote_retries_transient_failure(server):
    _Handler.fail_next = 2
    be = RemoteBackend(server, backoff=0.01, max_retries=3)
    r = be.cond_logprob("ctx", "ok")
    assert r.total == pytest.approx(-0.1)


def test_remote_exhausted_retries_raise(server):
    _Handler.fail_next = 5
    be = RemoteBackend(server, backoff=0.01, max_retries=2)
    with pytest.raises(RemoteBackendError) as exc:
        be.cond_logprob("ctx", "ok")
    _Handler.fail_next = 0
    assert exc.value.status == 503
    assert exc.value.retryable


def test_remote_client_error_not_retried(server):
    be = RemoteBackend(server, backoff=0.01)
    with pytest.raises(RemoteBackendError) as exc:
        be._post("/v1/bad", {})
    assert exc.value.status == 400
    assert not exc.value.retryable


def test_remote_connection_error():
    be = RemoteBackend("http://127.0.0.1:1", backoff=0.01, max_retries=2,
                       timeout=0.5)
    with pytest.raises(RemoteBackendError):
        be.cond_logprob("ctx", "ok")


# ---------------------------------------------------------------------------
# remote backend against malformed 200 replies


@pytest.mark.parametrize("call, body", [
    ("logprob", "not json"),
    ("logprob", "[]"),
    ("logprob", '{"total": -0.2}'),
    ("logprob", '{"per_token_logprobs": ["x"]}'),
    ("sample", "not json"),
    ("sample", '{"total": -0.2}'),
    ("sample", '{"samples": [{"text": "a b"}]}'),
    ("sample", '{"samples": [{"per_token_logprobs": [-0.1]}]}'),
])
def test_remote_malformed_reply_is_typed_and_not_retried(call, body):
    stub = StubSession(body)
    be = RemoteBackend("http://stub", backoff=0.0, session=stub)
    with pytest.raises(RemoteBackendError) as exc:
        if call == "logprob":
            be.cond_logprob("ctx", "two words")
        else:
            be.sample_descriptions("ctx", 2)
    assert not exc.value.retryable
    assert stub.posts == 1
