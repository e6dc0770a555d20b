import threading
import time

import pytest

from ccdae import backends
from perfbench.fake_remote import FakeRemoteSession
from perfbench.workloads import DATA

URL = "http://fake-server"


@pytest.fixture(scope="module")
def ngram():
    return backends.NGramBackend(backends.NGramModel.load(DATA / "toy_ngram.json"))


def test_logprob_scores_each_character_without_eos(ngram):
    fake = FakeRemoteSession(ngram, 0.0)
    resp = fake.post(URL + "/v1/logprob", json={"context": "rain", "continuation": "wet sky"})
    assert resp.status_code == 200
    doc = resp.json()
    want = ngram.score_tokens("rain", list("wet sky"), terminated=False)
    assert doc["per_token_logprobs"] == list(want.per_token)
    assert doc["total"] == want.total


def test_sample_replies_with_the_documented_fields(ngram):
    fake = FakeRemoteSession(ngram, 0.0)
    payload = {"context": "snow", "prompt": "", "num_samples": 4, "max_tokens": 6,
               "temperature": 1.0, "seed": 7}
    doc = fake.post(URL + "/v1/sample", json=payload).json()
    want = ngram.sample_descriptions("snow", 4, max_tokens=6, seed=7)
    assert [set(s) for s in doc["samples"]] == [
        {"text", "per_token_logprobs", "terminated"}] * 4
    assert [s["text"] for s in doc["samples"]] == [s.text for s in want]
    assert [s["terminated"] for s in doc["samples"]] == [s.terminated for s in want]


@pytest.mark.parametrize("path, payload, status", [
    ("/v1/logprob", {"context": "rain"}, 400),
    ("/v1/logprob", {"context": "rain", "continuation": ""}, 400),
    ("/v1/sample", {"context": "rain", "num_samples": True, "max_tokens": 3,
                    "temperature": 1.0, "seed": 0}, 400),
    ("/v1/sample", {"context": "rain", "num_samples": 2, "max_tokens": 3,
                    "temperature": 0.0, "seed": 0}, 400),
    ("/v1/other", {}, 404),
])
def test_malformed_requests_are_refused(ngram, path, payload, status):
    fake = FakeRemoteSession(ngram, 0.0)
    assert fake.post(URL + path, json=payload).status_code == status
    assert fake.requests == 1


def test_each_request_waits_the_fixed_latency(ngram):
    fake = FakeRemoteSession(ngram, 0.05)
    t0 = time.perf_counter()
    fake.post(URL + "/v1/logprob", json={"context": "a", "continuation": "b"})
    assert time.perf_counter() - t0 >= fake.wait_s >= 0.05


def test_concurrent_requests_overlap_and_count_in_flight(ngram):
    fake = FakeRemoteSession(ngram, 0.2)
    threads = [
        threading.Thread(target=fake.post, args=(URL + "/v1/logprob",),
                         kwargs={"json": {"context": "a", "continuation": "b"}})
        for _ in range(4)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    elapsed = time.perf_counter() - t0
    assert not any(t.is_alive() for t in threads)
    assert fake.requests == 4
    assert fake.max_in_flight == 4
    assert fake.in_flight == 0
    assert elapsed < 4 * 0.2
    # overlapping sleeps count once
    assert 0.2 <= fake.wait_s <= elapsed
    fake.reset_counts()
    assert (fake.requests, fake.max_in_flight) == (0, 0)


def test_sequential_client_keeps_one_request_in_flight(ngram):
    fake = FakeRemoteSession(ngram, 0.0)
    client = backends.RemoteBackend(URL, session=fake)
    draws = client.sample_descriptions("rain", 3, max_tokens=5, seed=1)
    assert len(draws) == 3
    client.score_tokens("rain", draws[0].tokens)
    assert fake.by_path == {"/v1/sample": 1, "/v1/logprob": 1}
    assert fake.max_in_flight == 1
