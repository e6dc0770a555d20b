import json
import math
import threading
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple
from urllib.parse import urlsplit

import numpy as np
import pytest

from ccdae import backends, core, oracle
from ccdae.core import ScoredBatch

DATA = Path(__file__).resolve().parents[1] / "src" / "ccdae" / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def tables_dir() -> Path:
    return DATA / "tables"

@pytest.fixture(scope="session")
def all_tables(tables_dir):
    return {
        p.stem: oracle.FiniteHypothesisTable.load(p)
        for p in sorted(tables_dir.glob("*.txt"))
    }


@pytest.fixture(scope="session")
def ngram_backend():
    model = backends.NGramModel.load(DATA / "toy_ngram.json")
    return backends.NGramBackend(model)


@pytest.fixture(scope="session")
def table_backend():
    return backends.TableBackend.load(DATA / "multimodal_fixture.json")


def make_uniform_batch(losses, counts=None, log_pcode=None, log_proposal=None):
    """Batch with p_code = proposal (correction term zero) and given losses."""
    losses = np.atleast_2d(np.asarray(losses, dtype=float))
    n = losses.shape[1]
    lp = np.full(n, -math.log(n)) if log_pcode is None else np.asarray(log_pcode)
    lq = lp if log_proposal is None else np.asarray(log_proposal)
    return ScoredBatch(texts=[f"h{j}" for j in range(n)], log_pcode=lp,
                       log_proposal=lq, loss=losses, counts=counts)


def benchmark_table(size, seed=0):
    """A random table built as the ``tables`` benchmark workload builds one."""
    rng = np.random.default_rng([seed, size])
    logits = rng.normal(0.0, 1.5, size)
    return oracle.FiniteHypothesisTable(
        code_lengths=-(logits - np.logaddexp.reduce(logits)),
        loss=0.5 * rng.gamma(2.0, 1.0, size) + 0.5 * rng.gamma(2.0, 1.0, (2, size)),
    )


def make_encoder_batch(logp1, logp2):
    """Exact encoder-only batch for two conditionals over a shared support.

    p_code = proposal = the equal mixture; counts proportional to the
    mixture, so the self-normalized estimators reproduce exact
    expectations.
    """
    logp1 = np.asarray(logp1, dtype=float)
    logp2 = np.asarray(logp2, dtype=float)
    logpi = np.logaddexp(logp1, logp2) - math.log(2.0)
    loss = np.vstack([logpi - logp1, logpi - logp2])
    return ScoredBatch(
        texts=[f"h{j}" for j in range(logp1.size)],
        log_pcode=logpi,
        log_proposal=logpi,
        loss=loss,
        counts=np.exp(logpi),
        log_conditionals=np.vstack([logp1, logp2]),
    )


def rate_rows(batch, lambda_grid, target=0):
    """One sample's Gibbs family along a lambda grid, read off the kernel:
    capacities, expected losses and log partitions of shape (L,), and the
    weights, of shape (L, H)."""
    grid = core._validate_grid(lambda_grid)
    t = core._gibbs_trace(batch, grid, (target,), keep_weights=grid.size)
    return t.capacity[0], t.expected[0, target], t.log_partition[0], t.weights[0]


def log_partition(batch, lam, target):
    """log of the self-normalized partition estimate (1/N) sum exp(logit)."""
    return float(core._gibbs_point(batch, lam, target).log_partition[0, 0])


def cross_loss(batch, lam, source, target):
    """Expected loss on row ``target`` under the Gibbs weights of ``source``."""
    core._check_target(batch.loss.shape[0], target)
    return float(core._gibbs_point(batch, lam, source).expected[0, target, 0])


class StubResponse:
    def __init__(self, text, status_code=200):
        self.text = text
        self.status_code = status_code

    def json(self):
        return json.loads(self.text)


class StubSession:
    """A ``requests`` session that answers every POST with one 200 reply body."""

    def __init__(self, text):
        self.text = text
        self.posts = 0

    def post(self, url, json=None, timeout=None):  # noqa: A002
        self.posts += 1
        return StubResponse(self.text)


class Send(NamedTuple):
    """One sending of a request to a :class:`ServingSession`."""

    thread: str  # the name of the thread that sent it
    n: int  # how many times the request was sent before
    in_flight: int  # requests being answered when it arrived, itself included
    start: float  # perf_counter() when it arrived
    end: float  # and when it was answered


class ServingSession:
    """A thread-safe ``requests`` session that answers the remote protocol
    from a local backend, each request after ``latency_s``.

    ``status(path, payload, n)`` may fail the ``n``-th sending of a request
    (counted from 0) with another HTTP status than 200. ``sent`` counts the
    requests per ``(path, payload as JSON)``; ``in_flight`` and ``peak`` are
    the requests being answered now and at most at once. ``sends`` logs each
    sending as a :class:`Send`, in the order they finished.
    """

    def __init__(self, backend, latency_s=0.0, status=None):
        self.backend = backend
        self.latency_s = latency_s
        self.status = status or (lambda path, payload, n: 200)
        self.sent = Counter()
        self.in_flight = self.peak = 0
        self.sends: list[Send] = []
        self._lock = threading.Lock()

    def post(self, url, json=None, timeout=None):  # noqa: A002
        path, payload = urlsplit(url).path, json
        key = (path, _dumps(payload))
        with self._lock:
            n = self.sent[key]
            self.sent[key] += 1
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            in_flight, start = self.in_flight, time.perf_counter()
        try:
            time.sleep(self.latency_s)
            status = self.status(path, payload, n)
            if status != 200:
                return StubResponse('{"error": "scripted"}', status)
            return StubResponse(_dumps(self._answer(path, payload)))
        finally:
            with self._lock:
                self.in_flight -= 1
                self.sends.append(Send(threading.current_thread().name, n,
                                       in_flight, start, time.perf_counter()))

    def _answer(self, path, payload):
        prompt = payload.get("prompt", "")
        if path == "/v1/logprob":
            result = self.backend.score_tokens(
                payload["context"], list(payload["continuation"]), False, prompt=prompt)
            return {"per_token_logprobs": list(result.per_token), "total": result.total}
        draws = self.backend.sample_descriptions(
            payload["context"], payload["num_samples"],
            max_tokens=payload["max_tokens"], temperature=payload["temperature"],
            seed=payload["seed"], prompt=prompt)
        return {"samples": [{"text": s.text,
                             "per_token_logprobs": list(s.per_token_logprobs),
                             "terminated": s.terminated} for s in draws]}


def _dumps(doc):
    return json.dumps(doc, sort_keys=True)
