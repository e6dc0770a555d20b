import json
import math
from pathlib import Path

import numpy as np
import pytest

from ccdae import backends, oracle
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
                       log_proposal=lq, loss=losses, mode="generative",
                       counts=counts)


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
        mode="encoder_only",
        counts=np.exp(logpi),
        log_conditionals=np.vstack([logp1, logp2]),
    )


class StubResponse:
    status_code = 200

    def __init__(self, text):
        self.text = text

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
