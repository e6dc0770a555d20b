import json
import math
from pathlib import Path

import numpy as np
import pytest

from ccdae import backends, oracle
from ccdae.core import Hypothesis, ScoredBatch

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
    hyps = [
        Hypothesis(tokens=(f"h{j}",), text=f"h{j}", log_pcode=float(lp[j]),
                   log_proposal=float(lq[j]))
        for j in range(n)
    ]
    return ScoredBatch(hypotheses=hyps, loss=losses, mode="generative",
                       counts=counts)


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
    hyps = [
        Hypothesis(tokens=(f"h{j}",), text=f"h{j}", log_pcode=float(logpi[j]),
                   log_proposal=float(logpi[j]))
        for j in range(logp1.size)
    ]
    return ScoredBatch(
        hypotheses=hyps,
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
