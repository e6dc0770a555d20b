"""The package uses nothing of a backend beyond the four contract calls
and the batched forms of two of them.

Each workflow runs once on a bare backend and once through ``_Contract``,
which exposes only those calls; the results must agree bit for bit.
"""

from collections import Counter

import numpy as np
import pytest
from conftest import ServingSession

from ccdae import backends, baselines, bench, descgen, pipeline
from ccdae.bench import ChoiceRecord, PairRecord


class _Contract:
    """Exactly the four contract calls of a backend and their two batched
    forms, and nothing else."""

    __slots__ = ("_backend",)

    def __init__(self, backend):
        self._backend = backend

    def sample_descriptions(self, context, count, max_tokens=20, temperature=1.0,
                            seed=0, prompt=None):
        return self._backend.sample_descriptions(
            context, count, max_tokens=max_tokens, temperature=temperature,
            seed=seed, prompt=prompt)

    def score_tokens(self, context, tokens, terminated=True, prompt=None):
        return self._backend.score_tokens(context, tokens, terminated, prompt=prompt)

    def cond_logprob(self, context, description, prompt=None):
        return self._backend.cond_logprob(context, description, prompt=prompt)

    def code_logprob(self, description, terminated=True):
        return self._backend.code_logprob(description, terminated=terminated)

    def sample_many(self, requests, count, *, max_tokens, temperature, prompt):
        return self._backend.sample_many(requests, count, max_tokens=max_tokens,
                                         temperature=temperature, prompt=prompt)

    def score_many(self, requests, *, prompt):
        return self._backend.score_many(requests, prompt=prompt)


def _bits(value):
    """``value`` with every float (and array entry) spelled as ``float.hex``."""
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        return [_bits(v) for v in value.ravel().tolist()]
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items() if k != "wall_clock_s"}
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return _bits(vars(value))
    return value


def _compare(backend, a, b):
    out = []
    for pcode_mode in ("proposal_mix", "lm_code"):
        config = pipeline.CompareConfig(samples_per_input=8, max_tokens=10,
                                        pcode_mode=pcode_mode)
        report = pipeline.compare(a, b, backend, config)
        out.append((report.auc, report.curve, report.shared_descriptions,
                    report.distinctive_descriptions))
    return out


def _benches(backend, texts):
    config = pipeline.CompareConfig(max_tokens=8)
    pairs = [PairRecord(f"p{k}", a, b, float(k))
             for k, (a, b) in enumerate(zip(texts, texts[1:] + texts[:1]))]
    choices = [ChoiceRecord(f"c{k}", texts[k], texts[k - 1], texts[k - 2])
               for k in range(len(texts))]
    reports = [bench.run_similarity_bench(pairs, backend, config),
               bench.run_choice_bench(choices, backend, config)]
    assert not any(r.failures for r in reports)
    return reports


WORKFLOWS = {
    "compare": lambda be, texts: _compare(be, texts[0], texts[1]),
    "describe": lambda be, texts: descgen.describe_pair(
        be, texts[0], texts[1], atoms=4, beam_width=2, max_atoms=2, max_tokens=10),
    "cond-likelihood": lambda be, texts: [
        baselines.cond_likelihood_score(a, b, be) for a in texts for b in texts],
    "benches": _benches,
}

BACKENDS = {
    "ngram": ("ngram_backend", ["rain", "snow", "iron"]),
    "table": ("table_backend", ["img_sunset", "cap_positive", "cap_negative"]),
}


# on the n-gram model a composed description scores -inf and is dropped
@pytest.mark.filterwarnings("ignore:dropping")
@pytest.mark.parametrize("workflow", WORKFLOWS)
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_workflows_use_only_the_four_contract_calls(request, backend_name, workflow):
    fixture, texts = BACKENDS[backend_name]
    backend = request.getfixturevalue(fixture)
    run = WORKFLOWS[workflow]
    bare = _bits(run(backend, texts))
    assert _bits(run(_Contract(backend), texts)) == bare


def test_contract_wrapper_exposes_only_the_four_calls(ngram_backend):
    calls = {name for name in dir(_Contract) if not name.startswith("_")}
    assert calls == {"sample_descriptions", "score_tokens", "cond_logprob",
                     "code_logprob", "sample_many", "score_many"}
    with pytest.raises(AttributeError):
        _Contract(ngram_backend).model  # noqa: B018


class _Counting(backends.Backend, _Contract):
    """``_Contract`` that counts its single calls and answers the batched
    forms through them."""

    __slots__ = ("calls",)

    def __init__(self, backend):
        super().__init__(backend)
        self.calls = Counter()

    def sample_descriptions(self, *args, **kwargs):
        self.calls["sample_descriptions"] += 1
        return super().sample_descriptions(*args, **kwargs)

    def score_tokens(self, *args, **kwargs):
        self.calls["score_tokens"] += 1
        return super().score_tokens(*args, **kwargs)

    def cond_logprob(self, *args, **kwargs):
        self.calls["cond_logprob"] += 1
        return super().cond_logprob(*args, **kwargs)

    def code_logprob(self, *args, **kwargs):
        self.calls["code_logprob"] += 1
        return super().code_logprob(*args, **kwargs)


def _count_on_instance(backend) -> Counter:
    """Count a backend's single calls where a tracer wraps them: on the
    instance, so that its own batched forms reach the counters."""
    calls = Counter()

    def counted(name, call):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return call(*args, **kwargs)
        return wrapper

    for name in ("sample_descriptions", "score_tokens", "code_logprob"):
        setattr(backend, name, counted(name, getattr(backend, name)))
    return calls


@pytest.mark.parametrize("pcode_mode", ["proposal_mix", "lm_code"])
@pytest.mark.parametrize("case", ["ngram", "table", "zero-length", "remote"])
def test_build_batch_backend_traffic(request, case, pcode_mode):
    session = None
    if case == "zero-length":
        # p(EOS | "") is about 0.5 under this model, so empty draws are common
        backend = backends.NGramBackend(backends.train_ngram("a\nb\n", order=2))
        texts = ["x", "y"]
    elif case == "remote":
        session = ServingSession(request.getfixturevalue("ngram_backend"))
        backend = backends.RemoteBackend("http://stub", session=session)
        texts = BACKENDS["ngram"][1]
    else:
        fixture, texts = BACKENDS[case]
        backend = request.getfixturevalue(fixture)
    if session is None:
        counting = _Counting(backend)
        calls = counting.calls
    else:  # the remote backend's own batched forms, which put requests in flight
        counting = backend
        calls = _count_on_instance(backend)
    config = pipeline.CompareConfig(samples_per_input=10, max_tokens=5,
                                    pcode_mode=pcode_mode)
    batch = pipeline.build_batch(texts[0], texts[1], counting, config)
    n = batch.n_hypotheses + batch.dropped  # distinct descriptions
    want = {"sample_descriptions": 2, "score_tokens": 2 * n}
    if pcode_mode == "lm_code":  # every code score, an empty draw's too
        want["code_logprob"] = n
    assert calls == want
    assert case != "zero-length" or "" in batch.texts
    if session is not None:  # exactly one request per distinct payload
        assert set(session.sent.values()) == {1}
        assert Counter(path for path, _ in session.sent) == {
            "/v1/sample": 2, "/v1/logprob": sum(want.values()) - 2}


class _FourCalls:
    """A backend written to the four single calls alone."""

    def __init__(self, backend):
        self.sample_descriptions = backend.sample_descriptions
        self.score_tokens = backend.score_tokens
        self.cond_logprob = backend.cond_logprob
        self.code_logprob = backend.code_logprob


def test_a_backend_without_the_batched_forms_fails_by_name(ngram_backend):
    config = pipeline.CompareConfig(samples_per_input=10, max_tokens=5)
    with pytest.raises(AttributeError, match="sample_many"):
        pipeline.build_batch("rain", "iron", _FourCalls(ngram_backend), config)

    # inheriting the base supplies them, answered through the four calls
    class Upgraded(backends.Backend, _FourCalls):
        pass

    got = pipeline.build_batch("rain", "iron", Upgraded(ngram_backend), config)
    want = pipeline.build_batch("rain", "iron", ngram_backend, config)
    assert _bits(got) == _bits(want)
