"""The package uses nothing of a backend beyond the four contract calls.

Each workflow runs once on a bare backend and once through ``_Contract``,
which exposes only those four calls; the results must agree bit for bit.
"""

from collections import Counter

import numpy as np
import pytest

from ccdae import backends, baselines, bench, descgen, pipeline
from ccdae.bench import ChoiceRecord, PairRecord


class _Contract:
    """Exactly the four contract calls of a backend, and nothing else."""

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

    def cond_logprob(self, context, description, prompt=None, terminated=True):
        return self._backend.cond_logprob(context, description, prompt=prompt,
                                          terminated=terminated)

    def code_logprob(self, description, terminated=True):
        return self._backend.code_logprob(description, terminated=terminated)


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
                     "code_logprob"}
    with pytest.raises(AttributeError):
        _Contract(ngram_backend).model  # noqa: B018


class _Counting(_Contract):
    """``_Contract`` that counts its calls; a ``score_tokens`` call on the
    empty context and prompt is the code score of an empty draw."""

    __slots__ = ("calls",)

    def __init__(self, backend):
        super().__init__(backend)
        self.calls = Counter()

    def sample_descriptions(self, *args, **kwargs):
        self.calls["sample_descriptions"] += 1
        return super().sample_descriptions(*args, **kwargs)

    def score_tokens(self, context, tokens, terminated=True, prompt=None):
        code = context == "" and prompt == ""
        self.calls["code_score" if code else "score_tokens"] += 1
        return super().score_tokens(context, tokens, terminated, prompt=prompt)

    def cond_logprob(self, *args, **kwargs):
        self.calls["cond_logprob"] += 1
        return super().cond_logprob(*args, **kwargs)

    def code_logprob(self, *args, **kwargs):
        self.calls["code_score"] += 1
        return super().code_logprob(*args, **kwargs)


@pytest.mark.parametrize("pcode_mode", ["proposal_mix", "lm_code"])
@pytest.mark.parametrize("case", ["ngram", "table", "zero-length"])
def test_build_batch_backend_traffic(request, case, pcode_mode):
    if case == "zero-length":
        # p(EOS | "") is about 0.5 under this model, so empty draws are common
        backend = backends.NGramBackend(backends.train_ngram("a\nb\n", order=2))
        texts = ["x", "y"]
    else:
        fixture, texts = BACKENDS[case]
        backend = request.getfixturevalue(fixture)
    counting = _Counting(backend)
    config = pipeline.CompareConfig(samples_per_input=10, max_tokens=5,
                                    pcode_mode=pcode_mode)
    batch = pipeline.build_batch(texts[0], texts[1], counting, config)
    n = batch.n_hypotheses + batch.dropped  # distinct descriptions
    want = {"sample_descriptions": 2, "score_tokens": 2 * n}
    if pcode_mode == "lm_code":
        want["code_score"] = n
    assert counting.calls == want
    assert case != "zero-length" or "" in batch.texts
