"""The package uses nothing of a backend beyond the four contract calls.

Each workflow runs once on a bare backend and once through ``_Contract``,
which exposes only those four calls; the results must agree bit for bit.
"""

import numpy as np
import pytest

from ccdae import baselines, bench, descgen, pipeline
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
        for loss_mode in ("encoder_only", "generative"):
            config = pipeline.CompareConfig(samples_per_input=8, max_tokens=10,
                                            pcode_mode=pcode_mode,
                                            loss_mode=loss_mode)
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
