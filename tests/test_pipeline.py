import math
import re
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from ccdae import backends, baselines, bench, core, descgen, oracle, pipeline
from ccdae.core import InvalidBatchError, ScoredBatch
from ccdae.pipeline import CompareConfig

from conftest import make_uniform_batch

LN2 = math.log(2.0)


@pytest.fixture(scope="module")
def quick_config():
    return CompareConfig(samples_per_input=10, max_tokens=10)


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(ValueError):
        CompareConfig(samples_per_input=0)
    with pytest.raises(ValueError):
        CompareConfig(pcode_mode="bogus")
    for temperature in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="temperature must be finite"):
            CompareConfig(temperature=temperature)


def test_compare_rejects_non_finite_lambda_grid(ngram_backend):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="lambda grid must be finite"):
            pipeline.compare("rain", "iron", ngram_backend,
                             CompareConfig(samples_per_input=5, max_tokens=5,
                                           lambda_grid=(0.0, math.nan, 2.0)))


class _RefusingBackend:
    """Every backend call fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"backend.{name} was reached")


@pytest.mark.parametrize("field, value, message", [
    ("lambda_grid", (1.0, 0.5), "lambda grid must be nonnegative and increasing"),
    ("lambda_grid", (), "lambda grid is empty"),
    ("c_max", -1.0, "c_max must be None or finite and >= 0, got -1"),
    ("c_max", math.nan, "c_max must be None or finite and >= 0, got nan"),
    ("c_max", "1", "c_max must be None or a real number, got '1'"),
    ("c_max", True, "c_max must be None or a real number, got True"),
    ("seed", -1, "seed must be a non-negative integer, got -1"),
    ("seed", 1.5, "seed must be a non-negative integer, got 1.5"),
    ("seed", True, "seed must be a non-negative integer, got True"),
], ids=["decreasing-grid", "empty-grid", "negative-cmax", "nan-cmax", "str-cmax",
        "bool-cmax", "negative-seed", "float-seed", "bool-seed"])
def test_config_refuses_bad_grid_cmax_and_seed_before_any_backend_call(
        field, value, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        pipeline.compare("rain", "iron", _RefusingBackend(),
                         CompareConfig(**{field: value}))


@pytest.mark.parametrize("temperature", ["1", True, None])
def test_config_refuses_a_temperature_that_is_not_a_real_number(temperature):
    with pytest.raises(ValueError,
                       match=f"^temperature must be a real number, got {temperature!r}$"):
        CompareConfig(temperature=temperature)


@pytest.mark.parametrize("prompt", [b"x", 5, ["describe"]])
def test_config_refuses_a_prompt_that_is_not_a_string(prompt):
    with pytest.raises(ValueError, match=re.escape(
            f"prompt must be None or a string, got {prompt!r}")):
        CompareConfig(prompt=prompt)
    for prompt in (None, "", "describe"):
        assert CompareConfig(prompt=prompt).prompt == prompt


@pytest.mark.parametrize("field", ["samples_per_input", "max_tokens"])
@pytest.mark.parametrize("value, message", [
    (2.5, "must be an integer, got 2.5"), (True, "must be an integer, got True"),
    (0, "must be >= 1, got 0"),
], ids=["float", "bool", "zero"])
def test_config_refuses_a_count_that_is_not_a_positive_integer(field, value, message):
    with pytest.raises(ValueError, match=f"^{field} {message}$"):
        CompareConfig(**{field: value})


@pytest.mark.parametrize("value", [0, 2.5, True])
@pytest.mark.parametrize("name, call", [
    ("count", lambda n: descgen.generate_atoms(_RefusingBackend(), "rain", count=n)),
    ("beam_width", lambda n: descgen.beam_compose(
        [descgen.Atom("a")], len, len, beam_width=n)),
    ("max_atoms", lambda n: descgen.beam_compose(
        [descgen.Atom("a")], len, len, max_atoms=n)),
    ("n_draws", lambda n: oracle.proposal_batch(
        oracle.FiniteHypothesisTable(code_lengths=[LN2, LN2], loss=[[1.0, 2.0]]), n)),
    ("order", lambda n: backends.train_ngram("ab\n", order=n)),
], ids=["generate_atoms", "beam_width", "max_atoms", "proposal_batch", "train_ngram"])
def test_api_refuses_a_count_that_is_not_a_positive_integer(name, call, value):
    # the check CompareConfig and the backends' sampling apply, shared
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call(value)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
@pytest.mark.parametrize("call", [
    lambda backend, seed: descgen.generate_atoms(backend, "rain", seed=seed),
    lambda backend, seed: descgen.describe_pair(backend, "rain", "iron", seed=seed),
    lambda backend, seed: baselines.noise_experiment(dimensions=(64**2,), seed=seed),
    lambda backend, seed: oracle.proposal_batch(
        oracle.FiniteHypothesisTable(code_lengths=[LN2, LN2], loss=[[1.0, 2.0]]),
        10, seed=seed),
], ids=["generate_atoms", "describe_pair", "noise_experiment", "proposal_batch"])
def test_api_refuses_bad_seed_before_any_backend_call(call, seed):
    # the check CompareConfig applies, shared
    message = f"^seed must be a non-negative integer, got {seed!r}$"
    with pytest.raises(ValueError, match=message):
        call(_RefusingBackend(), seed)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1])
def test_rank_seed_equals_inline_expression(seed):
    for rank in (0, 1):
        got = pipeline._rank_seed(seed, rank)
        assert type(got) is int
        assert got == int(np.random.default_rng([seed, rank]).integers(2**31))


# ---------------------------------------------------------------------------
# build_batch


def test_identical_inputs_zero_encoder_loss(ngram_backend, quick_config):
    batch = pipeline.build_batch("dust", "dust", ngram_backend, quick_config)
    np.testing.assert_allclose(batch.loss, 0.0, atol=1e-9)


def test_mixture_bound(ngram_backend, quick_config):
    batch = pipeline.build_batch("rain", "iron", ngram_backend, quick_config)
    assert batch.log_conditionals is not None
    la, lb = batch.log_conditionals
    lpi = batch.log_proposal
    hi = np.maximum(la, lb)
    assert np.all(lpi <= hi + 1e-9)
    assert np.all(lpi >= hi - LN2 - 1e-9)


def test_batch_swap_invariance(ngram_backend, quick_config):
    a = pipeline.build_batch("rain", "iron", ngram_backend, quick_config)
    b = pipeline.build_batch("iron", "rain", ngram_backend, quick_config)
    assert a.texts == b.texts
    assert np.array_equal(a.counts, b.counts)
    # loss rows follow the argument order, not the canonical order
    assert np.array_equal(a.loss[0], b.loss[1])
    assert np.array_equal(a.loss[1], b.loss[0])


def test_dedup_soundness():
    """Merging duplicate draws leaves every estimate unchanged."""
    from ccdae import core

    losses = np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]])
    merged = make_uniform_batch(losses, counts=np.array([3.0, 2.0, 1.0]))
    naive = make_uniform_batch(
        losses[:, [0, 0, 0, 1, 1, 2]], counts=np.ones(6)
    )
    for lam in (0.0, 0.7, 4.0):
        for i in (0, 1):
            assert core.expected_loss(merged, lam, i) == pytest.approx(
                core.expected_loss(naive, lam, i), abs=1e-9
            )
            assert core.capacity_estimate(merged, lam, i) == pytest.approx(
                core.capacity_estimate(naive, lam, i), abs=1e-9
            )


def test_lm_code_scores_zero_length_draws():
    # p(EOS | "") is about 0.5 under this model, so empty draws are common
    model = backends.train_ngram("a\nb\n", order=2)
    config = CompareConfig(samples_per_input=10, max_tokens=5,
                           pcode_mode="lm_code")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = pipeline.build_batch("x", "y", backends.NGramBackend(model),
                                     config)
    assert batch.dropped == 0
    empty = [j for j, t in enumerate(batch.texts) if t == ""]
    assert len(empty) == 1
    assert batch.log_pcode[empty[0]] == model.symbol_logprob("", backends.EOS)


def test_lm_code_truncated_draws_have_no_eos_event(ngram_backend):
    config = CompareConfig(samples_per_input=10, max_tokens=5, pcode_mode="lm_code")
    recorder = _RecordingBackend(ngram_backend)
    batch = pipeline.build_batch("rain", "iron", recorder, config)
    # the batch's hypotheses are the distinct draws in first-seen order
    merged = {}
    for s in recorder.draws:
        merged.setdefault((s.text, s.tokens, s.terminated), s)
    unique = list(merged.values())
    assert batch.dropped == 0 and batch.texts == [s.text for s in unique]
    truncated = [j for j, s in enumerate(unique) if s.text and not s.terminated]
    assert truncated
    for j in truncated:
        assert batch.log_pcode[j] == ngram_backend.score_tokens(
            "", unique[j].tokens, False, prompt="").total


def _reference_batch(x1, x2, backend, config):
    """``build_batch`` as a per-hypothesis loop, as it was written before
    the single scoring pass (with truncated ``lm_code`` draws scored
    without an EOS event)."""
    xa, xb = pipeline._canonical_order(x1, x2)
    draws = []
    for rank, x in enumerate((xa, xb)):
        seed = np.random.default_rng([config.seed, rank]).integers(2**31)
        draws.extend(backend.sample_descriptions(
            str(x), config.samples_per_input, max_tokens=config.max_tokens,
            temperature=config.temperature, seed=int(seed), prompt=config.prompt))
    merged = {}
    samples = {}
    for s in draws:
        key = (s.text, s.tokens, s.terminated)
        merged[key] = merged.get(key, 0) + 1
        samples[key] = s
    texts, log_pcodes, log_pis, counts, cond = [], [], [], [], [[], []]
    for key, mult in merged.items():
        s = samples[key]
        la = backend.score_tokens(str(x1), s.tokens, s.terminated,
                                  prompt=config.prompt).total
        lb = backend.score_tokens(str(x2), s.tokens, s.terminated,
                                  prompt=config.prompt).total
        log_pi = float(np.logaddexp(la, lb)) - math.log(2.0)
        if config.pcode_mode == "proposal_mix":
            log_pcode = log_pi
        elif s.text:
            log_pcode = backend.code_logprob(s.text, terminated=s.terminated).total
        else:
            log_pcode = backend.score_tokens("", s.tokens, s.terminated,
                                             prompt="").total
        texts.append(s.text)
        log_pcodes.append(log_pcode)
        log_pis.append(log_pi)
        counts.append(mult)
        cond[0].append(la)
        cond[1].append(lb)
    cond = np.array(cond)
    log_phat = np.logaddexp(cond[0], cond[1]) - math.log(2.0)
    loss = log_phat[None, :] - cond
    return _reference_from_columns(texts, log_pcodes, log_pis, loss,
                                   counts=np.array(counts, dtype=float),
                                   log_conditionals=cond)


def _reference_from_columns(
    texts, log_pcode, log_proposal, loss, counts=None,
    log_conditionals=None,
):
    """``ScoredBatch.from_columns``, the drop step before ``build_batch``
    took it over, verbatim but for the class it builds."""
    loss = np.asarray(loss, dtype=float)
    log_pcode = np.asarray(log_pcode, dtype=float)
    log_proposal = np.asarray(log_proposal, dtype=float)
    keep = (np.isfinite(loss).all(axis=0) & np.isfinite(log_pcode)
            & np.isfinite(log_proposal))
    n_drop = int((~keep).sum())
    if n_drop:
        warnings.warn(f"dropping {n_drop} hypotheses with non-finite scores")
    if counts is not None:
        counts = np.asarray(counts, dtype=float)[keep]
    if log_conditionals is not None:
        log_conditionals = np.asarray(log_conditionals, dtype=float)[:, keep]
    return ScoredBatch(
        texts=[t for t, k in zip(texts, keep) if k],
        log_pcode=log_pcode[keep],
        log_proposal=log_proposal[keep],
        loss=loss[:, keep],
        counts=counts,
        log_conditionals=log_conditionals,
        dropped=n_drop,
    )


# the ids name the loss as well: the encoder-only one, build_batch's only loss
@pytest.mark.parametrize("pcode_mode", ["proposal_mix", "lm_code"],
                         ids=["proposal_mix-encoder_only", "lm_code-encoder_only"])
@pytest.mark.parametrize("case", ["ngram", "ngram-prompt", "zero-length", "table"])
def test_build_batch_equals_reference(ngram_backend, table_backend, case,
                                      pcode_mode):
    backend, x1, x2, max_tokens, prompt = {
        "ngram": (ngram_backend, "rain", "iron", 5, None),
        "ngram-prompt": (ngram_backend, "snow", "clay", 8, "describe"),
        "zero-length": (backends.NGramBackend(backends.train_ngram("a\nb\n", order=2)),
                        "x", "y", 5, None),
        "table": (table_backend, "img_sunset", "cap_positive", 10, None),
    }[case]
    for seed in (0, 1):
        config = CompareConfig(samples_per_input=10, max_tokens=max_tokens,
                               seed=seed, pcode_mode=pcode_mode, prompt=prompt)
        want = _reference_batch(x1, x2, backend, config)
        got = pipeline.build_batch(x1, x2, backend, config)
        assert got.texts == want.texts
        assert got.dropped == want.dropped
        for name in ("counts", "loss", "log_conditionals"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        for name in ("log_pcode", "log_proposal"):
            assert ([v.hex() for v in getattr(got, name).tolist()]
                    == [v.hex() for v in getattr(want, name).tolist()]), name


class _RecordingBackend(backends.Backend):
    """Delegates to a backend and keeps the text of every sampled draw."""

    def __init__(self, backend):
        self.backend = backend
        self.draws = []

    @property
    def texts(self):
        return [d.text for d in self.draws]

    def sample_descriptions(self, *args, **kwargs):
        draws = self.backend.sample_descriptions(*args, **kwargs)
        self.draws += draws
        return draws

    def __getattr__(self, name):
        return getattr(self.backend, name)


# The seed-0 draws of three bundled pairs under the default config: the
# distinct texts in first-seen order, and each draw as an index into them.
PINNED_DRAWS = {
    ("rain", "snow"): (
        ("skies look clear and", "skies turn bright an", "skies turn bri"),
        "0100010001001100000000021010110101011110",
    ),
    ("snow", "clay"): (
        ("floods sweep across ", "floods rise over the", "skies look clear and",
         "skies turn bri", "skies turn bright an"),
        "0011001100010101101022234242442424244442",
    ),
    ("dust", "fern"): (
        ("floods sweep across ", "skies turn bright an", "floods rise over the",
         "skies look clear and", "floods sweep a"),
        "0123312231321203333332242200220202322100",
    ),
}


@pytest.mark.parametrize("pair", sorted(PINNED_DRAWS))
def test_build_batch_seed0_draws_pinned(ngram_backend, pair):
    recorder = _RecordingBackend(ngram_backend)
    pipeline.build_batch(*pair, recorder, CompareConfig(seed=0))
    texts, order = PINNED_DRAWS[pair]
    assert recorder.texts == [texts[int(k)] for k in order]


# ---------------------------------------------------------------------------
# compare


def test_compare_self_auc_zero(ngram_backend, quick_config):
    report = pipeline.compare("dust", "dust", ngram_backend, quick_config)
    assert report.auc == pytest.approx(0.0, abs=1e-9)


def test_compare_deterministic(ngram_backend, quick_config):
    a = pipeline.compare("rain", "fern", ngram_backend, quick_config)
    b = pipeline.compare("rain", "fern", ngram_backend, quick_config)
    assert a.to_json() == b.to_json()


def test_compare_swap_auc_bit_identical(ngram_backend, quick_config):
    a = pipeline.compare("rain", "fern", ngram_backend, quick_config)
    b = pipeline.compare("fern", "rain", ngram_backend, quick_config)
    assert a.auc == b.auc
    assert np.array_equal(a.curve.distance, b.curve.distance)


def test_compare_orders_similarity(ngram_backend, quick_config):
    near = pipeline.compare("rain", "wind", ngram_backend, quick_config).auc
    far = pipeline.compare("rain", "iron", ngram_backend, quick_config).auc
    assert near < far


def test_compare_diagnostics(ngram_backend, quick_config):
    report = pipeline.compare("rain", "iron", ngram_backend, quick_config)
    diag = report.diagnostics
    assert diag["n_hypotheses"] >= 2
    assert "lambda_min" in diag["ess"] and "lambda_max" in diag["ess"]
    assert all(v >= 1.0 for v in diag["ess"]["lambda_min"])


@pytest.mark.parametrize("backend_name, pair, config", [
    ("ngram_backend", ("rain", "iron"), CompareConfig(samples_per_input=10,
                                                      max_tokens=10)),
    ("ngram_backend", ("dust", "fern"), CompareConfig(seed=3)),
    ("ngram_backend", ("snow", "wind"), CompareConfig(
        seed=1, lambda_grid=(0.25, 0.5, 1.0, 4.0, 16.0))),
    ("table_backend", ("cap_positive", "img_sunset"), CompareConfig(seed=2)),
])
def test_report_ess_and_explanations_equal_public_functions(
        request, backend_name, pair, config):
    backend = request.getfixturevalue(backend_name)
    report = pipeline.compare(*pair, backend, config)
    batch = pipeline.build_batch(*pair, backend, config)
    grid = config.grid()
    assert report.diagnostics["ess"] == {
        "lambda_min": [pipeline.effective_sample_size(batch, float(grid[0]), i)
                       for i in (0, 1)],
        "lambda_max": [pipeline.effective_sample_size(batch, float(grid[-1]), i)
                       for i in (0, 1)],
    }
    shared, distinctive = pipeline.explain(batch, pipeline.EXPLAIN_LAMBDA)
    assert report.shared_descriptions == shared
    assert report.distinctive_descriptions == distinctive


def test_compare_report_json_is_byte_identical_to_its_recording(ngram_backend):
    # the whole report: curve, explanation lists, ESS and diagnostics, whose
    # rows come from the curve's one kernel call
    recorded = Path(__file__).parent / "data" / "compare_rain_iron.json"
    report = pipeline.compare("rain", "iron", ngram_backend, CompareConfig())
    assert report.to_json() + "\n" == recorded.read_text(encoding="utf-8")


def test_config_grid_is_built_once_and_read_only():
    for config, want in ((CompareConfig(), core.default_lambda_grid()),
                         (CompareConfig(lambda_grid=(0.5, 1.0, 4.0)), [0.5, 1.0, 4.0])):
        grid = config.grid()
        assert grid is config.grid()
        assert not grid.flags.writeable
        np.testing.assert_array_equal(grid, want)


class _WideBackend(backends.Backend):
    """Draws ``n`` distinct texts in turn; each scores -1 per token under "x1"
    and between -1 and -1.4 per token, by text, under any other input."""

    def __init__(self, n):
        self.texts = [f"{i:04d}" for i in range(n)]

    def sample_descriptions(self, context, n, max_tokens=20, temperature=1.0,
                            seed=0, prompt=None):
        return [backends.SampledDescription(t, tuple(t), (-1.0,) * len(t), True)
                for t in (self.texts[i % len(self.texts)] for i in range(n))]

    def score_tokens(self, context, tokens, terminated, prompt=None):
        per_token = -1.0 if context == "x1" else -1.0 - int("".join(tokens)) % 5 / 10
        return backends.LogProbResult.from_tokens([per_token] * len(tokens))


@pytest.mark.parametrize("wide", [False, True], ids=["narrow", "wide"])
def test_one_kernel_call_per_pair_score_and_per_compare(monkeypatch, ngram_backend, wide):
    # one hypothesis more than a default-grid trace of one sample fits in a block
    n_wide = core._BLOCK_ELEMENTS // core.default_lambda_grid().size + 1
    if wide:
        backend, pair, config = _WideBackend(n_wide), ("x1", "x2"), CompareConfig(
            samples_per_input=n_wide)
    else:
        backend, pair, config = ngram_backend, ("rain", "iron"), CompareConfig()
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    calls, threads = [], set()
    kernel, rows = core._gibbs_trace, core._trace_rows

    def counting(batch, grid, *args, **kwargs):
        calls.append(batch.n_hypotheses)
        return kernel(batch, grid, *args, **kwargs)

    def recording_rows(*args):
        threads.add(threading.current_thread())
        return rows(*args)

    for module in (core, pipeline):
        monkeypatch.setattr(module, "_gibbs_trace", counting)
    monkeypatch.setattr(core, "_trace_rows", recording_rows)
    bench.pair_score(*pair, backend, config)
    assert len(calls) == 1
    pipeline.compare(*pair, backend, config)
    assert len(calls) == 2
    width = calls[0]
    if wide:
        # each sample's trace fills more than a block: the call fans out
        assert width == n_wide and width * config.grid().size > core._BLOCK_ELEMENTS
        assert len(threads) == 2
    else:
        # both samples' rows in one hypothesis-major block, on this thread
        assert 2 * config.grid().size > width
        assert threads == {threading.current_thread()}


def test_compare_degenerate_batch_errors(table_backend):
    # temperature ~0 collapses the fixture sampler onto one description
    config = CompareConfig(samples_per_input=5, max_tokens=5, temperature=1e-9)
    with pytest.raises(InvalidBatchError):
        pipeline.compare("img_sunset", "img_sunset", table_backend, config)


class _FixedDrawsBackend(backends.Backend):
    """Draws ``texts`` in turn from every input; rescores each text at -1 per
    character, except that the texts in ``unscorable`` score -inf under the
    input "x1" (a zero-probability description)."""

    def __init__(self, texts, unscorable=()):
        self.cycle, self.unscorable = texts, set(unscorable)

    def sample_descriptions(self, context, n, max_tokens=20, temperature=1.0,
                            seed=0, prompt=None):
        texts = [self.cycle[i % len(self.cycle)] for i in range(n)]
        return [backends.SampledDescription(t, tuple(t), (-1.0,) * len(t), True)
                for t in texts]

    def score_tokens(self, context, tokens, terminated, prompt=None):
        text = "".join(tokens)
        if context == "x1" and text in self.unscorable:
            return backends.LogProbResult.from_tokens([-math.inf])
        return backends.LogProbResult.from_tokens([-1.0] * len(tokens))


def test_build_batch_drops_unscorable_hypotheses():
    backend = _FixedDrawsBackend(["aa", "b", "ccc"], unscorable={"b"})
    config = CompareConfig(samples_per_input=3)
    with pytest.warns(UserWarning, match="dropping 1 hypotheses"):
        batch = pipeline.build_batch("x1", "x2", backend, config)
    assert batch.dropped == 1
    assert batch.texts == ["aa", "ccc"]
    np.testing.assert_array_equal(batch.counts, [2.0, 2.0])
    with pytest.warns(UserWarning, match="dropping 1 hypotheses"):
        report = pipeline.compare("x1", "x2", backend, config)
    assert report.diagnostics["dropped_hypotheses"] == 1
    assert report.diagnostics["n_hypotheses"] == 2


def test_build_batch_names_the_unscorable_when_fewer_than_2_are_left():
    backend = _FixedDrawsBackend(["aa", "b"], unscorable={"b"})
    with pytest.warns(UserWarning, match="dropping 1 hypotheses"):
        with pytest.raises(InvalidBatchError,
                           match=r"^6 draws gave 2 distinct description\(s\), 1 dropped "
                                 "as unscorable; a distance needs at least 2"):
            pipeline.build_batch("x1", "x2", backend, CompareConfig(samples_per_input=3))


class _NoRescoring(_FixedDrawsBackend):
    def score_tokens(self, *args, **kwargs):
        raise AssertionError("collapsed draws must fail before any rescoring")


def test_build_batch_refuses_collapsed_draws_before_rescoring():
    with pytest.raises(InvalidBatchError,
                       match=r"^8 draws gave 1 distinct description\(s\); a distance "
                             "needs at least 2 distinct descriptions, so sample more"):
        pipeline.build_batch("x1", "x2", _NoRescoring(["aa"]),
                             CompareConfig(samples_per_input=4))


# ---------------------------------------------------------------------------
# explain


def test_explain_identical_samples_no_distinctive():
    batch = make_uniform_batch([[1.0, 2.0], [1.0, 2.0]])
    shared, (d1, d2) = pipeline.explain(batch, 1.0)
    assert all(abs(w) < 1e-12 for _, w in d1 + d2)
    assert shared[0][1] >= shared[1][1]


def test_explain_separable_distinctive_top1():
    batch = make_uniform_batch([[0.0, 10.0], [10.0, 0.0]])
    _, (d1, d2) = pipeline.explain(batch, 5.0)
    assert d1[0][0] == "h0"
    assert d2[0][0] == "h1"


def test_explain_lambda_zero_matches_proposal_ranking(ngram_backend, quick_config):
    batch = pipeline.build_batch("rain", "iron", ngram_backend, quick_config)
    shared, _ = pipeline.explain(batch, 0.0)
    # with proposal-mix code at lam=0, weights are the draw frequencies
    counts = dict(zip(batch.texts, batch.counts))
    top = max(counts, key=lambda t: (counts[t], t))
    assert shared[0][0] in {t for t in counts if counts[t] == counts[top]}


def test_explain_rejects_negative_lambda():
    batch = make_uniform_batch([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(InvalidBatchError):
        pipeline.explain(batch, -1.0)


# ---------------------------------------------------------------------------
# cross-modal / fixture comparisons


def test_cross_modal_self_zero(table_backend):
    config = CompareConfig(samples_per_input=10, max_tokens=10)
    rep = pipeline.compare("img_sunset", "img_sunset", table_backend, config)
    assert rep.auc == pytest.approx(0.0, abs=1e-9)


def test_cross_modal_positive_caption_wins(table_backend):
    config = CompareConfig(samples_per_input=12, max_tokens=10)
    pos = pipeline.compare("img_sunset", "cap_positive", table_backend,
                           config).auc
    neg = pipeline.compare("img_sunset", "cap_negative", table_backend,
                           config).auc
    assert pos < neg


def test_report_serialization_and_table(table_backend):
    config = CompareConfig(samples_per_input=10, max_tokens=10)
    rep = pipeline.compare("img_sunset", "cap_negative", table_backend, config)
    doc = rep.to_dict()
    assert set(doc) == {"auc", "curve", "shared_descriptions",
                        "distinctive_descriptions", "diagnostics"}
    text = rep.explanation_table(top=3)
    assert "shared descriptions" in text
    assert "distinctive for sample 1" in text
