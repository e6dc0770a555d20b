import bisect
import json
import math
import re
import sys
import threading
import time
import types
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from conftest import DATA, ServingSession, StubSession, score_one

from ccdae import backends, baselines, bench, pipeline
from ccdae.backends import (
    EOS,
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


@pytest.mark.parametrize("symbol", ["ab", ""])
def test_ngram_load_refuses_a_symbol_that_is_not_one_character(tmp_path, symbol):
    # a draw of it would not be the characters of its text
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "magic": "CCDAE-NGRAM", "version": 1, "order": 1, "alpha": 0.5,
        "vocabulary": [EOS, "a", symbol], "counts": {"": {"a": 2, EOS: 1}}}))
    with pytest.raises(BackendError, match=f"malformed model file: .*\\[{symbol!r}\\] "
                                           "are not single characters"):
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
    base = ab_backend.score_tokens("a", list("b"), False).total
    longer = ab_backend.score_tokens("a", list("ba"), False).total
    assert longer <= base


@pytest.mark.parametrize("temperature", [0.0, -1.0, math.nan, math.inf])
def test_sampling_rejects_bad_temperature(ngram_backend, table_backend, temperature):
    # inf would sample uniformly and nan would fall off the end of the CDF
    stub = StubSession("{}")
    remote = RemoteBackend("http://stub", session=stub)
    for backend, context in ((ngram_backend, "rain"), (table_backend, "img_sunset"),
                             (remote, "rain")):
        with pytest.raises(ValueError, match="temperature must be finite"):
            backend.sample_descriptions(context, 3, temperature=temperature)
    assert stub.posts == 0


@pytest.mark.parametrize("temperature", [True, "1", None])
def test_sampling_refuses_a_temperature_that_is_not_a_real_number(
        ngram_backend, table_backend, temperature):
    stub = StubSession("{}")
    remote = RemoteBackend("http://stub", session=stub)
    for backend, context in ((ngram_backend, "rain"), (table_backend, "img_sunset"),
                             (remote, "rain")):
        with pytest.raises(ValueError, match="^temperature must be a real number, got "):
            backend.sample_descriptions(context, 3, temperature=temperature)
    assert stub.posts == 0


@pytest.mark.parametrize("name, value", [
    ("count", 2.5), ("count", True), ("count", "3"), ("max_tokens", 2.5),
    ("max_tokens", False),
])
def test_sampling_refuses_a_count_that_is_not_an_integer(
        ngram_backend, table_backend, name, value):
    stub = StubSession("{}")
    remote = RemoteBackend("http://stub", session=stub)
    args = {"count": 3, "max_tokens": 5, name: value}
    for backend, context in ((ngram_backend, "rain"), (table_backend, "img_sunset"),
                             (remote, "rain")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            backend.sample_descriptions(context, args["count"],
                                        max_tokens=args["max_tokens"])
    assert stub.posts == 0


def test_cond_logprob_rejects_empty(ab_backend):
    # the conditional likelihood refuses an empty text; as a request of its
    # own, an empty terminated text is an empty draw: the EOS event
    with pytest.raises(ValueError, match="needs two nonempty texts, got 'a' and ''"):
        baselines.cond_likelihood_score("a", "", ab_backend)
    assert score_one(ab_backend, "a", "").per_token == (
        ab_backend.model.symbol_logprob("a", EOS),)


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


def _total_logprob(s):
    return float(sum(s.per_token_logprobs))


def test_sampled_logprobs_match_rescoring(ab_backend):
    for s in ab_backend.sample_descriptions("ab", 20, max_tokens=6, seed=9):
        rescored = ab_backend.score_tokens("ab", s.tokens, s.terminated)
        assert rescored.total == _total_logprob(s)


def test_prompt_precedes_context_with_newline():
    model = train_ngram("xxb\nyyc\n" * 10, order=3)
    be = NGramBackend(model)
    assert be._prefix("ctx", "override") == "override\nctx"
    assert be._prefix("ctx", None) == be._prefix("ctx", "") == "ctx"


# ---------------------------------------------------------------------------
# compiled n-gram model and cached-CDF sampler against the per-step
# reference: what the model and sampler computed before compiling


def _reference_table(model, prefix):
    ctx = prefix[-(model.order - 1):] if model.order > 1 else ""
    while ctx not in model.counts and ctx:
        ctx = ctx[1:]
    return model.counts.get(ctx, {})


def _reference_logprob(model, prefix, symbol):
    if symbol not in set(model.vocabulary):
        return -math.inf
    table = _reference_table(model, prefix)
    num = table.get(symbol, 0) + model.smoothing_alpha
    den = sum(table.values()) + model.smoothing_alpha * model.vocab_size
    return math.log(num) - math.log(den)


def _reference_probs(model, prefix):
    table = _reference_table(model, prefix)
    den = sum(table.values()) + model.smoothing_alpha * model.vocab_size
    return np.array(
        [(table.get(s, 0) + model.smoothing_alpha) / den for s in model.vocabulary]
    )


def _reference_step(model, prefixes, temperature):
    logp = np.mean([np.log(_reference_probs(model, p)) for p in prefixes], axis=0)
    logp = logp - np.logaddexp.reduce(logp)
    tilt = logp / temperature
    tilt = tilt - tilt.max()
    probs = np.exp(tilt)
    probs /= probs.sum()
    return logp, probs


def _reference_sample(backend, prefix, count, max_tokens, temperature, seed):
    """Draws made step by step from the prefix; each records the model's
    log-prob of its symbol, as scoring reads it."""
    rng = np.random.default_rng(seed)
    vocab = backend.model.vocabulary
    out = []
    for _ in range(count):
        tokens, logprobs, terminated, current = [], [], False, prefix
        for _ in range(max_tokens):
            _, probs = _reference_step(backend.model, [current], temperature)
            idx = int(rng.choice(len(vocab), p=probs))
            logprobs.append(_reference_logprob(backend.model, current, vocab[idx]))
            if vocab[idx] == EOS:
                terminated = True
                break
            tokens.append(vocab[idx])
            current += vocab[idx]
        out.append(backends.SampledDescription(
            "".join(tokens), tuple(tokens), tuple(logprobs), terminated))
    return out


def test_bisect_draw_matches_generator_choice(ngram_backend):
    model = ngram_backend.model
    for ci, ctx in enumerate(sorted(model.counts)):
        for ti, temperature in enumerate((0.5, 1.0, 2.0)):
            _, probs = _reference_step(model, [ctx], temperature)
            cdf = ngram_backend._state(model.context(ctx), temperature).cdf
            a = np.random.default_rng([ci, ti])
            b = np.random.default_rng([ci, ti])
            for _ in range(4):
                assert bisect.bisect_right(cdf, b.random()) == int(
                    a.choice(len(probs), p=probs))
            assert b.bit_generator.state == a.bit_generator.state


@pytest.mark.parametrize("model", [
    backends.NGramModel.load(DATA / "toy_ngram.json"),
    train_ngram("the cat sat\nthe dog ran\n", order=1),
    train_ngram("the cat sat\nthe dog ran\n", order=3),
], ids=["toy", "order1", "order3"])
def test_compiled_scores_equal_reference_bit_for_bit(model):
    for ctx in model.counts:
        for prefix in (ctx, "~" + ctx, "a\n" + ctx):
            for sym in model.vocabulary:
                assert model.symbol_logprob(prefix, sym).hex() == (
                    _reference_logprob(model, prefix, sym).hex())
            assert model.symbol_logprob(prefix, "~~") == -math.inf
            assert model.symbol_logprob(prefix, "\t") == -math.inf
            assert np.array_equal(model.distribution(prefix),
                                  _reference_probs(model, prefix))


@pytest.mark.parametrize("seed, temperature, max_tokens, prompt", [
    (0, 1.0, 20, None),
    (1, 0.5, 7, None),
    (2, 2.0, 1, None),
    (3, 1.0, 12, "describe"),
    (4, 0.7, 30, "x"),
    (5, 1.0, 15, "Ω~\t"),  # a prompt of off-vocabulary characters
])
def test_sampler_equals_reference(ngram_backend, seed, temperature, max_tokens, prompt):
    def prefix(ctx):
        return f"{prompt}\n{ctx}" if prompt else ctx

    got = ngram_backend.sample_descriptions(
        "rain", 12, max_tokens=max_tokens, temperature=temperature, seed=seed,
        prompt=prompt)
    assert got == _reference_sample(ngram_backend, prefix("rain"), 12,
                                    max_tokens, temperature, seed)


def test_sampler_reaches_zero_length_draws():
    # a model that often ends at once draws immediate EOS events
    be = NGramBackend(train_ngram("a\nb\nab\n", order=2))
    got = be.sample_descriptions("", 40, max_tokens=3, seed=1)
    assert got == _reference_sample(be, "", 40, 3, 1.0, 1)
    empty = [s for s in got if s.text == ""]
    assert empty
    for s in empty:  # an ordinary draw: no tokens, terminated, the EOS event
        assert s.tokens == () and s.terminated
        assert s.per_token_logprobs == (be.model.symbol_logprob("", EOS),)
        assert be.score_tokens("", s.tokens, s.terminated).per_token == (
            s.per_token_logprobs)


def test_code_logprob_of_the_empty_description_is_the_eos_event():
    model = train_ngram("a\nb\n", order=2)
    got = score_one(NGramBackend(model), None, "")
    assert got.per_token == (model.symbol_logprob("", EOS),)
    # a truncated empty description has no event at all
    assert score_one(NGramBackend(model), None, "", False).per_token == ()


@pytest.mark.parametrize("sizes", [(1,), (3, 7, 1, 64), (4096, 5)])
def test_uniform_blocks_equal_scalar_draws(sizes):
    scalar, blocked = np.random.default_rng(9), np.random.default_rng(9)
    got = np.concatenate([blocked.random(k) for k in sizes]).tolist()
    assert got == [scalar.random() for _ in range(sum(sizes))]
    assert blocked.bit_generator.state == scalar.bit_generator.state
    # the sampler's stream, across two block boundaries
    scalar, n = np.random.default_rng(9), 2 * sizes[0] + 1
    uniforms = backends._uniforms(np.random.default_rng(9), sizes[0])
    assert [next(uniforms) for _ in range(n)] == [scalar.random() for _ in range(n)]


ORDER1 = train_ngram("the cat sat\nthe dog ran\n", order=1)


@pytest.mark.parametrize("model, context, count, max_tokens, prompt, block", [
    # about 8,000 uniforms: more than one block of the default size
    (None, "rain", 400, 20, None, None),
    (None, "snow", 30, 25, "describe", 7),
    (None, "zzz", 30, 12, "Ω~\t\n", 5),
    (ORDER1, "rain", 60, 8, None, 50),
    (ORDER1, "Ω", 30, 8, "x", 3),
], ids=["many-blocks", "prompt", "off-vocab-prompt", "order1", "order1-prompt"])
def test_sampler_equals_reference_across_blocks(ngram_backend, monkeypatch, model,
                                                context, count, max_tokens, prompt,
                                                block):
    be = ngram_backend if model is None else NGramBackend(model)
    if block is not None:
        monkeypatch.setattr(backends, "_UNIFORM_BLOCK", block)
    got = be.sample_descriptions(context, count, max_tokens, 1.0, 3, prompt)
    prefix = f"{prompt}\n{context}" if prompt else context
    assert got == _reference_sample(be, prefix, count, max_tokens, 1.0, 3)
    used = sum(len(s.per_token_logprobs) for s in got)
    assert used > (block or backends._UNIFORM_BLOCK)


# ---------------------------------------------------------------------------
# each seed's first uniform block, drawn once per process


def test_sampler_equals_reference_on_repeated_seeds(ngram_backend):
    # the same seeds again, with blocks shorter and longer than the first,
    # and one call taking its uniforms from the generator path in between
    backends._first_uniforms.cache_clear()
    for count, max_tokens, seed in [(10, 20, 7), (3, 5, 7), (10, 20, 7), (12, 40, 7),
                                    (10, 20, 8), (10, 20, [7]), (3, 5, 7), (10, 20, 8)]:
        got = ngram_backend.sample_descriptions("rain", count, max_tokens, seed=seed)
        assert got == _reference_sample(ngram_backend, "rain", count, max_tokens,
                                         1.0, seed)
    assert backends._first_uniforms.cache_info().currsize == 4


def test_sampler_past_one_block_draws_from_the_generator(ngram_backend, monkeypatch):
    backends._first_uniforms.cache_clear()
    monkeypatch.setattr(backends, "_UNIFORM_BLOCK", 100)
    for count, max_tokens in [(10, 10), (101, 1), (17, 6)]:  # n = 100, 101, 102
        got = ngram_backend.sample_descriptions("iron", count, max_tokens, seed=3)
        assert got == _reference_sample(ngram_backend, "iron", count, max_tokens, 1.0, 3)
    assert backends._first_uniforms.cache_info().currsize == 1  # only n = 100


@pytest.mark.parametrize("seed", [[5], [0, 1], np.random.SeedSequence(5), np.int64(5),
                                  True], ids=["list", "pair", "seed-sequence", "np-int",
                                              "bool"])
def test_sampler_seeds_other_than_int_take_a_new_generator(ngram_backend, seed):
    backends._first_uniforms.cache_clear()
    got = ngram_backend.sample_descriptions("rain", 10, 20, seed=seed)
    assert got == _reference_sample(ngram_backend, "rain", 10, 20, 1.0, seed)
    assert backends._first_uniforms.cache_info().currsize == 0


@pytest.mark.parametrize("n", [10 * 20, 5000])  # within one block, and past it
def test_sampler_negative_seed_raises_numpys_error(ngram_backend, n):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        ngram_backend.sample_descriptions("rain", n // 20, 20, seed=-1)


def test_sampler_from_two_threads_at_once(ngram_backend):
    backends._first_uniforms.cache_clear()
    calls = [(count, max_tokens, seed) for seed in (0, 1, 2) for count, max_tokens
             in ((10, 20), (4, 7), (10, 20))]
    want = [_reference_sample(ngram_backend, "rain", *call[:2], 1.0, call[2])
            for call in calls]
    barrier = threading.Barrier(2, timeout=10)
    got = [[], []]

    def run(i):
        barrier.wait()
        for _ in range(20):
            got[i].append([ngram_backend.sample_descriptions("rain", c, m, seed=s)
                           for c, m, s in calls])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got[0] == got[1] == [want] * 20


def test_pairs_pass_builds_one_generator_per_seed_and_block(monkeypatch, data_dir):
    """A seed-0 pass over the graded pairs, as if in a fresh process: one
    ``default_rng`` per distinct ``(int seed, n)`` of its 18 sampling calls,
    and none on a second pass; the draws are the reference sampler's."""
    backends._first_uniforms.cache_clear()
    backend = NGramBackend(backends.NGramModel.load(DATA / "toy_ngram.json"))
    made, calls = [], []
    default_rng, sample = np.random.default_rng, backend.sample_descriptions

    def counting_rng(seed=None):
        if type(seed) is int:
            made.append(seed)
        return default_rng(seed)

    def logged(context, count, max_tokens=20, temperature=1.0, seed=0, prompt=None):
        got = sample(context, count, max_tokens, temperature, seed, prompt)
        calls.append(((context, count, max_tokens, temperature, seed), got))
        return got

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    monkeypatch.setattr(backend, "sample_descriptions", logged)
    records = bench.load_pairs(data_dir / "pairs.tsv").records
    config = pipeline.CompareConfig(seed=0)
    first = bench.run_similarity_bench(records, backend, config)
    keys = {(args[4], args[1] * args[2]) for args, _ in calls}
    assert len(calls) == 18 and len(keys) == 2
    assert sorted(made) == sorted(seed for seed, _ in keys)
    assert bench.run_similarity_bench(records, backend, config).per_record == (
        first.per_record)
    assert len(calls) == 36 and len(made) == 2
    monkeypatch.undo()
    for (context, count, max_tokens, temperature, seed), got in calls:
        assert got == _reference_sample(backend, context, count, max_tokens,
                                         temperature, seed)


def _reference_score(model, prefix, tokens, terminated):
    per_token = []
    for tok in tokens:
        per_token.append(_reference_logprob(model, prefix, tok))
        prefix += tok
    if terminated:
        per_token.append(_reference_logprob(model, prefix, EOS))
    return per_token


@pytest.mark.parametrize("model", [
    backends.NGramModel.load(DATA / "toy_ngram.json"),
    ORDER1,
    train_ngram("the cat sat\nthe dog ran\n", order=3),
], ids=["toy", "order1", "order3"])
def test_score_tokens_equal_reference_walk_bit_for_bit(model):
    be = NGramBackend(model)
    rng = np.random.default_rng(0)
    pool = list(model.vocabulary) + ["~", "Ω", "\t", "ab", "the", "", EOS]
    contexts = sorted(model.counts) + ["rain", "~Ω"]
    for trial in range(300):
        context = contexts[trial % len(contexts)]
        prompt = (None, "", "describe", "Ω\n~")[trial % 4]
        tokens = [pool[i] for i in rng.integers(len(pool), size=rng.integers(1, 15))]
        terminated = bool(trial % 3)
        prefix = f"{prompt}\n{context}" if prompt else context
        want = _reference_score(model, prefix, tokens, terminated)
        got = be.score_tokens(context, tokens, terminated, prompt)
        assert [v.hex() for v in got.per_token] == [v.hex() for v in want]
        assert got.total.hex() == float(sum(want)).hex()


def test_automaton_is_bounded_by_the_contexts_it_visits():
    model = backends.NGramModel.load(DATA / "toy_ngram.json")
    be = NGramBackend(model)
    visited = set()
    for seed in range(12):
        for context, prompt in (("rain", None), ("snow", "describe"),
                                ("iron", "describe"), ("", "Ω"), ("zzz~", "Ω")):
            for temperature in (0.5, 1.0):
                prefix = f"{prompt}\n{context}" if prompt else context
                for s in be.sample_descriptions(context, 10, 15, temperature, seed,
                                                prompt):
                    # the states of every step, and the one after a truncation
                    for k in range(len(s.text) + 1):
                        visited.add((model.context(prefix + s.text[:k]), temperature))
    assert 0 < len(be._states) <= len(visited)
    stored = set(model.counts) | {""}
    assert all(context in stored for context, _ in be._states)
    # scoring off-vocabulary tokens adds only temperature-1 states of
    # stored contexts
    sampled = set(be._states)
    for tok in ("~", "Ω", "\t", "ab", "the other", "~~"):
        assert be.score_tokens("rain", [tok] * 5, False).total == -math.inf
    assert all(context in stored and temperature == 1.0
               for context, temperature in set(be._states) - sampled)


@pytest.mark.parametrize("backend", [
    NGramBackend(backends.NGramModel.load(DATA / "toy_ngram.json")),
    NGramBackend(ORDER1),
    NGramBackend(train_ngram("the cat sat\nthe dog ran\n", order=3)),
    TableBackend.load(DATA / "multimodal_fixture.json"),
], ids=["toy", "order1", "order3", "table"])
def test_every_draw_rescores_to_exactly_its_logprobs(backend):
    if isinstance(backend, TableBackend):
        requests = [(ctx, None) for ctx in backend.cond]
    else:
        requests = [(ctx, prompt) for ctx in ("rain", "the ", "zzz~")
                    for prompt in (None, "describe", "Ω~\t")]
    for seed, (context, prompt) in enumerate(requests):
        for temperature in (0.5, 1.0, 2.0):
            draws = backend.sample_descriptions(context, 100, 12, temperature,
                                                seed, prompt)
            for s in draws:
                rescored = backend.score_tokens(context, s.tokens, s.terminated,
                                                prompt)
                assert rescored.per_token == s.per_token_logprobs


# ---------------------------------------------------------------------------
# table backend


def test_table_lookup_verbatim(table_backend):
    r = score_one(table_backend, "img_sunset", "d_sun")
    assert r.per_token == (-0.4, -0.3)
    # lookup by rendered text resolves to the same row
    text = table_backend.descriptions["d_sun"]
    assert score_one(table_backend, "img_sunset", text).total == r.total


def test_table_floor_fallback(table_backend):
    r = score_one(table_backend, "img_sunset", "unknown words here")
    assert r.per_token == (-20.0, -20.0, -20.0)


@pytest.mark.parametrize("doc", [
    None,
    {
        "magic": "CCDAE-TABLE",
        "descriptions": {"u": "calm  water ", "v": " u ", "w": "v w"},
        "cond": {
            "c1": {"u": [-0.5, -0.25], "v": [-1.5], "w": [-3.0]},
            "c2": {"u": [-2.0], "v": [-0.125, -0.5], "w": [-0.75]},
        },
    },
], ids=["bundled", "whitespace-and-id-like-texts"])
def test_table_rescoring_own_draws_gives_sampled_totals(table_backend, doc):
    """Every draw, rescored by its tokens or its text, totals what it was
    sampled with.

    The n-gram half is ``test_sampled_logprobs_match_rescoring``.
    ``RemoteBackend`` is not covered: its ``/v1/logprob`` reply has no EOS
    event, so a terminated draw's sampled total cannot be rebuilt from it.
    """
    be = table_backend if doc is None else TableBackend(doc)
    for ctx in be.cond:
        for s in be.sample_descriptions(ctx, 30, seed=4):
            rescored = be.score_tokens(ctx, s.tokens, s.terminated)
            assert rescored.total == _total_logprob(s)
            assert score_one(be, ctx, s.text, s.terminated) == rescored


def _scalar_table_sample(be, context, count, temperature, seed):
    """The table sampler's ids drawn one ``choice`` call at a time."""
    items = sorted(be.cond[context].items())
    tilt = np.array([sum(v) for _, v in items]) / temperature
    tilt = tilt - tilt.max()
    probs = np.exp(tilt)
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    return [items[int(rng.choice(len(items), p=probs))][0] for _ in range(count)]


def test_table_sampler_equals_scalar_draws():
    rng = np.random.default_rng(12)
    for n_items in range(1, 8):
        row = {f"d{j}": rng.uniform(-4.0, -0.01, rng.integers(1, 4)).tolist()
               for j in range(n_items)}
        be = TableBackend({"magic": "CCDAE-TABLE", "descriptions": {}, "cond": {"c": row}})
        for seed in range(25):
            for count in (1, 2, 5, 17, 33):
                temperature = (1.0, 0.5, 2.0)[seed % 3]
                got = be.sample_descriptions("c", count, temperature=temperature,
                                             seed=seed)
                want = _scalar_table_sample(be, "c", count, temperature, seed)
                assert [s.text for s in got] == want


def test_table_id_without_a_text_is_its_own_text():
    be = TableBackend({
        "magic": "CCDAE-TABLE",
        "descriptions": {"d1": "red sky"},
        "cond": {"x": {"d1": [-0.5, -0.5], "plain": [-0.3]}, "y": {"plain": [-0.7]}},
        "code": {"plain": [-0.9]},
    })
    draws = be.sample_descriptions("x", 30, seed=0)
    assert {s.text for s in draws} == {"red sky", "plain"}
    for s in draws:
        assert be.score_tokens("x", s.tokens, s.terminated).per_token == \
            s.per_token_logprobs
    assert score_one(be, "y", "plain").per_token == (-0.7,)
    assert score_one(be, None, "plain").per_token == (-0.9,)


def test_table_refuses_an_id_whose_own_text_is_another_description():
    doc = {
        "magic": "CCDAE-TABLE",
        "descriptions": {"a": "plain"},
        "cond": {"c": {"a": [-0.5], "plain": [-3.0]}},
    }
    with pytest.raises(BackendError, match="'a' and 'plain'"):
        TableBackend(doc)


@pytest.mark.parametrize("texts, refused", [
    ({"a": "b", "b": "c"}, "'a' has the text 'b'"),
    ({"a": "", "b": "c"}, "'a' has the text ''"),
], ids=["another-id", "empty"])
def test_table_refuses_a_text_that_would_not_rescore_as_its_own(texts, refused):
    # a draw of "a" has the text "b", and the text "b" names the row of "b";
    # an empty text names no description under a context
    doc = {"magic": "CCDAE-TABLE", "descriptions": texts,
           "cond": {"c": {"a": [-0.5], "b": [-3.0]}}}
    with pytest.raises(BackendError, match=refused):
        TableBackend(doc)


@pytest.mark.parametrize("texts", [
    {"a": "same words", "b": "same words"},
    {"a": "x  y", "b": "x y"},
], ids=["equal-texts", "equal-tokens"])
def test_table_rejects_colliding_descriptions(texts):
    # a draw of "a" would rescore as "b": sampled at -0.5, rescored at -3.0
    doc = {
        "magic": "CCDAE-TABLE",
        "descriptions": texts,
        "cond": {"c": {"a": [-0.5], "b": [-3.0]}},
    }
    with pytest.raises(BackendError, match="'a' and 'b'"):
        TableBackend(doc)


def test_table_names_a_description_by_its_id_or_its_words(table_backend):
    # by id, and by its words whatever whitespace separates them
    be = table_backend
    assert score_one(be, "img_sunset", "d_sun").per_token == (-0.4, -0.3)
    spaced = score_one(be, "img_sunset", "a bright  sun over calm water")
    assert spaced.per_token == (-0.4, -0.3)
    words = ("a", "bright", "sun", "over", "calm", "water")
    assert be.score_tokens("img_sunset", words, True).per_token == (-0.4, -0.3)
    assert score_one(be, None, " a bright sun over calm water\n").per_token == (
        -1.0, -1.1)


def test_table_tokens_that_name_no_description_score_at_the_floor(table_backend):
    # the one token spells the id d_sun, but tokens name a description only
    # by its words
    r = table_backend.score_tokens("img_sunset", ("d_sun",), True)
    assert r.per_token == (-20.0,)
    r = table_backend.score_tokens("img_sunset", ("bright", "sun"), True)
    assert r.per_token == (-20.0, -20.0)


def test_table_empty_descriptions(table_backend):
    for call in (lambda: score_one(table_backend, "img_sunset", ""),
                 lambda: table_backend.score_tokens("img_sunset", (), True)):
        with pytest.raises(ValueError, match="^description must be nonempty$"):
            call()
    assert score_one(table_backend, None, "").per_token == (-20.0,)


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(floor="-5"),
    lambda doc: doc["cond"]["c"].update(d=["-0.5"]),
    lambda doc: doc["cond"]["c"].update(d=[False]),
    lambda doc: doc.update(code={"d": [None]}),
], ids=["str-floor", "str-cond", "bool-cond", "null-code"])
def test_table_logprobs_must_be_json_numbers(edit):
    doc = {"magic": "CCDAE-TABLE", "descriptions": {}, "cond": {"c": {"d": [-0.5]}}}
    TableBackend(doc)
    edit(doc)
    with pytest.raises(BackendError, match="is not a JSON number"):
        TableBackend(doc)


def test_table_logprob_too_large_for_a_float_is_malformed():
    doc = {"magic": "CCDAE-TABLE", "descriptions": {},
           "cond": {"c": {"d": [-(10 ** 400)]}}}
    with pytest.raises(BackendError, match="^malformed table-backend fixture: "
                                           "OverflowError"):
        TableBackend(doc)


def test_table_context_must_list_a_description():
    doc = {"magic": "CCDAE-TABLE", "descriptions": {},
           "cond": {"c": {}, "e": {"d": [-0.5]}}}
    with pytest.raises(BackendError, match="^context 'c' lists no descriptions$"):
        TableBackend(doc)


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
    r = score_one(be, "ctx", "three word caption")
    assert r.per_token == (-0.1, -0.1, -0.1)
    draws = be.sample_descriptions("ctx", 5, seed=1)
    assert len(draws) == 5
    again = be.sample_descriptions("ctx", 5, seed=1)
    assert [s.text for s in draws] == [s.text for s in again]


def test_remote_retries_transient_failure(server):
    _Handler.fail_next = 2
    be = RemoteBackend(server, backoff=0.01, max_retries=3)
    r = score_one(be, "ctx", "ok")
    assert r.total == pytest.approx(-0.1)


def test_remote_exhausted_retries_raise(server):
    _Handler.fail_next = 5
    be = RemoteBackend(server, backoff=0.01, max_retries=2)
    with pytest.raises(RemoteBackendError) as exc:
        score_one(be, "ctx", "ok")
    _Handler.fail_next = 0
    assert exc.value.status == 503
    assert exc.value.retryable


def test_remote_client_error_not_retried(server):
    be = RemoteBackend(server, backoff=0.01)
    with pytest.raises(RemoteBackendError) as exc:
        be._post("/v1/bad", {})
    assert exc.value.status == 400
    assert not exc.value.retryable


class _FailingSession(StubSession):
    """A session whose ``post`` raises each of ``errors`` in turn, then
    answers with ``text``, as a client whose socket fails would."""

    def __init__(self, text, errors):
        super().__init__(text)
        self.errors = list(errors)

    def post(self, url, json=None, timeout=None):  # noqa: A002
        if self.errors:
            self.posts += 1
            raise self.errors.pop(0)
        return super().post(url, json=json, timeout=timeout)


def test_remote_retries_a_transport_error_of_its_session():
    session = _FailingSession('{"per_token_logprobs": [-0.5, -0.25]}',
                              [ConnectionResetError("reset by peer")])
    be = RemoteBackend("http://stub", backoff=0.0, session=session)
    assert score_one(be, "ctx", "two words").per_token == (-0.5, -0.25)
    assert session.posts == 2


def test_remote_transport_errors_on_every_attempt_raise_typed():
    session = _FailingSession("{}", [TimeoutError()] * 10)
    be = RemoteBackend("http://stub", backoff=0.0, max_retries=3, session=session)
    with pytest.raises(RemoteBackendError, match="^TimeoutError ") as exc:
        score_one(be, "ctx", "two words")
    assert exc.value.retryable and exc.value.status is None
    assert session.posts == be.max_retries


def test_remote_connection_error():
    be = RemoteBackend("http://127.0.0.1:1", backoff=0.01, max_retries=2,
                       timeout=0.5)
    with pytest.raises(RemoteBackendError):
        score_one(be, "ctx", "ok")


# ---------------------------------------------------------------------------
# remote backend: a batched call's requests in flight together

_TEXTS = ["wet sky", "grey clouds", "cold", "dark rain falls", "snow", "ice on iron",
          "warm", "sun and sky", "blue", "soft wind", "hard metal", "clear air"]

#: Twelve texts rescored under two inputs, and the first request once more.
_SCORES = [(context, text, True)
           for context in ("rain", "iron") for text in _TEXTS]
_SCORES.append(_SCORES[0])


def _remote(ngram_backend, max_in_flight, status=None, latency_s=0.01):
    """A remote backend over a session that takes 10 ms per request."""
    session = ServingSession(ngram_backend, latency_s=latency_s, status=status)
    return RemoteBackend("http://stub", backoff=0.0, max_in_flight=max_in_flight,
                         session=session), session


@pytest.fixture(scope="module")
def one_at_a_time(ngram_backend):
    """``_SCORES`` and two samples, each from a single call."""
    remote, _ = _remote(ngram_backend, 1, latency_s=0.0)
    return ([score_one(remote, *r) for r in _SCORES],
            [remote.sample_descriptions("rain", 5, max_tokens=6, seed=1),
             remote.sample_descriptions("iron", 5, max_tokens=6, seed=2)])


def _hex(results):
    return [[v.hex() for v in r.per_token] + [r.total.hex()] for r in results]


def _scoring(request):
    """The session's key of a ``score_many`` request."""
    context, text, _ = request
    return "/v1/logprob", json.dumps({"context": context,
                                      "continuation": " ".join(text.split())},
                                     sort_keys=True)


def _fails(request, status, attempts):
    """A session ``status`` that fails the first ``attempts`` sendings of
    ``request`` with ``status``."""
    def answer(path, payload, n):
        sent = (path, json.dumps(payload, sort_keys=True))
        return status if sent == _scoring(request) and n < attempts else 200
    return answer


@pytest.mark.parametrize("max_in_flight", [1, 3, 8])
def test_remote_batch_overlaps_within_max_in_flight_and_keeps_order(
        ngram_backend, one_at_a_time, max_in_flight):
    want_scores, want_draws = one_at_a_time
    remote, session = _remote(ngram_backend, max_in_flight)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        scores = remote.score_many(_SCORES, prompt=None)
        draws = remote.sample_many([("rain", 1), ("iron", 2)], 5, max_tokens=6,
                                    temperature=1.0, prompt=None)
    finally:
        sys.setswitchinterval(interval)
    assert _hex(scores) == _hex(want_scores)
    assert draws == want_draws
    assert min(max_in_flight, 2) <= session.peak <= max_in_flight
    assert session.in_flight == 0
    # one request per distinct payload: 12 texts under 2 inputs, 2 samples
    assert len(session.sent) == 26 and set(session.sent.values()) == {1}


def test_remote_batch_error_cancels_the_rest_and_is_not_stored(ngram_backend):
    bad = _SCORES[4]
    remote, session = _remote(ngram_backend, 2, status=_fails(bad, 400, attempts=1))
    reuse = bench._Reuse(remote, {"rain": 1, "iron": 1})
    t0 = time.perf_counter()
    with pytest.raises(RemoteBackendError) as exc:
        reuse.score_many(_SCORES, prompt=None)
    assert time.perf_counter() - t0 < 2.0
    assert exc.value.status == 400 and not exc.value.retryable
    sent = sum(session.sent.values())
    assert session.in_flight == 0 and sent < len(_TEXTS) * 2  # the rest never started
    time.sleep(0.05)
    assert sum(session.sent.values()) == sent  # and never will
    assert reuse._memo == {}

    # the next record sends the failed request again, and then keeps it
    scores = reuse.score_many(_SCORES, prompt=None)
    assert session.sent[_scoring(bad)] == 2
    sent = sum(session.sent.values())
    assert _hex(reuse.score_many(_SCORES, prompt=None)) == _hex(scores)
    assert sum(session.sent.values()) == sent


def test_remote_batch_retries_a_failed_first_attempt_per_request(ngram_backend,
                                                                 one_at_a_time):
    flaky = _SCORES[5]
    remote, session = _remote(ngram_backend, 4, status=_fails(flaky, 503, attempts=1))
    assert _hex(remote.score_many(_SCORES, prompt=None)) == _hex(one_at_a_time[0])
    assert session.sent[_scoring(flaky)] == 2
    assert sum(session.sent.values()) == len(_TEXTS) * 2 + 1
    assert session.peak <= 4  # the retry waits its turn


def _most_at_once(sends):
    """The most of ``sends`` being answered at one moment."""
    return max(sum(o.start <= s.start < o.end for o in sends) for s in sends)


def test_remote_batch_sends_retries_from_the_pool_together(ngram_backend,
                                                            one_at_a_time):
    session = ServingSession(ngram_backend, latency_s=0.01,
                             status=lambda path, payload, n: 503 if n == 0 else 200)
    remote = RemoteBackend("http://stub", backoff=0.02, max_in_flight=4,
                           session=session)
    assert _hex(remote.score_many(_SCORES, prompt=None)) == _hex(one_at_a_time[0])
    retries = [s for s in session.sends if s.n > 0]
    assert len(retries) == len(_TEXTS) * 2 and set(session.sent.values()) == {2}
    # every attempt runs on the pool, so the retries overlap
    assert {s.thread.startswith("ccdae-remote") for s in session.sends} == {True}
    assert _most_at_once(retries) >= 2
    assert max(s.in_flight for s in session.sends) <= 4


def test_remote_batch_raises_a_request_that_fails_every_attempt(ngram_backend):
    dead = _SCORES[3]
    remote, session = _remote(ngram_backend, 4, status=_fails(dead, 503, attempts=99))
    with pytest.raises(RemoteBackendError) as exc:
        remote.score_many(_SCORES, prompt=None)
    assert exc.value.status == 503 and exc.value.retryable
    assert session.sent[_scoring(dead)] == remote.max_retries
    assert session.in_flight == 0
    sent = sum(session.sent.values())
    time.sleep(0.05)
    assert sum(session.sent.values()) == sent


def test_remote_batch_with_a_bad_request_sends_nothing(ngram_backend):
    remote, session = _remote(ngram_backend, 4)
    with pytest.raises(ValueError, match="description must be nonempty"):
        remote.score_many([("rain", "wet", True), ("rain", "", True)], prompt=None)
    with pytest.raises(ValueError, match="count must be >= 1"):
        remote.sample_many([("rain", 1), ("iron", 2)], 0, max_tokens=6,
                           temperature=1.0, prompt=None)
    assert not session.sent


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
            score_one(be, "ctx", "two words")
        else:
            be.sample_descriptions("ctx", 2)
    assert not exc.value.retryable
    assert stub.posts == 1


def test_remote_draw_tokens_are_the_words_of_its_text():
    # only the documented fields are read; a "tokens" field is not one
    body = json.dumps({"samples": [
        {"text": "wet  sky", "per_token_logprobs": [-0.5], "tokens": ["x"]},
        {"text": "calm", "per_token_logprobs": [-0.25], "terminated": False},
    ]})
    draws = RemoteBackend("http://stub", session=StubSession(body)
                          ).sample_descriptions("ctx", 2)
    assert [(s.text, s.tokens, s.terminated) for s in draws] == [
        ("wet  sky", ("wet", "sky"), True), ("calm", ("calm",), False)]


@pytest.mark.parametrize("kwargs", [
    {"max_retries": 0}, {"max_retries": -1}, {"max_retries": 2.0},
    {"max_retries": True}, {"max_in_flight": 0}, {"max_in_flight": 1.5},
    {"timeout": 0.0}, {"timeout": -1.0}, {"timeout": math.nan},
    {"backoff": -0.1}, {"backoff": math.nan},
    {"endpoint": 5}, {"endpoint": b"http://stub"},
    {"session": "http://stub"}, {"session": types.SimpleNamespace(post="x")},
], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_remote_rejects_bad_constructor_arguments(kwargs):
    # checked at construction only: no request is started
    stub = StubSession("{}")
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        RemoteBackend(**{"endpoint": "http://stub", "session": stub, **kwargs})
    assert stub.posts == 0
    RemoteBackend("http://stub", session=stub, max_retries=1, max_in_flight=1,
                  timeout=0.5, backoff=0.0)


@pytest.mark.parametrize("kwargs", [
    {"timeout": True}, {"timeout": "1"}, {"timeout": math.inf}, {"timeout": None},
    {"backoff": True}, {"backoff": "0.1"}, {"backoff": math.inf},
], ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()))
def test_remote_refuses_a_timeout_or_backoff_that_is_not_a_finite_real(kwargs):
    stub = StubSession("{}")
    name, value = next(iter(kwargs.items()))
    bound = {"timeout": "> 0", "backoff": ">= 0"}[name]
    with pytest.raises(ValueError,
                       match=f"^{name} must be {bound} and finite, got {value!r}$"):
        RemoteBackend("http://stub", session=stub, **kwargs)
    assert stub.posts == 0


# ---------------------------------------------------------------------------
# score_many: one request form on every backend


def _three_backends(ngram_backend, table_backend):
    """The n-gram and table backends, and a remote one over a session that
    answers from the n-gram backend, with that session."""
    session = ServingSession(ngram_backend)
    remote = RemoteBackend("http://stub", backoff=0.0, session=session)
    return {"ngram": ngram_backend, "table": table_backend, "remote": remote}, session


@pytest.mark.parametrize("request_", [
    ("rain", ("w", "e", "t"), True),  # the old form: tokens, not a text
    ("rain", "wet"),
    ("rain", "wet", True, None),
    "rain",
    None,
    ("rain", b"wet", True),
    (5, "wet", True),
    ("rain", "wet", 1),
    ("rain", "wet", None),
], ids=["tokens", "two-items", "four-items", "a-str", "none", "bytes-text",
        "int-context", "int-terminated", "none-terminated"])
def test_score_many_refuses_a_malformed_request_by_name(ngram_backend, table_backend,
                                                        request_):
    be, session = _three_backends(ngram_backend, table_backend)
    for name, backend in be.items():
        context = "img_sunset" if name == "table" else "rain"
        with pytest.raises(ValueError, match=f"^scoring request {re.escape(repr(request_))} "
                                             "is not \\(context, text, terminated\\)"):
            backend.score_many([(context, "wet", True), request_], prompt=None)
    assert not session.sent  # refused before anything was sent


@pytest.mark.parametrize("case", ["toy", "zero-length", "table", "remote"])
def test_every_draw_is_its_backends_split_of_its_text(ngram_backend, table_backend,
                                                      case):
    """A draw's tokens are what its backend makes of its text, so a draw
    rescored by its text is the draw rescored by its tokens."""
    be, _ = _three_backends(ngram_backend, table_backend)
    backend, contexts = be.get(case, ngram_backend), ["rain", "iron"]
    split = {"table": lambda text: backends._split(  # the description it names
                 table_backend.descriptions.get(text, text)),
             "remote": backends._split,  # its words, or the text itself if none
             }.get(case, tuple)  # an n-gram text's tokens are its characters
    if case == "zero-length":
        backend, contexts = NGramBackend(train_ngram("a\nb\n", order=2)), ["", "x"]
    elif case == "table":
        contexts = list(table_backend.cond)
    draws = [(context, s) for seed, context in enumerate(contexts)
             for s in backend.sample_descriptions(context, 30, max_tokens=8, seed=seed)]
    assert case != "zero-length" or any(s.text == "" for _, s in draws)
    for context, s in draws:
        assert s.tokens == split(s.text)
    if case == "remote":  # /v1/logprob cannot score an empty text
        draws = [(context, s) for context, s in draws if s.text]
    got = backend.score_many([(c, s.text, s.terminated) for c, s in draws],
                             prompt=None)
    assert got == [backend.score_tokens(c, s.tokens, s.terminated) for c, s in draws]


def test_remote_sends_a_texts_words_rejoined_and_a_code_score_without_prompt(
        ngram_backend):
    session = ServingSession(ngram_backend)
    remote = RemoteBackend("http://stub", session=session)
    remote.score_many([("rain", " wet\tsky ", True), (None, "wet  sky", False)],
                      prompt="describe")
    assert sorted(payload for _, payload in session.sent) == sorted(
        json.dumps(p, sort_keys=True) for p in (
            {"context": "rain", "continuation": "wet sky", "prompt": "describe"},
            {"context": "", "continuation": "wet sky"}))
