"""Description-scoring backends.

Three implementations share one contract of three calls: seeded sampling
of one context's descriptions (``sample_descriptions``), its batched form
``sample_many``, and ``score_many``, which scores a list of ``(context,
text, terminated)`` requests in order. A context of ``None`` asks for the
text's unconditional code log-prob, with no context and no prompt. A prompt
is passed per call; ``None`` and ``""`` both mean no prompt. Each backend
splits a text into tokens by the rule its draws follow, and scores them
with its own ``score_tokens``, once per distinct request.

* ``NGramBackend`` — a character n-gram model with additive smoothing;
  self-contained stand-in for a large conditional text model.
* ``TableBackend`` — fixture lookups from a JSON document; used by tests
  and golden runs.
* ``RemoteBackend`` — HTTP client for a two-endpoint log-prob server.

End-of-sequence handling: a draw's ``per_token_logprobs`` are its tokens'
log-probs plus the EOS log-prob if it ``terminated`` (ended with EOS before
``max_tokens``); EOS is never one of its tokens. The rule has no exception:
an immediate EOS is the draw with text ``""``, no tokens and ``terminated``
set, whose one log-prob is the EOS event's. A scoring request takes the
same ``terminated`` flag, so a draw rescores as it was sampled.
``NGramBackend`` samples and scores by walking one automaton of back-off
contexts, and a draw records the log-probs that scoring reads from it, so
rescoring gives them back exactly.
"""

from __future__ import annotations

import functools
import json
import math
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .core import _check_count, _check_temperature, _is_real, _LazyPool

__all__ = [
    "EOS",
    "LogProbResult",
    "SampledDescription",
    "BackendError",
    "RemoteBackendError",
    "Backend",
    "NGramModel",
    "NGramBackend",
    "TableBackend",
    "RemoteBackend",
    "train_ngram",
]

#: Reserved end-of-sequence symbol (multi-char, so never a literal token).
EOS = "</s>"

_MAGIC_NGRAM = "CCDAE-NGRAM"
_MAGIC_TABLE = "CCDAE-TABLE"


class BackendError(RuntimeError):
    pass


class RemoteBackendError(BackendError):
    """Transport or server failure; carries endpoint detail for retries."""

    def __init__(self, message: str, endpoint: str, status: int | None = None,
                 body: str | None = None, retryable: bool = True):
        super().__init__(f"{message} (endpoint={endpoint}, status={status})")
        self.endpoint = endpoint
        self.status = status
        self.body = body
        self.retryable = retryable


@dataclass(frozen=True)
class LogProbResult:
    total: float
    per_token: tuple[float, ...]

    def __post_init__(self) -> None:
        if abs(self.total - sum(self.per_token)) > 1e-9 * max(1.0, abs(self.total)):
            raise ValueError("total does not match per-token sum")

    @classmethod
    def from_tokens(cls, per_token: Sequence[float]) -> "LogProbResult":
        pt = tuple(float(v) for v in per_token)
        return cls(total=float(sum(pt)), per_token=pt)


@dataclass(frozen=True)
class SampledDescription:
    text: str
    tokens: tuple[str, ...]
    per_token_logprobs: tuple[float, ...]
    terminated: bool


class Backend:
    """The batched form of ``sample_descriptions``: ``sample_many`` answers
    its requests in order, one ``sample_descriptions`` call each, looked up
    on the instance. A backend that can serve requests together overrides
    it; the results must stay those of the single calls. ``score_many`` has
    no default: how a text splits into tokens is each backend's own rule.
    """

    __slots__ = ()

    def sample_many(self, requests, count, *, max_tokens, temperature,
                    prompt) -> list[list[SampledDescription]]:
        """``sample_descriptions`` of each ``(context, seed)`` in ``requests``."""
        return [self.sample_descriptions(context, count, max_tokens=max_tokens,
                                         temperature=temperature, seed=seed,
                                         prompt=prompt)
                for context, seed in requests]


def _score_request(request) -> tuple:
    """``request`` as a ``(context, text, terminated)`` tuple, else a
    ``ValueError`` that names it."""
    try:
        context, text, terminated = request
        ok = ((context is None or isinstance(context, str))
              and isinstance(text, str) and isinstance(terminated, bool))
    except (TypeError, ValueError):  # not 3 items
        ok = False
    if not ok:
        raise ValueError(f"scoring request {request!r} is not (context, text, "
                         "terminated): a str or None, a str and a bool")
    return context, text, terminated


def _score_distinct(requests, score) -> list[LogProbResult]:
    """``score(context, text, terminated)`` of each request, in order, once
    per distinct request; every request is checked before any is scored."""
    checked = [_score_request(r) for r in requests]
    answers = {r: score(*r) for r in dict.fromkeys(checked)}
    return [answers[r] for r in checked]


# ---------------------------------------------------------------------------
# character n-gram model


def _is_count(n) -> bool:
    """A non-negative int that is not a bool."""
    return isinstance(n, int) and not isinstance(n, bool) and n >= 0


def _check_denominator(context: str, total: int, width: float) -> None:
    """A context's row divides by its count total plus alpha * |V|, which
    must be a positive float: an overflow makes every probability 0, and
    a zero divides by zero."""
    try:
        den = total + width
    except OverflowError:  # a count total too large for a float
        den = math.inf
    if not 0 < den < math.inf:
        raise ValueError(f"context {context!r}: count total plus smoothing is "
                         f"{den!r}, not a positive finite float")


class _ContextRow(NamedTuple):
    """One context's next-symbol distribution, indexed like the vocabulary."""

    logprobs: tuple[float, ...]  # log(count + alpha) - log(den) (-inf at 0), scores
    probs: np.ndarray  # (count + alpha) / den, for sampling


@dataclass
class NGramModel:
    """Character n-gram counts with additive smoothing.

    ``counts`` maps a context string (length < order) to next-symbol
    counts; contexts of every length from 0 to order-1 are stored so
    scoring can back off to the longest context actually seen. The stored
    contexts must be prefix-closed (every nonempty prefix of a stored
    context is stored too), so that the context after a symbol depends
    only on the context before it: ``context(prefix + s) ==
    context(context(prefix) + s)``. Each context is compiled into a
    :class:`_ContextRow` the first time it is used, so ``counts`` must not
    change after construction. The vocabulary holds distinct strings, EOS
    among them, and every counted symbol; every symbol but EOS is one
    character.
    """

    order: int
    smoothing_alpha: float
    vocabulary: tuple[str, ...]  # includes EOS
    counts: dict[str, dict[str, int]]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _rows: dict[str, _ContextRow] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_count("order", self.order)
        alpha = self.smoothing_alpha
        if not (isinstance(alpha, (int, float)) and not isinstance(alpha, bool)
                and math.isfinite(alpha) and alpha >= 0):
            raise ValueError(f"smoothing_alpha must be finite and >= 0, got {alpha!r}")
        self.smoothing_alpha = float(alpha)
        vocab = self.vocabulary
        if not (isinstance(vocab, (list, tuple)) and EOS in vocab
                and all(isinstance(sym, str) for sym in vocab)):
            raise ValueError(f"vocabulary must be a list of strings with {EOS!r}")
        self.vocabulary = tuple(vocab)
        self._index = {sym: i for i, sym in enumerate(vocab)}
        if len(self._index) != len(vocab):
            raise ValueError("vocabulary must not repeat a symbol")
        wide = [sym for sym in vocab if sym != EOS and len(sym) != 1]
        if wide:  # a draw's tokens are the characters of its text
            raise ValueError(f"vocabulary symbols {wide!r} are not single characters")
        width = self.smoothing_alpha * len(vocab)
        for ctx, table in self.counts.items():
            # a key in the index is a vocabulary symbol, so a string
            if not (isinstance(ctx, str) and isinstance(table, dict) and all(
                    s in self._index and _is_count(n) for s, n in table.items())):
                raise ValueError(f"counts of context {ctx!r} must be non-negative "
                                 "ints keyed by vocabulary symbols")
            if len(ctx) > 1 and ctx[:-1] not in self.counts:
                raise ValueError(f"counts must be prefix-closed: context {ctx!r} "
                                 f"is stored but its prefix {ctx[:-1]!r} is not")
            _check_denominator(ctx, sum(table.values()), width)
        if "" not in self.counts:
            _check_denominator("", 0, width)
        self._rows = {}

    @property
    def vocab_size(self) -> int:
        return len(self.vocabulary)

    def context(self, prefix: str) -> str:
        """The longest stored context that ends ``prefix`` (back-off)."""
        ctx = prefix[-(self.order - 1):] if self.order > 1 else ""
        while ctx not in self.counts and ctx:
            ctx = ctx[1:]
        return ctx

    def row(self, context: str) -> _ContextRow:
        """The row of a context returned by :meth:`context`, built once."""
        row = self._rows.get(context)
        if row is None:
            table = self.counts.get(context, {})
            den = sum(table.values()) + self.smoothing_alpha * self.vocab_size
            nums = [table.get(s, 0) + self.smoothing_alpha for s in self.vocabulary]
            row = self._rows[context] = _ContextRow(
                tuple(math.log(n) - math.log(den) if n > 0 else -math.inf
                      for n in nums),
                np.array([n / den for n in nums]),
            )
        return row

    def symbol_logprob(self, prefix: str, symbol: str) -> float:
        """log p(symbol | prefix) with additive smoothing; -inf off-vocab.

        Sampling and scoring read :meth:`row` directly. This view and
        :meth:`distribution` stay for callers of the model, and because
        ``perfbench/tracing.py`` wraps both on every n-gram model it traces.
        """
        idx = self._index.get(symbol)
        if idx is None:
            return -math.inf
        return self.row(self.context(prefix)).logprobs[idx]

    def distribution(self, prefix: str) -> np.ndarray:
        """Smoothed next-symbol probabilities over the whole vocabulary."""
        return self.row(self.context(prefix)).probs.copy()

    # -- serialization: versioned JSON with a magic header ----------------

    def save(self, path) -> None:
        doc = {
            "magic": _MAGIC_NGRAM,
            "version": 1,
            "order": self.order,
            "alpha": self.smoothing_alpha,
            "vocabulary": list(self.vocabulary),
            "counts": self.counts,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, ensure_ascii=False)

    @classmethod
    def load(cls, path) -> "NGramModel":
        doc = _read_json(path)
        if not isinstance(doc, dict) or doc.get("magic") != _MAGIC_NGRAM:
            raise BackendError(f"{path}: not an n-gram model file")
        if doc.get("version") != 1:
            raise BackendError(f"{path}: unsupported model version")
        try:
            return cls(
                order=doc["order"],
                smoothing_alpha=doc["alpha"],
                vocabulary=doc["vocabulary"],
                counts={ctx: dict(sym) for ctx, sym in doc["counts"].items()},
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise BackendError(f"{path}: malformed model file: {exc!r}") from exc


def _read_json(path):
    """Parse a backend file; a file that is not JSON is a ``BackendError``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise BackendError(f"{path}: not a JSON document: {exc}") from exc


def train_ngram(corpus: str, order: int = 5, smoothing_alpha: float = 0.01) -> NGramModel:
    """Count a character model from a newline-delimited corpus.

    Each line is one training sequence terminated by EOS. Contexts of all
    lengths up to order-1 are accumulated for back-off.
    """
    lines = [ln for ln in corpus.splitlines() if ln.strip()]
    _check_count("order", order)
    if not lines:
        raise ValueError("empty corpus")
    counts: dict[str, dict[str, int]] = {}
    vocab: set[str] = {EOS}
    for line in lines:
        symbols = list(line) + [EOS]
        vocab.update(line)
        for pos, sym in enumerate(symbols):
            for k in range(min(order - 1, pos) + 1):
                ctx = line[pos - k : pos]
                counts.setdefault(ctx, {})
                counts[ctx][sym] = counts[ctx].get(sym, 0) + 1
    return NGramModel(
        order=order,
        smoothing_alpha=smoothing_alpha,
        vocabulary=tuple(sorted(vocab)),
        counts=counts,
    )


#: Most uniforms one sampling call draws from its generator at a time.
_UNIFORM_BLOCK = 4096


def _uniforms(rng, block: int):
    """``rng.random()``'s values, drawn ``block`` at a time when needed.

    Consecutive blocks of any sizes hold exactly the values that repeated
    scalar ``rng.random()`` calls return, in the same order. A sampling call
    whose uniforms fit in one block takes them from :func:`_first_uniforms`
    instead.
    """
    while True:
        yield from rng.random(block).tolist()


@functools.lru_cache(maxsize=8)
def _first_uniforms(seed: int, n: int) -> tuple[float, ...]:
    """The first ``n`` values of ``default_rng(seed).random()``, drawn once
    per process for the 8 most recent ``(seed, n)``: the same values
    ``_uniforms`` yields first. Only uniforms are kept, never draws."""
    return tuple(np.random.default_rng(seed).random(n).tolist())


class _State:
    """A node of the n-gram automaton that sampling and scoring both walk:
    one back-off context at one temperature.

    ``scores`` is the context's row of model log-probs, which a draw
    records and scoring returns; ``cdf`` is the cumulative distribution a
    sampling step draws from; ``next[i]`` is the state after vocabulary
    symbol ``i``, filled in the first time it is taken.
    """

    __slots__ = ("context", "temperature", "scores", "cdf", "next")

    def __init__(self, context, temperature, scores, cdf):
        self.context = context
        self.temperature = temperature
        self.scores = scores
        self.cdf = cdf
        self.next: list[_State | None] = [None] * len(cdf)


class NGramBackend(Backend):
    """Backend contract on top of an :class:`NGramModel`.

    The conditioning prefix is ``prompt + "\\n" + context`` (just
    ``context`` without a prompt, and empty for the code score's ``None``);
    only the last order-1 characters matter to the model but the documented
    layout keeps runs reproducible. A scored text's tokens are its
    characters, as a draw's are.

    Sampling and scoring walk one automaton of the model's back-off
    contexts rather than the growing prefix: a symbol moves a context to
    ``model.context(context + symbol)``, which the model's prefix-closed
    contexts make equal to the prefix's own context. Scoring walks the
    temperature-1 states. The states hold only values derived from the
    model, so their number is bounded by the model's contexts, never by
    the draws or the texts scored.
    """

    def __init__(self, model: NGramModel):
        self.model = model
        self._states: dict[tuple[str, float], _State] = {}

    @staticmethod
    def _prefix(context: str | None, prompt: str | None) -> str:
        if context is None:  # the code score: no context, no prompt
            return ""
        return f"{prompt}\n{context}" if prompt else context

    def score_tokens(self, context, tokens, terminated, prompt=None) -> LogProbResult:
        model = self.model
        state = self._state(model.context(self._prefix(context, prompt)), 1.0)
        per_token = []
        for tok in (*tokens, EOS) if terminated else tokens:
            idx = model._index.get(tok)
            if idx is None:  # off-vocabulary: -inf, and no link
                per_token.append(-math.inf)
                state = self._state(model.context(state.context + tok), 1.0)
            else:
                per_token.append(state.scores[idx])
                state = state.next[idx] or self._follow(state, idx)
        return LogProbResult.from_tokens(per_token)

    def score_many(self, requests, *, prompt) -> list[LogProbResult]:
        return _score_distinct(requests, lambda context, text, terminated: (
            self.score_tokens(context, tuple(text), terminated, prompt)))

    def _state(self, context: str, temperature: float) -> _State:
        """The automaton state of ``context`` at ``temperature``, built once.

        Built from the model alone. The CDF is built as
        ``Generator.choice(p=probs)`` builds it, so ``bisect_right(cdf,
        rng.random())`` makes that call's draw and leaves the same state.
        """
        key = (context, temperature)
        state = self._states.get(key)
        if state is None:
            row = self.model.row(context)
            logp = np.log(row.probs)
            # renormalised: the row's probs need not sum to 1 to the last ulp
            logp = logp - np.logaddexp.reduce(logp)
            tilt = logp / temperature
            tilt = tilt - tilt.max()
            probs = np.exp(tilt)
            probs /= probs.sum()
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            state = self._states[key] = _State(context, temperature,
                                               row.logprobs, cdf.tolist())
        return state

    def _follow(self, state: _State, index: int) -> _State:
        """The state after symbol ``index``; links it into ``state.next``."""
        moved = self.model.context(state.context + self.model.vocabulary[index])
        state.next[index] = self._state(moved, state.temperature)
        return state.next[index]

    def sample_descriptions(
        self, context, count, max_tokens=20, temperature=1.0, seed=0, prompt=None
    ) -> list[SampledDescription]:
        """``count`` draws from the model conditioned on the prompted context.

        Each draw walks the automaton from the prompted context's state; a
        step takes the next uniform, bisects the state's CDF and records the
        drawn symbol's score. A call never takes more than ``count *
        max_tokens`` uniforms; when they fit in one block and ``seed`` is an
        ``int``, they come from :func:`_first_uniforms`, which keeps the
        blocks of the 8 most recent ``(seed, n)`` for the process, else from
        a new generator. The walk runs on every call.
        """
        _check_sampling_args(count, max_tokens, temperature)
        n = count * max_tokens
        if n <= _UNIFORM_BLOCK and type(seed) is int:
            uniforms = iter(_first_uniforms(seed, n))
        else:
            uniforms = _uniforms(np.random.default_rng(seed), min(n, _UNIFORM_BLOCK))
        start = self._state(self.model.context(self._prefix(context, prompt)),
                            temperature)
        vocab = self.model.vocabulary
        out = []
        for _ in range(count):
            state, tokens, logprobs, terminated = start, [], [], False
            for _ in range(max_tokens):
                idx = bisect_right(state.cdf, next(uniforms))
                logprobs.append(state.scores[idx])
                sym = vocab[idx]
                if sym == EOS:
                    terminated = True
                    break
                tokens.append(sym)
                state = state.next[idx] or self._follow(state, idx)
            out.append(SampledDescription(
                text="".join(tokens), tokens=tuple(tokens),
                per_token_logprobs=tuple(logprobs), terminated=terminated))
        return out


def _check_sampling_args(count: int, max_tokens: int, temperature: float) -> None:
    _check_count("count", count)
    _check_count("max_tokens", max_tokens)
    _check_temperature(temperature)


# ---------------------------------------------------------------------------
# table (fixture) backend


def _logprob(value) -> float:
    """A fixture log-prob: a JSON number (an int or a float, not a bool) that
    is finite and <= 0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"log-prob {value!r} is not a JSON number, so not "
                         "finite and <= 0")
    v = float(value)
    if not (math.isfinite(v) and v <= 0):
        raise ValueError(f"log-prob {value!r} is not finite and <= 0")
    return v


def _split(text: str) -> tuple[str, ...]:
    """A table description's tokens: its words, or the text itself if none."""
    return tuple(text.split() or [text])


class TableBackend(Backend):
    """Log-prob lookups from a JSON fixture document.

    The fixture maps context ids to the descriptions available under that
    context (each with per-token log-probs), plus unconditional code
    log-probs. Every context lists at least one description. Every log-prob,
    the floor among them, is a JSON number that is finite and <= 0. A
    description id with no entry in ``descriptions`` is its own text. No two
    descriptions may have equal texts or equal tokens, and no description's
    text may be empty or another description's id, since a draw is rescored
    by its text.

    Lookup rule: a scored text names a description by its id or by its
    words (so a text matches whatever whitespace separates them), and
    ``score_tokens`` names it by its tokens. Its log-probs are its row's
    under the context, or in ``code`` for the context ``None``. A
    description the row lacks, and tokens or a text that name no
    description, score at the floor once per token, so cross-context
    scoring never produces -inf. An empty text is refused under a context
    and scores the floor once as a code score.
    """

    def __init__(self, doc: dict):
        if not isinstance(doc, dict) or doc.get("magic") != _MAGIC_TABLE:
            raise BackendError("not a table-backend fixture")
        try:
            self.floor = _logprob(doc.get("floor", -20.0))
            self.descriptions: dict[str, str] = dict(doc["descriptions"])
            self.cond: dict[str, dict[str, list[float]]] = {
                ctx: {d: list(map(_logprob, v)) for d, v in row.items()}
                for ctx, row in doc["cond"].items()
            }
            self.code: dict[str, list[float]] = {
                d: list(map(_logprob, v)) for d, v in doc.get("code", {}).items()
            }
            for ctx, row in self.cond.items():
                if not row:
                    raise BackendError(f"context {ctx!r} lists no descriptions")
            for row in (*self.cond.values(), self.code):
                for did in row:  # an id with no text is its own text
                    self.descriptions.setdefault(did, did)
            self._by_tokens: dict[tuple[str, ...], str] = {}
            for did, text in self.descriptions.items():
                # equal texts split alike, so this also catches those
                other = self._by_tokens.setdefault(_split(text), did)
                if other != did:
                    raise BackendError(
                        f"descriptions {other!r} and {did!r} have the same "
                        "tokens, so their draws cannot be told apart"
                    )
                if text == "" or self.descriptions.get(text, text) != text:
                    raise BackendError(
                        f"description {did!r} has the text {text!r}, so its "
                        "draws would not rescore as its own: a text must be "
                        "nonempty and no other description's id")
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise BackendError(f"malformed table-backend fixture: {exc!r}") from exc

    @classmethod
    def load(cls, path) -> "TableBackend":
        doc = _read_json(path)
        try:
            return cls(doc)
        except BackendError as exc:
            raise BackendError(f"{path}: {exc}") from exc

    def score_tokens(self, context, tokens, terminated=True, prompt=None) -> LogProbResult:
        if not tokens:
            raise ValueError("description must be nonempty")
        row = self.code if context is None else self.cond.get(context, {})
        did = self._by_tokens.get(tuple(tokens))
        return LogProbResult.from_tokens(row[did] if did in row
                                         else [self.floor] * len(tokens))

    def score_many(self, requests, *, prompt) -> list[LogProbResult]:
        def score(context, text, terminated):
            if not text and context is not None:
                raise ValueError("description must be nonempty")
            # the tokens of the description the text names by id or by words
            tokens = _split(self.descriptions.get(text, text))
            return self.score_tokens(context, tokens, terminated, prompt)

        return _score_distinct(requests, score)

    def sample_descriptions(
        self, context, count, max_tokens=20, temperature=1.0, seed=0, prompt=None
    ) -> list[SampledDescription]:
        _check_sampling_args(count, max_tokens, temperature)
        row = self.cond.get(context)
        if row is None:
            raise BackendError(f"context {context!r} not in fixture")
        items = sorted(row.items())
        tilt = np.array([sum(v) for _, v in items]) / temperature
        tilt = tilt - tilt.max()
        probs = np.exp(tilt)
        probs /= probs.sum()
        out = []
        for k in np.random.default_rng(seed).choice(len(items), count, p=probs).tolist():
            did, per_token = items[k]
            text = self.descriptions[did]
            out.append(
                SampledDescription(
                    text=text,
                    tokens=_split(text),
                    per_token_logprobs=tuple(map(float, per_token)),
                    terminated=True,
                )
            )
        return out


# ---------------------------------------------------------------------------
# remote backend


def _malformed(endpoint: str, status: int, exc: Exception) -> RemoteBackendError:
    """A reply that parses wrongly will parse wrongly again: not retryable."""
    return RemoteBackendError(f"malformed reply: {exc!r}", endpoint=endpoint,
                              status=status, retryable=False)


class RemoteBackend(Backend):
    """HTTP client for a minimal two-endpoint log-prob server.

    POST /v1/logprob  {context, continuation, prompt?} ->
        {per_token_logprobs: [...], total: float}
    POST /v1/sample   {context, prompt?, num_samples, max_tokens,
                       temperature, seed} ->
        {samples: [{text, per_token_logprobs, terminated?}, ...]}

    One retry loop sends every attempt of every request, with bounded
    exponential backoff, and at most ``max_in_flight`` attempts are in
    flight at once. ``sample_many`` and ``score_many`` put each distinct
    request, retries and all, on a pool of ``max_in_flight`` worker
    threads, which run only that loop. They then answer the requests in
    order on the calling thread, through ``sample_descriptions`` and
    ``score_tokens``, each of which takes the reply of its request in
    flight. The first error, in request order, cancels the requests not
    yet started and is raised once the started ones have finished their
    own retries, so no request is in flight when a call returns. Every
    other call runs the loop on its own thread.

    ``session`` sends the requests. Its ``post(url, json=, timeout=)``
    returns an object with ``status_code``, ``text`` and ``json()``, and
    raises a transport failure as an ``OSError``, which is retried (every
    ``requests`` exception is one). Without it the backend builds a
    ``requests.Session()``; only then is ``requests`` imported.

    A draw's tokens, and a scored text's, are the words of its text (the
    text itself if it has none), as in ``TableBackend``; a code score
    (context ``None``) is posted with an empty context and no prompt.

    Protocol limit: ``/v1/logprob`` scores a continuation string and has
    no end-of-sequence event. So every scoring request sends its tokens
    re-joined with single spaces and ignores ``terminated``; a text with
    other whitespace, or a draw whose sampled log-prob included an EOS
    event, may score differently from how it was sampled, and an empty
    text (an immediate EOS among them) cannot be scored at all.
    """

    def __init__(
        self,
        endpoint: str,
        timeout: float = 30.0,
        max_retries: int = 3,
        backoff: float = 0.25,
        max_in_flight: int = 4,
        session=None,
    ):
        if not isinstance(endpoint, str):
            raise ValueError(f"endpoint must be a URL string, got {endpoint!r}")
        if session is not None and not callable(getattr(session, "post", None)):
            raise ValueError(f"session must have a callable post, got {session!r}")
        _check_count("max_retries", max_retries)
        _check_count("max_in_flight", max_in_flight)
        if not (_is_real(timeout) and math.isfinite(timeout) and timeout > 0):
            raise ValueError(f"timeout must be > 0 and finite, got {timeout!r}")
        if not (_is_real(backoff) and math.isfinite(backoff) and backoff >= 0):
            raise ValueError(f"backoff must be >= 0 and finite, got {backoff!r}")
        self.endpoint = endpoint.rstrip("/")
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self._sem = threading.Semaphore(max_in_flight)
        if session is None:
            import requests

            session = requests.Session()
        self._session = session
        # the batched calls' worker threads, which run only _request
        self._pool = _LazyPool(max_in_flight, "ccdae-remote")
        self._local = threading.local()  # .reply: (path, payload, future)

    def _post(self, path: str, payload: dict) -> dict:
        """The reply to ``payload`` at ``path``: the one a batched call has in
        flight for it, or else one sent now by :meth:`_request`."""
        reply, self._local.reply = getattr(self._local, "reply", None), None
        if reply is not None and reply[:2] == (path, payload):
            return reply[2].result()
        return self._request(self.endpoint + path, payload)

    def _request(self, url: str, payload: dict) -> dict:
        """Every attempt of one request, each within the in-flight bound."""
        last: Exception | None = None
        for attempt in range(self.max_retries):
            try:
                with self._sem:
                    resp = self._session.post(url, json=payload, timeout=self.timeout)
            except OSError as exc:  # requests.RequestException is one
                last = RemoteBackendError(str(exc) or type(exc).__name__,
                                          endpoint=url)
            else:
                if 200 <= resp.status_code < 300:
                    try:
                        return resp.json()
                    except ValueError as exc:
                        raise _malformed(url, resp.status_code, exc) from exc
                last = RemoteBackendError(
                    "server error",
                    endpoint=url,
                    status=resp.status_code,
                    body=resp.text,
                    retryable=resp.status_code >= 500,
                )
                if not last.retryable:
                    raise last
            if attempt < self.max_retries - 1:
                time.sleep(self.backoff * (2**attempt))
        raise last

    def _fan_out(self, requests, payload_of, answer) -> list:
        """``[answer(*r) for r in requests]``, the distinct requests answered
        once each, with every one already in flight on the pool.

        ``payload_of(*r)`` is the ``(path, payload)`` that ``answer(*r)``
        posts; it checks its arguments, so a bad request fails the batch
        before anything is sent.
        """
        from concurrent.futures import wait

        keys, distinct = [], {}
        for r in requests:
            path, payload = payload_of(*r)
            key = path + json.dumps(payload, sort_keys=True)
            keys.append(key)
            distinct.setdefault(key, (r, path, payload))
        pool = self._pool()
        sent = {key: pool.submit(self._request, self.endpoint + path, payload)
                for key, (_, path, payload) in distinct.items()}
        answers = {}
        try:
            for key, (r, path, payload) in distinct.items():
                self._local.reply = (path, payload, sent[key])
                answers[key] = answer(*r)
        except BaseException:
            for future in sent.values():
                future.cancel()
            raise
        finally:
            self._local.reply = None
            wait(sent.values())
        return [answers[key] for key in keys]

    @staticmethod
    def _logprob_request(context: str | None, description: str,
                         prompt: str | None) -> tuple[str, dict]:
        if not description:
            raise ValueError(
                "description must be nonempty: /v1/logprob has no end-of-sequence "
                "event, so an empty description (a draw that ended at once) cannot "
                f"be scored under context {context!r}")
        payload = {"context": context or "", "continuation": description}
        if prompt and context is not None:  # a code score has no prompt
            payload["prompt"] = prompt
        return "/v1/logprob", payload

    @staticmethod
    def _sample_request(context, count, max_tokens, temperature, seed,
                        prompt) -> tuple[str, dict]:
        _check_sampling_args(count, max_tokens, temperature)
        return "/v1/sample", {
            "context": context,
            "prompt": prompt or "",
            "num_samples": count,
            "max_tokens": max_tokens,
            "temperature": temperature,
            "seed": seed,
        }

    def score_tokens(self, context, tokens, terminated=True, prompt=None) -> LogProbResult:
        doc = self._post(*self._logprob_request(context, " ".join(tokens), prompt))
        try:
            return LogProbResult.from_tokens(doc["per_token_logprobs"])
        except (KeyError, TypeError, ValueError) as exc:
            raise _malformed(self.endpoint + "/v1/logprob", 200, exc) from exc

    def score_many(self, requests, *, prompt) -> list[LogProbResult]:
        return self._fan_out(
            [_score_request(r) for r in requests],
            lambda context, text, _: self._logprob_request(
                context, " ".join(_split(text)), prompt),
            lambda context, text, terminated: self.score_tokens(
                context, _split(text), terminated, prompt=prompt))

    def sample_descriptions(
        self, context, count, max_tokens=20, temperature=1.0, seed=0, prompt=None
    ) -> list[SampledDescription]:
        doc = self._post(*self._sample_request(context, count, max_tokens,
                                               temperature, seed, prompt))
        try:
            return [
                SampledDescription(
                    text=s["text"],
                    tokens=_split(s["text"]),
                    per_token_logprobs=tuple(map(float, s["per_token_logprobs"])),
                    terminated=bool(s.get("terminated", True)),
                )
                for s in doc["samples"]
            ]
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise _malformed(self.endpoint + "/v1/sample", 200, exc) from exc

    def sample_many(self, requests, count, *, max_tokens, temperature,
                    prompt) -> list[list[SampledDescription]]:
        return self._fan_out(
            requests,
            lambda context, seed: self._sample_request(
                context, count, max_tokens, temperature, seed, prompt),
            lambda context, seed: self.sample_descriptions(
                context, count, max_tokens=max_tokens, temperature=temperature,
                seed=seed, prompt=prompt))
