"""Description-scoring backends.

Three implementations share one contract: unconditional code log-prob of
a description, conditional log-prob given a context, and seeded sampling
of descriptions. A prompt is passed per call; ``None`` and ``""`` both
mean no prompt.

* ``NGramBackend`` — a character n-gram model with additive smoothing;
  self-contained stand-in for a large conditional text model.
* ``TableBackend`` — fixture lookups from a JSON document; used by tests
  and golden runs.
* ``RemoteBackend`` — HTTP client for a two-endpoint log-prob server.

End-of-sequence handling: a sampled description that terminates before
``max_tokens`` carries an explicit EOS event whose log-prob is included
in its total; a truncated description carries none. Scoring helpers take
a ``terminated`` flag so cross-context scores stay comparable.
"""

from __future__ import annotations

import json
import math
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "EOS",
    "LogProbResult",
    "SampledDescription",
    "BackendError",
    "RemoteBackendError",
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

    @property
    def total_logprob(self) -> float:
        return float(sum(self.per_token_logprobs))


# ---------------------------------------------------------------------------
# character n-gram model


def _is_count(n) -> bool:
    """A non-negative int that is not a bool."""
    return isinstance(n, int) and not isinstance(n, bool) and n >= 0


class _ContextRow(NamedTuple):
    """One context's next-symbol distribution, indexed like the vocabulary."""

    logprobs: tuple[float, ...]  # log(count + alpha) - log(den) (-inf at 0), scoring
    probs: np.ndarray  # (count + alpha) / den, for sampling


@dataclass
class NGramModel:
    """Character n-gram counts with additive smoothing.

    ``counts`` maps a context string (length < order) to next-symbol
    counts; contexts of every length from 0 to order-1 are stored so
    scoring can back off to the longest context actually seen. Each
    context is compiled into a :class:`_ContextRow` the first time it is
    used, so ``counts`` must not change after construction.
    """

    order: int
    smoothing_alpha: float
    vocabulary: tuple[str, ...]  # includes EOS
    counts: dict[str, dict[str, int]]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _rows: dict[str, _ContextRow] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not _is_count(self.order) or self.order < 1:
            raise ValueError(f"order must be an int >= 1, got {self.order!r}")
        alpha = self.smoothing_alpha
        if not (math.isfinite(alpha) and alpha >= 0):
            raise ValueError(f"smoothing_alpha must be finite and >= 0, got {alpha!r}")
        if not all(isinstance(ctx, str) and isinstance(table, dict)
                   and all(isinstance(s, str) and _is_count(n) for s, n in table.items())
                   for ctx, table in self.counts.items()):
            raise ValueError("counts must be non-negative ints keyed by strings")
        self._index = {sym: i for i, sym in enumerate(self.vocabulary)}
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
        """log p(symbol | prefix) with additive smoothing; -inf off-vocab."""
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
                order=int(doc["order"]),
                smoothing_alpha=float(doc["alpha"]),
                vocabulary=tuple(doc["vocabulary"]),
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
    if order < 1:
        raise ValueError("order must be >= 1")
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


class NGramBackend:
    """Backend contract on top of an :class:`NGramModel`.

    The conditioning prefix is ``prompt + "\\n" + context`` (just
    ``context`` without a prompt); only the last order-1 characters matter
    to the model but the documented layout keeps runs reproducible.
    """

    def __init__(self, model: NGramModel):
        self.model = model
        self._steps: dict[tuple, tuple[list[float], list[float]]] = {}

    @staticmethod
    def _prefix(context: str, prompt: str | None) -> str:
        return f"{prompt}\n{context}" if prompt else context

    def score_tokens(
        self,
        context: str,
        tokens: Sequence[str],
        terminated: bool,
        prompt: str | None = None,
    ) -> LogProbResult:
        prefix = self._prefix(context, prompt)
        per_token = []
        for tok in tokens:
            per_token.append(self.model.symbol_logprob(prefix, tok))
            prefix += tok
        if terminated:
            per_token.append(self.model.symbol_logprob(prefix, EOS))
        return LogProbResult.from_tokens(per_token)

    def cond_logprob(
        self,
        context: str,
        description: str,
        prompt: str | None = None,
        terminated: bool = True,
    ) -> LogProbResult:
        if not description:
            raise ValueError("description must be nonempty")
        return self.score_tokens(context, list(description), terminated, prompt)

    def code_logprob(self, description: str, terminated: bool = True) -> LogProbResult:
        return self.cond_logprob("", description, prompt="", terminated=terminated)

    def _step(self, contexts: tuple[str, ...], temperature: float):
        """Renormalized ensemble log-probs and the CDF a step draws from.

        Built once per key from the model alone. The CDF is built as
        ``Generator.choice(p=probs)`` builds it, so ``bisect_right(cdf,
        rng.random())`` makes that call's draw and leaves the same state.
        """
        key = (contexts, temperature)
        step = self._steps.get(key)
        if step is None:
            logp = np.mean([np.log(self.model.row(c).probs) for c in contexts],
                           axis=0)
            logp = logp - np.logaddexp.reduce(logp)  # renormalized ensemble
            tilt = logp / temperature
            tilt = tilt - tilt.max()
            probs = np.exp(tilt)
            probs /= probs.sum()
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            step = self._steps[key] = (logp.tolist(), cdf.tolist())
        return step

    def _sample_one(
        self, prefixes: list[str], max_tokens: int, temperature: float, rng
    ) -> SampledDescription:
        # prefixes: one conditioning prefix per ensemble member.
        tokens: list[str] = []
        logprobs: list[float] = []
        terminated = False
        vocab = self.model.vocabulary
        context = self.model.context
        for _ in range(max_tokens):
            logp, cdf = self._step(tuple(map(context, prefixes)), temperature)
            idx = bisect_right(cdf, rng.random())
            sym = vocab[idx]
            logprobs.append(logp[idx])
            if sym == EOS:
                terminated = True
                break
            tokens.append(sym)
            prefixes = [p + sym for p in prefixes]
        if not tokens:
            # zero-length draw (immediate EOS): keep the EOS symbol as the
            # single token with terminated=False so rescoring counts the
            # EOS event exactly once.
            return SampledDescription(
                text="", tokens=(EOS,), per_token_logprobs=tuple(logprobs),
                terminated=False,
            )
        return SampledDescription(
            text="".join(tokens),
            tokens=tuple(tokens),
            per_token_logprobs=tuple(logprobs),
            terminated=terminated,
        )

    def _sample(self, contexts, count, max_tokens, temperature, seed, prompt):
        """``count`` draws from the renormalized mean of the contexts' models."""
        _check_sampling_args(count, max_tokens, temperature)
        rng = np.random.default_rng(seed)
        prefixes = [self._prefix(c, prompt) for c in contexts]
        return [self._sample_one(prefixes, max_tokens, temperature, rng)
                for _ in range(count)]

    def sample_descriptions(
        self, context, count, max_tokens=20, temperature=1.0, seed=0, prompt=None
    ) -> list[SampledDescription]:
        return self._sample([context], count, max_tokens, temperature, seed, prompt)

    def ensemble_sample(
        self, context_a, context_b, count, max_tokens=20, temperature=1.0, seed=0,
        prompt=None,
    ) -> list[SampledDescription]:
        """Sample from the renormalized mean of the two conditionals."""
        return self._sample([context_a, context_b], count, max_tokens, temperature,
                            seed, prompt)


def _check_sampling_args(count: int, max_tokens: int, temperature: float) -> None:
    if count < 1:
        raise ValueError("count must be >= 1")
    if max_tokens < 1:
        raise ValueError("max_tokens must be >= 1")
    if temperature <= 0:
        raise ValueError("temperature must be positive")


# ---------------------------------------------------------------------------
# table (fixture) backend


def _split(text: str) -> tuple[str, ...]:
    """A table description's tokens: its words, or the text itself if none."""
    return tuple(text.split() or [text])


class TableBackend:
    """Log-prob lookups from a JSON fixture document.

    The fixture maps context ids to the descriptions available under that
    context (each with per-token log-probs), plus unconditional code
    log-probs. Descriptions absent from a context fall back to a per-token
    floor so cross-context scoring never produces -inf. No two descriptions
    may have equal texts or equal tokens, since a draw is rescored by them.
    """

    def __init__(self, doc: dict):
        if not isinstance(doc, dict) or doc.get("magic") != _MAGIC_TABLE:
            raise BackendError("not a table-backend fixture")
        try:
            self.floor = float(doc.get("floor", -20.0))
            self.descriptions: dict[str, str] = dict(doc["descriptions"])
            self.cond: dict[str, dict[str, list[float]]] = {
                ctx: {d: list(map(float, v)) for d, v in row.items()}
                for ctx, row in doc["cond"].items()
            }
            self.code: dict[str, list[float]] = {
                d: list(map(float, v)) for d, v in doc.get("code", {}).items()
            }
            self._by_text = {text: did for did, text in self.descriptions.items()}
            self._by_tokens: dict[tuple[str, ...], str] = {}
            for did, text in self.descriptions.items():
                # equal texts split alike, so this also catches those
                other = self._by_tokens.setdefault(_split(text), did)
                if other != did:
                    raise BackendError(
                        f"descriptions {other!r} and {did!r} have the same "
                        "tokens, so their draws cannot be told apart"
                    )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise BackendError(f"malformed table-backend fixture: {exc!r}") from exc

    @classmethod
    def load(cls, path) -> "TableBackend":
        doc = _read_json(path)
        try:
            return cls(doc)
        except BackendError as exc:
            raise BackendError(f"{path}: {exc}") from exc

    def _desc_id(self, description: str) -> str | None:
        if description in self.descriptions:
            return description
        return self._by_text.get(description)

    def _tokens(self, description: str) -> tuple[str, ...]:
        did = self._desc_id(description)
        return _split(self.descriptions[did] if did else description)

    def score_tokens(self, context, tokens, terminated=True, prompt=None) -> LogProbResult:
        # a draw's tokens name its description; its re-joined text may not
        # (runs of whitespace, or a text that is another description's id)
        did = self._by_tokens.get(tuple(tokens))
        description = " ".join(tokens) if did is None else did
        return self.cond_logprob(context, description, prompt=prompt)

    def cond_logprob(
        self, context: str, description: str, prompt: str | None = None,
        terminated: bool = True,
    ) -> LogProbResult:
        if not description:
            raise ValueError("description must be nonempty")
        did = self._desc_id(description)
        row = self.cond.get(context, {})
        if did is not None and did in row:
            return LogProbResult.from_tokens(row[did])
        n = len(self._tokens(description))
        return LogProbResult.from_tokens([self.floor] * n)

    def code_logprob(self, description: str, terminated: bool = True) -> LogProbResult:
        did = self._desc_id(description)
        if did is not None and did in self.code:
            return LogProbResult.from_tokens(self.code[did])
        n = len(self._tokens(description))
        return LogProbResult.from_tokens([self.floor] * n)

    def _context_items(self, context: str):
        row = self.cond.get(context)
        if row is None:
            raise BackendError(f"context {context!r} not in fixture")
        return sorted(row.items())

    def sample_descriptions(
        self, context, count, max_tokens=20, temperature=1.0, seed=0, prompt=None
    ) -> list[SampledDescription]:
        _check_sampling_args(count, max_tokens, temperature)
        items = self._context_items(context)
        totals = np.array([sum(v) for _, v in items])
        return self._draw(items, totals, count, temperature, seed)

    def ensemble_sample(
        self, context_a, context_b, count, max_tokens=20, temperature=1.0, seed=0,
        prompt=None,
    ) -> list[SampledDescription]:
        _check_sampling_args(count, max_tokens, temperature)
        ids = sorted(
            set(dict(self._context_items(context_a)))
            | set(dict(self._context_items(context_b)))
        )
        totals = np.array([0.5 * (self.cond_logprob(context_a, did).total
                                  + self.cond_logprob(context_b, did).total)
                           for did in ids])
        totals = totals - np.logaddexp.reduce(totals)  # renormalized mixture
        rows = [(did, [t]) for did, t in zip(ids, totals)]
        return self._draw(rows, totals, count, temperature, seed)

    def _draw(self, items, total_logprobs, count, temperature, seed):
        tilt = np.asarray(total_logprobs, dtype=float) / temperature
        tilt = tilt - tilt.max()
        probs = np.exp(tilt)
        probs /= probs.sum()
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(count):
            k = int(rng.choice(len(items), p=probs))
            did, per_token = items[k]
            text = self.descriptions.get(did, did)
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


class RemoteBackend:
    """HTTP client for a minimal two-endpoint log-prob server.

    POST /v1/logprob  {context, continuation, prompt?} ->
        {per_token_logprobs: [...], total: float}
    POST /v1/sample   {context, prompt?, num_samples, max_tokens,
                       temperature, seed} ->
        {samples: [{text, per_token_logprobs, terminated?}, ...]}

    Requests are retried with bounded exponential backoff. Every call is
    sequential today, so one request is in flight at a time; the
    ``max_in_flight`` semaphore only caps callers that share the client
    across threads.

    Protocol limit: ``/v1/logprob`` scores a continuation string and has
    no end-of-sequence event. So ``score_tokens`` re-joins a draw's tokens
    with single spaces and ignores ``terminated``; a draw whose text has
    other whitespace, or whose sampled log-prob included an EOS event, may
    rescore differently from how it was sampled.
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
        import requests

        self.endpoint = endpoint.rstrip("/")
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self._sem = threading.Semaphore(max_in_flight)
        self._session = session or requests.Session()

    def _post(self, path: str, payload: dict) -> dict:
        import requests

        url = self.endpoint + path
        last: Exception | None = None
        for attempt in range(self.max_retries):
            try:
                with self._sem:
                    resp = self._session.post(url, json=payload, timeout=self.timeout)
            except requests.RequestException as exc:
                last = RemoteBackendError(str(exc), endpoint=url)
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

    def cond_logprob(
        self, context: str, description: str, prompt: str | None = None,
        terminated: bool = True,
    ) -> LogProbResult:
        if not description:
            raise ValueError("description must be nonempty")
        payload = {"context": context, "continuation": description}
        if prompt:
            payload["prompt"] = prompt
        doc = self._post("/v1/logprob", payload)
        try:
            return LogProbResult.from_tokens(doc["per_token_logprobs"])
        except (KeyError, TypeError, ValueError) as exc:
            raise _malformed(self.endpoint + "/v1/logprob", 200, exc) from exc

    def code_logprob(self, description: str, terminated: bool = True) -> LogProbResult:
        return self.cond_logprob("", description, prompt="")

    def score_tokens(self, context, tokens, terminated=True, prompt=None) -> LogProbResult:
        return self.cond_logprob(context, " ".join(tokens), prompt=prompt)

    def sample_descriptions(
        self, context, count, max_tokens=20, temperature=1.0, seed=0, prompt=None
    ) -> list[SampledDescription]:
        _check_sampling_args(count, max_tokens, temperature)
        doc = self._post(
            "/v1/sample",
            {
                "context": context,
                "prompt": prompt or "",
                "num_samples": count,
                "max_tokens": max_tokens,
                "temperature": temperature,
                "seed": seed,
            },
        )
        try:
            return [
                SampledDescription(
                    text=s["text"],
                    tokens=tuple(s.get("tokens") or s["text"].split() or [s["text"]]),
                    per_token_logprobs=tuple(map(float, s["per_token_logprobs"])),
                    terminated=bool(s.get("terminated", True)),
                )
                for s in doc["samples"]
            ]
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise _malformed(self.endpoint + "/v1/sample", 200, exc) from exc

    def ensemble_sample(self, context_a, context_b, count, max_tokens=20,
                        temperature=1.0, seed=0, prompt=None):
        raise BackendError("remote protocol does not expose ensemble sampling")
