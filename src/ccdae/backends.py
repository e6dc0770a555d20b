"""Description-scoring backends.

Three implementations share one contract: unconditional code log-prob of
a description, conditional log-prob given a context (plus optional
prompt), and seeded sampling of descriptions.

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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "EOS",
    "LogProbResult",
    "SampledDescription",
    "BackendError",
    "RemoteBackendError",
    "BackendDescriptor",
    "NGramModel",
    "NGramBackend",
    "TableBackend",
    "RemoteBackend",
    "train_ngram",
    "cond_logprob",
    "code_logprob",
    "sample_descriptions",
    "ensemble_sample",
    "make_backend",
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


@dataclass(frozen=True)
class BackendDescriptor:
    """Declarative backend selection: kind plus kind-specific parameters."""

    kind: str  # ngram | remote | table
    model_path: str | None = None
    endpoint: str | None = None
    fixture_path: str | None = None
    prompt: str | None = None

    def __post_init__(self) -> None:
        needed = {"ngram": self.model_path, "remote": self.endpoint,
                  "table": self.fixture_path}
        if self.kind not in needed:
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if not needed[self.kind]:
            raise ValueError(f"backend kind {self.kind!r} is missing its source")


def make_backend(desc: BackendDescriptor):
    if desc.kind == "ngram":
        return NGramBackend(NGramModel.load(desc.model_path), prompt=desc.prompt)
    if desc.kind == "table":
        return TableBackend.load(desc.fixture_path, prompt=desc.prompt)
    return RemoteBackend(desc.endpoint, prompt=desc.prompt)


# ---------------------------------------------------------------------------
# character n-gram model


@dataclass
class NGramModel:
    """Character n-gram counts with additive smoothing.

    ``counts`` maps a context string (length < order) to next-symbol
    counts; contexts of every length from 0 to order-1 are stored so
    scoring can back off to the longest context actually seen.
    """

    order: int
    smoothing_alpha: float
    vocabulary: tuple[str, ...]  # includes EOS
    counts: dict[str, dict[str, int]]

    @property
    def vocab_size(self) -> int:
        return len(self.vocabulary)

    def _context_counts(self, prefix: str) -> dict[str, int]:
        ctx = prefix[-(self.order - 1):] if self.order > 1 else ""
        while ctx not in self.counts and ctx:
            ctx = ctx[1:]
        return self.counts.get(ctx, {})

    def symbol_logprob(self, prefix: str, symbol: str) -> float:
        """log p(symbol | prefix) with additive smoothing; -inf off-vocab."""
        if symbol not in self._vocab_set():
            return -math.inf
        table = self._context_counts(prefix)
        total = sum(table.values())
        num = table.get(symbol, 0) + self.smoothing_alpha
        den = total + self.smoothing_alpha * self.vocab_size
        return math.log(num) - math.log(den)

    def distribution(self, prefix: str) -> np.ndarray:
        """Smoothed next-symbol probabilities over the whole vocabulary."""
        table = self._context_counts(prefix)
        total = sum(table.values())
        den = total + self.smoothing_alpha * self.vocab_size
        probs = np.array(
            [(table.get(s, 0) + self.smoothing_alpha) / den for s in self.vocabulary]
        )
        return probs

    def _vocab_set(self) -> set[str]:
        cached = getattr(self, "_vset", None)
        if cached is None:
            cached = set(self.vocabulary)
            self._vset = cached
        return cached

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
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("magic") != _MAGIC_NGRAM:
            raise BackendError(f"{path}: not an n-gram model file")
        if doc.get("version") != 1:
            raise BackendError(f"{path}: unsupported model version")
        return cls(
            order=int(doc["order"]),
            smoothing_alpha=float(doc["alpha"]),
            vocabulary=tuple(doc["vocabulary"]),
            counts={ctx: dict(sym) for ctx, sym in doc["counts"].items()},
        )


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

    The conditioning prefix is ``prompt + "\\n" + context + separator``
    with an empty separator by default; only the last order-1 characters
    matter to the model but the documented layout keeps runs reproducible.
    """

    separator = ""

    def __init__(self, model: NGramModel, prompt: str | None = None):
        self.model = model
        self.prompt = prompt

    def _prefix(self, context: str, prompt: str | None) -> str:
        prompt = self.prompt if prompt is None else prompt
        parts = []
        if prompt:
            parts.append(prompt + "\n")
        parts.append(context)
        return "".join(parts) + self.separator

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

    def _sample_one(
        self, prefixes: list[str], max_tokens: int, temperature: float, rng
    ) -> SampledDescription:
        # prefixes: one conditioning prefix per ensemble member.
        tokens: list[str] = []
        logprobs: list[float] = []
        terminated = False
        vocab = self.model.vocabulary
        for _ in range(max_tokens):
            logp = np.mean(
                [np.log(self.model.distribution(p)) for p in prefixes], axis=0
            )
            logp = logp - np.logaddexp.reduce(logp)  # renormalized ensemble
            tilt = logp / temperature
            tilt = tilt - tilt.max()
            probs = np.exp(tilt)
            probs /= probs.sum()
            idx = int(rng.choice(len(vocab), p=probs))
            sym = vocab[idx]
            logprobs.append(float(logp[idx]))
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

    def sample_descriptions(
        self,
        context: str,
        count: int,
        max_tokens: int = 20,
        temperature: float = 1.0,
        seed: int = 0,
        prompt: str | None = None,
    ) -> list[SampledDescription]:
        _check_sampling_args(count, max_tokens, temperature)
        rng = np.random.default_rng(seed)
        prefix = self._prefix(context, prompt)
        return [
            self._sample_one([prefix], max_tokens, temperature, rng)
            for _ in range(count)
        ]

    def ensemble_sample(
        self,
        context_a: str,
        context_b: str,
        count: int,
        max_tokens: int = 20,
        temperature: float = 1.0,
        seed: int = 0,
        prompt: str | None = None,
    ) -> list[SampledDescription]:
        """Sample from the renormalized mean of the two conditionals."""
        _check_sampling_args(count, max_tokens, temperature)
        rng = np.random.default_rng(seed)
        prefixes = [self._prefix(context_a, prompt), self._prefix(context_b, prompt)]
        return [
            self._sample_one(list(prefixes), max_tokens, temperature, rng)
            for _ in range(count)
        ]


def _check_sampling_args(count: int, max_tokens: int, temperature: float) -> None:
    if count < 1:
        raise ValueError("count must be >= 1")
    if max_tokens < 1:
        raise ValueError("max_tokens must be >= 1")
    if temperature <= 0:
        raise ValueError("temperature must be positive")


# ---------------------------------------------------------------------------
# table (fixture) backend


class TableBackend:
    """Log-prob lookups from a JSON fixture document.

    The fixture maps context ids to the descriptions available under that
    context (each with per-token log-probs), plus unconditional code
    log-probs. Descriptions absent from a context fall back to a per-token
    floor so cross-context scoring never produces -inf.
    """

    def __init__(self, doc: dict, prompt: str | None = None):
        if doc.get("magic") != _MAGIC_TABLE:
            raise BackendError("not a table-backend fixture")
        self.floor = float(doc.get("floor", -20.0))
        self.descriptions: dict[str, str] = dict(doc["descriptions"])
        self.cond: dict[str, dict[str, list[float]]] = {
            ctx: {d: list(map(float, v)) for d, v in row.items()}
            for ctx, row in doc["cond"].items()
        }
        self.code: dict[str, list[float]] = {
            d: list(map(float, v)) for d, v in doc.get("code", {}).items()
        }
        self.prompt = prompt
        self._by_text = {text: did for did, text in self.descriptions.items()}

    @classmethod
    def load(cls, path, prompt: str | None = None) -> "TableBackend":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh), prompt=prompt)

    def _desc_id(self, description: str) -> str | None:
        if description in self.descriptions:
            return description
        return self._by_text.get(description)

    def _tokens(self, description: str) -> list[str]:
        did = self._desc_id(description)
        text = self.descriptions[did] if did else description
        return text.split() or [text]

    def score_tokens(self, context, tokens, terminated=True, prompt=None) -> LogProbResult:
        return self.cond_logprob(context, " ".join(tokens), prompt=prompt)

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
        items = sorted(row.items())
        return items

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
        rows = []
        totals = []
        for did in ids:
            la = self.cond_logprob(context_a, did).total
            lb = self.cond_logprob(context_b, did).total
            mean = 0.5 * (la + lb)
            rows.append((did, [mean]))
            totals.append(mean)
        totals = np.array(totals)
        totals = totals - np.logaddexp.reduce(totals)  # renormalized mixture
        rows = [(did, [t]) for (did, _), t in zip(rows, totals)]
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
                    tokens=tuple(text.split() or [text]),
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

    Requests are retried with bounded exponential backoff; at most
    ``max_in_flight`` requests run concurrently.
    """

    def __init__(
        self,
        endpoint: str,
        prompt: str | None = None,
        timeout: float = 30.0,
        max_retries: int = 3,
        backoff: float = 0.25,
        max_in_flight: int = 4,
        session=None,
    ):
        import requests

        self.endpoint = endpoint.rstrip("/")
        self.prompt = prompt
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
        prompt = self.prompt if prompt is None else prompt
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
        prompt = self.prompt if prompt is None else prompt
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


# ---------------------------------------------------------------------------
# free-function façade mirroring the backend contract


def cond_logprob(backend, context: str, description: str, prompt: str | None = None,
                 terminated: bool = True) -> LogProbResult:
    return backend.cond_logprob(context, description, prompt=prompt,
                                terminated=terminated)


def code_logprob(backend, description: str, terminated: bool = True) -> LogProbResult:
    return backend.code_logprob(description, terminated=terminated)


def sample_descriptions(backend, context, count, max_tokens=20, temperature=1.0,
                        seed=0, prompt=None) -> list[SampledDescription]:
    return backend.sample_descriptions(
        context, count, max_tokens=max_tokens, temperature=temperature, seed=seed,
        prompt=prompt,
    )


def ensemble_sample(backend, context_a, context_b, count, max_tokens=20,
                    temperature=1.0, seed=0, prompt=None) -> list[SampledDescription]:
    return backend.ensemble_sample(
        context_a, context_b, count, max_tokens=max_tokens, temperature=temperature,
        seed=seed, prompt=prompt,
    )
