"""An in-process stand-in for the two-endpoint log-prob server.

``FakeRemoteSession`` is passed to :class:`ccdae.backends.RemoteBackend`
as its ``session=``. It answers the protocol documented on that class
from a local :class:`ccdae.backends.NGramBackend`, with no sockets:

    POST /v1/logprob  {context, continuation, prompt?}
        -> {per_token_logprobs: [...], total: float}
    POST /v1/sample   {context, prompt?, num_samples, max_tokens,
                       temperature, seed}
        -> {samples: [{text, per_token_logprobs, terminated}, ...]}

The model is a character model, so a token is one character. A
continuation is scored as given, with no end-of-sequence event: the
request cannot say whether the description was complete. Replies are
built exactly as documented and never reshaped to suit the client, so a
reply the client mishandles shows up as a failed item.

Every request sleeps a fixed ``latency_s`` outside any lock, so
concurrent requests overlap the way round trips to a real server do.
"""

from __future__ import annotations

import json
import threading
import time
from urllib.parse import urlsplit

__all__ = ["FakeResponse", "FakeRemoteSession"]


class FakeResponse:
    """The subset of ``requests.Response`` the client reads."""

    def __init__(self, status_code: int, doc: dict):
        self.status_code = status_code
        self.text = json.dumps(doc)

    def json(self) -> dict:
        return json.loads(self.text)


class _BadRequest(ValueError):
    pass


def _field(payload: dict, key: str, kind, optional: bool = False):
    if key not in payload:
        if optional:
            return None
        raise _BadRequest(f"missing field {key!r}")
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise _BadRequest(f"field {key!r} has the wrong type")
    return value


class FakeRemoteSession:
    """Thread-safe fake ``requests.Session`` serving an n-gram backend.

    Counts requests per endpoint and the peak number in flight at once,
    and clocks ``wait_s``: the wall time during which at least one request
    was sleeping out its latency.
    """

    def __init__(self, model_backend, latency_s: float):
        if latency_s < 0:
            raise ValueError("latency_s must be nonnegative")
        self.model_backend = model_backend
        self.latency_s = latency_s
        self._lock = threading.Lock()
        self._sleeping = 0
        self._sleep_start = 0.0
        self.wait_s = 0.0
        self.reset_counts()

    def reset_counts(self) -> None:
        with self._lock:
            self.requests = 0
            self.by_path: dict[str, int] = {}
            self.in_flight = 0
            self.max_in_flight = 0

    def post(self, url: str, json=None, timeout=None) -> FakeResponse:  # noqa: A002
        path = urlsplit(url).path
        with self._lock:
            self.requests += 1
            self.by_path[path] = self.by_path.get(path, 0) + 1
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            self._wait()
            return self._answer(path, json)
        finally:
            with self._lock:
                self.in_flight -= 1

    def _wait(self) -> None:
        with self._lock:
            if not self._sleeping:
                self._sleep_start = time.perf_counter()
            self._sleeping += 1
        try:
            time.sleep(self.latency_s)
        finally:
            with self._lock:
                self._sleeping -= 1
                if not self._sleeping:
                    self.wait_s += time.perf_counter() - self._sleep_start

    def _answer(self, path: str, payload) -> FakeResponse:
        # A round trip through JSON, as on the wire.
        payload = _decode(payload)
        try:
            if not isinstance(payload, dict):
                raise _BadRequest("request body must be a JSON object")
            if path == "/v1/logprob":
                return FakeResponse(200, self._logprob(payload))
            if path == "/v1/sample":
                return FakeResponse(200, self._sample(payload))
        except _BadRequest as exc:
            return FakeResponse(400, {"error": str(exc)})
        return FakeResponse(404, {"error": f"no endpoint {path}"})

    def _logprob(self, payload: dict) -> dict:
        context = _field(payload, "context", str)
        continuation = _field(payload, "continuation", str)
        prompt = _field(payload, "prompt", str, optional=True)
        if not continuation:
            raise _BadRequest("continuation must be nonempty")
        result = self.model_backend.score_tokens(
            context, list(continuation), terminated=False, prompt=prompt or ""
        )
        return {"per_token_logprobs": list(result.per_token), "total": result.total}

    def _sample(self, payload: dict) -> dict:
        context = _field(payload, "context", str)
        prompt = _field(payload, "prompt", str, optional=True)
        num_samples = _field(payload, "num_samples", int)
        max_tokens = _field(payload, "max_tokens", int)
        temperature = _field(payload, "temperature", (int, float))
        seed = _field(payload, "seed", int)
        if num_samples < 1 or max_tokens < 1 or temperature <= 0:
            raise _BadRequest("num_samples, max_tokens and temperature must be positive")
        draws = self.model_backend.sample_descriptions(
            context, num_samples, max_tokens=max_tokens, temperature=temperature,
            seed=seed, prompt=prompt or "",
        )
        return {
            "samples": [
                {
                    "text": s.text,
                    "per_token_logprobs": list(s.per_token_logprobs),
                    "terminated": s.terminated,
                }
                for s in draws
            ]
        }


def _decode(payload):
    return json.loads(json.dumps(payload))
