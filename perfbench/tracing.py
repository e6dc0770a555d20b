"""Item timing and per-layer spans, taken from outside the program.

``ItemLog`` times each item of a run. ``Tracer`` keeps spans (name,
start, end, parent, item id) and counters in memory; ``instrument``
installs them around the public functions of ``ccdae``'s layers for the
length of a ``with`` block, under the names their callers look up, and
restores the originals afterwards. Nothing under ``src/`` changes.

A span's self time is its duration minus the part of it that its child
spans cover, so the self times of all spans of an item add up to the
item's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from dataclasses import dataclass

from .measure import reference_s

__all__ = [
    "Item",
    "ItemLog",
    "Span",
    "Tracer",
    "instrument",
    "patched",
    "ITEM_SPAN",
    "SELF_TIME_METRICS",
]

#: The root span of every item; its self time is the benchmark loop's own.
ITEM_SPAN = "bench.loop"

#: Span name -> per-layer metric that sums the self time of those spans.
SELF_TIME_METRICS = {
    "core.distance_curve": "core.distance_curve.self_s",
    "backends.sample": "backends.sample.self_s",
    "backends.score": "backends.score.self_s",
    "backends.remote.request": "backends.remote.wait_s",
    "pipeline.build_batch": "pipeline.build_batch.self_s",
    "pipeline.explain": "pipeline.explain.self_s",
    "pipeline.ess": "pipeline.ess.self_s",
    "oracle.proposal_batch": "oracle.proposal_batch.self_s",
    "oracle.exact_batch": "oracle.exact_batch.self_s",
    "oracle.exact_distance_curve": "oracle.exact_distance_curve.self_s",
    ITEM_SPAN: "bench.loop.self_s",
}


@dataclass
class Item:
    input: str  # which of the workload's inputs the item ran
    rep: int  # how many times the run had run that input before
    start: float
    end: float = 0.0
    ok: bool = False
    ref: float = 0.0  # the reference loop's time around the item
    wait: float = 0.0  # time spent waiting on a server's latency

    @property
    def id(self) -> str:
        return f"{self.rep}/{self.input}"

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    item: str | None


class Tracer:
    """In-memory spans and counters; written out once, at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.item: str | None = None
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        index = len(self.spans)
        parent = stack[-1] if stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.item))
        stack.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            stack.pop()

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(result, *args, **kwargs)`` counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """``fn`` with a call counter and no span, for very hot functions."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            children.setdefault(s.parent, []).append(s)
        totals: dict[str, float] = {}
        for index, s in enumerate(self.spans):
            covered = _covered(s.start, s.end, children.get(index, []))
            totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start) - covered
        return totals

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "item": s.item,
                }) + "\n")


def _covered(start: float, end: float, children: list[Span]) -> float:
    """Length of the union of the children's intervals within [start, end]."""
    total = 0.0
    reach = start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class ItemLog:
    """Wall time of every item of a run, plus a root span when tracing.

    The reference loop runs between items, outside their times, so that
    each item knows how fast the host was around it. ``waited`` is a clock
    of the time spent waiting on a server, if there is one.
    """

    def __init__(self, tracer: Tracer | None = None, waited=None):
        self.items: list[Item] = []
        self.tracer = tracer
        self._waited = waited or (lambda: 0.0)
        self._reps: dict[str, int] = {}
        self._ref: float | None = None

    @contextlib.contextmanager
    def item(self, input_key: str):
        rep = self._reps.get(input_key, 0)
        self._reps[input_key] = rep + 1
        if self._ref is None:
            self._ref = reference_s()
        ref_before = self._ref
        waited = self._waited()
        rec = Item(input_key, rep, time.perf_counter())
        self.items.append(rec)
        if self.tracer is None:
            span = contextlib.nullcontext()
        else:
            self.tracer.item = rec.id
            span = self.tracer.span(ITEM_SPAN)
        try:
            with span:
                yield rec
            rec.ok = True
        finally:
            rec.end = time.perf_counter()
            rec.wait = self._waited() - waited
            self._ref = reference_s()
            rec.ref = (ref_before + self._ref) / 2


_UNSET = object()


@contextlib.contextmanager
def patched(targets):
    """Set ``(owner, attribute, value)`` triples; restore them on exit.

    An attribute the owner only inherited (a method looked up on an
    instance) is deleted again rather than pinned on the instance.
    """
    saved = [(owner, attr, vars(owner).get(attr, _UNSET))
             for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            if value is _UNSET:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)


def instrument(tracer: Tracer, backend=None):
    """Spans and counters around every layer a workload calls.

    ``backend`` is the instance the workload passes to ``ccdae``; its
    methods, and its n-gram model's, are wrapped on the instance.
    """
    from ccdae import bench, core, oracle, pipeline

    def curve_work(curve, batch, *args, **kwargs):
        tracer.add("core.logits_evaluated",
                   2 * curve.lambda_grid.size * batch.n_hypotheses)

    def batch_support(batch, *args, **kwargs):
        tracer.add("pipeline.draws", int(round(batch.n_draws)))
        tracer.add("pipeline.unique", batch.n_hypotheses)

    def draws(result, *args, **kwargs):
        tracer.add("backends.sample.draws", len(result))

    distance_curve = tracer.wrap("core.distance_curve", core.distance_curve,
                                 after=curve_work)
    gibbs_weights = tracer.counted("core.gibbs_weights.calls", core.gibbs_weights)
    targets = [
        (core, "distance_curve", distance_curve),
        (pipeline, "distance_curve", distance_curve),
        (core, "gibbs_weights", gibbs_weights),
        (pipeline, "gibbs_weights", gibbs_weights),
        (pipeline, "build_batch",
         tracer.wrap("pipeline.build_batch", pipeline.build_batch,
                     after=batch_support)),
        (pipeline, "explain", tracer.wrap("pipeline.explain", pipeline.explain)),
        (pipeline, "effective_sample_size",
         tracer.wrap("pipeline.ess", pipeline.effective_sample_size)),
        (bench, "pair_score", tracer.counted("bench.pair_score.calls",
                                             bench.pair_score)),
        (oracle, "proposal_batch",
         tracer.wrap("oracle.proposal_batch", oracle.proposal_batch)),
        (oracle, "exact_batch", tracer.wrap("oracle.exact_batch", oracle.exact_batch)),
        (oracle, "exact_distance_curve",
         tracer.wrap("oracle.exact_distance_curve", oracle.exact_distance_curve)),
    ]
    if backend is not None:
        # build_batch rescores through score_tokens in every configuration the
        # workloads use. The other scoring methods are left alone: each
        # backend implements one of them through another, so the spans
        # would nest and count a call twice.
        targets += [
            (backend, "sample_descriptions",
             tracer.wrap("backends.sample", backend.sample_descriptions, after=draws)),
            (backend, "score_tokens",
             tracer.wrap("backends.score", backend.score_tokens)),
        ]
        model = getattr(backend, "model", None)
        if model is not None:
            targets += [
                (model, "symbol_logprob",
                 tracer.counted("backends.ngram.symbol_calls", model.symbol_logprob)),
                (model, "distribution",
                 tracer.counted("backends.ngram.distribution_calls",
                                model.distribution)),
            ]
        if hasattr(backend, "_post"):
            targets.append((backend, "_post",
                            tracer.wrap("backends.remote.request", backend._post)))
    return patched(targets)
