"""Numeric core: Gibbs description weights, rate curves, and distance curves.

Everything here is a pure function of a precomputed :class:`ScoredBatch`.
All quantities are in nats. Sample indices are 0-based: row 0 of the loss
matrix belongs to the first compared item, row 1 to the second.

Sign convention for the asymmetric gaps: ``delta_2_to_1`` is the expected
loss on sample 1 under sample 2's description distribution *minus* the
optimal expected loss under sample 1's own distribution (cross minus
optimal), so the gap is nonnegative when expectations are exact.
"""

from __future__ import annotations

import contextvars
import csv
import io
import math
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "ScoredBatch",
    "CapacityCurve",
    "DistanceCurve",
    "default_lambda_grid",
    "gibbs_weights",
    "log_partition_estimate",
    "expected_loss",
    "capacity_estimate",
    "cross_expected_loss",
    "trace_rate_curve",
    "curve_from_traces",
    "distance_curve",
    "auc",
    "intersection_distance",
]

#: 200 evenly spaced multipliers on [0, 100]; the default trace grid.
def default_lambda_grid() -> np.ndarray:
    return np.linspace(0.0, 100.0, 200)


_CAPACITY_CLAMP = 1e-9

#: Points of the capacity grid a distance curve is interpolated onto.
_CAPACITY_POINTS = 100

#: Logits per block of the lambda trace: 64 Ki float64s, 512 KiB.
_BLOCK_ELEMENTS = 1 << 16


class InvalidBatchError(ValueError):
    """Raised when a ScoredBatch (or an argument) violates a precondition."""


@dataclass
class ScoredBatch:
    """Per-pair evaluation matrix for a set of sampled hypotheses.

    A batch is its columns, one entry per hypothesis: ``texts`` holds the
    descriptions, and ``log_pcode`` and ``log_proposal`` their coding and
    proposal log-probs, totals in nats kept as float64 arrays (both are
    <= 0 whenever the backing models are normalized).
    ``loss`` has one row per compared sample and one column per
    hypothesis; entries are total reconstruction losses in nats (in a
    sampled batch, the encoder-only log-ratio, which may be negative).
    ``counts`` carries the draw multiplicity of each merged hypothesis;
    fractional counts are allowed so that a full finite table with
    ``counts`` proportional to the proposal probabilities reproduces exact
    expectations ("exact mode"). ``log_conditionals`` optionally stores
    log p(h|x_i) rows for baselines that need the raw conditionals.
    """

    texts: Sequence[str]
    log_pcode: np.ndarray
    log_proposal: np.ndarray
    loss: np.ndarray
    counts: np.ndarray | None = None
    log_conditionals: np.ndarray | None = None
    dropped: int = 0

    def __post_init__(self) -> None:
        self.loss = np.asarray(self.loss, dtype=float)
        if self.loss.ndim != 2:
            raise InvalidBatchError("loss must be a 2-D matrix")
        if self.loss.shape[1] != len(self.texts):
            raise InvalidBatchError("loss column count != hypothesis count")
        if len(self.texts) < 2:
            raise InvalidBatchError("batch needs at least 2 hypotheses")
        if not np.all(np.isfinite(self.loss)):
            raise InvalidBatchError("loss matrix contains non-finite entries")
        self.log_pcode = np.asarray(self.log_pcode, dtype=float)
        self.log_proposal = np.asarray(self.log_proposal, dtype=float)
        if not self.log_pcode.shape == self.log_proposal.shape == (len(self.texts),):
            raise InvalidBatchError("one log_pcode and log_proposal per hypothesis")
        if not (np.all(np.isfinite(self.log_pcode))
                and np.all(np.isfinite(self.log_proposal))):
            raise InvalidBatchError("hypothesis log-probs contain non-finite entries")
        if self.counts is None:
            self.counts = np.ones(len(self.texts))
        else:
            self.counts = np.asarray(self.counts, dtype=float)
            if self.counts.shape != (len(self.texts),) or not np.all(
                np.isfinite(self.counts) & (self.counts > 0)
            ):
                raise InvalidBatchError(
                    "counts must be positive and finite, one per hypothesis"
                )
        if self.log_conditionals is not None:
            self.log_conditionals = np.asarray(self.log_conditionals, dtype=float)
            if self.log_conditionals.shape != self.loss.shape:
                raise InvalidBatchError("log_conditionals shape mismatch")

    @property
    def n_hypotheses(self) -> int:
        return len(self.texts)

    @property
    def n_draws(self) -> float:
        return float(self.counts.sum())

    def swapped(self) -> "ScoredBatch":
        """The same batch with the two sample rows exchanged."""
        return ScoredBatch(
            texts=self.texts,
            log_pcode=self.log_pcode,
            log_proposal=self.log_proposal,
            loss=self.loss[::-1].copy(),
            counts=self.counts,
            log_conditionals=None
            if self.log_conditionals is None
            else self.log_conditionals[::-1].copy(),
            dropped=self.dropped,
        )


@dataclass(frozen=True)
class CapacityCurve:
    """Rate curve of one sample's Gibbs family q(h) ~ p_code(h) exp(-lam*loss).

    One entry per lambda of the grid: ``capacities``, ``expected_losses``
    and ``log_partitions`` have shape (L,), ``weights`` has shape (L, H).
    """

    lambdas: np.ndarray
    capacities: np.ndarray
    expected_losses: np.ndarray
    log_partitions: np.ndarray
    weights: np.ndarray
    sample_index: int


@dataclass(frozen=True)
class DistanceCurve:
    """Interpolated asymmetric gaps and distance on a common capacity grid."""

    capacity_grid: np.ndarray
    delta_2_to_1: np.ndarray
    delta_1_to_2: np.ndarray
    distance: np.ndarray
    auc: float
    c_max: float
    lambda_grid: np.ndarray = field(default_factory=lambda: np.array([]))

    def swapped(self) -> "DistanceCurve":
        """Exchange the roles of the two samples (distance is unchanged)."""
        return DistanceCurve(
            capacity_grid=self.capacity_grid,
            delta_2_to_1=self.delta_1_to_2,
            delta_1_to_2=self.delta_2_to_1,
            distance=self.distance,
            auc=self.auc,
            c_max=self.c_max,
            lambda_grid=self.lambda_grid,
        )

    def scaled(self, factor: float) -> "DistanceCurve":
        """Unit conversion (e.g. nats -> bits with factor 1/ln 2)."""
        return DistanceCurve(
            capacity_grid=self.capacity_grid * factor,
            delta_2_to_1=self.delta_2_to_1 * factor,
            delta_1_to_2=self.delta_1_to_2 * factor,
            distance=self.distance * factor,
            auc=self.auc * factor * factor,
            c_max=self.c_max * factor,
            lambda_grid=self.lambda_grid,
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["capacity", "delta_2_to_1", "delta_1_to_2", "distance"])
        for c, d21, d12, d in zip(
            self.capacity_grid, self.delta_2_to_1, self.delta_1_to_2, self.distance
        ):
            writer.writerow([f"{c:.12g}", f"{d21:.12g}", f"{d12:.12g}", f"{d:.12g}"])
        return buf.getvalue()

    def report(self) -> dict:
        return {
            "auc": self.auc,
            "c_max": self.c_max,
            "lambda_grid": list(map(float, self.lambda_grid)),
            "capacity_grid": list(map(float, self.capacity_grid)),
            "delta_2_to_1": list(map(float, self.delta_2_to_1)),
            "delta_1_to_2": list(map(float, self.delta_1_to_2)),
            "distance": list(map(float, self.distance)),
        }


def _check_target(n_samples: int, target: int) -> None:
    """Refuse a sample index that is not an integer in 0..n_samples-1.

    A bool, a float or a string is refused rather than cast, and a negative
    index does not wrap.
    """
    if isinstance(target, bool) or not isinstance(target, (int, np.integer)):
        raise InvalidBatchError(f"sample index {target!r} is not an integer")
    if not 0 <= target < n_samples:
        raise InvalidBatchError(f"sample index {target} out of range")


class _Trace(NamedTuple):
    """The Gibbs family of one sample along a lambda grid of length L."""

    capacity: np.ndarray  # (L,), clamped to 0 near zero
    expected: np.ndarray  # (rows, L): expected loss of every sample row
    log_partition: np.ndarray  # (L,)
    weights: np.ndarray | None  # (L, H), only when asked for


def _check_seed(seed) -> None:
    """Refuse a seed that is not a non-negative integer (a bool is refused)."""
    integer = isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
    if not (integer and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _check_c_max(c_max) -> None:
    """Refuse a c_max that is neither None nor finite and >= 0."""
    if c_max is not None and not (math.isfinite(c_max) and c_max >= 0):
        raise InvalidBatchError(f"c_max must be None or finite and >= 0, got {c_max}")


def _logsumexp_rows(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log(sum(exp(u), axis=1)) of a 2-D block of finite logits, as a column.

    Each row's maxima are held out of the sum and added back through
    ``log1p`` (Blanchard, Higham & Higham, IMA J. Numer. Anal. 41(4), 2021).
    The steps, down to the zeros left where the maxima were so that the
    pairwise summation groups the terms alike, are those of the reference
    logsumexp in the tests, which this equals bit for bit. The shifted
    block is exped in place and the maxima's slots are then zeroed, which
    is what exp(-inf) gives there. ``out``, if given, holds the shifted block
    (same shape as ``u``) instead of a new array.
    """
    top = u.max(axis=1, keepdims=True)
    at_top = u == top
    m = at_top.sum(axis=1, keepdims=True, dtype=float)
    e = np.subtract(u, top, out=out)
    np.exp(e, out=e)
    e[at_top] = 0.0
    s = e.sum(axis=1, keepdims=True)
    return np.log1p(s / m) + np.log(m) + top


def _gibbs_trace(
    batch: ScoredBatch, grid: np.ndarray, target: int, keep_weights: bool = False
) -> _Trace:
    """Trace the Gibbs family of ``target`` over ``grid`` in blocks of lambdas.

    weights = softmax(-lam*loss[target] + log p_code - log proposal
    + log counts), stabilized inside logsumexp. A block holds at most
    ``_BLOCK_ELEMENTS`` logits, so memory stays flat however wide the batch.
    The logits are built in one buffer, added in the order written above,
    and that buffer then holds the weights; a second buffer holds the
    shifted logits inside logsumexp. Both are reused from block to block.
    """
    _check_target(batch.loss.shape[0], target)
    extra = batch.log_pcode - batch.log_proposal
    log_counts = np.log(batch.counts)
    loss = batch.loss[target]
    per_block = max(1, _BLOCK_ELEMENTS // batch.n_hypotheses)
    expected = np.empty((batch.loss.shape[0], grid.size))
    log_z = np.empty(grid.size)
    weights = np.empty((grid.size, batch.n_hypotheses)) if keep_weights else None
    buf, shifted = np.empty((2, min(per_block, grid.size), batch.n_hypotheses))
    for start in range(0, grid.size, per_block):
        block = slice(start, start + per_block)
        lams = grid[block, None]
        u = buf[: lams.shape[0]]
        np.multiply(-lams, loss, out=u)
        u += extra
        u += log_counts
        lse = _logsumexp_rows(u, out=shifted[: lams.shape[0]])
        w = u  # the logits are spent: the weights overwrite them
        w -= lse
        np.exp(w, out=w)
        w /= w.sum(axis=1, keepdims=True)
        for s, row in enumerate(batch.loss):
            # vecdot rounds as one dot per lambda does; a matmul would not.
            expected[s, block] = np.vecdot(w, row)
        log_z[block] = lse[:, 0] - math.log(batch.n_draws)
        if keep_weights:
            weights[block] = w
    capacity = -grid * expected[target] - log_z
    capacity[(-_CAPACITY_CLAMP <= capacity) & (capacity < 0.0)] = 0.0
    return _Trace(capacity, expected, log_z, weights)


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has sched_getaffinity
        return os.cpu_count() or 1


class _LazyPool:
    """A thread pool of ``size`` threads, made on first call.

    A forked child does not inherit the parent's threads, so a call in it
    makes the child its own pool.
    """

    def __init__(self, size: int, name: str):
        self._size, self._name = size, name
        self._lock = threading.Lock()
        self._made = None  # (pid, executor)

    def __call__(self):
        with self._lock:
            if self._made is None or self._made[0] != os.getpid():
                # imported here, not at the top: only concurrent work needs it
                from concurrent.futures import ThreadPoolExecutor

                self._made = (os.getpid(), ThreadPoolExecutor(
                    self._size, thread_name_prefix=self._name))
            return self._made[1]


#: The one-thread pool that runs the second half of :func:`_pair`.
_executor = _LazyPool(1, "ccdae-pair")


def _pair(fn, fan_out: bool) -> tuple:
    """``(fn(0), fn(1))``, the two halves at once when ``fan_out`` is set.

    The two halves must share nothing mutable but disjoint parts of the
    caller's arrays. With ``fan_out`` and more than one usable CPU,
    ``fn(1)`` runs on a worker thread in a copy of the caller's context
    (numpy's error state is a context variable) while ``fn(0)`` runs
    here; numpy releases the GIL inside the kernels' array operations, so
    they overlap. The caller returns only once the worker is done, even
    when ``fn(0)`` raises, and then the first exception is raised. The
    worker must call nothing that tracing wraps: its spans are per thread.
    """
    if not (fan_out and _usable_cpus() > 1):
        return fn(0), fn(1)
    future = _executor().submit(contextvars.copy_context().run, fn, 1)
    try:
        first = fn(0)
    except BaseException:
        future.exception()  # wait for the worker; fn(0)'s error is the first
        raise
    return first, future.result()


def _gibbs_point(batch: ScoredBatch, lam: float, target: int) -> _Trace:
    if lam < 0:
        raise InvalidBatchError("lambda must be nonnegative")
    return _gibbs_trace(batch, np.array([float(lam)]), target, keep_weights=True)


def gibbs_weights(batch: ScoredBatch, lam: float, target: int) -> np.ndarray:
    """Self-normalized importance weights for the Gibbs family at ``lam``.

    weights_i = softmax(-lam*loss[target] + log p_code - log proposal)_i,
    with draw multiplicities folded in as count weights.
    """
    return _gibbs_point(batch, lam, target).weights[0]


def log_partition_estimate(batch: ScoredBatch, lam: float, target: int) -> float:
    """log of the self-normalized partition estimate (1/N) sum exp(logit)."""
    return float(_gibbs_point(batch, lam, target).log_partition[0])


def expected_loss(batch: ScoredBatch, lam: float, target: int) -> float:
    """beta(lam): importance-weighted expected reconstruction loss."""
    return float(_gibbs_point(batch, lam, target).expected[target, 0])


def capacity_estimate(batch: ScoredBatch, lam: float, target: int) -> float:
    """C(lam) = -lam*beta(lam) - log Z_hat, clamped to 0 near zero."""
    return float(_gibbs_point(batch, lam, target).capacity[0])


def cross_expected_loss(
    batch: ScoredBatch, lam: float, source: int, target: int
) -> float:
    """Expected loss on ``target`` under the Gibbs weights of ``source``."""
    _check_target(batch.loss.shape[0], target)
    return float(_gibbs_point(batch, lam, source).expected[target, 0])


def _validate_grid(lambda_grid) -> np.ndarray:
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.size == 0:
        raise InvalidBatchError("lambda grid is empty")
    if not np.all(np.isfinite(grid)):
        raise InvalidBatchError("lambda grid must be finite")
    if np.any(grid < 0) or np.any(np.diff(grid) <= 0):
        raise InvalidBatchError("lambda grid must be nonnegative and increasing")
    return grid


def trace_rate_curve(
    batch: ScoredBatch,
    lambda_grid=None,
    target: int = 0,
) -> CapacityCurve:
    """Trace (lam, C, beta) along the lambda grid for one sample."""
    grid = default_lambda_grid() if lambda_grid is None else _validate_grid(lambda_grid)
    t = _gibbs_trace(batch, grid, target, keep_weights=True)
    return CapacityCurve(grid.copy(), t.capacity, t.expected[target],
                         t.log_partition, t.weights, target)


def curve_from_traces(
    capacity,
    beta,
    cross,
    lambda_grid: np.ndarray,
    c_max: float | None = None,
) -> DistanceCurve:
    """Interpolate two traced rate curves onto a shared capacity grid.

    ``capacity[i]``, ``beta[i]`` and ``cross[i]`` hold, along the lambda
    grid, the capacity of sample i's weights, their expected loss on
    sample i, and their expected loss on the other sample. Each curve is
    parameterized by its capacity and linearly interpolated onto
    ``_CAPACITY_POINTS`` points spanning [0, c_max].
    """
    _check_c_max(c_max)
    traced_max = min(capacity[0].max(), capacity[1].max())
    if c_max is None:
        if traced_max < 0:
            raise InvalidBatchError(
                f"the traced capacity range ends at {traced_max:.6g} < 0, so there "
                "is no capacity range [0, c_max] to compare the samples over"
            )
        c_max = float(traced_max)
    elif c_max > traced_max * (1 + 1e-9) + 1e-12:
        raise InvalidBatchError(
            f"c_max={c_max:.6g} exceeds the traced capacity range "
            f"({traced_max:.6g}); extend the lambda grid or pass a smaller c_max"
        )
    cgrid = np.linspace(0.0, c_max, _CAPACITY_POINTS)

    def interp(i: int, val: np.ndarray) -> np.ndarray:
        # np.interp needs increasing x; estimator noise can break monotonicity.
        order = np.argsort(capacity[i], kind="stable")
        return np.interp(cgrid, capacity[i][order], val[order])

    # delta_2_to_1: how much worse sample 2's descriptions reconstruct
    # sample 1, relative to sample 1's own optimal curve, at matched C.
    d21 = interp(1, cross[1]) - interp(0, beta[0])
    d12 = interp(0, cross[0]) - interp(1, beta[1])
    dist = 0.5 * (d21 + d12)
    return DistanceCurve(
        capacity_grid=cgrid,
        delta_2_to_1=d21,
        delta_1_to_2=d12,
        distance=dist,
        auc=auc(cgrid, dist, c_max),
        c_max=float(c_max),
        lambda_grid=lambda_grid,
    )


def distance_curve(
    batch: ScoredBatch,
    lambda_grid=None,
    c_max: float | None = None,
) -> DistanceCurve:
    """Trace both Gibbs families and interpolate the gap curves."""
    if batch.loss.shape[0] < 2:
        raise InvalidBatchError("distance_curve needs both sample rows scored")
    grid = default_lambda_grid() if lambda_grid is None else _validate_grid(lambda_grid)
    t0, t1 = _pair(lambda i: _gibbs_trace(batch, grid, i),
                   batch.n_hypotheses * grid.size > _BLOCK_ELEMENTS)
    return curve_from_traces(
        (t0.capacity, t1.capacity), (t0.expected[0], t1.expected[1]),
        (t0.expected[1], t1.expected[0]), grid, c_max,
    )


def auc(capacities, values, c_max: float | None = None) -> float:
    """Trapezoidal area under (C, value) pairs over [min C, c_max]."""
    c = np.asarray(capacities, dtype=float)
    v = np.asarray(values, dtype=float)
    if c.size < 2:
        raise InvalidBatchError("auc needs at least 2 points")
    if np.any(np.diff(c) < 0):
        raise InvalidBatchError("capacities must be increasing")
    if c_max is None:
        c_max = float(c[-1])
    if not (c[0] <= c_max <= c[-1]):
        raise InvalidBatchError("c_max outside the sampled capacity range")
    keep = c <= c_max
    cc = c[keep]
    vv = v[keep]
    if cc[-1] < c_max:
        cc = np.append(cc, c_max)
        vv = np.append(vv, np.interp(c_max, c, v))
    return float(np.trapezoid(vv, cc))


def intersection_distance(batch: ScoredBatch, lam: float) -> float:
    """Mixture-minus-optimal distance at a single lambda.

    E_{q_mix}[loss_1 + loss_2] - E_{q_1}[loss_1] - E_{q_2}[loss_2] with
    q_mix the equal mixture of the two weight vectors; algebraically equal
    to the mean of the two asymmetric gaps at the same lambda.
    """
    w0 = gibbs_weights(batch, lam, 0)
    w1 = gibbs_weights(batch, lam, 1)
    mix = 0.5 * (w0 + w1)
    total = batch.loss[0] + batch.loss[1]
    return float(mix @ total - w0 @ batch.loss[0] - w1 @ batch.loss[1])
