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
import numbers
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "ScoredBatch",
    "DistanceCurve",
    "default_lambda_grid",
    "gibbs_weights",
    "expected_loss",
    "capacity_estimate",
    "curve_from_traces",
    "distance_curve",
    "auc",
    "intersection_distance",
]

def default_lambda_grid() -> np.ndarray:
    """200 evenly spaced multipliers on [0, 100]; the default trace grid."""
    return np.linspace(0.0, 100.0, 200)


_CAPACITY_CLAMP = 1e-9

#: Points of the capacity grid a distance curve is interpolated onto.
_CAPACITY_POINTS = 100

#: Logits per block of the lambda trace: 128 Ki float64s, 1 MiB per buffer.
#: Fewer, larger blocks mean fewer numpy calls per trace, which matters when
#: a pair's two wide traces run on two threads that take turns holding the
#: GIL for each call; much larger blocks fall out of the cache.
_BLOCK_ELEMENTS = 1 << 17


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
        if not np.isfinite(self.loss).all():
            raise InvalidBatchError("loss matrix contains non-finite entries")
        self.log_pcode = np.asarray(self.log_pcode, dtype=float)
        self.log_proposal = np.asarray(self.log_proposal, dtype=float)
        if not self.log_pcode.shape == self.log_proposal.shape == (len(self.texts),):
            raise InvalidBatchError("one log_pcode and log_proposal per hypothesis")
        if not (np.isfinite(self.log_pcode).all()
                and np.isfinite(self.log_proposal).all()):
            raise InvalidBatchError("hypothesis log-probs contain non-finite entries")
        if self.counts is None:
            self.counts = np.ones(len(self.texts))
        else:
            self.counts = np.asarray(self.counts, dtype=float)
            if self.counts.shape != (len(self.texts),) or not (
                np.isfinite(self.counts) & (self.counts > 0)
            ).all():
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
        columns = (self.capacity_grid, self.delta_2_to_1, self.delta_1_to_2,
                   self.distance)
        return _csv_text(["capacity", "delta_2_to_1", "delta_1_to_2", "distance"],
                         ([f"{v:.12g}" for v in row] for row in zip(*columns)))

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


def _csv_text(header, rows) -> str:
    """CSV text: the header line, then one line per row, each ending in a
    newline. Callers format their own values."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


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
    """The Gibbs families of T samples along a lambda grid of length L."""

    capacity: np.ndarray  # (T, L), clamped to 0 near zero
    expected: np.ndarray  # (T, rows, L): expected loss of every sample row
    log_partition: np.ndarray  # (T, L)
    weights: np.ndarray | None  # (T, K, H) at the last K lambdas, when asked for


def _check_seed(seed) -> None:
    """Refuse a seed that is not a non-negative integer (a bool is refused)."""
    integer = isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
    if not (integer and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _check_count(name: str, value) -> None:
    """Refuse a count that is not an integer >= 1 (a bool is refused)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value!r}")


def _is_real(value) -> bool:
    """A real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_c_max(c_max) -> None:
    """Refuse a c_max that is neither None nor a finite real >= 0 (a bool is
    refused)."""
    if c_max is None:
        return
    if not _is_real(c_max):
        raise InvalidBatchError(f"c_max must be None or a real number, got {c_max!r}")
    if not (math.isfinite(c_max) and c_max >= 0):
        raise InvalidBatchError(f"c_max must be None or finite and >= 0, got {c_max}")


def _check_lambda(lam) -> None:
    """Refuse a one-point lambda that is not a finite real >= 0 (a bool is
    refused)."""
    if not _is_real(lam):
        raise InvalidBatchError(f"lambda must be a real number, got {lam!r}")
    if not (math.isfinite(lam) and lam >= 0):
        raise InvalidBatchError(f"lambda must be finite and >= 0, got {lam}")


def _check_temperature(temperature) -> None:
    """Refuse a sampling temperature that is not a finite real > 0 (a bool is
    refused)."""
    if not _is_real(temperature):
        raise ValueError(f"temperature must be a real number, got {temperature!r}")
    if not (math.isfinite(temperature) and temperature > 0):
        raise ValueError(f"temperature must be finite and positive, got {temperature}")


def _logsumexp_rows(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log(sum(exp(u), axis=1)) of a 2-D block of finite logits, as a column.

    Each row's maxima are held out of the sum and added back through
    ``log1p`` (Blanchard, Higham & Higham, IMA J. Numer. Anal. 41(4), 2021).
    The steps, down to the zeros left where the maxima were so that the
    pairwise summation groups the terms alike, are those of the reference
    logsumexp in the tests, which this equals bit for bit. The shifted
    block is exped in place and the maxima's slots are then zeroed, which
    is what exp(-inf) gives there. ``out``, if given, holds the shifted block
    (same shape as ``u``) instead of a new array. ``u`` may be a transposed
    view: its max and count of maxima are exact, and the sum is row-major.

    Every row has at least one maximum, so a block with as many maxima as
    rows has exactly one in each; there the count is 1, and ``log1p(s) +
    top`` gives the same bits (``s / 1.0 == s``, ``log(1.0) == 0.0`` and
    ``x + 0.0 == x`` for ``x = log1p(s) >= +0``). Only a block with a tie
    counts its maxima row by row.
    """
    top = u.max(axis=1, keepdims=True)
    at_top = u == top
    e = np.subtract(u, top, out=out)
    np.exp(e, out=e)
    np.copyto(e, 0.0, where=at_top)
    s = np.ascontiguousarray(e).sum(axis=1, keepdims=True)
    if np.count_nonzero(at_top) == u.shape[0]:
        return np.log1p(s) + top
    m = at_top.sum(axis=1, keepdims=True, dtype=float)
    return np.log1p(s / m) + np.log(m) + top


def _gibbs_trace(batch: ScoredBatch, grid: np.ndarray, targets: Sequence[int] = (0, 1),
                 keep_weights: int = 0) -> _Trace:
    """Trace the Gibbs families of ``targets`` over ``grid``, in one call.

    Row (i, k) holds weights = softmax(-grid[k]*loss[targets[i]] + log p_code
    - log proposal + log counts), stabilized inside logsumexp; the weights
    of the last ``keep_weights`` grid points are kept. Two targets wider than
    a block each are traced on :func:`_pair`'s two threads, one each.
    """
    for target in targets:
        _check_target(batch.loss.shape[0], target)
    n, (samples, width) = len(targets), batch.loss.shape
    out = _Trace(None, np.empty((n, samples, grid.size)), np.empty((n, grid.size)),
                 np.empty((n, keep_weights, width)) if keep_weights else None)
    if n == 2 and width * grid.size > _BLOCK_ELEMENTS:
        _pair(lambda i: _trace_rows(batch, grid, targets[i:i + 1], out, slice(i, i + 1)),
              True)
    else:
        _trace_rows(batch, grid, targets, out, slice(None))
    capacity = -grid * out.expected[np.arange(n), targets] - out.log_partition
    capacity[(-_CAPACITY_CLAMP <= capacity) & (capacity < 0.0)] = 0.0
    return out._replace(capacity=capacity)


def _trace_rows(batch: ScoredBatch, grid: np.ndarray, targets: Sequence[int],
                out: _Trace, part: slice) -> None:
    """Fill ``part`` of ``out``'s target axis with the rows of ``targets``, in
    blocks of every target's rows at a run of lambdas, at most
    ``_BLOCK_ELEMENTS`` logits each. The logits buffer is hypothesis-major
    when a block has more rows than hypotheses, so the broadcast ops, the
    row max and the count of maxima run along the longer axis; a second,
    row-major buffer holds the shifted logits and then the weights, so the
    row sums and expected losses are a row-major block's, bit for bit.
    """
    n, width = len(targets), batch.n_hypotheses
    extra = batch.log_pcode - batch.log_proposal
    log_counts = np.log(batch.counts)
    log_draws = math.log(batch.n_draws)
    loss = batch.loss[list(targets), None, :]
    per_block = max(1, _BLOCK_ELEMENTS // (n * width))
    keep_from = grid.size - (0 if out.weights is None else out.weights.shape[1])
    logits, shifted = np.empty((2, n * min(per_block, grid.size) * width))
    for start in range(0, grid.size, per_block):
        lams = grid[start:start + per_block]
        k, rows = lams.size, n * lams.size
        block = slice(start, start + k)
        u, e = logits[: rows * width], shifted[: rows * width].reshape(rows, width)
        hypothesis_major = rows > width
        u = u.reshape(width, rows).T if hypothesis_major else u.reshape(rows, width)
        np.multiply(-lams[:, None], loss, out=u.reshape(n, k, width))
        u += extra
        u += log_counts
        lse = _logsumexp_rows(u, out=e)
        # the weights overwrite the logits, or in a hypothesis-major block the
        # spent shifted logits, so that they are row-major
        w = np.subtract(u, lse, out=e if hypothesis_major else u)
        np.exp(w, out=w)
        w /= w.sum(axis=1, keepdims=True)
        # vecdot rounds as one dot per lambda does; a matmul would not.
        np.vecdot(w.reshape(n, k, 1, width), batch.loss,
                  out=out.expected[part, :, block].transpose(0, 2, 1))
        np.subtract(lse.reshape(n, k), log_draws,
                    out=out.log_partition[part, block])
        if start + k > keep_from:
            first = max(start, keep_from)
            out.weights[part, first - keep_from:start + k - keep_from] = (
                w.reshape(n, k, width)[:, first - start:])


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

    The halves are a pair's two samples: the two targets of a wide Gibbs
    trace, or the two directions of ``oracle.exact_distance_curve``. They
    must share nothing mutable but disjoint parts of the caller's arrays.
    With ``fan_out`` and more than one usable CPU, ``fn(1)`` runs on a
    worker thread in a copy of the caller's context (numpy's error state is
    a context variable) while ``fn(0)`` runs here; numpy releases the GIL
    inside the kernels' array operations, so they overlap. The caller
    returns only once the worker is done, even when ``fn(0)`` raises, and
    then the first exception is raised. The worker must call nothing that
    tracing wraps: its spans are per thread.
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
    _check_lambda(lam)
    return _gibbs_trace(batch, np.array([float(lam)]), (target,), keep_weights=1)


def gibbs_weights(batch: ScoredBatch, lam: float, target: int) -> np.ndarray:
    """Self-normalized importance weights for the Gibbs family at ``lam``.

    weights_i = softmax(-lam*loss[target] + log p_code - log proposal)_i,
    with draw multiplicities folded in as count weights.
    """
    return _gibbs_point(batch, lam, target).weights[0, 0]


def expected_loss(batch: ScoredBatch, lam: float, target: int) -> float:
    """beta(lam): importance-weighted expected reconstruction loss."""
    return float(_gibbs_point(batch, lam, target).expected[0, target, 0])


def capacity_estimate(batch: ScoredBatch, lam: float, target: int) -> float:
    """C(lam) = -lam*beta(lam) - log Z_hat, clamped to 0 near zero."""
    return float(_gibbs_point(batch, lam, target).capacity[0, 0])


def _validate_grid(lambda_grid) -> np.ndarray:
    """The lambda grid to trace: :func:`default_lambda_grid` for ``None``,
    else ``lambda_grid`` as a 1-D, finite, nonnegative, increasing array."""
    if lambda_grid is None:
        return default_lambda_grid()
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.size == 0:
        raise InvalidBatchError("lambda grid is empty")
    if grid.ndim != 1:
        raise InvalidBatchError(
            f"lambda grid must be one-dimensional, got shape {grid.shape}")
    if not np.isfinite(grid).all():
        raise InvalidBatchError("lambda grid must be finite")
    if grid[0] < 0 or (grid[1:] <= grid[:-1]).any():
        raise InvalidBatchError("lambda grid must be nonnegative and increasing")
    return grid


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
    capacity, beta, cross = (np.asarray(a, dtype=float) for a in (capacity, beta, cross))
    if not capacity.shape == beta.shape == cross.shape == (2, np.size(lambda_grid)):
        raise InvalidBatchError(
            "capacity, beta and cross need one row per sample and one column per "
            f"lambda, shape (2, {np.size(lambda_grid)}); got {capacity.shape}, "
            f"{beta.shape} and {cross.shape}")
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
    # np.interp needs increasing x; estimator noise can break monotonicity.
    orders = [row.argsort(kind="stable") for row in capacity]
    x, b, c = ([a[i][orders[i]] for i in (0, 1)] for a in (capacity, beta, cross))
    # delta_2_to_1: how much worse sample 2's descriptions reconstruct
    # sample 1, relative to sample 1's own optimal curve, at matched C.
    d21 = np.interp(cgrid, x[1], c[1]) - np.interp(cgrid, x[0], b[0])
    d12 = np.interp(cgrid, x[0], c[0]) - np.interp(cgrid, x[1], b[1])
    dist = 0.5 * (d21 + d12)
    return DistanceCurve(
        capacity_grid=cgrid,
        delta_2_to_1=d21,
        delta_1_to_2=d12,
        distance=dist,
        # cgrid is increasing and ends exactly at c_max, so this is auc(...)'s
        # area without its re-checks
        auc=float(np.trapezoid(dist, cgrid)),
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
    grid = _validate_grid(lambda_grid)
    return _curve(_gibbs_trace(batch, grid), grid, c_max)


def _curve(trace: _Trace, grid: np.ndarray, c_max: float | None) -> DistanceCurve:
    """The distance curve of a two-target trace whose first columns are ``grid``."""
    # (2, rows, L) -> the diagonals (2, L): expected[i, i] and expected[i, 1 - i]
    beta, cross = (e[..., : grid.size].diagonal().T
                   for e in (trace.expected, trace.expected[:, 1::-1]))
    return curve_from_traces(trace.capacity[:, : grid.size], beta, cross, grid, c_max)


def auc(capacities, values, c_max: float | None = None) -> float:
    """Trapezoidal area under (C, value) pairs over [min C, c_max]."""
    c = np.asarray(capacities, dtype=float)
    v = np.asarray(values, dtype=float)
    if c.ndim != 1 or c.shape != v.shape:
        raise InvalidBatchError(
            "auc needs one-dimensional capacities and values of equal length, "
            f"got shapes {c.shape} and {v.shape}")
    _check_c_max(c_max)
    if c.size < 2:
        raise InvalidBatchError("auc needs at least 2 points")
    if (c[1:] < c[:-1]).any():
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
