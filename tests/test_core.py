import contextvars
import math
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from ccdae import bench, core, oracle
from ccdae.core import InvalidBatchError, ScoredBatch
from ccdae.pipeline import CompareConfig

from conftest import benchmark_table, make_encoder_batch, make_uniform_batch

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# gibbs_weights


def test_weights_uniform_at_lambda_zero():
    batch = make_uniform_batch([[1.0, 2.0, 3.0, 4.0]])
    w = core.gibbs_weights(batch, 0.0, 0)
    np.testing.assert_allclose(w, [0.25] * 4, atol=1e-12)


def test_weights_dirac_limit():
    batch = make_uniform_batch([[1.0, 2.0]])
    w = core.gibbs_weights(batch, 1e6, 0)
    np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-9)


def test_weights_hand_softmax():
    batch = make_uniform_batch([[1.0, 2.0]])
    w = core.gibbs_weights(batch, 1.0, 0)
    np.testing.assert_allclose(w, [0.73106, 0.26894], atol=1e-5)


def test_weights_bad_lambda_and_target():
    batch = make_uniform_batch([[1.0, 2.0]])
    with pytest.raises(InvalidBatchError):
        core.gibbs_weights(batch, -0.5, 0)
    with pytest.raises(InvalidBatchError):
        core.gibbs_weights(batch, 1.0, 5)


# ---------------------------------------------------------------------------
# log partition / capacity


def test_log_partition_zero_at_lambda_zero():
    batch = make_uniform_batch([[1.0, 2.0, 3.0]])
    assert core.log_partition_estimate(batch, 0.0, 0) == pytest.approx(0.0, abs=1e-12)


def test_log_partition_two_hypotheses():
    batch = make_uniform_batch([[1.0, 2.0]])
    expected = math.log(0.5 * (math.exp(-1.0) + math.exp(-2.0)))
    got = core.log_partition_estimate(batch, 1.0, 0)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(-1.37989, abs=1e-5)


def test_log_partition_dominant_asymptote():
    batch = make_uniform_batch([[1.0, 5.0]])
    lam = 200.0
    expected = -lam * 1.0 - math.log(2.0)  # log_pcode - log_proposal = 0
    assert core.log_partition_estimate(batch, lam, 0) == pytest.approx(
        expected, rel=1e-9
    )


def test_capacity_zero_at_lambda_zero():
    batch = make_uniform_batch([[0.3, 1.7, 2.9]])
    assert core.capacity_estimate(batch, 0.0, 0) == 0.0


def test_capacity_hand_value_and_limit():
    batch = make_uniform_batch([[1.0, 2.0]])
    assert core.capacity_estimate(batch, 1.0, 0) == pytest.approx(0.1109, abs=2e-4)
    assert core.capacity_estimate(batch, 1e6, 0) == pytest.approx(LN2, abs=1e-4)


# ---------------------------------------------------------------------------
# rate curve


def test_trace_degenerate_single_loss_value():
    batch = make_uniform_batch([[1.3, 1.3, 1.3]])
    curve = core.trace_rate_curve(batch, [0.0, 1.0, 10.0])
    np.testing.assert_allclose(curve.expected_losses, 1.3, atol=1e-12)
    np.testing.assert_allclose(curve.capacities, 0.0, atol=1e-12)


def test_trace_hand_points():
    batch = make_uniform_batch([[1.0, 2.0]])
    curve = core.trace_rate_curve(batch, [0.0, 1.0])
    assert curve.capacities[0] == pytest.approx(0.0, abs=1e-12)
    assert curve.expected_losses[0] == pytest.approx(1.5, abs=1e-12)
    assert curve.capacities[1] == pytest.approx(0.1109, abs=2e-4)
    assert curve.expected_losses[1] == pytest.approx(1.26894, abs=1e-5)


def test_trace_grid_validation():
    batch = make_uniform_batch([[1.0, 2.0]])
    with pytest.raises(InvalidBatchError):
        core.trace_rate_curve(batch, [])
    with pytest.raises(InvalidBatchError):
        core.trace_rate_curve(batch, [1.0, 0.5])
    with pytest.raises(InvalidBatchError):
        core.trace_rate_curve(batch, [-1.0, 0.5])
    for grid in ([0.0, math.nan, 2.0], [0.0, 1.0, math.inf]):
        with pytest.raises(InvalidBatchError, match="lambda grid must be finite"):
            core.trace_rate_curve(batch, grid)


# ---------------------------------------------------------------------------
# cross expected loss


def test_cross_equals_self_when_source_is_target():
    batch = make_uniform_batch([[0.0, 10.0], [10.0, 0.0]])
    for lam in (0.0, 0.7, 3.0):
        assert core.cross_expected_loss(batch, lam, 0, 0) == pytest.approx(
            core.expected_loss(batch, lam, 0), abs=1e-12
        )


def test_cross_separable_hand_value():
    batch = make_uniform_batch([[0.0, 10.0], [10.0, 0.0]])
    got = core.cross_expected_loss(batch, 1.0, 1, 0)
    assert got == pytest.approx(9.9995, abs=1e-3)


def test_cross_identical_rows():
    batch = make_uniform_batch([[1.0, 2.0], [1.0, 2.0]])
    for lam in (0.0, 1.0, 5.0):
        assert core.cross_expected_loss(batch, lam, 1, 0) == pytest.approx(
            core.expected_loss(batch, lam, 0), abs=1e-12
        )


# ---------------------------------------------------------------------------
# distance curve / auc


def test_distance_identical_rows_zero():
    batch = make_uniform_batch([[1.0, 2.0, 0.5], [1.0, 2.0, 0.5]])
    curve = core.distance_curve(batch, np.linspace(0, 10, 30))
    np.testing.assert_allclose(curve.distance, 0.0, atol=1e-12)
    assert curve.auc == pytest.approx(0.0, abs=1e-12)


def test_distance_swap_symmetry_bit_exact():
    batch = make_uniform_batch([[0.0, 10.0, 3.0], [10.0, 0.0, 1.0]])
    grid = np.linspace(0, 20, 50)
    a = core.distance_curve(batch, grid)
    b = core.distance_curve(batch.swapped(), grid)
    assert a.auc == b.auc
    assert np.array_equal(a.distance, b.distance)
    assert np.array_equal(a.delta_2_to_1, b.delta_1_to_2)
    assert np.array_equal(a.delta_1_to_2, b.delta_2_to_1)


def test_distance_cmax_out_of_range_error():
    batch = make_uniform_batch([[0.0, 10.0], [10.0, 0.0]])
    with pytest.raises(InvalidBatchError, match="c_max"):
        core.distance_curve(batch, np.linspace(0, 5, 20), c_max=10.0)


def test_auc_triangle():
    assert core.auc([0, 1, 2], [0, 1, 2], 2) == pytest.approx(2.0, abs=1e-12)


def test_auc_constant_zero():
    assert core.auc([0, 1, 2], [0, 0, 0], 2) == pytest.approx(0.0, abs=1e-12)


def test_auc_interpolated_endpoint():
    assert core.auc([0, 1, 2], [0, 1, 2], 1.5) == pytest.approx(1.125, abs=1e-12)


def test_auc_needs_two_points():
    with pytest.raises(InvalidBatchError):
        core.auc([1.0], [1.0], 1.0)


# ---------------------------------------------------------------------------
# intersection distance


def test_intersection_identical_zero():
    batch = make_uniform_batch([[1.0, 2.0], [1.0, 2.0]])
    assert core.intersection_distance(batch, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_intersection_equals_mean_gap():
    batch = make_uniform_batch([[0.0, 10.0, 2.0], [10.0, 0.0, 1.0]])
    for lam in (0.0, 0.5, 1.0, 7.0):
        lhs = core.intersection_distance(batch, lam)
        d21 = core.cross_expected_loss(batch, lam, 1, 0) - core.expected_loss(
            batch, lam, 0
        )
        d12 = core.cross_expected_loss(batch, lam, 0, 1) - core.expected_loss(
            batch, lam, 1
        )
        assert lhs == pytest.approx(0.5 * (d21 + d12), abs=1e-9)


# ---------------------------------------------------------------------------
# batch validation


def test_batch_drops_nonfinite_columns():
    with pytest.warns(UserWarning):
        batch = ScoredBatch.from_columns(
            ["a", "b", "c"], [-1.0] * 3, [-1.0] * 3,
            [[1.0, np.inf, 2.0], [1.0, 0.0, 2.0]]
        )
    assert batch.n_hypotheses == 2
    assert batch.dropped == 1
    assert batch.texts == ["a", "c"]


def test_batch_requires_two_hypotheses():
    with pytest.raises(InvalidBatchError):
        ScoredBatch(texts=["a"], log_pcode=[-1.0], log_proposal=[-1.0],
                    loss=[[1.0]])


@pytest.mark.parametrize("shape", [(), (2,), (4,), (1, 3), (3, 1)])
@pytest.mark.parametrize("field", ["log_pcode", "log_proposal"])
def test_batch_rejects_columns_not_one_per_hypothesis(field, shape):
    columns = {"log_pcode": np.full(3, -1.0), "log_proposal": np.full(3, -2.0)}
    columns[field] = np.full(shape, -1.0)
    with pytest.raises(InvalidBatchError, match="per hypothesis"):
        ScoredBatch(texts=["a", "b", "c"], loss=[[1.0, 2.0, 3.0]] * 2, **columns)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("field", ["log_pcode", "log_proposal", "counts"])
def test_batch_rejects_nonfinite_inputs(field, value):
    columns = {"log_pcode": [-1.0] * 3, "log_proposal": [-2.0] * 3,
               "counts": [1.0, 2.0, 1.0]}
    columns[field][1] = value
    with pytest.raises(InvalidBatchError, match="finite"):
        ScoredBatch(texts=["a", "b", "c"], loss=[[1.0, 2.0, 3.0]] * 2, **columns)


# ---------------------------------------------------------------------------
# property tests

finite_losses = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=8
)


@settings(max_examples=60, deadline=None)
@given(losses=finite_losses, lam=st.floats(min_value=0, max_value=1e6))
def test_property_weight_normalization(losses, lam):
    batch = make_uniform_batch([losses])
    w = core.gibbs_weights(batch, lam, 0)
    assert abs(w.sum() - 1.0) <= 1e-9
    assert np.all(w >= 0)


@settings(max_examples=40, deadline=None)
@given(losses=finite_losses)
def test_property_capacity_zero_when_code_is_proposal(losses):
    batch = make_uniform_batch([losses])
    assert core.capacity_estimate(batch, 0.0, 0) == 0.0


@settings(max_examples=30, deadline=None)
@given(
    logits1=st.lists(st.floats(min_value=-8, max_value=0), min_size=2, max_size=6),
    logits2=st.lists(st.floats(min_value=-8, max_value=0), min_size=2, max_size=6),
)
def test_property_exact_mode_monotone_and_nonneg(logits1, logits2):
    n = min(len(logits1), len(logits2))
    p1 = np.exp(logits1[:n]) / np.exp(logits1[:n]).sum()
    p2 = np.exp(logits2[:n]) / np.exp(logits2[:n]).sum()
    batch = make_encoder_batch(np.log(p1), np.log(p2))
    grid = np.linspace(0, 30, 40)
    for target in (0, 1):
        curve = core.trace_rate_curve(batch, grid, target)
        caps = curve.capacities
        betas = curve.expected_losses
        assert np.all(np.diff(caps) >= -1e-9)
        assert np.all(np.diff(betas) <= 1e-9)
    dcurve = core.distance_curve(batch, grid, capacity_grid_size=40)
    assert np.all(dcurve.delta_2_to_1 >= -1e-9)
    assert np.all(dcurve.delta_1_to_2 >= -1e-9)
    assert np.all(dcurve.distance >= -1e-9)
    assert dcurve.auc >= -1e-9


@settings(max_examples=40, deadline=None)
@given(
    losses1=finite_losses,
    losses2=finite_losses,
    lam=st.floats(min_value=0, max_value=100),
)
def test_property_intersection_identity(losses1, losses2, lam):
    n = min(len(losses1), len(losses2))
    batch = make_uniform_batch([losses1[:n], losses2[:n]])
    lhs = core.intersection_distance(batch, lam)
    d21 = core.cross_expected_loss(batch, lam, 1, 0) - core.expected_loss(batch, lam, 0)
    d12 = core.cross_expected_loss(batch, lam, 0, 1) - core.expected_loss(batch, lam, 1)
    assert lhs == pytest.approx(0.5 * (d21 + d12), abs=1e-9)


# ---------------------------------------------------------------------------
# the blocked Gibbs trace against a per-lambda reference loop


def _reference_point(batch, lam, target):
    """One lambda of the trace, one hypothesis list and logsumexp at a time."""
    extra = np.array([float(pc) - float(pq) for pc, pq
                      in zip(batch.log_pcode, batch.log_proposal)])
    u = -lam * batch.loss[target] + extra + np.log(batch.counts)
    w = np.exp(u - logsumexp(u))
    w = w / w.sum()
    beta = float(w @ batch.loss[target])
    logz = float(logsumexp(u) - math.log(batch.n_draws))
    c = -lam * beta - logz
    if -1e-9 <= c < 0.0:
        c = 0.0
    return w, c, beta, logz


def _reference_distance(batch, grid, capacity_grid_size=100):
    cap, beta, cross = (np.empty((2, grid.size)) for _ in range(3))
    for i in (0, 1):
        for k, lam in enumerate(grid):
            w, cap[i, k], beta[i, k], _ = _reference_point(batch, float(lam), i)
            cross[i, k] = float(w @ batch.loss[1 - i])
    c_max = float(min(cap[0].max(), cap[1].max()))
    cgrid = np.linspace(0.0, c_max, capacity_grid_size)

    def interp(x, y):
        order = np.argsort(x, kind="stable")
        return np.interp(cgrid, x[order], y[order])

    d21 = interp(cap[1], cross[1]) - interp(cap[0], beta[0])
    d12 = interp(cap[0], cross[0]) - interp(cap[1], beta[1])
    dist = 0.5 * (d21 + d12)
    return cgrid, d21, d12, dist, core.auc(cgrid, dist, c_max)


def _random_batch(rng, n_hyp, loss_scale=5.0):
    log_pcode = rng.uniform(-20.0, 0.0, n_hyp)
    log_proposal = rng.uniform(-20.0, 0.0, n_hyp)
    return ScoredBatch(
        texts=[f"h{j}" for j in range(n_hyp)],
        log_pcode=log_pcode,
        log_proposal=log_proposal,
        loss=rng.normal(0.0, loss_scale, (2, n_hyp)),  # mixed signs
        counts=rng.integers(1, 6, n_hyp).astype(float),
    )


def _assert_matches_reference(batch, grid):
    tol = dict(rtol=1e-12, atol=1e-12)
    for target in (0, 1):
        curve = core.trace_rate_curve(batch, grid, target)
        for k, lam in enumerate(grid):
            w, c, beta, logz = _reference_point(batch, float(lam), target)
            np.testing.assert_allclose(curve.weights[k], w, **tol)
            np.testing.assert_allclose(
                [curve.capacities[k], curve.expected_losses[k],
                 curve.log_partitions[k]],
                [c, beta, logz], **tol)
    try:
        expected = _reference_distance(batch, grid)
    except InvalidBatchError:
        with pytest.raises(InvalidBatchError):
            core.distance_curve(batch, grid)
        return
    got = core.distance_curve(batch, grid)
    for a, b in zip((got.capacity_grid, got.delta_2_to_1, got.delta_1_to_2,
                     got.distance, got.auc), expected):
        np.testing.assert_allclose(a, b, **tol)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_hyp=st.integers(2, 12),
    lam_max=st.floats(min_value=0.1, max_value=100.0),
    n_lam=st.integers(1, 60),
)
def test_property_trace_matches_reference_loop(seed, n_hyp, lam_max, n_lam):
    batch = _random_batch(np.random.default_rng(seed), n_hyp)
    _assert_matches_reference(batch, np.linspace(0.0, lam_max, n_lam + 1))


def test_trace_spanning_several_blocks_matches_reference_loop():
    batch = _random_batch(np.random.default_rng(7), 5000, loss_scale=1.0)
    assert 5000 * core.default_lambda_grid().size > 4 * core._BLOCK_ELEMENTS
    _assert_matches_reference(batch, core.default_lambda_grid())


@pytest.mark.parametrize("width", [2, 3, 17, 1000, core._BLOCK_ELEMENTS + 3])
def test_logsumexp_rows_equals_scipy_bit_for_bit(width):
    rng = np.random.default_rng(width)
    for scale in (1e-3, 1.0, 30.0, 700.0):
        u = rng.normal(0.0, scale, (6, width))
        u[1] = np.round(u[1])  # many ties, some at the row maximum
        u[2:4, : min(width, 3)] = u[2:4].max(axis=1, keepdims=True)
        u[3] = rng.permutation(u[3])
        u[4] = u[4, 0]  # a constant row: every entry is the maximum
        np.testing.assert_array_equal(
            core._logsumexp_rows(u), logsumexp(u, axis=1, keepdims=True))


def test_distance_curve_memory_stays_blocked():
    rng = np.random.default_rng(0)
    logits = rng.normal(0.0, 1.5, 10_000)
    table = oracle.FiniteHypothesisTable(
        code_lengths=np.logaddexp.reduce(logits) - logits,
        loss=rng.gamma(2.0, 1.0, (2, 10_000)),
    )
    batch = oracle.exact_batch(table)
    tracemalloc.start()
    try:
        core.distance_curve(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an unblocked 200 x 10,000 trace peaks near 100 MB
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# the kernel is bit-identical to the one it replaced


def _previous_logsumexp_rows(u):
    """The kernel's logsumexp before it exped in place, verbatim."""
    top = u.max(axis=1, keepdims=True)
    at_top = u == top
    m = at_top.sum(axis=1, keepdims=True, dtype=float)
    s = np.exp(np.where(at_top, -np.inf, u) - top).sum(axis=1, keepdims=True)
    return np.log1p(s / m) + np.log(m) + top


def _previous_gibbs_trace(batch, grid, target, keep_weights=False):
    """The kernel before the columnar batch and the one logits buffer, verbatim
    but for reading the per-hypothesis log-probs from the batch's columns."""
    core._check_target(batch.loss.shape[0], target)
    extra = np.array([float(pc) - float(pq) for pc, pq
                      in zip(batch.log_pcode, batch.log_proposal)])
    log_counts = np.log(batch.counts)
    per_block = max(1, core._BLOCK_ELEMENTS // batch.n_hypotheses)
    expected = np.empty((batch.loss.shape[0], grid.size))
    log_z = np.empty(grid.size)
    weights = np.empty((grid.size, batch.n_hypotheses)) if keep_weights else None
    for start in range(0, grid.size, per_block):
        block = slice(start, start + per_block)
        u = (-grid[block, None] * batch.loss[target] + extra) + log_counts
        lse = _previous_logsumexp_rows(u)
        w = np.exp(u - lse)
        w /= w.sum(axis=1, keepdims=True)
        for s, row in enumerate(batch.loss):
            expected[s, block] = np.vecdot(w, row)
        log_z[block] = lse[:, 0] - math.log(batch.n_draws)
        if keep_weights:
            weights[block] = w
    capacity = -grid * expected[target] - log_z
    capacity[(-core._CAPACITY_CLAMP <= capacity) & (capacity < 0.0)] = 0.0
    return core._Trace(capacity, expected, log_z, weights)


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def _tied_batch(rng, n_hyp):
    """Integer losses and a constant correction, so logits tie at the maximum."""
    return ScoredBatch(texts=[f"h{j}" for j in range(n_hyp)],
                       log_pcode=np.full(n_hyp, -1.5),
                       log_proposal=np.full(n_hyp, -0.5),
                       loss=rng.integers(0, 3, (2, n_hyp)),
                       counts=rng.integers(1, 3, n_hyp).astype(float))


def _assert_trace_bits(batch, grid):
    for target in (0, 1):
        for keep in (False, True):
            got = core._gibbs_trace(batch, grid, target, keep_weights=keep)
            want = _previous_gibbs_trace(batch, grid, target, keep_weights=keep)
            assert _hex(got.capacity) == _hex(want.capacity)
            assert _hex(got.expected) == _hex(want.expected)
            assert _hex(got.log_partition) == _hex(want.log_partition)
            if keep:
                # every weight, bit for bit (the same test as .hex(), in bulk)
                assert got.weights.tobytes() == want.weights.tobytes()


@pytest.mark.parametrize("n_hyp, block_elements", [
    (2, None), (3, None), (17, None), (1000, None), (12_000, None),
    # small blocks: one lambda per block, a few, and a short last block
    (2, 1), (17, 1), (3, 7), (17, 100), (1000, 1000), (1000, 7_000),
])
def test_trace_bits_equal_previous_kernel(monkeypatch, n_hyp, block_elements):
    if block_elements is not None:
        monkeypatch.setattr(core, "_BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(n_hyp)
    grid = core.default_lambda_grid()
    _assert_trace_bits(_random_batch(rng, n_hyp), grid)
    _assert_trace_bits(_tied_batch(rng, n_hyp), grid)
    # a grid that leaves a short last block
    _assert_trace_bits(_random_batch(rng, n_hyp, loss_scale=0.5),
                       np.linspace(0.0, 7.0, 13))


def test_trace_bits_equal_previous_kernel_on_oracle_batches():
    rng = np.random.default_rng(11)
    logits = rng.normal(0.0, 1.5, 3000)
    table = oracle.FiniteHypothesisTable(
        code_lengths=np.logaddexp.reduce(logits) - logits,
        loss=rng.gamma(2.0, 1.0, (2, 3000)),
    )
    grid = core.default_lambda_grid()
    _assert_trace_bits(oracle.exact_batch(table), grid)
    _assert_trace_bits(oracle.proposal_batch(table, 20_000, seed=5), grid)


@pytest.mark.parametrize("width", [2, 3, 17, 1000, core._BLOCK_ELEMENTS + 3])
def test_logsumexp_rows_bits_equal_previous(width):
    rng = np.random.default_rng(width)
    u = rng.normal(0.0, 30.0, (5, width))
    u[1] = np.round(u[1])
    u[2, : min(width, 3)] = u[2].max()
    u[3] = u[3, 0]
    before = u.copy()
    assert _hex(core._logsumexp_rows(u)) == _hex(_previous_logsumexp_rows(u))
    assert u.tobytes() == before.tobytes()  # the input block is left as it was


def test_batch_columns_from_hypothesis_list():
    rng = np.random.default_rng(2)
    log_pcode = rng.uniform(-20.0, 0.0, 50).tolist()
    log_proposal = rng.uniform(-20.0, 0.0, 50).tolist()
    batch = ScoredBatch(texts=[f"h{j}" for j in range(50)], log_pcode=log_pcode,
                        log_proposal=log_proposal, loss=rng.normal(0.0, 5.0, (2, 50)))
    assert batch.log_pcode.dtype == batch.log_proposal.dtype == np.float64
    assert _hex(batch.log_pcode) == _hex(log_pcode)
    assert _hex(batch.log_proposal) == _hex(log_proposal)
    swapped = batch.swapped()
    assert swapped.texts is batch.texts
    assert swapped.log_pcode is batch.log_pcode
    assert swapped.log_proposal is batch.log_proposal


# ---------------------------------------------------------------------------
# the two Gibbs families of a pair are traced at once, on two threads


def _curve_and_traces(batch, grid, cpus):
    """distance_curve with ``cpus`` usable CPUs, and each target's trace
    with the thread that made it."""
    traces = {}
    kernel = core._gibbs_trace

    def recording(batch, grid, target, keep_weights=False):
        trace = kernel(batch, grid, target, keep_weights)
        traces[target] = trace, threading.current_thread()
        return trace

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_usable_cpus", lambda: cpus)
        mp.setattr(core, "_gibbs_trace", recording)
        return core.distance_curve(batch, grid), traces


@pytest.mark.parametrize("size", [1000, 3160, 10_000])
# the default grid fills its last block at 3,160 hypotheses; 137 lambdas never do
@pytest.mark.parametrize("grid", [None, np.linspace(0.0, 40.0, 137)],
                         ids=["default-grid", "partial-block-grid"])
@pytest.mark.parametrize("kind", ["exact", "proposal"])
def test_fanned_out_trace_bits_equal_serial(size, grid, kind):
    table = benchmark_table(size)
    batch = (oracle.exact_batch(table) if kind == "exact"
             else oracle.proposal_batch(table, 20_000, seed=size))
    serial, serial_traces = _curve_and_traces(batch, grid, cpus=1)
    fanned, fanned_traces = _curve_and_traces(batch, grid, cpus=2)
    here = threading.current_thread()
    assert serial_traces[0][1] is serial_traces[1][1] is here
    assert fanned_traces[0][1] is here and fanned_traces[1][1] is not here
    for target in (0, 1):
        got, want = fanned_traces[target][0], serial_traces[target][0]
        assert _hex(got.capacity) == _hex(want.capacity)
        assert _hex(got.expected) == _hex(want.expected)
        assert _hex(got.log_partition) == _hex(want.log_partition)
    assert fanned.auc.hex() == serial.auc.hex()
    assert _hex(fanned.distance) == _hex(serial.distance)


class _Boom(Exception):
    pass


@pytest.mark.parametrize("raising", [{0}, {1}, {0, 1}], ids=["caller", "worker", "both"])
def test_pair_waits_for_its_worker_and_raises_the_first_error(monkeypatch, capfd,
                                                              raising):
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", 1)
    finished = []

    def failing(batch, grid, target, keep_weights=False):
        if target == 1:
            time.sleep(0.2)  # the worker's half ends well after the caller's
        finished.append((target, threading.current_thread()))
        if target in raising:
            raise _Boom(target)
        return None

    monkeypatch.setattr(core, "_gibbs_trace", failing)
    with pytest.raises(_Boom) as err:
        core.distance_curve(_random_batch(np.random.default_rng(1), 5))
    assert err.value.args == (min(raising),)
    # both halves had ended before the error reached the caller
    assert sorted(target for target, _ in finished) == [0, 1]
    assert dict(finished)[1] is not threading.current_thread()
    assert capfd.readouterr().err == ""
    # and the worker is still there for the next pair
    assert core._pair(lambda i: i, True) == (0, 1)


def _no_executor():
    raise AssertionError("single-block work started the worker thread")


def test_single_block_work_stays_on_the_calling_thread(monkeypatch, ngram_backend):
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(core, "_executor", _no_executor)
    # a pair of the benchmark's similarity workload: a batch of a few hypotheses
    score = bench.pair_score("rain", "snow", ngram_backend, CompareConfig(seed=0))
    assert math.isfinite(score)
    core.distance_curve(oracle.exact_batch(benchmark_table(5)))
    oracle.exact_distance_curve(benchmark_table(5))
    # the widest batch whose default trace fits in one block
    width = core._BLOCK_ELEMENTS // core.default_lambda_grid().size
    core.distance_curve(oracle.exact_batch(benchmark_table(width)))


def test_one_usable_cpu_never_fans_out(monkeypatch):
    monkeypatch.setattr(core, "_executor", _no_executor)
    table = benchmark_table(1000)
    batch = oracle.exact_batch(table)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert core._usable_cpus() == 1
    core.distance_curve(batch)
    oracle.exact_distance_curve(table)
    # where the platform has no sched_getaffinity, the CPU count decides
    monkeypatch.delattr(os, "sched_getaffinity")
    for count in (1, None):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert core._usable_cpus() == 1
        core.distance_curve(batch)


_REQUEST = contextvars.ContextVar("request", default=None)


def test_pair_runs_its_worker_in_the_callers_context(monkeypatch):
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)

    def half(i):
        return i, _REQUEST.get(), np.geterr()["over"], threading.current_thread()

    token = _REQUEST.set("caller")
    try:
        with np.errstate(over="raise"):
            first, second = core._pair(half, True)
    finally:
        _REQUEST.reset(token)
    assert first[:3] == (0, "caller", "raise")
    assert second[:3] == (1, "caller", "raise")
    assert first[3] is threading.current_thread()
    assert second[3] is not threading.current_thread()


def test_a_forked_child_makes_its_own_worker(monkeypatch):
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    parent_pool = core._executor()
    assert core._executor() is parent_pool
    # a child of fork has the parent's pool object but not its thread
    monkeypatch.setattr(os, "getpid", lambda: -1)
    child_pool = core._executor()
    try:
        assert child_pool is not parent_pool
        assert core._pair(lambda i: i, True) == (0, 1)
    finally:
        child_pool.shutdown()
