import contextvars
import math
import os
import re
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from ccdae import bench, core, oracle, pipeline
from ccdae.core import InvalidBatchError, ScoredBatch
from ccdae.pipeline import CompareConfig

from conftest import (benchmark_table, cross_loss, log_partition, make_encoder_batch,
                      make_uniform_batch, rate_rows)

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


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, -0.5])
def test_one_point_lambda_must_be_finite_and_nonnegative(lam):
    # refused by name before any weight is computed, by the estimator, the
    # explanations and the oracle alike
    losses = [[1.0, 2.0], [2.0, 1.0]]
    batch = make_uniform_batch(losses)
    table = oracle.FiniteHypothesisTable(code_lengths=[LN2, LN2], loss=losses)
    for call in (
        lambda: core.gibbs_weights(batch, lam, 0),
        lambda: log_partition(batch, lam, 0),
        lambda: core.expected_loss(batch, lam, 0),
        lambda: core.capacity_estimate(batch, lam, 0),
        lambda: cross_loss(batch, lam, 0, 1),
        lambda: core.intersection_distance(batch, lam),
        lambda: pipeline.effective_sample_size(batch, lam, 0),
        lambda: pipeline.explain(batch, lam),
        lambda: oracle.exact_gibbs(table, 0, lam),
        lambda: oracle.exact_capacity(table, 0, lam),
        lambda: oracle.exact_expected_loss(table, 0, lam),
        lambda: oracle.exact_intersection_distance(table, (0, 1), lam),
    ):
        with pytest.raises(InvalidBatchError,
                           match=f"^lambda must be finite and >= 0, got {lam}$"):
            call()


@pytest.mark.parametrize("lam", ["1", None, True, np.array(1.0)],
                         ids=["str", "none", "bool", "array"])
def test_one_point_lambda_must_be_a_real_number(lam):
    # refused by name rather than by math.isfinite's bare TypeError, and a
    # bool is not taken as 0 or 1
    losses = [[1.0, 2.0], [2.0, 1.0]]
    batch = make_uniform_batch(losses)
    table = oracle.FiniteHypothesisTable(code_lengths=[LN2, LN2], loss=losses)
    for call in (
        lambda: core.gibbs_weights(batch, lam, 0),
        lambda: core.intersection_distance(batch, lam),
        lambda: pipeline.explain(batch, lam),
        lambda: oracle.exact_gibbs(table, 0, lam),
    ):
        want = re.escape(f"lambda must be a real number, got {lam!r}")
        with pytest.raises(InvalidBatchError, match=f"^{want}$"):
            call()


# ---------------------------------------------------------------------------
# log partition / capacity


def test_log_partition_zero_at_lambda_zero():
    batch = make_uniform_batch([[1.0, 2.0, 3.0]])
    assert log_partition(batch, 0.0, 0) == pytest.approx(0.0, abs=1e-12)


def test_log_partition_two_hypotheses():
    batch = make_uniform_batch([[1.0, 2.0]])
    expected = math.log(0.5 * (math.exp(-1.0) + math.exp(-2.0)))
    got = log_partition(batch, 1.0, 0)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(-1.37989, abs=1e-5)


def test_log_partition_dominant_asymptote():
    batch = make_uniform_batch([[1.0, 5.0]])
    lam = 200.0
    expected = -lam * 1.0 - math.log(2.0)  # log_pcode - log_proposal = 0
    assert log_partition(batch, lam, 0) == pytest.approx(
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
    capacities, expected_losses, _, _ = rate_rows(batch, [0.0, 1.0, 10.0])
    np.testing.assert_allclose(expected_losses, 1.3, atol=1e-12)
    np.testing.assert_allclose(capacities, 0.0, atol=1e-12)


def test_trace_hand_points():
    batch = make_uniform_batch([[1.0, 2.0]])
    capacities, expected_losses, _, _ = rate_rows(batch, [0.0, 1.0])
    assert capacities[0] == pytest.approx(0.0, abs=1e-12)
    assert expected_losses[0] == pytest.approx(1.5, abs=1e-12)
    assert capacities[1] == pytest.approx(0.1109, abs=2e-4)
    assert expected_losses[1] == pytest.approx(1.26894, abs=1e-5)


def test_trace_grid_validation():
    batch = make_uniform_batch([[1.0, 2.0]])
    with pytest.raises(InvalidBatchError):
        rate_rows(batch, [])
    with pytest.raises(InvalidBatchError):
        rate_rows(batch, [1.0, 0.5])
    with pytest.raises(InvalidBatchError):
        rate_rows(batch, [-1.0, 0.5])
    for grid in ([0.0, math.nan, 2.0], [0.0, 1.0, math.inf]):
        with pytest.raises(InvalidBatchError, match="lambda grid must be finite"):
            rate_rows(batch, grid)


@pytest.mark.parametrize("grid", [[[0.0, 1.0], [2.0, 3.0]], [[0.0, 1.0, 2.0]], 5.0],
                         ids=["2x2", "1x3", "scalar"])
def test_lambda_grid_must_be_one_dimensional(grid):
    batch = make_uniform_batch([[1.0, 2.0], [2.0, 1.0]])
    shape = np.shape(grid)
    message = re.escape(f"lambda grid must be one-dimensional, got shape {shape}")
    with pytest.raises(InvalidBatchError, match=f"^{message}$"):
        core.distance_curve(batch, lambda_grid=grid)
    with pytest.raises(InvalidBatchError, match=f"^{message}$"):
        CompareConfig(lambda_grid=grid)


# ---------------------------------------------------------------------------
# cross expected loss


def test_cross_equals_self_when_source_is_target():
    batch = make_uniform_batch([[0.0, 10.0], [10.0, 0.0]])
    for lam in (0.0, 0.7, 3.0):
        assert cross_loss(batch, lam, 0, 0) == pytest.approx(
            core.expected_loss(batch, lam, 0), abs=1e-12
        )


def test_cross_separable_hand_value():
    batch = make_uniform_batch([[0.0, 10.0], [10.0, 0.0]])
    got = cross_loss(batch, 1.0, 1, 0)
    assert got == pytest.approx(9.9995, abs=1e-3)


def test_cross_identical_rows():
    batch = make_uniform_batch([[1.0, 2.0], [1.0, 2.0]])
    for lam in (0.0, 1.0, 5.0):
        assert cross_loss(batch, lam, 1, 0) == pytest.approx(
            core.expected_loss(batch, lam, 0), abs=1e-12
        )


# ---------------------------------------------------------------------------
# distance curve / auc


def test_distance_identical_rows_zero():
    batch = make_uniform_batch([[1.0, 2.0, 0.5], [1.0, 2.0, 0.5]])
    curve = core.distance_curve(batch, np.linspace(0, 10, 30))
    np.testing.assert_allclose(curve.distance, 0.0, atol=1e-12)
    assert curve.auc == pytest.approx(0.0, abs=1e-12)


def _swapped(batch):
    """The same batch with the two sample rows exchanged."""
    return ScoredBatch(
        texts=batch.texts,
        log_pcode=batch.log_pcode,
        log_proposal=batch.log_proposal,
        loss=batch.loss[::-1].copy(),
        counts=batch.counts,
        log_conditionals=None
        if batch.log_conditionals is None
        else batch.log_conditionals[::-1].copy(),
        dropped=batch.dropped,
    )


def test_distance_swap_symmetry_bit_exact():
    batch = make_uniform_batch([[0.0, 10.0, 3.0], [10.0, 0.0, 1.0]])
    grid = np.linspace(0, 20, 50)
    a = core.distance_curve(batch, grid)
    b = core.distance_curve(_swapped(batch), grid)
    assert a.auc == b.auc
    assert np.array_equal(a.distance, b.distance)
    assert np.array_equal(a.delta_2_to_1, b.delta_1_to_2)
    assert np.array_equal(a.delta_1_to_2, b.delta_2_to_1)


def test_distance_cmax_out_of_range_error():
    batch = make_uniform_batch([[0.0, 10.0], [10.0, 0.0]])
    with pytest.raises(InvalidBatchError, match="c_max"):
        core.distance_curve(batch, np.linspace(0, 5, 20), c_max=10.0)


@pytest.mark.parametrize("c_max", [-1.0, math.nan, math.inf, -math.inf])
def test_explicit_cmax_must_be_finite_and_nonnegative(c_max):
    # refused by name, by the estimator and the oracle alike, rather than
    # reaching the capacity-range or AUC checks
    losses = [[0.0, 10.0], [10.0, 0.0]]
    table = oracle.FiniteHypothesisTable(code_lengths=[LN2, LN2], loss=losses)
    for curve in (lambda: core.distance_curve(make_uniform_batch(losses), c_max=c_max),
                  lambda: oracle.exact_distance_curve(table, c_max=c_max)):
        with pytest.raises(InvalidBatchError,
                           match=f"^c_max must be None or finite and >= 0, got {c_max}$"):
            curve()


@pytest.mark.parametrize("c_max", ["1", True, False], ids=["str", "true", "false"])
def test_explicit_cmax_must_be_none_or_a_real_number(c_max):
    losses = [[0.0, 10.0], [10.0, 0.0]]
    table = oracle.FiniteHypothesisTable(code_lengths=[LN2, LN2], loss=losses)
    for curve in (lambda: core.distance_curve(make_uniform_batch(losses), c_max=c_max),
                  lambda: oracle.exact_distance_curve(table, c_max=c_max)):
        with pytest.raises(InvalidBatchError,
                           match=f"^c_max must be None or a real number, got {c_max!r}$"):
            curve()


def test_negative_traced_cmax_is_named():
    # the proposal outweighs the code prior on every draw, so one sample's
    # capacity stays below zero along the whole grid
    rng = np.random.default_rng(3)
    batch = ScoredBatch(texts=[f"h{j}" for j in range(4)],
                        log_pcode=rng.normal(-3.0, 2.0, 4),
                        log_proposal=rng.normal(-1.0, 2.0, 4),
                        loss=rng.gamma(2.0, 1.0, (2, 4)))
    with pytest.raises(InvalidBatchError,
                       match=r"^the traced capacity range ends at -1\.48988 < 0"):
        core.distance_curve(batch)


def test_auc_triangle():
    assert core.auc([0, 1, 2], [0, 1, 2], 2) == pytest.approx(2.0, abs=1e-12)


def test_auc_constant_zero():
    assert core.auc([0, 1, 2], [0, 0, 0], 2) == pytest.approx(0.0, abs=1e-12)


def test_auc_interpolated_endpoint():
    assert core.auc([0, 1, 2], [0, 1, 2], 1.5) == pytest.approx(1.125, abs=1e-12)


def test_auc_needs_two_points():
    with pytest.raises(InvalidBatchError):
        core.auc([1.0], [1.0], 1.0)


@pytest.mark.parametrize("capacities, values", [
    ([0, 1], [1, 2, 3]),  # lengths differ
    ([[0, 1]], [[1, 2]]),  # two-dimensional
    ([0, 1, 2], [[1, 2, 3]]),
    (0.5, 1.0),  # scalars
], ids=["lengths", "2-d", "2-d-values", "scalars"])
def test_auc_refuses_misshapen_inputs(capacities, values):
    with pytest.raises(InvalidBatchError, match="^auc needs one-dimensional capacities "
                                                "and values of equal length, got shapes"):
        core.auc(capacities, values)


@pytest.mark.parametrize("c_max", [True, "1", math.nan, -1.0],
                         ids=["true", "str", "nan", "negative"])
def test_auc_checks_c_max_as_the_curves_do(c_max):
    with pytest.raises(InvalidBatchError, match="^c_max must be None or "):
        core.auc([0.0, 1.0], [1.0, 1.0], c_max=c_max)


def test_curve_from_traces_refuses_traces_that_do_not_match_the_grid():
    grid = np.array([0.0, 1.0, 2.0])
    good = np.array([[0.0, 0.5, 1.0], [0.0, 0.25, 0.5]])
    assert core.curve_from_traces(good, good, good, grid).auc == 0.0
    # a 2-point series against a 3-point grid, one sample, a flat or a 3-D trace
    for bad in (good[:, :2], good[:1], good.ravel(), good[None]):
        for traces in ((bad, good, good), (good, bad, good), (good, good, bad)):
            with pytest.raises(InvalidBatchError, match=r"shape \(2, 3\); got "):
                core.curve_from_traces(*traces, grid)


def _previous_curve_from_traces(capacity, beta, cross, lambda_grid, c_max=None):
    """The curve tail before each trace was gathered once, verbatim."""
    core._check_c_max(c_max)
    capacity, beta, cross = (np.asarray(a, dtype=float) for a in (capacity, beta, cross))
    if not capacity.shape == beta.shape == cross.shape == (2, np.size(lambda_grid)):
        raise InvalidBatchError("shape")
    traced_max = min(capacity[0].max(), capacity[1].max())
    if c_max is None:
        if traced_max < 0:
            raise InvalidBatchError("ends below 0")
        c_max = float(traced_max)
    elif c_max > traced_max * (1 + 1e-9) + 1e-12:
        raise InvalidBatchError("exceeds")
    cgrid = np.linspace(0.0, c_max, core._CAPACITY_POINTS)
    orders = [c.argsort(kind="stable") for c in capacity]

    def interp(i: int, val: np.ndarray) -> np.ndarray:
        return np.interp(cgrid, capacity[i][orders[i]], val[i][orders[i]])

    d21 = interp(1, cross) - interp(0, beta)
    d12 = interp(0, cross) - interp(1, beta)
    dist = 0.5 * (d21 + d12)
    return core.DistanceCurve(
        capacity_grid=cgrid, delta_2_to_1=d21, delta_1_to_2=d12, distance=dist,
        auc=core.auc(cgrid, dist, c_max), c_max=float(c_max), lambda_grid=lambda_grid)


@pytest.mark.parametrize("seed", range(8))
def test_curve_from_traces_bits_equal_previous_tail(seed):
    # random non-monotone traces, with repeated capacities, c_max None and given
    rng = np.random.default_rng(seed)
    grid = core.default_lambda_grid() if seed % 2 else np.linspace(0.0, 5.0, 13)
    capacity = np.abs(np.cumsum(rng.normal(0.05, 0.2, (2, grid.size)), axis=1))
    capacity[:, rng.integers(0, grid.size, 3)] = capacity[0, 0]
    beta, cross = rng.normal(0.0, 2.0, (2, 2, grid.size))
    # as the kernel's trace hands them over: strided views of larger arrays
    views = (np.hstack([capacity, capacity])[:, : grid.size],
             np.stack([beta, cross], axis=2)[..., 0],
             np.stack([beta, cross], axis=2)[..., 1])
    top = min(capacity[0].max(), capacity[1].max())
    for traces in ((capacity, beta, cross), views):
        for c_max in (None, 0.0, 0.5 * top, top):
            got = core.curve_from_traces(*traces, grid, c_max)
            want = _previous_curve_from_traces(*traces, grid, c_max)
            for name in ("capacity_grid", "delta_2_to_1", "delta_1_to_2", "distance"):
                assert _hex(getattr(got, name)) == _hex(getattr(want, name)), name
            assert got.auc.hex() == want.auc.hex()
            assert got.c_max.hex() == want.c_max.hex()


# ---------------------------------------------------------------------------
# intersection distance
# ---------------------------------------------------------------------------
# intersection distance


def test_intersection_identical_zero():
    batch = make_uniform_batch([[1.0, 2.0], [1.0, 2.0]])
    assert core.intersection_distance(batch, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_intersection_equals_mean_gap():
    batch = make_uniform_batch([[0.0, 10.0, 2.0], [10.0, 0.0, 1.0]])
    for lam in (0.0, 0.5, 1.0, 7.0):
        lhs = core.intersection_distance(batch, lam)
        d21 = cross_loss(batch, lam, 1, 0) - core.expected_loss(
            batch, lam, 0
        )
        d12 = cross_loss(batch, lam, 0, 1) - core.expected_loss(
            batch, lam, 1
        )
        assert lhs == pytest.approx(0.5 * (d21 + d12), abs=1e-9)


# ---------------------------------------------------------------------------
# batch validation


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_batch_rejects_nonfinite_loss(value):
    # build_batch drops such a column before it gets here
    with pytest.raises(InvalidBatchError, match="non-finite"):
        ScoredBatch(texts=["a", "b", "c"], log_pcode=[-1.0] * 3,
                    log_proposal=[-1.0] * 3, loss=[[1.0, value, 2.0], [1.0, 0.0, 2.0]])


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
        caps, betas, _, _ = rate_rows(batch, grid, target)
        assert np.all(np.diff(caps) >= -1e-9)
        assert np.all(np.diff(betas) <= 1e-9)
    dcurve = core.distance_curve(batch, grid)
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
    d21 = cross_loss(batch, lam, 1, 0) - core.expected_loss(batch, lam, 0)
    d12 = cross_loss(batch, lam, 0, 1) - core.expected_loss(batch, lam, 1)
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


def _reference_distance(batch, grid):
    cap, beta, cross = (np.empty((2, grid.size)) for _ in range(3))
    for i in (0, 1):
        for k, lam in enumerate(grid):
            w, cap[i, k], beta[i, k], _ = _reference_point(batch, float(lam), i)
            cross[i, k] = float(w @ batch.loss[1 - i])
    c_max = float(min(cap[0].max(), cap[1].max()))
    cgrid = np.linspace(0.0, c_max, 100)

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
        capacities, expected_losses, log_partitions, weights = rate_rows(
            batch, grid, target)
        for k, lam in enumerate(grid):
            w, c, beta, logz = _reference_point(batch, float(lam), target)
            np.testing.assert_allclose(weights[k], w, **tol)
            np.testing.assert_allclose(
                [capacities[k], expected_losses[k], log_partitions[k]],
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
    """Every row of the kernel, whichever targets share its call and however
    many weight rows it keeps, equals the previous kernel's bit for bit."""
    wants = [_previous_gibbs_trace(batch, grid, t, keep_weights=True) for t in (0, 1)]
    for targets, keep in (((0, 1), 0), ((0, 1), grid.size), ((1,), 1), ((1, 0), 3)):
        keep = min(keep, grid.size)
        got = core._gibbs_trace(batch, grid, targets, keep_weights=keep)
        assert (got.weights is None) == (keep == 0)
        for i, target in enumerate(targets):
            want = wants[target]
            assert _hex(got.capacity[i]) == _hex(want.capacity)
            assert _hex(got.expected[i]) == _hex(want.expected)
            assert _hex(got.log_partition[i]) == _hex(want.log_partition)
            if keep:
                # every weight, bit for bit (the same test as .hex(), in bulk)
                assert got.weights[i].tobytes() == want.weights[grid.size - keep:].tobytes()


@pytest.mark.parametrize("n_hyp, block_elements", [
    (2, None), (3, None), (17, None), (1000, None), (12_000, None),
    # small blocks: one lambda per block, a few, and a short last block
    (2, 1), (17, 1), (3, 7), (17, 100), (1000, 1000), (1000, 7_000),
    # several hypothesis-major blocks, the last one short
    (2, 100), (6, 500),
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


# every width up to 20 (the sum's 8-wide unrolling included), the widths at
# which a default-grid trace of two targets (327/328) and of one (655/656)
# stops fitting in one block, and those at which two targets fill half a
# block (163/164)
@pytest.mark.parametrize("n_hyp", [*range(4, 17), 18, 19, 20, 163, 164, 327, 328,
                                   655, 656])
def test_trace_bits_equal_previous_kernel_at_layout_edges(n_hyp):
    rng = np.random.default_rng(1000 + n_hyp)
    grid = core.default_lambda_grid()
    _assert_trace_bits(_random_batch(rng, n_hyp), grid)
    _assert_trace_bits(_tied_batch(rng, n_hyp), grid)


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


@pytest.mark.parametrize("layout", ["row-major", "hypothesis-major"])
def test_logsumexp_rows_bits_equal_previous_where_the_held_out_sum_is_zero(layout):
    # one maximum per row and every other term exps to 0 (or there is none),
    # alone in a block and beside a tied row
    rng = np.random.default_rng(3)
    u = rng.normal(0.0, 3.0, (400, 6))
    u[::3, 1:] = -1e4
    u[1::3, 0] += 800.0
    for block in (u, np.vstack([u, np.full((1, 6), 2.5)]), u[:, :1]):
        want = _previous_logsumexp_rows(block)
        assert (np.exp(block - block.max(axis=1, keepdims=True)).sum(axis=1) == 1.0).any()
        if layout == "hypothesis-major":
            block = np.ascontiguousarray(block.T).T
        assert _hex(core._logsumexp_rows(block)) == _hex(want)


def _lse_block(rng, tie, rows, width):
    """A block of logits with no tied maximum, a tie in one row, or ties in
    every row (two to four maxima each, the rest of the row generic)."""
    u = rng.normal(0.0, 3.0, (rows, width))
    tied = {"none": [], "one": [rows // 2], "every": range(rows)}[tie]
    for r in tied:
        slots = rng.choice(width, size=2 + r % 3, replace=False)
        u[r, slots] = u[r].max() + 1.5
    return u


@pytest.mark.parametrize("tie", ["none", "one", "every"])
@pytest.mark.parametrize("layout", ["row-major", "hypothesis-major"])
def test_logsumexp_rows_counts_maxima_only_on_a_tie(layout, tie):
    # a block with one maximum per row takes the count as 1.0; a block with a
    # tie anywhere counts per row, and a tied row's sum needs its own count
    rng = np.random.default_rng(["none", "one", "every"].index(tie))
    u = _lse_block(rng, tie, *((60, 1000) if layout == "row-major" else (400, 6)))
    rows, width = u.shape
    maxima = (u == u.max(axis=1, keepdims=True)).sum(axis=1)
    assert (maxima.max() > 1) == (tie != "none")
    # the reference sums a row-major block, as the kernel does in either layout
    want = _previous_logsumexp_rows(u)
    if layout == "hypothesis-major":
        # as the kernel lays out a block with more rows than hypotheses
        u = np.ascontiguousarray(u.T).T
        assert u.flags.f_contiguous and not u.flags.c_contiguous
    out = np.empty((rows, width))
    for got in (core._logsumexp_rows(u), core._logsumexp_rows(u, out=out)):
        assert _hex(got) == _hex(want)


def test_batch_columns_from_hypothesis_list():
    rng = np.random.default_rng(2)
    log_pcode = rng.uniform(-20.0, 0.0, 50).tolist()
    log_proposal = rng.uniform(-20.0, 0.0, 50).tolist()
    batch = ScoredBatch(texts=[f"h{j}" for j in range(50)], log_pcode=log_pcode,
                        log_proposal=log_proposal, loss=rng.normal(0.0, 5.0, (2, 50)))
    assert batch.log_pcode.dtype == batch.log_proposal.dtype == np.float64
    assert _hex(batch.log_pcode) == _hex(log_pcode)
    assert _hex(batch.log_proposal) == _hex(log_proposal)
    swapped = _swapped(batch)
    assert swapped.texts is batch.texts
    assert swapped.log_pcode is batch.log_pcode
    assert swapped.log_proposal is batch.log_proposal


# ---------------------------------------------------------------------------
# the two Gibbs families of a pair are traced at once, on two threads


def _curve_and_trace(batch, grid, cpus):
    """distance_curve with ``cpus`` usable CPUs, the trace of its one kernel
    call, and the thread that traced each target."""
    traces, threads = [], {}
    kernel, rows = core._gibbs_trace, core._trace_rows

    def recording(*args, **kwargs):
        traces.append(kernel(*args, **kwargs))
        return traces[-1]

    def recording_rows(batch, grid, targets, out, part):
        threads.update((target, threading.current_thread()) for target in targets)
        return rows(batch, grid, targets, out, part)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_usable_cpus", lambda: cpus)
        mp.setattr(core, "_gibbs_trace", recording)
        mp.setattr(core, "_trace_rows", recording_rows)
        curve = core.distance_curve(batch, grid)
    (trace,) = traces
    return curve, trace, threads


# the benchmark's sizes, and the size at which the default grid fills its
# last block (40 lambdas a block); 151 lambdas, a prime, never do, and each
# of these batches is too wide for one block of them
@pytest.mark.parametrize("size", [1000, 3160, 10_000, core._BLOCK_ELEMENTS // 40])
@pytest.mark.parametrize("grid", [None, np.linspace(0.0, 40.0, 151)],
                         ids=["default-grid", "partial-block-grid"])
@pytest.mark.parametrize("kind", ["exact", "proposal"])
def test_fanned_out_trace_bits_equal_serial(size, grid, kind):
    table = benchmark_table(size)
    batch = (oracle.exact_batch(table) if kind == "exact"
             else oracle.proposal_batch(table, 20_000, seed=size))
    serial, want, serial_threads = _curve_and_trace(batch, grid, cpus=1)
    fanned, got, fanned_threads = _curve_and_trace(batch, grid, cpus=2)
    here = threading.current_thread()
    assert serial_threads[0] is serial_threads[1] is here
    assert fanned_threads[0] is here and fanned_threads[1] is not here
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

    def failing(batch, grid, targets, out, part):
        (target,) = targets
        if target == 1:
            time.sleep(0.2)  # the worker's half ends well after the caller's
        finished.append((target, threading.current_thread()))
        if target in raising:
            raise _Boom(target)
        return None

    monkeypatch.setattr(core, "_trace_rows", failing)
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
