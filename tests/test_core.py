import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from ccdae import core, oracle
from ccdae.core import Hypothesis, InvalidBatchError, ScoredBatch

from conftest import make_encoder_batch, make_uniform_batch

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
    from ccdae.core import Hypothesis, ScoredBatch

    hyps = [
        Hypothesis(tokens=("a",), text="a", log_pcode=-1.0, log_proposal=-1.0),
        Hypothesis(tokens=("b",), text="b", log_pcode=-1.0, log_proposal=-1.0),
        Hypothesis(tokens=("c",), text="c", log_pcode=-1.0, log_proposal=-1.0),
    ]
    with pytest.warns(UserWarning):
        batch = ScoredBatch.from_columns(
            hyps, [[1.0, np.inf, 2.0], [1.0, 0.0, 2.0]]
        )
    assert batch.n_hypotheses == 2
    assert batch.dropped == 1


def test_batch_requires_two_hypotheses():
    from ccdae.core import Hypothesis, ScoredBatch

    h = Hypothesis(tokens=("a",), text="a", log_pcode=-1.0, log_proposal=-1.0)
    with pytest.raises(InvalidBatchError):
        ScoredBatch(hypotheses=[h], loss=[[1.0]])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("field", ["log_pcode", "log_proposal", "counts"])
def test_batch_rejects_nonfinite_inputs(field, value):
    hyps = [
        Hypothesis(tokens=(t,), text=t, log_pcode=-1.0, log_proposal=-2.0)
        for t in "abc"
    ]
    counts = [1.0, 2.0, 1.0]
    if field == "counts":
        counts[1] = value
    else:
        hyps[1] = dataclasses.replace(hyps[1], **{field: value})
    with pytest.raises(InvalidBatchError, match="finite"):
        ScoredBatch(hypotheses=hyps, loss=[[1.0, 2.0, 3.0]] * 2, counts=counts)


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
    extra = np.array([h.log_pcode - h.log_proposal for h in batch.hypotheses])
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
    hyps = [
        Hypothesis(tokens=(f"h{j}",), text=f"h{j}", log_pcode=float(log_pcode[j]),
                   log_proposal=float(log_proposal[j]))
        for j in range(n_hyp)
    ]
    return ScoredBatch(
        hypotheses=hyps,
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
