import math
import threading

import numpy as np
import pytest

from ccdae import core, oracle
from ccdae.oracle import FiniteHypothesisTable, NoFeasibleDescriptionError

from conftest import benchmark_table

LN2 = math.log(2.0)


@pytest.fixture
def pair_table():
    return FiniteHypothesisTable(code_lengths=[LN2, LN2], loss=[[1.0, 2.0]])


@pytest.fixture
def separable():
    return FiniteHypothesisTable(
        code_lengths=[LN2, LN2], loss=[[0.0, 10.0], [10.0, 0.0]]
    )


# ---------------------------------------------------------------------------
# table validation and round trip


def test_kraft_violation_rejected():
    with pytest.raises(ValueError, match="Kraft"):
        FiniteHypothesisTable(code_lengths=[0.01, 0.01], loss=[[1.0, 2.0]])


def test_subprobability_code_accepted():
    t = FiniteHypothesisTable(code_lengths=[2.0, 3.0], loss=[[1.0, 2.0]])
    assert t.n_hypotheses == 2


def test_shape_validation():
    with pytest.raises(ValueError):
        FiniteHypothesisTable(code_lengths=[1.0, 2.0], loss=[[1.0]])
    with pytest.raises(ValueError):
        FiniteHypothesisTable(code_lengths=[1.0, np.nan], loss=[[1.0, 2.0]])


def test_round_trip_bit_exact(tmp_path, all_tables):
    for name, table in all_tables.items():
        path = tmp_path / f"{name}.txt"
        table.save(path)
        back = FiniteHypothesisTable.load(path)
        assert np.array_equal(back.code_lengths, table.code_lengths)
        assert np.array_equal(back.loss, table.loss)
        assert back.labels == table.labels


def test_loads_skips_comments():
    t = FiniteHypothesisTable.loads("# note\nh0 h1\n1.0 2.0\n0.5 0.25\n")
    assert t.labels == ("h0", "h1")
    assert t.loss[0][1] == 0.25


# ---------------------------------------------------------------------------
# exact gibbs / capacity


def test_exact_gibbs_lambda_zero_is_code(pair_table):
    np.testing.assert_allclose(
        oracle.exact_gibbs(pair_table, 0, 0.0), [0.5, 0.5], atol=1e-15
    )


def test_exact_gibbs_hand_value(pair_table):
    np.testing.assert_allclose(
        oracle.exact_gibbs(pair_table, 0, 1.0), [0.73106, 0.26894], atol=1e-5
    )


def test_exact_gibbs_dirac_limit(pair_table):
    np.testing.assert_allclose(
        oracle.exact_gibbs(pair_table, 0, 1e6), [1.0, 0.0], atol=1e-12
    )


def test_exact_capacity_values(pair_table):
    assert oracle.exact_capacity(pair_table, 0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert oracle.exact_capacity(pair_table, 0, 1.0) == pytest.approx(0.1109, abs=2e-4)
    assert oracle.exact_capacity(pair_table, 0, 1e6) == pytest.approx(LN2, abs=1e-6)


# ---------------------------------------------------------------------------
# discrete problem and structure function


def test_discrete_empty_feasible_set():
    t = FiniteHypothesisTable(code_lengths=[1.0, 3.0], loss=[[5.0, 1.0]])
    for solver in (oracle.solve_discrete_description, oracle.structure_function,
                   oracle.dirac_restricted_optimum):
        with pytest.raises(NoFeasibleDescriptionError,
                           match=r"no hypothesis \(or Dirac\) with code length <= 0.5$"):
            solver(t, 0, 0.5)


def test_discrete_infinite_capacity_global_minimizer():
    t = FiniteHypothesisTable(code_lengths=[1.0, 3.0], loss=[[5.0, 1.0]])
    assert oracle.solve_discrete_description(t, 0, math.inf) == 1


def test_discrete_capacity_thresholds():
    t = FiniteHypothesisTable(code_lengths=[1.0, 3.0], loss=[[5.0, 1.0]])
    assert oracle.solve_discrete_description(t, 0, 2.0) == 0
    assert oracle.solve_discrete_description(t, 0, 3.0) == 1


def test_discrete_tie_breaking():
    t = FiniteHypothesisTable(
        code_lengths=[2.0, 1.0, 1.0], loss=[[1.0, 1.0, 1.0]]
    )
    assert oracle.solve_discrete_description(t, 0, 5.0) == 1


def test_structure_function_values_and_monotonicity():
    t = FiniteHypothesisTable(code_lengths=[1.0, 3.0], loss=[[5.0, 1.0]])
    assert oracle.structure_function(t, 0, math.inf) == pytest.approx(4.0)
    assert oracle.structure_function(t, 0, 1.5) == pytest.approx(6.0)
    caps = np.linspace(1.0, 6.0, 20)
    vals = [oracle.structure_function(t, 0, c) for c in caps]
    assert np.all(np.diff(vals) <= 1e-12)


def test_dirac_restricted_matches_discrete(all_tables):
    for table in all_tables.values():
        caps = np.concatenate(
            [table.code_lengths, table.code_lengths + 0.5, [table.code_lengths.max() + 1]]
        )
        for i in range(table.n_samples):
            for c in caps:
                j = oracle.solve_discrete_description(table, i, float(c))
                assert table.loss[i][j] == pytest.approx(
                    oracle.dirac_restricted_optimum(table, i, float(c)), abs=0
                )


# ---------------------------------------------------------------------------
# exact distance curve


def test_exact_curve_identical_rows_zero():
    t = FiniteHypothesisTable(
        code_lengths=[LN2, 2 * LN2, 2 * LN2], loss=[[1.0, 2.0, 0.5], [1.0, 2.0, 0.5]]
    )
    curve = oracle.exact_distance_curve(t)
    np.testing.assert_allclose(curve.distance, 0.0, atol=1e-12)


def test_exact_curve_separable_positive(separable):
    curve = oracle.exact_distance_curve(separable)
    assert curve.distance[-1] > 1.0
    assert np.all(curve.distance >= -1e-12)


def test_blocked_curve_equals_curve_of_one_point_views(monkeypatch):
    # 1,000 hypotheses on the default 200-point grid: 65 lambdas per block,
    # so the last of the four blocks is partial
    rng = np.random.default_rng(11)
    logits = rng.normal(0.0, 1.5, 1000)
    table = FiniteHypothesisTable(
        code_lengths=-(logits - np.logaddexp.reduce(logits)),
        loss=rng.gamma(2.0, 1.0, (2, 1000)))
    grid = core.default_lambda_grid()
    assert core._BLOCK_ELEMENTS // table.n_hypotheses == 65
    cap, beta, cross = (np.empty((2, grid.size)) for _ in range(3))
    for s, (i, j) in enumerate(((0, 1), (1, 0))):
        for k, lam in enumerate(grid):
            cap[s, k] = oracle.exact_capacity(table, i, lam)
            beta[s, k] = oracle.exact_expected_loss(table, i, lam)
            cross[s, k] = oracle.exact_cross_expected_loss(table, i, j, lam)
    want = core.curve_from_traces(cap, beta, cross, grid, mode="generative")
    # and with one lambda per block
    curves = [oracle.exact_distance_curve(table)]
    monkeypatch.setattr(oracle, "_BLOCK_ELEMENTS", 1)
    curves.append(oracle.exact_distance_curve(table))
    for got in curves:
        for name in ("capacity_grid", "delta_2_to_1", "delta_1_to_2", "distance",
                     "lambda_grid"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                       rtol=0, atol=1e-12)
        assert got.auc == pytest.approx(want.auc, rel=0, abs=1e-12)
        assert got.c_max == pytest.approx(want.c_max, rel=0, abs=1e-12)
        assert got.mode == want.mode


def test_capacity_equals_masked_log_reference(all_tables):
    # the KL with log q taken as np.log(q), skipping q == 0
    for table in all_tables.values():
        for lam in (0.0, 0.5, 1.0, 10.0, 1e3, 1e6):
            q = oracle.exact_gibbs(table, 0, lam)
            nz = q > 0
            ref = max(float(np.sum(q[nz] * (np.log(q[nz]) + table.code_lengths[nz]))),
                      0.0)
            assert oracle.exact_capacity(table, 0, lam) == pytest.approx(
                ref, rel=1e-12, abs=1e-12)
    # lam * loss overflows to -inf logits for the worse hypothesis only
    t = FiniteHypothesisTable(code_lengths=[LN2, LN2], loss=[[1.0, 2.0]])
    with np.errstate(over="ignore"):
        assert oracle.exact_capacity(t, 0, 1e308) == LN2


def test_exact_curve_cmax_out_of_range_is_typed(separable):
    with pytest.raises(core.InvalidBatchError, match="c_max"):
        oracle.exact_distance_curve(separable, lambda_grid=np.linspace(0, 5, 20),
                                    c_max=10.0)


def test_exact_intersection_identity(all_tables):
    for table in all_tables.values():
        if table.n_samples < 2:
            continue
        for lam in (0.0, 0.5, 1.0, 10.0):
            lhs = oracle.exact_intersection_distance(table, (0, 1), lam)
            d21 = oracle.exact_cross_expected_loss(
                table, 1, 0, lam
            ) - oracle.exact_expected_loss(table, 0, lam)
            d12 = oracle.exact_cross_expected_loss(
                table, 0, 1, lam
            ) - oracle.exact_expected_loss(table, 1, lam)
            assert lhs == pytest.approx(0.5 * (d21 + d12), abs=1e-12)


# ---------------------------------------------------------------------------
# universal augmentation


def test_augment_requires_positive_epsilon(separable):
    with pytest.raises(ValueError):
        oracle.universal_augment(separable, 0.0)


def test_augment_structure_function_constant(separable):
    aug = oracle.universal_augment(separable, 0.1)
    for i in range(aug.n_samples):
        ref = oracle.structure_function(aug, i, 0.1)
        for c in (0.1, 0.2, 1.0, 10.0, math.inf):
            assert oracle.structure_function(aug, i, c) == pytest.approx(ref, abs=1e-12)
        # equals the original two-part optimum
        assert ref == pytest.approx(
            float(np.min(separable.loss[i] + separable.code_lengths)), abs=1e-12
        )


def test_augment_preserves_kraft(all_tables):
    for table in all_tables.values():
        aug = oracle.universal_augment(table, 0.1)
        assert np.exp(-aug.code_lengths).sum() <= 1.0 + 1e-9
        assert aug.labels[-1] == "h_search"


def test_augment_collapses_distance_at_matched_lambda(separable):
    # where the search hypothesis dominates both posteriors, the
    # augmented distance is far below the original at the same lambda
    for lam in (0.5, 1.0, 2.0):
        d_orig = oracle.exact_intersection_distance(separable, (0, 1), lam)
        d_aug = oracle.exact_intersection_distance(
            oracle.universal_augment(separable, 0.1), (0, 1), lam
        )
        assert d_aug < 0.2 * d_orig


# ---------------------------------------------------------------------------
# batch bridges


def test_exact_batch_reproduces_oracle(all_tables):
    for table in all_tables.values():
        batch = oracle.exact_batch(table)
        for lam in (0.0, 0.5, 2.0):
            for i in range(table.n_samples):
                assert core.expected_loss(batch, lam, i) == pytest.approx(
                    oracle.exact_expected_loss(table, i, lam), abs=1e-9
                )
                assert core.capacity_estimate(batch, lam, i) == pytest.approx(
                    oracle.exact_capacity(table, i, lam), abs=1e-9
                )


def test_proposal_batch_counts_and_determinism():
    t = FiniteHypothesisTable(
        code_lengths=[LN2, LN2], loss=[[1.0, 2.0], [2.0, 1.0]]
    )
    a = oracle.proposal_batch(t, 500, seed=3)
    b = oracle.proposal_batch(t, 500, seed=3)
    assert a.n_draws == 500
    assert np.array_equal(a.counts, b.counts)
    assert a.texts == b.texts


# ---------------------------------------------------------------------------
# oracle batches take the table's columns: the same values as per hypothesis


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("size", [1000, 3160, 10000])
def test_batch_columns_equal_per_hypothesis_expressions(size):
    table = benchmark_table(size)
    mass = np.exp(-table.code_lengths)
    proposal = mass / mass.sum()

    batch = oracle.proposal_batch(table, 20000, seed=size)
    idx = np.unique(np.random.default_rng(size).choice(size, 20000, p=proposal))
    assert batch.texts == [table.labels[j] for j in idx]
    assert _hex(batch.log_pcode) == _hex(float(-table.code_lengths[j]) for j in idx)
    assert _hex(batch.log_proposal) == _hex(float(np.log(proposal[j])) for j in idx)

    batch = oracle.exact_batch(table)
    log_pcode, log_proposal = -table.code_lengths, np.log(proposal)
    assert list(batch.texts) == list(table.labels)
    assert _hex(batch.log_pcode) == _hex(float(log_pcode[j]) for j in range(size))
    assert _hex(batch.log_proposal) == _hex(float(log_proposal[j]) for j in range(size))


@pytest.mark.parametrize("grid, match", [
    ([0.0, np.nan, 2.0], "finite"),
    ([0.0, np.inf], "finite"),
    ([0.0, 5.0, 2.0, 10.0], "increasing"),
    ([0.0, 1.0, 1.0], "increasing"),
    ([-1.0, 0.0, 1.0], "nonnegative"),
    ([], "empty"),
])
def test_exact_distance_curve_validates_grid(separable, grid, match):
    with pytest.raises(core.InvalidBatchError, match=match):
        oracle.exact_distance_curve(separable, lambda_grid=grid)
    with pytest.raises(core.InvalidBatchError, match=match):
        core.distance_curve(oracle.exact_batch(separable), lambda_grid=grid)


@pytest.mark.parametrize("call", [
    lambda t, i: oracle.exact_gibbs(t, i, 1.0),
    lambda t, i: oracle.exact_capacity(t, i, 1.0),
    lambda t, i: oracle.exact_expected_loss(t, i, 1.0),
    lambda t, i: oracle.exact_cross_expected_loss(t, i, 0, 1.0),
    lambda t, i: oracle.exact_cross_expected_loss(t, 0, i, 1.0),
    lambda t, i: oracle.solve_discrete_description(t, i, 10.0),
    lambda t, i: oracle.structure_function(t, i, 10.0),
    lambda t, i: oracle.dirac_restricted_optimum(t, i, 10.0),
    lambda t, i: oracle.exact_intersection_distance(t, (0, i), 1.0),
    lambda t, i: oracle.exact_intersection_distance(t, (i, 0), 1.0),
    lambda t, i: oracle.exact_distance_curve(t, (0, i)),
    lambda t, i: oracle.exact_distance_curve(t, (i, 1)),
], ids=["gibbs", "capacity", "expected-loss", "cross-source", "cross-target",
        "discrete", "structure", "dirac", "intersection-j", "intersection-i",
        "curve-j", "curve-i"])
@pytest.mark.parametrize("index", [-1, 2])
def test_oracle_refuses_sample_index_out_of_range(separable, call, index):
    # a negative index must not wrap to the last row
    with pytest.raises(core.InvalidBatchError,
                       match=f"sample index {index} out of range"):
        call(separable, index)
    call(separable, 1)
    call(separable, 0)


# ---------------------------------------------------------------------------
# the two directions are traced at once, in reused buffers


def _previous_gibbs_rows(table, sample, lams):
    """The routine before it took the caller's buffers, verbatim."""
    u = -table.code_lengths - lams[:, None] * table.loss[sample]
    u -= u.max(axis=1, keepdims=True)
    np.maximum(u, np.finfo(float).min, out=u)
    q = np.exp(u)
    z = q.sum(axis=1, keepdims=True)
    q /= z
    u -= np.log(z)
    u += table.code_lengths
    return q, np.maximum(np.vecdot(q, u), 0.0)


def test_gibbs_rows_fill_the_callers_buffers_with_the_same_bits():
    table = benchmark_table(3160)
    lams = np.concatenate([core.default_lambda_grid()[:20], [1e300]])
    u, q = (np.empty((lams.size, table.n_hypotheses)) for _ in range(2))
    with np.errstate(over="ignore"):
        got, kl = oracle._gibbs_rows(table, 1, lams, u, q)
        want, want_kl = _previous_gibbs_rows(table, 1, lams)
    assert np.shares_memory(got, q)
    assert got.tobytes() == want.tobytes()
    assert _hex(kl) == _hex(want_kl)


def _exact_curve_and_traces(table, grid, cpus):
    """exact_distance_curve with ``cpus`` usable CPUs, the traced capacity,
    expected and cross losses, and the threads that traced each sample."""
    seen, threads = {}, set()
    rows = oracle._gibbs_rows

    def recording_rows(table, sample, lams, u, q):
        threads.add((sample, threading.current_thread()))
        return rows(table, sample, lams, u, q)

    def recording_tail(cap, beta, cross, *args, **kwargs):
        seen.update(cap=cap, beta=beta, cross=cross)
        return core.curve_from_traces(cap, beta, cross, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_usable_cpus", lambda: cpus)
        mp.setattr(oracle, "_gibbs_rows", recording_rows)
        mp.setattr(oracle, "curve_from_traces", recording_tail)
        return oracle.exact_distance_curve(table, lambda_grid=grid), seen, threads


@pytest.mark.parametrize("size", [1000, 3160, 10_000])
@pytest.mark.parametrize("grid", [None, np.linspace(0.0, 40.0, 137)],
                         ids=["default-grid", "partial-block-grid"])
def test_fanned_out_exact_curve_bits_equal_serial(size, grid):
    table = benchmark_table(size)
    serial, serial_seen, serial_threads = _exact_curve_and_traces(table, grid, 1)
    fanned, fanned_seen, fanned_threads = _exact_curve_and_traces(table, grid, 2)
    here = threading.current_thread()
    assert serial_threads == {(0, here), (1, here)}
    assert (0, here) in fanned_threads and (1, here) not in fanned_threads
    assert len(fanned_threads) == 2
    for name in ("cap", "beta", "cross"):
        assert _hex(fanned_seen[name].ravel()) == _hex(serial_seen[name].ravel())
    assert fanned.auc.hex() == serial.auc.hex()
    assert _hex(fanned.distance) == _hex(serial.distance)
