import math

import numpy as np
import pytest

from ccdae import core, oracle
from ccdae.oracle import FiniteHypothesisTable, NoFeasibleDescriptionError

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
    with pytest.raises(NoFeasibleDescriptionError):
        oracle.solve_discrete_description(t, 0, 0.5)


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
    assert [h.text for h in a.hypotheses] == [h.text for h in b.hypotheses]
