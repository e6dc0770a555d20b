import math

import numpy as np
import pytest

from ccdae import baselines, core

from conftest import make_encoder_batch

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# trajectory distance


def test_trajectory_identical_zero():
    p = np.log(np.array([0.5, 0.3, 0.2]))
    batch = make_encoder_batch(p, p)
    assert baselines.trajectory_distance(batch) == pytest.approx(0.0, abs=1e-12)


def test_trajectory_requires_conditionals():
    from conftest import make_uniform_batch

    with pytest.raises(ValueError):
        baselines.trajectory_distance(make_uniform_batch([[1.0, 2.0], [2.0, 1.0]]))


def test_trajectory_disjoint_floor_hand_value():
    # two one-hot conditionals over {u, v} with per-hypothesis floor -20
    floor = -20.0
    logp1 = np.array([math.log1p(-math.exp(floor)), floor])
    logp2 = np.array([floor, math.log1p(-math.exp(floor))])
    batch = make_encoder_batch(logp1, logp2)
    expected = float(abs(logp1[0] - logp2[0]))  # same gap for both hypotheses
    assert baselines.trajectory_distance(batch) == pytest.approx(expected, rel=1e-9)


def test_trajectory_equals_lambda1_distance():
    # sign-consistent supports: q_i at lam=1 recovers p(h|x_i) exactly
    logp1 = np.log(np.array([0.6, 0.4 - 2e-13, 1e-13, 1e-13]))
    logp2 = np.log(np.array([1e-13, 1e-13, 0.7, 0.3 - 2e-13]))
    batch = make_encoder_batch(logp1, logp2)
    d1 = core.intersection_distance(batch, 1.0)
    assert baselines.trajectory_distance(batch) == pytest.approx(d1, abs=1e-9)


# ---------------------------------------------------------------------------
# conditional likelihood


def test_cond_likelihood_symmetric(ngram_backend):
    a = baselines.cond_likelihood_score("rain", "iron", ngram_backend)
    b = baselines.cond_likelihood_score("iron", "rain", ngram_backend)
    assert a == b


def test_cond_likelihood_prefers_identical(ngram_backend):
    same = baselines.cond_likelihood_score("rains", "rains", ngram_backend)
    shuffled = baselines.cond_likelihood_score("rains", "nsria", ngram_backend)
    assert same > shuffled


# ---------------------------------------------------------------------------
# ncd


def test_ncd_rejects_empty():
    with pytest.raises(ValueError):
        baselines.ncd(b"", b"x")


def test_ncd_self_structured_small():
    # deflate match lengths cap at 258 bytes, so self-NCD stays small only
    # while the compressed size is overhead-dominated
    a = np.packbits(baselines.disk_pattern(64 * 64)).tobytes()
    r = baselines.ncd(a, a)
    assert 0.0 < r.value <= 0.15


def test_ncd_random_pair_large():
    rng = np.random.default_rng(0)
    r1 = rng.integers(0, 256, 65536, dtype=np.uint8).tobytes()
    r2 = rng.integers(0, 256, 65536, dtype=np.uint8).tobytes()
    assert baselines.ncd(r1, r2).value >= 0.9


def test_ncd_scale_free():
    a = b"pattern one two three " * 100
    b = b"pattern four five six " * 100
    small = baselines.ncd(a, b).value
    big = baselines.ncd(a + a, b + b).value
    assert abs(small - big) < 0.1


def test_ncd_swap_symmetry():
    a = b"alpha beta gamma " * 200
    b = b"delta epsilon zeta " * 200
    assert abs(baselines.ncd(a, b).value - baselines.ncd(b, a).value) <= 0.05


def test_ncd_explicit_joint_size():
    r = baselines.ncd(b"aaaa" * 100, b"bbbb" * 100, z_xy=1000)
    assert r.z_xy == 1000


# ---------------------------------------------------------------------------
# entropy and joint bound


def test_bernoulli_entropy_values():
    assert baselines.bernoulli_entropy(0.5) == pytest.approx(LN2, abs=1e-12)
    assert baselines.bernoulli_entropy(0.0) == 0.0
    assert baselines.bernoulli_entropy(1.0) == 0.0
    bits = baselines.bernoulli_entropy(0.1) / LN2
    assert bits == pytest.approx(0.4690, abs=1e-4)


def test_bernoulli_entropy_domain():
    with pytest.raises(ValueError):
        baselines.bernoulli_entropy(-0.1)
    with pytest.raises(ValueError):
        baselines.bernoulli_entropy(1.1)


def test_joint_lower_bound():
    assert baselines.ncd_joint_lower_bound(100, 100, 40) == 160
    with pytest.raises(ValueError):
        baselines.ncd_joint_lower_bound(100, 100, 250)
    with pytest.raises(ValueError):
        baselines.ncd_joint_lower_bound(0, 100, 40)


# ---------------------------------------------------------------------------
# noise experiment


def test_disk_pattern_shape():
    s = baselines.disk_pattern(64 * 64)
    assert s.shape == (4096,)
    assert 0 < s.sum() < s.size
    with pytest.raises(ValueError):
        baselines.disk_pattern(1000)  # not a perfect square


def test_noise_experiment_zero_noise_identical():
    pts = baselines.noise_experiment(p=0.0, dimensions=(64**2, 128**2))
    assert all(pt.ncd <= 0.15 for pt in pts)


def test_noise_experiment_deterministic_and_fields():
    a = baselines.noise_experiment(dimensions=(64**2, 128**2), seed=5)
    b = baselines.noise_experiment(dimensions=(64**2, 128**2), seed=5)
    assert a == b
    assert a[0].dimension == 4096 and a[0].p == 0.1


def test_noise_experiment_predicted_monotone():
    pts = baselines.noise_experiment(dimensions=(64**2, 128**2, 256**2))
    predicted = [pt.predicted for pt in pts]
    assert predicted == sorted(predicted)


def test_noise_experiment_joint_bound_close():
    dims = (128**2, 256**2)
    direct = baselines.noise_experiment(dimensions=dims)
    bounded = baselines.noise_experiment(dimensions=dims, use_joint_bound=True)
    assert abs(direct[-1].ncd - bounded[-1].ncd) < 0.1


def test_noise_experiment_rejects_bad_p():
    with pytest.raises(ValueError):
        baselines.noise_experiment(p=0.7)


def test_noise_experiment_csv():
    pts = baselines.noise_experiment(dimensions=(64**2,))
    text = baselines.noise_experiment_csv(pts)
    lines = text.splitlines()
    assert lines[0] == "dimension,p,ncd_measured,ncd_predicted,z_s_bits"
    assert lines[1].startswith("4096,0.1,")
