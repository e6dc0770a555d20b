"""Reference similarity measures.

Trajectory distance (expected absolute log-ratio of the two encoder
conditionals), symmetric conditional likelihood, and the Normalized
Compression Distance with the Bernoulli-noise resolution experiment.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ScoredBatch, _check_seed, _csv_text

__all__ = [
    "NcdResult",
    "NoiseExperimentPoint",
    "trajectory_distance",
    "cond_likelihood_score",
    "deflate_size_bits",
    "ncd",
    "bernoulli_entropy",
    "disk_pattern",
    "noise_experiment",
    "noise_experiment_csv",
    "ncd_joint_lower_bound",
]

def deflate_size_bits(data: bytes) -> int:
    """Compressed size in bits under deflate at maximum effort (level 9)."""
    return 8 * len(zlib.compress(data, 9))


@dataclass(frozen=True)
class NcdResult:
    value: float
    z_x: int
    z_y: int
    z_xy: int


@dataclass(frozen=True)
class NoiseExperimentPoint:
    dimension: int
    p: float
    ncd: float
    predicted: float
    z_s_bits: int


def trajectory_distance(batch: ScoredBatch) -> float:
    """Monte-Carlo mean of |log p(h|x1) - log p(h|x2)| over pooled draws."""
    if batch.log_conditionals is None:
        raise ValueError("batch was not built with encoder conditionals")
    diff = np.abs(batch.log_conditionals[0] - batch.log_conditionals[1])
    return float((batch.counts * diff).sum() / batch.counts.sum())


def cond_likelihood_score(x1: str, x2: str, backend) -> float:
    """Symmetric mean conditional log-likelihood; higher = more similar.
    Each input is scored as a terminated text under the other."""
    x1, x2 = str(x1), str(x2)
    if not (x1 and x2):
        raise ValueError(f"cond_likelihood_score needs two nonempty texts, "
                         f"got {x1!r} and {x2!r}")
    a, b = backend.score_many([(x1, x2, True), (x2, x1, True)], prompt=None)
    return 0.5 * (a.total + b.total)


def ncd(a: bytes, b: bytes, z_xy: int | None = None) -> NcdResult:
    """Normalized compression distance of two byte strings under deflate-9.

    ``z_xy`` can be supplied explicitly (e.g. from
    :func:`ncd_joint_lower_bound`) when deflate's window is too short to
    compress the pair jointly; otherwise the concatenation is compressed
    directly.
    """
    if not a or not b:
        raise ValueError("inputs must be nonempty")
    z_x = deflate_size_bits(a)
    z_y = deflate_size_bits(b)
    if z_xy is None:
        z_xy = deflate_size_bits(a + b)
    value = (z_xy - min(z_x, z_y)) / max(z_x, z_y)
    return NcdResult(value=float(value), z_x=z_x, z_y=z_y, z_xy=z_xy)


def bernoulli_entropy(p: float) -> float:
    """Entropy of Bern(p) in nats, with 0*log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    out = 0.0
    for q in (p, 1.0 - p):
        if q > 0.0:
            out -= q * math.log(q)
    return out


def ncd_joint_lower_bound(z_x: int, z_y: int, z_s: int) -> int:
    """Z(xy) >= Z(x) + Z(y) - Z(s); substitute when joint compression fails."""
    if z_x <= 0 or z_y <= 0 or z_s <= 0:
        raise ValueError("sizes must be positive")
    out = z_x + z_y - z_s
    if out <= 0:
        raise ValueError("lower bound is not positive; shared size too large")
    return out


def disk_pattern(dimension: int) -> np.ndarray:
    """Low-complexity binary image: a filled disk on white, flat bit array."""
    side = int(round(math.sqrt(dimension)))
    if side * side != dimension:
        raise ValueError("dimension must be a perfect square for the disk pattern")
    yy, xx = np.mgrid[0:side, 0:side]
    c = (side - 1) / 2.0
    r = side * 0.3
    return (((xx - c) ** 2 + (yy - c) ** 2) <= r * r).astype(np.uint8).ravel()


def _pack(bits: np.ndarray) -> bytes:
    return np.packbits(bits).tobytes()


def noise_experiment(
    p: float = 0.1,
    dimensions: Sequence[int] = (64**2, 128**2, 256**2, 512**2),
    seed: int = 0,
    use_joint_bound: bool = False,
) -> list[NoiseExperimentPoint]:
    """NCD between two noisy measurements of the same pattern, per size.

    For each dimension D: render the disk pattern s, draw two Bernoulli(p)
    masks, XOR them onto s, pack 8 pixels per byte, and measure NCD under
    deflate at level 9.
    Predicted value is 1 - Z(s)/(D*H(p)) clamped to [0, 1], with H(p) in
    bits to match compressed sizes.
    """
    if not 0.0 <= p <= 0.5:
        raise ValueError("p must be in [0, 0.5]")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    h_bits = bernoulli_entropy(p) / math.log(2.0)
    points = []
    for dim in dimensions:
        s = disk_pattern(dim)
        n_x = (rng.random(dim) < p).astype(np.uint8)
        n_y = (rng.random(dim) < p).astype(np.uint8)
        x = _pack(s ^ n_x)
        y = _pack(s ^ n_y)
        z_s = deflate_size_bits(_pack(s))
        if use_joint_bound:
            z_x = deflate_size_bits(x)
            z_y = deflate_size_bits(y)
            result = ncd(x, y, z_xy=ncd_joint_lower_bound(z_x, z_y, z_s))
        else:
            result = ncd(x, y)
        if h_bits > 0:
            predicted = min(1.0, max(0.0, 1.0 - z_s / (dim * h_bits)))
        else:
            predicted = 0.0
        points.append(
            NoiseExperimentPoint(
                dimension=int(dim), p=p, ncd=result.value, predicted=predicted,
                z_s_bits=z_s,
            )
        )
    return points


def noise_experiment_csv(points: Sequence[NoiseExperimentPoint]) -> str:
    return _csv_text(
        ["dimension", "p", "ncd_measured", "ncd_predicted", "z_s_bits"],
        ([pt.dimension, f"{pt.p:.12g}", f"{pt.ncd:.12g}", f"{pt.predicted:.12g}",
          pt.z_s_bits] for pt in points))
