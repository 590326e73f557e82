"""Tests for the zipfian rank generator."""

import random

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.workload.zipf import ZipfGenerator


def test_samples_in_range():
    zipf = ZipfGenerator(100, 0.99, random.Random(1))
    for _ in range(1000):
        assert 0 <= zipf.sample() < 100


def test_head_heavier_than_tail():
    zipf = ZipfGenerator(1000, 0.99, random.Random(2))
    samples = [zipf.sample() for _ in range(20000)]
    head = sum(1 for s in samples if s < 10)
    tail = sum(1 for s in samples if s >= 990)
    assert head > 20 * tail


def test_theta_zero_is_uniform():
    zipf = ZipfGenerator(10, 0.0, random.Random(3))
    counts = [0] * 10
    n = 50000
    for _ in range(n):
        counts[zipf.sample()] += 1
    for count in counts:
        assert abs(count - n / 10) < n * 0.01


def test_probability_masses_sum_to_one():
    zipf = ZipfGenerator(50, 0.99, random.Random(4))
    total = sum(zipf.probability(rank) for rank in range(50))
    assert total == pytest.approx(1.0)


def test_probability_decreasing_in_rank():
    zipf = ZipfGenerator(50, 0.99, random.Random(4))
    probs = [zipf.probability(rank) for rank in range(50)]
    assert probs == sorted(probs, reverse=True)


def test_empirical_matches_theoretical_head_mass():
    zipf = ZipfGenerator(100, 0.99, random.Random(5))
    n = 40000
    hits = sum(1 for _ in range(n) if zipf.sample() == 0)
    assert hits / n == pytest.approx(zipf.probability(0), rel=0.1)


def test_single_item_always_rank_zero():
    zipf = ZipfGenerator(1, 0.99, random.Random(6))
    assert zipf.sample() == 0


def test_bad_parameters_rejected():
    with pytest.raises(ConfigError):
        ZipfGenerator(0, 0.99, random.Random(1))
    with pytest.raises(ConfigError):
        ZipfGenerator(10, -0.5, random.Random(1))
    zipf = ZipfGenerator(10, 0.99, random.Random(1))
    with pytest.raises(ConfigError):
        zipf.probability(10)


def test_deterministic_given_seed():
    a = ZipfGenerator(100, 0.99, random.Random(42))
    b = ZipfGenerator(100, 0.99, random.Random(42))
    assert [a.sample() for _ in range(20)] == [b.sample() for _ in range(20)]


@pytest.mark.parametrize("theta", (0.0, 0.5, 0.99, 1.2))
@pytest.mark.parametrize("n", (1, 10, 100, 1000, 10000))
def test_bit_identical_to_numpy_reference(n, theta):
    """numpy as a test-only oracle: the CDF is a cumulative sum normalised
    by its last element, and a sample is a left-side binary search of
    one uniform draw, both to the last bit."""
    reference = np.cumsum(1.0 / np.power(np.arange(1, n + 1, dtype=float),
                                         theta))
    reference /= reference[-1]
    zipf = ZipfGenerator(n, theta, random.Random(n))
    assert list(zipf._cdf) == reference.tolist()
    draws = random.Random(n)
    uniforms = [draws.random() for _ in range(20000)]
    expected = np.searchsorted(reference, uniforms, side="left").tolist()
    assert [zipf.sample() for _ in range(20000)] == expected
