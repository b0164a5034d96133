"""ZipfSampler: distribution shape, determinism, validation."""

import random
from collections import Counter

import pytest

from repro.load import ZipfSampler


def test_head_is_hot():
    z = ZipfSampler(1000, s=1.1, seed=5)
    draws = Counter(z.sample() for _ in range(20_000))
    # rank 0 dominates, and the top-10 take a large share
    assert draws[0] == max(draws.values())
    top10 = sum(draws[k] for k in range(10))
    assert top10 > 0.4 * 20_000


def test_uniform_when_s_zero():
    z = ZipfSampler(4, s=0.0, seed=2)
    draws = Counter(z.sample() for _ in range(8_000))
    assert sorted(draws) == [0, 1, 2, 3]
    assert all(abs(count - 2_000) < 200 for count in draws.values())


def test_deterministic_with_seed():
    a = [ZipfSampler(50, seed=3).sample() for _ in range(1)]
    z1, z2 = ZipfSampler(50, seed=3), ZipfSampler(50, seed=3)
    assert [z1.sample() for _ in range(100)] == [z2.sample() for _ in range(100)]


def test_external_rng_stream():
    z = ZipfSampler(50)
    r1, r2 = random.Random(9), random.Random(9)
    assert [z.sample(r1) for _ in range(50)] == [z.sample(r2) for _ in range(50)]


def test_sample_without_rng_raises():
    with pytest.raises(ValueError):
        ZipfSampler(10).sample()


def test_validation():
    with pytest.raises(ValueError):
        ZipfSampler(0)
    with pytest.raises(ValueError):
        ZipfSampler(10, s=-0.5)


def test_all_ranks_reachable():
    z = ZipfSampler(5, s=1.0, seed=1)
    seen = {z.sample() for _ in range(5_000)}
    assert seen == {0, 1, 2, 3, 4}
