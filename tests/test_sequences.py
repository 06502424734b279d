"""Symbol sequence generators and the block counter."""

import numpy as np
import pytest

from ifsconj import (
    BernoulliSequence,
    ExplicitSequence,
    PeriodicSequence,
    SparseDensitySequence,
    count_symbols,
)


def test_explicit_prefix_and_bounds():
    s = ExplicitSequence((1, 2, 1))
    assert list(s.prefix(3)) == [1, 2, 1]
    assert s.symbol(2) == 2
    with pytest.raises(ValueError):
        s.prefix(4)
    with pytest.raises(ValueError):
        s.symbol(0)


def test_explicit_rejects_foreign_symbols():
    with pytest.raises(ValueError):
        ExplicitSequence((1, 3))


def test_periodic_tiles_pattern():
    s = PeriodicSequence((1, 2))
    assert list(s.prefix(5)) == [1, 2, 1, 2, 1]
    assert s.symbol(4) == 2


def test_bernoulli_same_seed_same_prefix():
    a = BernoulliSequence(0.5, seed=123)
    b = BernoulliSequence(0.5, seed=123)
    assert np.array_equal(a.prefix(1000), b.prefix(1000))


def test_bernoulli_prefixes_are_consistent():
    s = BernoulliSequence(0.3, seed=9)
    long = s.prefix(500)
    fresh = BernoulliSequence(0.3, seed=9)
    short = fresh.prefix(100)
    assert np.array_equal(long[:100], short)


def test_bernoulli_extreme_probabilities():
    assert set(BernoulliSequence(1.0, seed=1).prefix(50)) == {1}
    assert set(BernoulliSequence(0.0, seed=1).prefix(50)) == {2}


@pytest.mark.parametrize("p, alphabet", [(0.5, (1, 2)), (0.3, (2, 1)), (0.9, (4, 7)), (0.0, (1, 3))])
def test_bernoulli_symbols_follow_the_philox_stream(p, alphabet):
    # the first alphabet symbol exactly where the stream's uniform is below p
    s = BernoulliSequence(p, seed=41, alphabet=alphabet)
    u = np.random.Generator(np.random.Philox(key=41)).random(3000)
    got = s.prefix(3000)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.where(u < p, alphabet[0], alphabet[1]))


def test_sparse_density_perfect_squares():
    s = SparseDensitySequence(2)
    pre = s.prefix(100)
    squares = {i * i for i in range(1, 11)}
    for i, sym in enumerate(pre, start=1):
        assert sym == (2 if i in squares else 1)


def test_sparse_density_powers_of_two():
    s = SparseDensitySequence(2, rule="powers-of-two")
    pre = s.prefix(16)
    special_at = {i for i, sym in enumerate(pre, start=1) if sym == 2}
    assert special_at == {1, 2, 4, 8, 16}


def test_sparse_density_ratio_diverges():
    s = SparseDensitySequence(2)
    ratios = []
    for n in (100, 10_000, 1_000_000):
        n1, n2 = count_symbols(s, n, block1={1})
        ratios.append(n1 / n2)
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[2] > 900  # n2 ~ sqrt(n)


def test_count_symbols_examples():
    assert count_symbols(PeriodicSequence((1, 2)), 10, {1}) == (5, 5)
    assert count_symbols(SparseDensitySequence(2), 100, {1}) == (90, 10)
    assert count_symbols(ExplicitSequence((1, 1, 2)), 3, {1}) == (2, 1)


def test_count_symbols_partition_invariant():
    s = BernoulliSequence(0.4, seed=5)
    for n in (1, 7, 64, 999):
        n1, n2 = count_symbols(s, n, {1})
        assert n1 + n2 == n


def test_count_symbols_rejects_bad_blocks():
    s = PeriodicSequence((1, 2))
    with pytest.raises(ValueError):
        count_symbols(s, 5, set())
    with pytest.raises(ValueError):
        count_symbols(s, 5, {1, 2})
    with pytest.raises(ValueError):
        count_symbols(s, 0, {1})
