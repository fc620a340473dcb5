import math

import numpy as np
import pytest

from chshlab.rng import GOLDEN, MASK64, SplitMix64, derive_seed, mix64


def splitmix_reference(seed, n):
    # One-word-at-a-time reference implementation on Python integers.
    out, state = [], seed & MASK64
    for _ in range(n):
        state = (state + GOLDEN) & MASK64
        out.append(mix64(state))
    return out


def binomial_cdf_inverse_exact(u, n, p):
    # Exact oracle via math.comb, usable for small n.
    acc = 0.0
    for k in range(n + 1):
        acc += math.comb(n, k) * p**k * (1 - p) ** (n - k)
        if u <= acc:
            return k
    return n


class TestSplitMix64:
    def test_known_vector_seed_zero(self):
        sm = SplitMix64(0)
        assert sm.next_uint64() == 0xE220A8397B1DCDAF
        assert sm.next_uint64() == 0x6E789E6AA1B965F4
        assert sm.next_uint64() == 0x06C45D188009454F

    def test_batch_equals_sequential(self):
        for seed in (0, 1, 0xDEADBEEF, MASK64):
            batch = SplitMix64(seed).next_uint64(500)
            assert [int(v) for v in batch] == splitmix_reference(seed, 500)

    def test_stream_continuity_across_batches(self):
        a = SplitMix64(99)
        chunks = np.concatenate([a.next_uint64(3), a.next_uint64(4), a.next_uint64(1)])
        assert np.array_equal(chunks, SplitMix64(99).next_uint64(8))

    def test_random_unit_interval(self):
        u = SplitMix64(5).random(10000)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.02

    def test_standard_normal_moments(self):
        z = SplitMix64(123).standard_normal(1_000_000)
        assert abs(z.mean()) < 0.005
        assert abs(z.std() - 1.0) < 0.005

    def test_determinism(self):
        assert np.array_equal(SplitMix64(7).standard_normal(101), SplitMix64(7).standard_normal(101))


class TestBinomial:
    def test_matches_exact_inverse_cdf(self):
        # Reconstruct the uniform the draw will consume and compare with the
        # math.comb oracle.
        rng = np.random.default_rng(21)
        for trial in range(300):
            seed = int(rng.integers(0, 2**63))
            n = int(rng.integers(0, 40))
            p = float(rng.random())
            u = SplitMix64(seed).random()
            drawn = SplitMix64(seed).binomial(n, p)
            assert drawn == binomial_cdf_inverse_exact(u, n, p)

    def test_edge_cases(self):
        sm = SplitMix64(3)
        assert sm.binomial(100, 0.0) == 0
        assert sm.binomial(100, 1.0) == 100
        assert sm.binomial(0, 0.3) == 0
        with pytest.raises(ValueError):
            sm.binomial(10, 1.5)
        with pytest.raises(ValueError):
            sm.binomial(-1, 0.5)

    def test_consumes_one_word_regardless_of_outcome(self):
        a, b = SplitMix64(42), SplitMix64(42)
        a.binomial(100, 0.0)
        b.next_uint64()
        assert a.next_uint64() == b.next_uint64()

    def test_matches_exact_rational_cdf_mid_range(self):
        # Exact integer-arithmetic oracle at n = 500, p = 1/4: the CDF terms
        # are comb(n, j) * 3^(n-j) / 4^n, all exact.
        from fractions import Fraction

        n = 500
        p_num, p_den = 1, 4
        weights = [math.comb(n, j) * (p_den - p_num) ** (n - j) * p_num**j for j in range(n + 1)]
        total = p_den**n

        def exact_icdf(u):
            acc = 0
            target = Fraction(u)
            for j in range(n + 1):
                acc += weights[j]
                if target <= Fraction(acc, total):
                    return j
            return n

        for seed in range(40):
            u = SplitMix64(seed).random()
            assert SplitMix64(seed).binomial(n, 0.25) == exact_icdf(u)

    def test_large_n_moments(self):
        n, p = 1_000_000, 0.3
        sigma = math.sqrt(n * p * (1 - p))
        draws = [SplitMix64(seed).binomial(n, p) for seed in range(8)]
        for d in draws:
            assert abs(d - n * p) < 5 * sigma


class TestMultinomial:
    def test_sum_is_exact(self):
        counts = SplitMix64(1).multinomial(12345, [0.1, 0.2, 0.3, 0.4])
        assert counts.sum() == 12345
        assert (counts >= 0).all()

    def test_determinism(self):
        a = SplitMix64(77).multinomial(1000, [0.25] * 4)
        b = SplitMix64(77).multinomial(1000, [0.25] * 4)
        assert np.array_equal(a, b)

    def test_degenerate_mass(self):
        assert np.array_equal(SplitMix64(5).multinomial(100, [1.0, 0.0, 0.0, 0.0]), [100, 0, 0, 0])

    def test_uniform_quarter_moments(self):
        # Binomial(1e6, 1/4) sigma is ~433; all four counts must sit within 5 sigma.
        counts = SplitMix64(99).multinomial(1_000_000, [0.25] * 4)
        sigma = math.sqrt(1_000_000 * 0.25 * 0.75)
        assert all(abs(int(c) - 250_000) < 5 * sigma for c in counts)

    def test_validates_pvals(self):
        with pytest.raises(ValueError):
            SplitMix64(0).multinomial(10, [0.5, 0.6])
        with pytest.raises(ValueError):
            SplitMix64(0).multinomial(10, [0.7, -0.2, 0.5])

    def test_rejects_non_finite_pvals(self):
        # A NaN makes the sum NaN, which no range check catches.
        nan, inf = math.nan, math.inf
        for pvals in ([0.5, 0.5, nan], [nan, 0.5, 0.5], [0.5, nan, 0.5], [0.5, 0.5, inf]):
            with pytest.raises(ValueError, match="finite"):
                SplitMix64(1).multinomial(10, pvals)


class TestDeriveSeed:
    def test_distinct_streams(self):
        seeds = {derive_seed(1234, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert derive_seed(1234, 0) != 1234

    def test_multi_index_fold(self):
        assert derive_seed(5, 1, 2) == derive_seed(derive_seed(5, 1), 2)
        assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)
