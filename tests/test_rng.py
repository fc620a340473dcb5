import math
import tracemalloc
import warnings

import numpy as np
import pytest

from chshlab import rng as rng_module
from chshlab.expsim import MAX_PAIRS
from chshlab.rng import (
    GOLDEN, MASK64, SplitMix64, _lgamma, _unit, binomial, binomial_window, derive_seed, mix64, words,
)

# Seeds at the edges of the 64-bit range, above it and below zero.
EDGE_SEEDS = (
    0, 1, 0xDEADBEEF, 2**63 - 1, 2**63, 2**63 + 12345, MASK64, 2**64, 2**64 + 7, -1, -(2**63), -987654321,
)


def mix64_reference(z):
    # The SplitMix64 finalizer on Python integers.
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def derive_seed_reference(seed, *indices):
    h = seed & MASK64
    for ix in indices:
        h = mix64_reference((h + GOLDEN) ^ mix64_reference(ix & MASK64))
    return h


def splitmix_reference(seed, n):
    # One-word-at-a-time reference implementation on Python integers.
    out, state = [], seed & MASK64
    for _ in range(n):
        state = (state + GOLDEN) & MASK64
        out.append(mix64_reference(state))
    return out


def binomial_cdf_inverse_exact(u, n, p):
    # Exact oracle via math.comb, usable for small n.
    acc = 0.0
    for k in range(n + 1):
        acc += math.comb(n, k) * p**k * (1 - p) ** (n - k)
        if u <= acc:
            return k
    return n


def whole_rows_cdf(lo, n, p, width):
    # CDF tables of the rows (lo, n, p), zero-padded to the widest and each built whole, as binomial
    # built every row before it built wide rows in blocks.
    logit = np.log(p) - np.log1p(-p)
    anchor = _lgamma(n + 1.0) - _lgamma(lo + 1.0) - _lgamma(n - lo + 1.0) + n * np.log1p(-p) + lo * logit
    j = np.arange(width.max())
    k = np.clip(lo[:, None] + j - 1, 0, n[:, None] - 1)
    steps = np.cumsum((np.log((n[:, None] - k) / (k + 1.0)) + logit[:, None]) * (j > 0), axis=1)
    return np.cumsum(np.exp(np.where(j < width[:, None], anchor[:, None] + steps, -np.inf)), axis=1)


def binomial_whole_rows(n, p, u):
    # An independent reference for binomial: whole rows from whole_rows_cdf, distinct rows in chunks of
    # about 2**14 entries, a wider row a chunk of its own, and a vectorised bit search over every draw of
    # a chunk at once.  n, p and u are 1-d, with n > 0 and 0 < p < 1.
    lo, hi = binomial_window(n, p)
    cols = np.c_[lo - hi, lo, n, p.view("i8")]
    order = np.lexsort(cols.T[::-1])
    cols, first = cols[order], np.ones(len(cols), bool)
    first[1:] = (cols[1:] != cols[:-1]).any(axis=1)
    keys, row, start = cols[first], np.cumsum(first) - 1, 0
    width, lo, rn, rp = 1 - keys[:, 0], keys[:, 1], keys[:, 2], keys[:, 3].view(np.float64)
    u, out = u[order], np.empty(len(n), np.int64)
    while start < len(keys):
        c = slice(start, start + max(1, 2**14 // int(width[start])))
        cdf = whole_rows_cdf(lo[c], rn[c], rp[c], width[c])
        w = cdf.shape[1]
        sel = slice(np.searchsorted(row, start), np.searchsorted(row, c.stop))
        r, count = row[sel] - start, 0
        for bit in reversed(range(w.bit_length())):
            step = count + (1 << bit)
            count = np.where(cdf[r, np.minimum(step, w) - 1] < u[sel] * cdf[r, -1], step, count)
        out[order[sel]] = lo[row[sel]] + count
        start = c.stop
    return out


class TestSplitMix64:
    def test_known_vector_seed_zero(self):
        sm = SplitMix64(0)
        assert sm.next_uint64(1).tolist() == [0xE220A8397B1DCDAF]
        assert sm.next_uint64(2).tolist() == [0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_batch_equals_sequential(self):
        for seed in (0, 1, 0xDEADBEEF, MASK64):
            batch = SplitMix64(seed).next_uint64(500)
            assert [int(v) for v in batch] == splitmix_reference(seed, 500)

    def test_stream_continuity_across_batches(self):
        a = SplitMix64(99)
        chunks = np.concatenate([a.next_uint64(3), a.next_uint64(4), a.next_uint64(1)])
        assert np.array_equal(chunks, SplitMix64(99).next_uint64(8))

    def test_random_unit_interval(self):
        u = _unit(SplitMix64(5).next_uint64(10000))
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.02

    def test_determinism(self):
        assert np.array_equal(SplitMix64(7).next_uint64(101), SplitMix64(7).next_uint64(101))

    def test_methods_are_array_only(self):
        with pytest.raises(TypeError):
            SplitMix64.next_uint64(SplitMix64(1))


class TestWords:
    def test_broadcasts_over_seeds(self):
        seeds = np.array([[0, 5, MASK64], [2**63, 7, 1]], dtype=np.uint64)
        got = words(seeds, 3, 6)
        assert got.shape == (2, 3, 6) and got.dtype == np.uint64
        for index, seed in np.ndenumerate(seeds):
            assert np.array_equal(got[index], words(seed, 3, 6))
            assert [int(v) for v in got[index]] == splitmix_reference(int(seed), 9)[3:]

    def test_stream_reads_on_after_a_draw(self):
        for seed in EDGE_SEEDS:
            for k, n in ((0, 5), (1, 3), (7, 0), (7, 10)):
                stream = SplitMix64(seed)
                stream.next_uint64(k)
                got = stream.next_uint64(n)
                assert np.array_equal(got, words(seed, k, n))
                assert [int(v) for v in got] == splitmix_reference(seed, k + n)[k:]


class TestMix64:
    def test_matches_reference(self):
        rng = np.random.default_rng(17)
        values = [s & MASK64 for s in EDGE_SEEDS] + rng.integers(0, 2**64, 200, dtype=np.uint64).tolist()
        got = mix64(np.array(values, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert [int(v) for v in got] == [mix64_reference(v) for v in values]

    def test_keeps_shape(self):
        z = np.arange(12, dtype=np.uint64).reshape(3, 4)
        assert mix64(z).shape == (3, 4)
        assert int(mix64(MASK64)) == mix64_reference(MASK64)

    def test_scalar_calls_raise_no_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert derive_seed(MASK64, 2**64 - 2, 3) == derive_seed_reference(MASK64, 2**64 - 2, 3)
            mix64(np.uint64(MASK64))
            binomial(1000, 0.25, _unit(words(MASK64, 0, 1))[0])


class TestBinomial:
    def test_matches_exact_inverse_cdf(self):
        rng = np.random.default_rng(21)
        for trial in range(300):
            u = float(rng.random())
            n = int(rng.integers(0, 40))
            p = float(rng.random())
            assert binomial(n, p, u) == binomial_cdf_inverse_exact(u, n, p)

    @pytest.mark.parametrize(
        "n, p",
        [
            (9, [0.0, 1.0, 0.0, 1.0]),  # no live entry: p = 0 or 1
            (0, [0.3, 0.0, 1.0, 0.2]),  # no live entry: no trials
            (40, [0.3]),  # one row
            (40, [0.3] * 6),  # every row the same
            # At n = 40 these p share the window [0, 40], so only p tells the rows apart.
            (40, [0.3, 0.5, 0.3, 0.2, 0.5, 0.3]),
        ],
        ids=["no-live", "no-trials", "one-row", "equal-rows", "rows-differ-in-p-only"],
    )
    def test_shared_rows_draw_as_single_calls(self, n, p):
        # Entries that share a table row, or whose rows differ only in p, draw as they would alone.
        p = np.array(p)
        u = _unit(SplitMix64(17).next_uint64(len(p)))
        live = (n > 0) & (p > 0) & (p < 1)
        lo, hi = binomial_window(n, p[live])
        assert len(set(zip(lo.tolist(), hi.tolist()))) == int(live.any())  # one window at most
        expected = [binomial(n, float(q), float(v)) for q, v in zip(p, u)]
        assert binomial(n, p, u).tolist() == expected
        assert expected == [binomial_cdf_inverse_exact(float(v), n, float(q)) for q, v in zip(p, u)]

    def test_edge_cases(self):
        u = float(_unit(SplitMix64(3).next_uint64(1))[0])
        assert binomial(100, 0.0, u) == 0
        assert binomial(100, 1.0, u) == 100
        assert binomial(0, 0.3, u) == 0
        for p in (1.5, -1e-12, math.nan):
            with pytest.raises(ValueError):
                binomial(10, p, u)
        for n in (-1, math.nan):
            with pytest.raises(ValueError, match="n >= 0"):
                binomial(n, 0.5, u)

    def test_uniforms_carry_their_own_axes(self):
        # The table rows come from p alone; u adds draw axes of its own.  p = 0 and 1, n = 0 and u = 1
        # included, each entry draws as a scalar call would.
        p = np.array([[0.0, 0.3, 1.0, 0.999]])
        seeds = derive_seed(35, np.arange(5)[:, None, None], np.arange(3)[:, None], np.arange(4))
        u = _unit(words(seeds, 0, 1))[..., 0]
        u[0, :, 1], u[1, 1] = 1.0, 1.0
        for n in (0, 40, 10**6):
            draws = binomial(n, p, u)
            assert draws.shape == (5, 3, 4)
            for (i, j, k), draw in np.ndenumerate(draws):
                assert draw == binomial(n, float(p[0, k]), float(u[i, j, k]))

    def test_rejects_uniforms_outside_zero_to_one(self):
        # u = 1.5 drew 15 of 10 trials, or past the window's edge; NaN drew the lower edge; on a wide row both
        # raised IndexError.  u = 1 is the top of a CDF and draws inside the window.
        for n in (10, 10**4, 10**7):
            for u in (1.5, 1.0 + 2.0**-52, -2.0**-53, math.nan, math.inf, [0.5, math.nan]):
                with pytest.raises(ValueError, match=r"u in \[0, 1\]"):
                    binomial(n, 0.5, u)
            assert binomial(n, 0.5, 1.0) <= binomial_window(np.array(n), np.array(0.5))[1]

    def test_rejects_fractional_n(self):
        # 2.9 trials used to be drawn as 2.  A call draws for one number of trials: a list of them is refused.
        assert binomial(3.0, 0.999, 0.99) == binomial(3, 0.999, 0.99)
        for n in (2.9, np.float64(1e9 + 0.5), [10, 20], np.array([3])):
            with pytest.raises(ValueError, match="one whole number n"):
                binomial(n, 0.999, 0.99)

    def test_consumes_one_word_regardless_of_outcome(self):
        # Each entry of a batched call draws at its own uniform, also next to entries decided without one.
        for seed in range(20):
            u = _unit(words(seed, 0, 4))
            counts = binomial(1000, [0.0, 0.3, 1.0, 0.2], u)
            assert counts.tolist() == [0, binomial(1000, 0.3, u[1]), 1000, binomial(1000, 0.2, u[3])]
            assert binomial(0, [0.0, 0.3, 0.2, 1.0], u).tolist() == [0, 0, 0, 0]

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
            u = float(_unit(SplitMix64(seed).next_uint64(1))[0])
            assert binomial(n, 0.25, u) == exact_icdf(u)

    def test_large_n_moments(self):
        n, p = 1_000_000, 0.3
        sigma = math.sqrt(n * p * (1 - p))
        draws = [binomial(n, p, _unit(SplitMix64(seed).next_uint64(1))[0]) for seed in range(8)]
        for d in draws:
            assert abs(d - n * p) < 5 * sigma

    def test_top_uniform_stays_in_the_bulk(self):
        # The largest uniform, 1 - 2**-53, is a tail event of probability
        # 2**-53, about 8 sigma out; it must not clamp to the window's upper
        # edge, about 9.4 sigma out, when the table's total mass rounds below 1.
        u = 1.0 - 2.0**-53
        for n, p in ((10_000, 0.5), (10**6, 0.3), (10**8, 0.25), (10**9, 0.01)):
            sigma = math.sqrt(n * p * (1 - p))
            assert 7.0 < (binomial(n, p, u) - n * p) / sigma < 9.0

    def test_zero_uniform_draws_the_window_lower_edge(self):
        for n, p in ((10**4, 0.5), (10**9, 0.25), (10**9, 1e-8), (2, 0.3)):
            lo, _ = binomial_window(np.array([n]), np.array([p]))
            assert binomial(n, p, 0.0) == lo[0]

    def test_window_tails_are_below_two_to_the_minus_64(self):
        binom = pytest.importorskip("scipy.stats").binom
        n, p = (a.ravel() for a in np.meshgrid([2, 10**4, 10**9, 10**12], [1e-8, 0.01, 0.25, 0.5, 1 - 1e-8]))
        lo, hi = binomial_window(n, p)
        assert (lo >= 0).all() and (lo <= hi).all() and (hi <= n).all()
        assert (binom.cdf(lo - 1, n, p) < 2.0**-64).all()
        assert (binom.sf(hi, n, p) < 2.0**-64).all()
        # In the Gaussian bulk the window spans about +-9.4 sigma, not the +-60 sigma of a fixed multiple.
        bulk = n * p * (1 - p) > 1e3
        assert ((hi - lo)[bulk] < 2 * 9.6 * np.sqrt(n * p * (1 - p))[bulk]).all()

    def test_near_degenerate_rows(self):
        # 1 - 1e-33 rounds to p = 1.  At p = 1 - 2**-52 the lower edge sits about 30 counts
        # below all the mass, and the table must be anchored there without overflow.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert binomial(10**5, 1 - 1e-33, 0.5) == 10**5
            assert binomial(10**12, 1e-30, 0.999) == 0
            assert binomial(10**5, 1 - 2**-52, 1 - 2**-53) == 10**5

    def test_window_tails_on_random_rows(self):
        binom = pytest.importorskip("scipy.stats").binom
        rng = np.random.default_rng(22)
        n = np.concatenate([rng.integers(1, 100, 100), rng.integers(1, 10**9, 100)])
        p = np.concatenate([rng.random(100), 10 ** rng.uniform(-15, -1e-9, 100)])
        lo, hi = binomial_window(n, p)
        assert (binom.cdf(lo - 1, n, p) < 2.0**-64).all()
        assert (binom.sf(hi, n, p) < 2.0**-64).all()

    def test_skewed_draws_match_scipy_ppf(self):
        # n = 1e9, p = 1e-8: a mean of 10 next to the edge at 0.
        binom = pytest.importorskip("scipy.stats").binom
        u = _unit(SplitMix64(8).next_uint64(2000))
        expected = binom.ppf(u, 10**9, 1e-8).astype(np.int64)
        assert np.array_equal(binomial(10**9, 1e-8, u), expected)

    def test_rejects_n_above_two_to_the_53(self):
        # Above 2**53 the counts are no longer exact floats.  The check runs before any table is built:
        # 2**60 trials at p = 1/2 would need a row of about 1e10 entries.
        for n, p in ((2**60, 0.5), (2**53 + 1, 1e-12), (math.inf, 0.5), (2**64, 0.5), (np.uint64(2**63), 0.5)):
            with pytest.raises(ValueError, match=r"2\*\*53"):
                binomial(n, p, 0.3)


    def test_mixed_width_batch_matches_scalar_calls(self):
        # At n = 1e9 one call batches tables of width 30 to about 3e5 and rows at p = 0 or 1: narrow rows share
        # padded chunks and wide ones fill chunks of their own, yet every entry draws as it would alone.
        rng = np.random.default_rng(31)
        p = np.r_[0.25, 1 / 3, 0.5, 1e-8, 0.3, 1 - 3e-8, 1 - 1.1e-4, 1 - 2e-5, 1e-12, 0.0, 1.0, 0.97, rng.random(4)]
        # Pairs of rows that tie on width and differ in p only, which the stable sort by width keeps in p order.
        ties = {1000: [0.2, 0.8], 10**9: [0.25, 0.75]}
        # n = 2**53 is accepted; on its tables n - k, or k, reaches 2**53.
        for n in (10**9, 10**9 - 2, 999_999, 1000, 2, 1, 0, 2**53):
            q = np.r_[0.0, 1e-15, 1 - 1e-15, 1.0] if n == 2**53 else np.r_[np.repeat(p, 3), ties.get(n, [])]
            u = _unit(words(derive_seed(33, n, np.arange(len(q))), 0, 1))[:, 0]
            live = (n > 0) & (q > 0.0) & (q < 1.0)
            lo, hi = binomial_window(n, q[live])
            if n == 10**9:
                assert (hi - lo + 1).min() < 100 and 2e5 < (hi - lo + 1).max() < 4e5
            if n in ties:
                tie_lo, tie_hi = binomial_window(n, np.array(ties[n]))
                assert tie_hi[0] - tie_lo[0] == tie_hi[1] - tie_lo[1]
            draws = binomial(n, q, u)
            assert draws.tolist() == [binomial(n, float(x), float(v)) for x, v in zip(q, u)]
        assert draws[1] < 100 and draws[2] > 2**53 - 100  # the last call's, at n = 2**53

    @pytest.mark.parametrize("rows", [127, 128, 129, 2**15 - 1, 2**15, 2**15 + 1])
    def test_row_keys_at_the_edges_of_their_type(self, rows):
        # A draw's row key is held in the narrowest signed type that holds -1 - rows: int8 up to 127 rows, int16
        # up to 2**15 - 1 rows and int32 beyond; 129 and 2**15 + 1 rows are the first that a type one step
        # narrower would wrap.  Among rows distinct p and three entries off the table, each entry draws as it
        # does in calls of at most 127 rows, two draws apiece.
        k = np.random.default_rng(35).permutation(rows)
        p = np.r_[(k + 0.5) / rows, 0.0, 1.0, 0.0]
        assert len(np.unique(p[:rows])) == rows
        u = _unit(words(derive_seed(35, np.arange(len(p))), 0, 2))
        parts = [binomial(7, p[i : i + 127, None], u[i : i + 127]) for i in range(0, len(p), 127)]
        draws = binomial(7, p[:, None], u)
        assert draws.tolist() == np.concatenate(parts).tolist()
        assert draws[-3:].tolist() == [[0, 0], [7, 7], [0, 0]]

    def test_windows_are_sized_once_per_distinct_row(self, monkeypatch):
        # Repeated p, and entries off the table (n = 0, p = 0 or p = 1), add no window.
        p = np.array([0.3, 0.5, 0.25, 0.5, 0.3, 0.25, 0.0, 1.0, 0.7, 0.25, 0.5])
        u = _unit(words(derive_seed(34, np.arange(len(p))), 0, 2))
        expected = {n: binomial(n, p[:, None], u) for n in (0, 40, 10**9)}
        calls = []

        def spy(n, p):
            calls.append((n, sorted(p.tolist())))
            return binomial_window(n, p)

        monkeypatch.setattr(rng_module, "binomial_window", spy)
        for n, draws in expected.items():
            assert binomial(n, p[:, None], u).tolist() == draws.tolist()
        rows = [0.25, 0.3, 0.5, 0.7]
        assert calls == [(0, []), (40, rows), (10**9, rows)]

    def test_padding_raises_no_warning(self):
        # Rows of very different widths share a padded table; p = 0 and p = 1 rows, subnormal p and the
        # lanes past a row's end must stay clean.
        p = np.array([0.0, 1.0, 0.5, 1e-8, 0.5 - 1e-8, 1e-300, 5e-324, 1 - 2**-53, 0.25, 1 / 3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (0, 1, 2, 1000, 10**9):
                u = _unit(words(derive_seed(4, n, np.arange(len(p))), 0, 1))[:, 0]
                draws = binomial(n, p, u)
                assert draws.tolist() == [binomial(n, float(q), float(v)) for q, v in zip(p, u)]
            binomial(1, 5e-324, 0.0)
            binomial(2, 1 - 2**-53, 0.5)
            binomial(10**9, [5e-324, 1 - 2**-53], [0.999, 0.0])

    def test_batch_memory_stays_bounded(self):
        # A table is built in blocks of about 2**14 entries, a wide row's too, so 60 distinct 1e9-trial rows
        # peak at about 0.8 MB; built whole, one row at a time, they peaked at 9.1 MB.
        p = np.array([0.25, 1 / 3, 0.5]) - 1e-6 * np.arange(20)[:, None]
        u = _unit(words(derive_seed(1, np.arange(20)), 0, 3))
        binomial(10**9, p, u)
        tracemalloc.start()
        try:
            binomial(10**9, p, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"tracemalloc peak {peak / 2**20:.2f} MB"

    def test_draws_fall_in_scipy_cdf_brackets_up_to_max_pairs(self):
        # Draw k at u satisfies F(k - 1) < u <= F(k) for the table's CDF, which measured within 3.7e-11 of
        # scipy's at n = 1e12.  The tolerance was fixed before the first run.
        binom = pytest.importorskip("scipy.stats").binom
        tol = 1e-10
        ns, p = [10**e for e in range(4, 13)], np.repeat([0.5, 0.8535533905932737, 1e-3], 100)
        u = _unit(words(28, 0, 2700)).reshape(3, len(ns), 100)  # 100 uniforms for each (p, n)
        u[..., ::50], u[..., 1::50] = 0.0, 1.0 - 2.0**-53
        assert ns[-1] == MAX_PAIRS
        for n, u_n in zip(ns, u.transpose(1, 0, 2).reshape(len(ns), -1)):
            k = binomial(n, p, u_n)
            assert (binom.cdf(k - 1, n, p) - tol <= u_n).all() and (u_n <= binom.cdf(k, n, p) + tol).all()


class TestWideRows:
    # A row wider than _BUDGET is built in blocks; its draws must be those of the whole row, bit for bit.
    def test_matches_whole_row_reference(self):
        rng = np.random.default_rng(24)
        n = np.array([10**6, 3 * 10**7, 10**9, 10**10, 10**11, 10**12])
        p = np.array([0.5, 1e-3, 0.999, *rng.random(3)])
        n, p = (a.ravel() for a in np.meshgrid(n, p))
        keep = n * p * (1 - p) <= 3e9  # whole rows of at most about 1e6 entries
        n, p = np.repeat(n[keep], 3), np.repeat(p[keep], 3)  # three draws share each row
        u = rng.random(len(n))
        u[::7], u[3::7] = 0.0, 1.0 - 2.0**-53
        assert (n.min(), n.max()) == (10**6, 10**12)
        expected = binomial_whole_rows(n, p, u)
        for k in np.unique(n):
            assert binomial(int(k), p[n == k], u[n == k]).tolist() == expected[n == k].tolist()

    def test_draws_at_the_edges_of_blocks_and_marks(self):
        # Each uniform is the top of the CDF at column c, so it draws lo + c: the first and last entries of
        # the 2**14-column blocks and of the 2**10-column marks that pass 2 rebuilds.
        n, p = np.array([10**9]), np.array([0.25])
        lo, hi = binomial_window(n, p)
        cdf = whole_rows_cdf(lo, n, p, hi - lo + 1)[0]
        cols = np.array([0, 1, 1023, 1024, 2**14 - 1, 2**14, 2**14 + 1, 5 * 2**14 - 1, 5 * 2**14, 8 * 2**14 + 1024])
        u = cdf[cols] / cdf[-1]
        assert (binomial(10**9, 0.25, u) - lo).tolist() == cols.tolist()
        n, p = np.repeat(n, len(cols)), np.repeat(p, len(cols))
        assert binomial(10**9, 0.25, u).tolist() == binomial_whole_rows(n, p, u).tolist()

    @pytest.mark.parametrize("budget", [7, 1000, 2**14])
    def test_draws_do_not_depend_on_the_block_size(self, budget, monkeypatch):
        n = np.repeat([40, 10**4, 10**6, 10**7], 2)
        p = np.array([0.3, 0.5, 0.25, 1e-3, 0.5, 0.999, 0.3, 0.5])
        u = _unit(SplitMix64(25).next_uint64(len(n)))
        expected = binomial_whole_rows(n, p, u)
        monkeypatch.setattr(rng_module, "_BUDGET", budget)
        for k in np.unique(n):
            assert binomial(int(k), p[n == k], u[n == k]).tolist() == expected[n == k].tolist()

    def test_memory_is_flat_in_the_row_width(self):
        # A whole row of Binomial(1e11, 1/2) has about 3e6 entries; built whole, it peaked at 116 MB.
        u = _unit(SplitMix64(26).next_uint64(3))
        binomial(10**11, 0.5, u)
        tracemalloc.start()
        try:
            binomial(10**11, 0.5, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"tracemalloc peak {peak / 2**20:.2f} MB"


class TestNarrowRows:
    # Narrow rows share a chunk as wide as its widest row.  Columns past a row's width hold NaN or
    # extra mass, so each draw's search must stay inside its own row.
    N = 1000
    P = np.array([0.5, 0.01, 0.02, 0.3, 0.005, 0.7, 0.999, 0.99, 1 - 1e-6, 1e-3, 0.45, 0.9])

    @pytest.mark.parametrize("budget", [2**14, 997])
    def test_matches_whole_row_reference(self, budget, monkeypatch):
        lo, hi = binomial_window(self.N, self.P)
        width = hi - lo + 1
        assert width[0] == width.max() and len(width) <= 2**14 // width[0]  # one chunk at the default budget
        assert (lo == 0).any() and (hi == self.N).any() and (lo > 0).any() and (hi < self.N).any()
        assert ((lo > 0) & (hi == self.N)).any()
        # Each row draws at 0, at 1 - 2**-53, at 1, at the top of its CDF at two columns and at random.  u = 1
        # targets the row's total, so its draw reads the last column of the row's own slice of a shared chunk.
        cdf = whole_rows_cdf(lo, np.full(len(self.P), self.N), self.P, width)
        rng = np.random.default_rng(27)
        u = [np.r_[0.0, 1.0 - 2.0**-53, 1.0, c[[0, (w - 1) // 2]] / c[w - 1], rng.random(4)] for c, w in zip(cdf, width)]
        n, p, u = np.full(9 * len(self.P), self.N), np.repeat(self.P, 9), np.concatenate(u)
        monkeypatch.setattr(rng_module, "_BUDGET", budget)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = binomial(self.N, p, u)
        assert draws.tolist() == binomial_whole_rows(n, p, u).tolist()
        assert ((np.repeat(lo, 9) <= draws) & (draws <= np.repeat(hi, 9))).all()


class TestDeriveSeed:
    def test_distinct_streams(self):
        seeds = {derive_seed(1234, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert derive_seed(1234, 0) != 1234

    def test_multi_index_fold(self):
        assert derive_seed(5, 1, 2) == derive_seed(derive_seed(5, 1), 2)
        assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)

    def test_matches_reference(self):
        for seed in EDGE_SEEDS:
            for indices in ((), (0,), (3, 1), (2**64 - 1, 7, 2**63), (-1, 5)):
                got = derive_seed(seed, *indices)
                assert isinstance(got, int)
                assert got == derive_seed_reference(seed, *indices)

    def test_broadcast_shapes(self):
        seeds = np.array([0, 2**63 + 1, MASK64], dtype=np.uint64)[:, None, None]
        got = derive_seed(seeds, np.arange(4)[None, :, None], np.arange(2))
        assert got.shape == (3, 4, 2) and got.dtype == np.uint64
        for (a, b, c), value in np.ndenumerate(got):
            assert int(value) == derive_seed_reference(int(seeds[a, 0, 0]), b, c)
        assert derive_seed(-3, np.arange(5)).tolist() == [derive_seed_reference(-3, i) for i in range(5)]
