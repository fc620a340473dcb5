"""Deterministic pseudo-randomness for the simulator.

Everything random in this package flows through SplitMix64 so that a 64-bit
seed pins the full output bit-for-bit across runs and platforms.  Counts are
drawn by exact inverse-CDF sampling; every draw consumes a fixed number of
generator steps regardless of outcome, so derived streams never slip.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 finalizer (Steele, Lea & Flood 2014) on a 64-bit integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def derive_seed(seed: int, *indices: int) -> int:
    """Fold task indices into a seed, giving independent per-task streams."""
    h = seed & MASK64
    for ix in indices:
        h = mix64((h + GOLDEN) ^ mix64(ix & MASK64))
    return h


class SplitMix64:
    """SplitMix64 stream with batch output through numpy uint64 arithmetic.

    The generator is counter-based: output i is mix64(seed + (i+1)*GOLDEN),
    so batched and one-at-a-time use produce identical streams.
    """

    def __init__(self, seed: int):
        self._state = int(seed) & MASK64
        self._drawn = 0

    def next_uint64(self, n: int | None = None) -> int | np.ndarray:
        count = 1 if n is None else int(n)
        if count < 0:
            raise ValueError("batch size must be nonnegative")
        idx = np.arange(self._drawn + 1, self._drawn + count + 1, dtype=np.uint64)
        self._drawn += count
        z = np.uint64(self._state) + idx * np.uint64(GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
        return int(z[0]) if n is None else z

    def random(self, n: int | None = None) -> float | np.ndarray:
        """Uniform floats in [0, 1) from the top 53 bits of each word."""
        raw = self.next_uint64(1 if n is None else n)
        u = (np.asarray(raw, dtype=np.uint64) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return float(u[0]) if n is None else u

    def standard_normal(self, n: int | None = None) -> float | np.ndarray:
        """Standard normals via Box-Muller; consumes 2*ceil(n/2) words."""
        count = 1 if n is None else int(n)
        pairs = (count + 1) // 2
        # Shift into (0, 1] so the log never sees zero.
        words = self.next_uint64(2 * pairs)
        u = ((words >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u[:pairs]))
        t = (2.0 * math.pi) * u[pairs:]
        z = np.concatenate([r * np.cos(t), r * np.sin(t)])[:count]
        return float(z[0]) if n is None else z

    def binomial(self, n: int, p: float) -> int:
        """One Binomial(n, p) draw by inverse-CDF; consumes one word.

        The probability mass function is accumulated over a window of +-60
        standard deviations around the mean (the mass outside is below
        1e-300), then the uniform is located in the cumulative table.  The
        draw is exact up to float rounding of the cumulative sums, and the
        cost is O(sigma) rather than O(n).
        """
        u = self.random()
        n = int(n)
        if n < 0:
            raise ValueError("number of trials must be nonnegative")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"binomial probability {p!r} outside [0, 1]")
        if n == 0 or p == 0.0:
            return 0
        if p == 1.0:
            return n
        mean = n * p
        sigma = math.sqrt(n * p * (1.0 - p))
        lo = max(0, int(mean - 60.0 * sigma) - 10)
        hi = min(n, int(mean + 60.0 * sigma) + 10)
        anchor = (
            math.lgamma(n + 1.0)
            - math.lgamma(lo + 1.0)
            - math.lgamma(n - lo + 1.0)
            + lo * math.log(p)
            + (n - lo) * math.log1p(-p)
        )
        if hi > lo:
            k = np.arange(lo, hi, dtype=np.float64)
            steps = np.log((n - k) / (k + 1.0)) + (math.log(p) - math.log1p(-p))
            log_pmf = anchor + np.concatenate([[0.0], np.cumsum(steps)])
        else:
            log_pmf = np.array([anchor])
        cdf = np.cumsum(np.exp(log_pmf))
        idx = int(np.searchsorted(cdf, u, side="left"))
        return min(lo + idx, hi)

    def multinomial(self, n: int, pvals) -> np.ndarray:
        """Multinomial counts as sequential conditional binomials.

        Consumes exactly len(pvals) - 1 words whatever the outcome; the counts
        always sum to n exactly.
        """
        p = np.asarray(pvals, dtype=np.float64)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("pvals must be a nonempty 1-d sequence")
        # NaN fails every comparison below, so it is rejected here.
        if not np.isfinite(p).all():
            raise ValueError(f"pvals must be finite, got {p.tolist()!r}")
        if np.any(p < -1e-12) or abs(float(p.sum()) - 1.0) > 1e-9:
            raise ValueError("pvals must be nonnegative and sum to 1")
        counts = np.zeros(p.size, dtype=np.int64)
        remaining = int(n)
        tail = 1.0
        for j in range(p.size - 1):
            cond = 0.0 if tail <= 0.0 else min(max(float(p[j]) / tail, 0.0), 1.0)
            counts[j] = self.binomial(remaining, cond)
            remaining -= int(counts[j])
            tail -= float(p[j])
        counts[-1] = remaining
        return counts
