"""Deterministic pseudo-randomness for the simulator.

Everything random in this package flows through SplitMix64 so that a 64-bit
seed pins the full output bit-for-bit across runs and platforms.  The
generator is counter-based: word i of the stream seeded with s is
mix64(s + i*GOLDEN), so any word of any stream is computed directly, and
whole arrays of seeds are drawn from at once.  Counts are drawn by exact
inverse-CDF sampling; every draw consumes a fixed number of words regardless
of outcome, so derived streams never slip.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def _uint64(x) -> np.ndarray:
    """``x`` as a uint64 array, wrapped modulo 2**64; Python ints may have any size."""
    if isinstance(x, int):
        x &= MASK64
    return np.asarray(x).astype(np.uint64, copy=False)


def mix64(z) -> np.ndarray:
    """SplitMix64 finalizer (Steele, Lea & Flood 2014), elementwise in uint64."""
    z = _uint64(z)
    shape = z.shape
    # On a 1-d array the products wrap silently; on numpy scalars they would warn.
    z = z.reshape(-1)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return (z ^ (z >> np.uint64(31))).reshape(shape)


def derive_seed(seed, *indices):
    """Fold task indices into a seed, giving independent per-task streams.

    Seed and indices broadcast against each other; all-scalar arguments give
    an int.
    """
    h = _uint64(seed)
    for ix in indices:
        h = mix64((h + np.uint64(GOLDEN)) ^ mix64(ix))
    return int(h) if h.ndim == 0 else h


def _unit(words: np.ndarray) -> np.ndarray:
    """Uniform floats in [0, 1) from the top 53 bits of each word."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


class SplitMix64:
    """SplitMix64 stream with batch output through numpy uint64 arithmetic.

    Output i is mix64(seed + (i+1)*GOLDEN), so batched and one-at-a-time use
    produce identical streams.
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
        z = mix64(np.uint64(self._state) + idx * np.uint64(GOLDEN))
        return int(z[0]) if n is None else z

    def random(self, n: int | None = None) -> float | np.ndarray:
        """Uniform floats in [0, 1) from the top 53 bits of each word."""
        u = _unit(self.next_uint64(1 if n is None else n))
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


def binomial(n: int, p: float, u: float) -> int:
    """The Binomial(n, p) draw at uniform ``u`` in [0, 1), by inverse CDF.

    The probability mass function is accumulated over a window of +-60
    standard deviations (plus 10) around the mean, where the mass outside is
    below 1e-40, and the uniform, scaled by the table's total mass, is
    located in the cumulative table.  The scaling normalises the table, so
    every uniform lands inside the window, and it cancels the rounding error
    of the log-pmf's anchor term, which scales the whole table (the total
    mass is off by 3.6e-6 at n = 1e9, p = 0.01).  The normalised table is
    within about 1e-12 of the exact CDF up to n = 1e9, so the draw is the
    exact inverse CDF except for a uniform that close to a CDF value.  The
    cost is O(sigma), not O(n).
    """
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
    return lo + int(np.searchsorted(cdf, u * cdf[-1], side="left"))


def multinomial(seeds, n: int, pvals) -> np.ndarray:
    """One Multinomial(n, pvals) draw per seed, as sequential conditional binomials.

    ``pvals`` holds the category probabilities on its last axis and its other
    axes broadcast against ``seeds``; the counts have the broadcast shape
    followed by the category axis, and each draw sums to n exactly.  Binomial
    j of a draw uses word j+1 of SplitMix64(seed) whatever the outcome.
    """
    p = np.asarray(pvals, dtype=np.float64)
    if p.ndim < 1 or p.shape[-1] < 1:
        raise ValueError("pvals must have a nonempty last axis")
    # NaN fails every comparison below, so it is rejected here.
    if not np.isfinite(p).all():
        raise ValueError(f"pvals must be finite, got {p.tolist()!r}")
    if np.any(p < -1e-12) or np.any(np.abs(p.sum(axis=-1) - 1.0) > 1e-9):
        raise ValueError("pvals must be nonnegative and sum to 1 on the last axis")
    k = p.shape[-1]
    seeds = _uint64(seeds)
    shape = np.broadcast_shapes(seeds.shape, p.shape[:-1])
    rows = math.prod(shape)
    words = mix64(seeds[..., None] + np.arange(1, k, dtype=np.uint64) * np.uint64(GOLDEN))
    u = np.broadcast_to(_unit(words), shape + (k - 1,)).reshape(rows, k - 1)
    p = np.broadcast_to(p, shape + (k,)).reshape(rows, k)
    counts = np.empty((rows, k), dtype=np.int64)
    for row, (p_row, u_row) in enumerate(zip(p.tolist(), u.tolist())):
        remaining, tail = int(n), 1.0
        for j in range(k - 1):
            # Category j's probability given that the draw is not in 0..j-1.
            cond = 0.0 if tail <= 0.0 else min(max(p_row[j] / tail, 0.0), 1.0)
            counts[row, j] = drawn = binomial(remaining, cond, u_row[j])
            remaining -= drawn
            tail -= p_row[j]
        counts[row, -1] = remaining
    return counts.reshape(shape + (k,))
