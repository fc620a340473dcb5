"""Deterministic pseudo-randomness for the simulator.

Everything random flows through the counter-based SplitMix64 stream of
``words``, a pure function of seed and word index, so a 64-bit seed pins every
output bit-for-bit and whole arrays of seeds are drawn from at once.  Counts
are drawn by inverse CDF on Bernstein-bounded windows; every draw consumes a
fixed number of words whatever its outcome, so derived streams never slip.
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


def words(seed, first: int, count: int) -> np.ndarray:
    """Words first+1 .. first+count of the stream seeded with ``seed``, on the last axis.

    Word i is mix64(seed + i*GOLDEN).  An array of seeds gives one stream per
    seed, its words on a new last axis.
    """
    index = np.arange(first + 1, first + count + 1, dtype=np.uint64)
    return mix64(_uint64(seed)[..., None] + index * np.uint64(GOLDEN))


# Unused by the program, which reads words by (seed, index); bench/tracing.py's TRACED_CLASS looks it up by name.
class SplitMix64:
    """SplitMix64 stream of words, drawn as numpy arrays.

    Successive calls read on along words(seed, ...) from where the last stopped.
    """

    def __init__(self, seed: int):
        self._seed, self._drawn = int(seed), 0

    def next_uint64(self, n: int) -> np.ndarray:
        """The next n words of the stream."""
        if n < 0:
            raise ValueError("batch size must be nonnegative")
        self._drawn += n
        return words(self._seed, self._drawn - n, n)


# A binomial window leaves out under 2**-64 of the mass on each side; a chunk of
# tables holds about _BUDGET entries, and a wider row is a chunk of its own.
_TAIL, _BUDGET = 64.0 * math.log(2.0), 2**14
_lgamma = np.vectorize(math.lgamma, otypes=[np.float64])


def binomial_window(n: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edges (lo, hi) with P(X < lo) and P(X > hi) below 2**-64 for X ~ Binomial(n, p), 0 < p < 1.

    X - np is a sum of n centred trials, each at most q = 1 - p above its mean, with variance
    npq.  Bernstein's inequality gives P(X >= np + t) <= exp(-t**2 / (2npq + 2qt/3)), which is
    2**-64 at t = c + sqrt(c**2 + 2L*npq) with c = Lq/3 and L = 64 ln 2.  np - X, whose trials
    are at most p above their mean, gives the lower edge the same way; X < lo means X <= np - t.
    """
    c = _TAIL / 3.0 * np.stack([p, 1.0 - p])
    t_lo, t_hi = c + np.sqrt(c * c + 2.0 * _TAIL * n * p * (1.0 - p))
    lo, hi = np.floor(n * p - t_lo) + 1.0, np.ceil(n * p + t_hi) - 1.0
    return np.clip(lo, 0, n).astype(np.int64), np.clip(hi, 0, n).astype(np.int64)


def binomial(n, p, u) -> int | np.ndarray:
    """Binomial(n, p) draws at uniforms ``u`` in [0, 1) by inverse CDF; the arguments broadcast.

    The mass function is tabulated on binomial_window(n, p).  Scaling the uniform by the table's
    total mass cancels the rounding of its math.lgamma anchor: the draw is the exact inverse CDF up to
    n = 1e9 except within about 1e-12 of a CDF value.  Equal (n, p) share one zero-padded table row.
    """
    whole = np.asarray(n, np.int64)
    if np.any(whole != n):
        raise ValueError(f"binomial needs whole-number n, got {n!r}")
    n, p, u = np.broadcast_arrays(whole, np.asarray(p, np.float64), u)
    if np.any(n < 0) or not np.all((p >= 0.0) & (p <= 1.0)):  # NaN fails too
        raise ValueError("binomial needs n >= 0 and p in [0, 1]")
    out, live = np.where(p == 1.0, n, 0), (n > 0) & (p > 0.0) & (p < 1.0)
    lo, hi = binomial_window(n[live], p[live])
    # Distinct (n, p) rows, widest first, so that a chunk's first row sets its width.
    keys, row = np.unique(np.c_[lo - hi, lo, n[live], p[live].view("i8")], axis=0, return_inverse=True)
    width, lo, rn, rp = 1 - keys[:, 0], keys[:, 1], keys[:, 2], keys[:, 3].view(np.float64)
    logit = np.log(rp) - np.log1p(-rp)
    anchor = _lgamma(rn + 1.0) - _lgamma(lo + 1.0) - _lgamma(rn - lo + 1.0) + rn * np.log1p(-rp) + lo * logit
    order, start = np.argsort(row.reshape(-1)), 0  # then each chunk's draws are a slice
    row, u, at = row.reshape(-1)[order], u[live][order], np.flatnonzero(live)[order]
    while start < len(keys):
        w = int(width[start])
        c, j = slice(start, start + max(1, _BUDGET // w)), np.arange(w)
        # Lane j holds k = lo + j and steps in by log(pmf(k) / pmf(k - 1)); lanes past a row's end hold 0.
        k = np.clip(lo[c, None] + j - 1, 0, rn[c, None] - 1)
        steps = np.cumsum((np.log((rn[c, None] - k) / (k + 1.0)) + logit[c, None]) * (j > 0), axis=1)
        cdf = np.cumsum(np.exp(np.where(j < width[c, None], anchor[c, None] + steps, -np.inf)), axis=1)
        sel = slice(np.searchsorted(row, start), np.searchsorted(row, c.stop))
        r, count = row[sel] - start, 0
        for bit in reversed(range(w.bit_length())):  # binary search for the count of entries below u * total
            step = count + (1 << bit)
            count = np.where(cdf[r, np.minimum(step, w) - 1] < u[sel] * cdf[r, -1], step, count)
        out.flat[at[sel]] = lo[row[sel]] + count
        start = c.stop
    return int(out) if out.ndim == 0 else out


def multinomial(seeds, n: int, pvals) -> np.ndarray:
    """One Multinomial(n, pvals) draw per seed, as sequential conditional binomials.

    ``pvals`` holds the category probabilities on its last axis and its other
    axes broadcast against ``seeds``; the counts have the broadcast shape
    followed by the category axis, and each draw sums to n exactly.  Each stage
    is one binomial call; binomial j of a draw reads word j+1 of SplitMix64(seed).
    """
    if int(n) != n:
        raise ValueError(f"multinomial needs a whole number of trials, got {n!r}")
    p = np.asarray(pvals, dtype=np.float64)
    # NaN fails every comparison, so it is caught by isfinite; an empty last axis sums to 0.
    if p.ndim < 1 or not np.isfinite(p).all() or np.any(p < -1e-12) or np.any(np.abs(p.sum(-1) - 1) > 1e-9):
        raise ValueError("pvals must be finite and nonnegative, and sum to 1 on the last axis")
    u, tail = _unit(words(seeds, 0, p.shape[-1] - 1)), np.ones(p.shape[:-1])
    counts, remaining = [], np.full(np.broadcast_shapes(u.shape[:-1], tail.shape), int(n), dtype=np.int64)
    for j in range(p.shape[-1] - 1):
        # Category j's probability given that the draw is not in 0..j-1.
        cond = np.clip(np.divide(p[..., j], tail, out=np.zeros(tail.shape), where=tail > 0.0), 0.0, 1.0)
        counts.append(binomial(remaining, cond, u[..., j]))
        remaining = remaining - counts[-1]
        tail = tail - p[..., j]
    return np.stack(counts + [remaining], axis=-1)
