"""Deterministic pseudo-randomness for the simulator.

Everything random flows through the counter-based SplitMix64 stream of
``words``, a pure function of seed and word index, so a 64-bit seed pins every
output bit-for-bit and whole arrays of seeds are drawn from at once.  Counts
of one number of trials are drawn by inverse CDF on Bernstein-bounded windows,
one table row per distinct probability; every draw consumes a fixed number of
words whatever its outcome, so derived streams never slip.
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


# A binomial window leaves out under 2**-64 of the mass on each side.  A table is built in blocks of
# about _BUDGET entries: a chunk of narrow rows, or _BUDGET columns of one wider row at a time.
_TAIL, _BUDGET = 64.0 * math.log(2.0), 2**14
# Counts up to 2**53 are exact floats, so k, n - k and k + 1 are too.
_MAX_N = 2**53
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


def _cdf_block(buffers, top, bottom, logit, anchor, start, stop, step=0.0, cdf=0.0):
    """Columns start..stop-1 of the CDF table of rows (top, bottom, logit, anchor), and their step sums.

    Each row argument is a column of shape (rows, 1), with top = n - lo and bottom = lo + 1 as floats.
    Column j holds lo + j and steps in from k = lo + j - 1 by log(pmf(k + 1) / pmf(k)); column 0 holds
    the anchor, log pmf(lo).  Columns past a row's width hold unspecified values (NaN past n, or the
    mass above the window), so callers read a row only inside its width and silence the divide and
    invalid errors there.  ``step`` and ``cdf`` are the sums at column start - 1: a row built block by
    block repeats the sequential cumsums of the whole row bit for bit.  Both results are views into the
    two rows of ``buffers``, each at least rows * (stop - start) entries long, valid until the next call.
    """
    km = np.arange(start - 1, stop - 1, dtype=np.float64)  # k - lo; exact, as are k + 1 and n - k, for n <= 2**53
    t, steps = (b[: len(top) * len(km)].reshape(len(top), len(km)) for b in buffers)
    np.divide(np.subtract(top, km, out=t), np.add(bottom, km, out=steps), out=t)
    np.log(t, out=t)
    t += logit
    if start == 0:  # column 0 takes no step
        t[:, 0] = 0.0
    t[:, 0] += step
    np.cumsum(t, axis=1, out=steps)
    np.add(steps, anchor, out=t)
    np.exp(t, out=t)
    t[:, 0] += cdf
    return np.cumsum(t, axis=1, out=t), steps


def binomial(n: int, p, u) -> int | np.ndarray:
    """Binomial(n, p) draws at uniforms ``u`` in [0, 1) by inverse CDF, for one whole n; p and u broadcast.

    The mass function is tabulated on binomial_window(n, p).  Scaling the uniform by the table's total
    mass cancels the rounding of its math.lgamma anchor: the draw is the exact inverse CDF except within
    the table's CDF error of a CDF value: against scipy.stats.binom.cdf, at most 1.2e-12 at n = 1e9 and
    3.7e-11 at n = 1e12, expsim.MAX_PAIRS.  The table rows come from p alone, so the axes that only u
    has add draws, not rows: one np.unique of the live p finds the distinct rows, and each gets one
    window.  Narrow rows are built in chunks as wide as their widest row, and np.searchsorted counts
    the entries below u * total among the columns inside each draw's row.  A row wider than _BUDGET is
    built in blocks of _BUDGET columns, which keep only the step and CDF sums at every mark of
    _BUDGET // 16 columns; then the marks that hold a draw are built again from their sums and searched
    the same way.  The draws are those of the whole row, bit for bit.  n may be at most 2**53.  u = 1
    draws the row's top; u outside [0, 1] raises.
    """
    if np.ndim(n) or not 0 <= n <= _MAX_N or n != int(n):  # NaN and infinities fail too
        raise ValueError(f"binomial needs one whole number n with n >= 0 and n <= 2**53, got {n!r}")
    n, p, u = int(n), np.asarray(p, np.float64), np.asarray(u, np.float64)
    shape = np.broadcast_shapes(p.shape, u.shape)  # the draws' shape; axes that only u has add draws, not rows
    if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN fails too
        raise ValueError("binomial needs p in [0, 1]")
    if not np.all((u >= 0.0) & (u <= 1.0)):  # NaN fails too
        raise ValueError("binomial needs uniforms u in [0, 1]")
    out, live = np.broadcast_to(np.where(p == 1.0, n, 0), shape).flatten(), (n > 0) & (p > 0.0) & (p < 1.0)
    rows, inverse = np.unique(p[live], return_inverse=True)  # the distinct p, one table row each
    lo, hi = binomial_window(n, rows)
    order = np.argsort(lo - hi, kind="stable")  # widest first, so that a chunk's first row sets its width
    key = np.full(p.shape, -1, np.min_scalar_type(-1 - len(rows)))
    key[live] = np.argsort(order)[inverse]
    # Each draw's key is the row of its p, or -1 off the table, in the narrowest type to hold -1 - len(rows), which
    # numpy radix-sorts below 2**15 rows.  The live draws, stably sorted by row, put each chunk's draws in a slice.
    key = np.broadcast_to(key, shape).ravel()
    at = np.argsort(key, kind="stable")[np.count_nonzero(key < 0) :]
    row, u, start, count = key[at], np.broadcast_to(u, shape).ravel()[at], 0, np.empty_like(at)
    bounds = np.searchsorted(row, np.arange(len(rows) + 1)).tolist()  # row r's draws are bounds[r]:bounds[r + 1]
    width, lo, rp = (hi - lo + 1)[order], lo[order], rows[order]
    logit = np.log(rp) - np.log1p(-rp)
    top, bottom, buffers = float(n) - lo, lo + 1.0, np.empty((2, _BUDGET))
    anchor = math.lgamma(n + 1.0) - _lgamma(bottom) - _lgamma(top + 1.0) + n * np.log1p(-rp) + lo * logit
    with np.errstate(divide="ignore", invalid="ignore"):  # column 0 at lo = 0, and columns past a row's width
        while start < len(rows):
            w = int(width[start])
            c = slice(start, min(start + max(1, _BUDGET // w), len(rows)))
            sel = slice(bounds[start], bounds[c.stop])  # the chunk's draws
            args = buffers, top[c, None], bottom[c, None], logit[c, None], anchor[c, None]
            if w > _BUDGET:  # one row: pass 1 keeps the sums at every mark, pass 2 rebuilds the marks that hold a draw
                mark = max(1, _BUDGET // 16)
                edges, per = np.append(np.arange(0, w, mark), w), _BUDGET // mark
                step_at, cdf_at = np.zeros(len(edges)), np.zeros(len(edges))  # the sums at column edges[i] - 1
                for i in range(0, len(edges) - 1, per):
                    e = edges[i : i + per + 1]  # the block's marks and its end
                    cdf, steps = _cdf_block(*args, e[0], e[-1], step_at[i], cdf_at[i])
                    last = e[1:] - e[0] - 1  # each mark's last column in the block
                    step_at[i + 1 : i + len(e)], cdf_at[i + 1 : i + len(e)] = steps[0, last], cdf[0, last]
                target = u[sel] * cdf_at[-1]
                unit = np.searchsorted(cdf_at[1:], target)  # the count of marks that end below each target
                count[sel] = edges[unit]  # count[sel] is a view, so the += below adds in place
                for i in np.unique(unit):
                    cdf, _ = _cdf_block(*args, edges[i], edges[i + 1], step_at[i], cdf_at[i])
                    count[sel][unit == i] += np.searchsorted(cdf[0], target[unit == i])
            else:  # each draw counts the entries below u * total among its own row's columns
                cdf = _cdf_block(*args, 0, w)[0]
                u[sel] *= cdf[row[sel] - start, width[row[sel]] - 1]  # u * total, each draw's target
                for r, row_cdf in enumerate(cdf, start):
                    count[bounds[r] : bounds[r + 1]] = np.searchsorted(row_cdf[: width[r]], u[bounds[r] : bounds[r + 1]])
            start = c.stop
    out[at] = lo[row] + count
    return int(out[0]) if not shape else out.reshape(shape)

