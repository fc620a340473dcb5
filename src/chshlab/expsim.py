"""Monte Carlo simulation of the coincidence-counting measurement of S.

The source emits the singlet; a half-wave plate on arm b rotates photon b by
xi - pi/2, which prepares the mixing-angle state of chsh.state_phi (the tests
check that equivalence).  That state is maximally entangled, so the
same-outcome probability p_pp + p_mm is cos(phi)**2 with phi = (alpha -
beta)/2 + xi.  A NoiseModel's Werner admixture and accidental floor scale its
contrast, and its analyzer offsets shift phi.  The simulator computes one
probability per setting, draws the same-outcome count as one binomial of it,
and estimates S from the counts' correlations with binomial error bars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chsh import _combine, _pairs, _scalar_or_array, _settings, _whole, analyzer_angle, xi_param
from .rng import _unit, binomial, derive_seed, words

# Pairs per setting above this are refused.  The cap bounds time and float exactness, not memory,
# which is flat in pairs: each setting's binomial walks its whole window, about 1e7 entries at 1e12
# pairs, and counts stay far below 2**53, where binomial's floats stop being exact.
MAX_PAIRS = 10**12


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing visibility, fixed analyzer offsets, and accidental floor.

    visibility:         weight of the pure state in the Werner mixture.
    analyzer_offset_*:  systematic mis-set of each analyzer, radians.
    accidental_fraction: share of coincidences replaced by a uniform floor.

    Each field names a physical cause, but a run depends only on eta = (1 -
    accidental_fraction) * visibility and xi_eff = xi + (analyzer_offset_a -
    analyzer_offset_b)/2.  The defaults mimic the slightly compressed extrema
    of real coincidence data; they are not calibrated constants.
    """

    visibility: float = 0.96
    analyzer_offset_a: float = 0.0
    analyzer_offset_b: float = 0.0
    accidental_fraction: float = 0.005

    def __post_init__(self):
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility {self.visibility!r} outside [0, 1]")
        if not 0.0 <= self.accidental_fraction < 1.0:
            raise ValueError(f"accidental_fraction {self.accidental_fraction!r} outside [0, 1)")
        for name in ("analyzer_offset_a", "analyzer_offset_b"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @classmethod
    def ideal(cls) -> "NoiseModel":
        return cls(visibility=1.0, accidental_fraction=0.0)


@dataclass(frozen=True)
class SEstimate:
    """Estimated S with its standard error, and the coincidence counts.

    ``s_hat`` and ``std_err`` are floats for scalar inputs and arrays of the
    broadcast input shape otherwise; ``counts[..., setting, :]`` holds each
    setting's same- and different-outcome counts (N_pp + N_mm, N_pm + N_mp),
    drawn from one probability per setting.
    """

    s_hat: float
    std_err: float
    counts: np.ndarray


def setting_probabilities(alpha, beta, xi, noise: NoiseModel) -> np.ndarray:
    """The noisy same-outcome probability p_pp + p_mm, one per analyzer pair.

    The pure state gives cos(phi)**2 at phi = (a - b)/2 + xi, from the reduced
    offset analyzer angles a and b and the reduced xi, so settings with equal
    phi get equal values.  The Werner admixture and the accidental floor make
    it (1 - f) * (v * cos(phi)**2 + (1 - v) / 2) + f / 2 = 1/2 + eta/2 * cos(2 phi)
    with eta = (1 - f) * v; eta/2 * cos rounds to at most 1/2, so p <= 1.
    Broadcasts over arrays of alpha, beta and xi.
    """
    a, b = analyzer_angle(alpha + noise.analyzer_offset_a), analyzer_angle(beta + noise.analyzer_offset_b)
    eta = (1.0 - noise.accidental_fraction) * noise.visibility
    return 0.5 + 0.5 * eta * np.cos((a - b) + 2 * xi_param(xi))


def estimate_s(theta, xi, pairs: int, noise: NoiseModel, seed) -> SEstimate:
    """Simulate the four settings and combine the counts into an S estimate.

    Broadcasts over arrays of theta, xi and seed.  Setting k draws its
    same-outcome count N_same from one probability per setting, at word 1 of
    derive_seed(seed, k), so settings and replications are independent
    streams.  E = (2 N_same - pairs)/pairs has the binomial variance
    (1 - E^2)/pairs, and the four settings add in quadrature.
    pairs must be a whole number in [2, MAX_PAIRS]; the checks run before anything is allocated.
    """
    pairs = _whole(pairs, "pairs", 2, MAX_PAIRS)
    # The settings on the last axis, in S order.
    angles = zip(*_pairs(*_settings(theta)))
    alphas, betas = (np.stack(np.broadcast_arrays(*side), axis=-1) for side in angles)
    # Replications share the (theta, xi) table: the seeds' axes are not in it.
    p_same = setting_probabilities(alphas, betas, np.asarray(xi)[..., None], noise)
    # derive_seed(seed) wraps any int seed into uint64 before the setting axis is added.
    seeds = derive_seed(np.expand_dims(derive_seed(seed), -1), np.arange(alphas.shape[-1]))
    same = binomial(pairs, p_same, _unit(words(seeds, 0, 1))[..., 0])
    # Each setting's correlation, settings first.
    e = np.moveaxis((2 * same - pairs) / pairs, -1, 0)
    # The variances add in quadrature, in setting order; no term is negative, as each |e_k| <= 1 exactly.
    std_err = np.sqrt(sum((1.0 - e_k * e_k) / pairs for e_k in e))
    s_hat, counts = _combine(e), np.stack([same, pairs - same], axis=-1)
    return SEstimate(s_hat=_scalar_or_array(s_hat), std_err=_scalar_or_array(std_err), counts=counts)
