"""Monte Carlo simulation of the coincidence-counting measurement of S.

The source emits the singlet; a half-wave plate on arm b rotates photon b by
xi - pi/2, which prepares the mixing-angle state of chsh.state_phi (the tests
check that equivalence), so the outcome probabilities come from the chsh
kernel.  Imperfections are modeled as a depolarizing (Werner) admixture, fixed
analyzer offsets, and a uniform accidental-coincidence floor; the admixture
and the floor are affine in the pure-state probabilities, and the offsets
shift the analyzer angles.  Counts per setting are multinomial draws and S is
estimated from count-normalized correlations with multinomial error bars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chsh import (
    _analyzers, _combine, _parity, _probabilities, _scalar_or_array, _settings, analyzer_angle, xi_param,
)
from .rng import derive_seed, multinomial

# Pairs per setting above this are refused: the widest binomial table row grows
# as sqrt(pairs), and at 1e15 pairs one row alone needs gigabytes.
MAX_PAIRS = 10**12


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing visibility, fixed analyzer offsets, and accidental floor.

    visibility:         weight of the pure state in the Werner mixture.
    analyzer_offset_*:  systematic mis-set of each analyzer, radians.
    accidental_fraction: share of coincidences replaced by a uniform floor.

    Defaults reproduce the slight compression of measured extrema relative to
    the ideal bounds seen in real coincidence data; they are simulation
    defaults, not calibrated constants.
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
    broadcast input shape otherwise; ``counts[..., setting, outcome]`` holds
    the (n_pp, n_pm, n_mp, n_mm) counts of each of the four settings.
    """

    s_hat: float
    std_err: float
    counts: np.ndarray


def setting_probabilities(alpha, beta, xi, noise: NoiseModel) -> np.ndarray:
    """Outcome probabilities (p_pp, p_pm, p_mp, p_mm) on the last axis, one row per analyzer pair.

    The pure-state probabilities come from the chsh kernel at the offset
    analyzer angles; the Werner admixture and the accidental floor are affine
    in them: p = (1 - f) * (v * p_pure + (1 - v) / 4) + f / 4.  Broadcasts
    over arrays of alpha, beta and xi.
    """
    pure = np.stack(
        _probabilities(
            analyzer_angle(alpha + noise.analyzer_offset_a),
            analyzer_angle(beta + noise.analyzer_offset_b),
            xi_param(xi),
        ),
        axis=-1,
    )
    v = noise.visibility
    f = noise.accidental_fraction
    return (1.0 - f) * (v * pure + (1.0 - v) * 0.25) + 0.25 * f


def estimate_s(theta, xi, pairs: int, noise: NoiseModel, seed) -> SEstimate:
    """Simulate the four settings and combine the counts into an S estimate.

    Broadcasts over arrays of theta, xi and seed.  Setting k draws from the
    derived seed derive_seed(seed, k), so settings and replications are
    independent streams.  Per-setting variance is the multinomial estimate
    (1 - E^2)/pairs and the four settings add in quadrature.  pairs must be a
    whole number in [2, MAX_PAIRS]; the checks run before anything is allocated.
    """
    if int(pairs) != pairs:
        raise ValueError(f"pairs must be a whole number, got {pairs!r}")
    pairs = int(pairs)
    if pairs < 2:
        raise ValueError(f"pairs must be at least 2, got {pairs!r}")
    if pairs > MAX_PAIRS:
        raise ValueError(f"pairs must be at most {MAX_PAIRS}, got {pairs!r}")
    # The settings on the last axis, in S order.
    angles = zip(*_settings(*_analyzers(theta)))
    alphas, betas = (np.stack(np.broadcast_arrays(*side), axis=-1) for side in angles)
    # Replications share the (theta, xi) table: the seeds' axes are not in it.
    probs = setting_probabilities(alphas, betas, np.asarray(xi)[..., None], noise)
    # derive_seed(seed) wraps any int seed into uint64 before the setting axis is added.
    seeds = derive_seed(np.expand_dims(derive_seed(seed), -1), np.arange(alphas.shape[-1]))
    counts = multinomial(seeds, pairs, probs)
    # Each setting's correlation, settings first.
    e = np.moveaxis(_parity(*np.moveaxis(counts, -1, 0)) / pairs, -1, 0)
    # The variances add in quadrature, in setting order; no term is negative, as each |e_k| <= 1 exactly.
    std_err = np.sqrt(sum((1.0 - e_k * e_k) / pairs for e_k in e))
    s_hat = _combine(e)
    return SEstimate(s_hat=_scalar_or_array(s_hat), std_err=_scalar_or_array(std_err), counts=counts)
