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

from .chsh import _probabilities, analyzer_angle, settings_quartet, theta_param, xi_param
from .rng import SplitMix64, derive_seed


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
class CountsRecord:
    """Coincidence counts for one analyzer pair; counts sum to pairs_total."""

    n_pp: int
    n_pm: int
    n_mp: int
    n_mm: int
    alpha: float
    beta: float
    pairs_total: int

    def __post_init__(self):
        counts = (self.n_pp, self.n_pm, self.n_mp, self.n_mm)
        if any(c < 0 for c in counts):
            raise ValueError("counts must be nonnegative")
        if sum(counts) != self.pairs_total:
            raise ValueError(
                f"counts sum to {sum(counts)}, expected pairs_total = {self.pairs_total}"
            )

    def correlation(self) -> float:
        """Count-normalized correlation (n_pp + n_mm - n_pm - n_mp) / total."""
        return (self.n_pp + self.n_mm - self.n_pm - self.n_mp) / self.pairs_total


@dataclass(frozen=True)
class SEstimate:
    """Estimated S with its standard error and the per-setting counts."""

    s_hat: float
    std_err: float
    counts: tuple[CountsRecord, ...]

    def __post_init__(self):
        if self.std_err < 0.0:
            raise ValueError("std_err must be nonnegative")


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


def estimate_s(
    theta: float,
    xi: float,
    pairs_per_setting: int,
    noise: NoiseModel,
    seed: int,
) -> SEstimate:
    """Simulate the four settings and combine the counts into an S estimate.

    Each setting consumes an independent derived seed, so settings could run
    concurrently without changing the result.  Per-setting variance is the
    multinomial estimate (1 - E^2)/pairs and the four settings add in
    quadrature.
    """
    pairs = int(pairs_per_setting)
    if pairs < 2:
        raise ValueError(f"pairs_per_setting must be at least 2, got {pairs_per_setting!r}")
    q = settings_quartet(theta_param(theta))
    alphas = (q.a1, q.a2, q.a1, q.a2)
    betas = (q.b1, q.b1, q.b2, q.b2)
    probs = setting_probabilities(np.array(alphas), np.array(betas), xi, noise)
    s_hat = 0.0
    variance = 0.0
    records = []
    for index, sign in enumerate((1.0, 1.0, 1.0, -1.0)):
        counts = SplitMix64(derive_seed(seed, index)).multinomial(pairs, probs[index])
        rec = CountsRecord(
            *(int(c) for c in counts), alpha=alphas[index], beta=betas[index], pairs_total=pairs
        )
        e_hat = rec.correlation()
        s_hat += sign * e_hat
        variance += (1.0 - e_hat * e_hat) / pairs
        records.append(rec)
    return SEstimate(s_hat=s_hat, std_err=math.sqrt(max(variance, 0.0)), counts=tuple(records))
