"""Monte Carlo simulation of the coincidence-counting measurement of S.

The source emits the singlet; a half-wave plate on arm b rotates photon b by
xi - pi/2 to prepare the mixing-angle state.  Imperfections are modeled as a
depolarizing (Werner) admixture, fixed analyzer offsets, and a uniform
accidental-coincidence floor.  Counts per setting are multinomial draws and S
is estimated from count-normalized correlations with multinomial error bars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chsh import (
    CoincidenceProbabilities,
    analyzer_angle,
    analyzer_basis,
    settings_quartet,
    theta_param,
    xi_param,
)
from .linalg import (
    IDENTITY_2,
    IDENTITY_4,
    projector,
    require_normalized,
    tensor,
)
from .rng import SplitMix64, derive_seed

_SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


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


def prepare_via_hwp(xi: float) -> np.ndarray:
    """Rotate photon b of the singlet by xi - pi/2, yielding the mixing-angle state.

    The rotation maps |H> -> cos(chi)|H> + sin(chi)|V> and
    |V> -> -sin(chi)|H> + cos(chi)|V> with chi = xi - pi/2.
    """
    chi = xi_param(xi) - 0.5 * math.pi
    c, s = math.cos(chi), math.sin(chi)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    return tensor(IDENTITY_2, rot) @ _SINGLET


def noisy_state(psi: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """Werner mixture visibility * |psi><psi| + (1 - visibility) * I/4.

    A mixture of a normalized ket's projector and I/4 with weights in [0, 1]
    is a density matrix by construction, so only the ket is checked.
    """
    psi = np.asarray(psi, dtype=complex)
    require_normalized(psi)
    return noise.visibility * projector(psi) + (1.0 - noise.visibility) * 0.25 * IDENTITY_4


def setting_probabilities(
    rho: np.ndarray, alpha: float, beta: float, noise: NoiseModel
) -> CoincidenceProbabilities:
    """Outcome probabilities for one analyzer pair including offsets and accidentals."""
    rho = np.asarray(rho, dtype=complex)
    kets_a = analyzer_basis(analyzer_angle(alpha + noise.analyzer_offset_a))
    kets_b = analyzer_basis(analyzer_angle(beta + noise.analyzer_offset_b))
    f = noise.accidental_fraction
    probs = []
    for ka in kets_a:
        for kb in kets_b:
            k = np.kron(ka, kb).astype(complex)
            p = float(np.real(np.vdot(k, rho @ k)))
            p = max(p, 0.0)  # clip float-rounding negatives on pure states
            probs.append((1.0 - f) * p + 0.25 * f)
    return CoincidenceProbabilities(p_pp=probs[0], p_pm=probs[1], p_mp=probs[2], p_mm=probs[3])


def run_setting(
    rho: np.ndarray,
    alpha: float,
    beta: float,
    pairs: int,
    noise: NoiseModel,
    seed: int,
) -> CountsRecord:
    """Draw multinomial coincidence counts for `pairs` emitted photon pairs."""
    total = int(pairs)
    if total < 1:
        raise ValueError(f"pairs must be at least 1, got {pairs!r}")
    probs = setting_probabilities(rho, alpha, beta, noise)
    counts = SplitMix64(seed).multinomial(total, probs.as_tuple())
    return CountsRecord(
        n_pp=int(counts[0]),
        n_pm=int(counts[1]),
        n_mp=int(counts[2]),
        n_mm=int(counts[3]),
        alpha=analyzer_angle(alpha),
        beta=analyzer_angle(beta),
        pairs_total=total,
    )


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
    if int(pairs_per_setting) < 2:
        raise ValueError(f"pairs_per_setting must be at least 2, got {pairs_per_setting!r}")
    q = settings_quartet(theta_param(theta))
    rho = noisy_state(prepare_via_hwp(xi_param(xi)), noise)
    plan = (
        (q.a1, q.b1, 1.0),
        (q.a2, q.b1, 1.0),
        (q.a1, q.b2, 1.0),
        (q.a2, q.b2, -1.0),
    )
    s_hat = 0.0
    variance = 0.0
    records = []
    for index, (a, b, sign) in enumerate(plan):
        rec = run_setting(rho, a, b, pairs_per_setting, noise, derive_seed(seed, index))
        e_hat = rec.correlation()
        s_hat += sign * e_hat
        variance += (1.0 - e_hat * e_hat) / rec.pairs_total
        records.append(rec)
    return SEstimate(s_hat=s_hat, std_err=math.sqrt(max(variance, 0.0)), counts=tuple(records))
