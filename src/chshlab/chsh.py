"""CHSH correlations for polarization analyzers on a one-parameter setting family.

Analyzers measure O(alpha) = cos(alpha) Z + sin(alpha) X; the four settings are
tied to a single angle theta as (2*theta, 0 | theta, 3*theta), and the source
states interpolate between the phi+ Bell state and the singlet with a mixing
angle xi.  Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import PAULI_X, PAULI_Z, herm_eigenvalues, tensor
from .rng import _unit, words

TWO_PI = 2.0 * math.pi
SQRT1_2 = 1.0 / math.sqrt(2.0)

CLASSICAL_LIMIT = 2.0
CIRELSON_LIMIT = 2.0 * math.sqrt(2.0)

_HAAR_CHUNK = 2**14  # states per haar_block call (three words each) in haar_sample_s and the sample command


def _scalar_or_array(values):
    """A float for a 0-d result, the array otherwise."""
    return float(values) if values.ndim == 0 else values


def _validated(value, ok, message: str) -> np.ndarray:
    """``value`` as a float array, once ``ok`` accepts every entry."""
    v = np.asarray(value, dtype=float)
    bad = ~ok(v)
    if bad.any():
        got = value if v.ndim == 0 else float(v[bad][0])
        raise ValueError(f"{message}, got {got!r}")
    return v


def _wrapped(a, period: float):
    """Finite angles ``a`` reduced into [0, period), as _scalar_or_array gives them."""
    # Float modulo may return the modulus itself for tiny negative inputs; the
    # second modulo maps it to 0 and leaves every value below it unchanged.
    return _scalar_or_array(a % period % period)


def analyzer_angle(alpha):
    """Reduce analyzer angles into [0, 2*pi); a scalar gives a float, an array an array."""
    return _wrapped(_validated(alpha, np.isfinite, "analyzer angle must be finite"), TWO_PI)


def theta_param(theta):
    """Validate the setting parameter theta, restricted to [0, pi]; arrays entrywise."""
    # NaN fails both comparisons.
    t = _validated(theta, lambda t: (0.0 <= t) & (t <= math.pi), "theta must lie in [0, pi]")
    return _scalar_or_array(t)


def xi_param(xi):
    """Reduce the state mixing angle xi into [0, pi); S is pi-periodic in xi. Arrays entrywise."""
    return _wrapped(_validated(xi, np.isfinite, "xi must be finite"), math.pi)


def _settings(theta) -> tuple:
    """Cabello's settings (a1, a2, b1, b2) = (2 theta, 0, theta, 3 theta), reduced; broadcasts over arrays.

    a2 stays the scalar 0.0, so the kernel broadcasts its two terms from one row
    of a (theta, xi) grid instead of computing them on the whole grid.
    """
    t = theta_param(theta)
    # A multiple of a checked theta is finite, so it needs analyzer_angle's reduction but not its check.
    a1, b1, b2 = (_wrapped(np.multiply(m, t), TWO_PI) for m in (2.0, 1.0, 3.0))
    return a1, 0.0, b1, b2


def _pairs(a1, a2, b1, b2) -> tuple:
    """Per-analyzer values paired in S's term order: (a1, b1), (a2, b1), (a1, b2), (a2, b2)."""
    return (a1, b1), (a2, b1), (a1, b2), (a2, b2)


def _combine(terms):
    """S from its per-setting terms in setting order: the first three added, the last subtracted.

    Each term is added as it is produced, so the four are never all held at once.
    """
    it = iter(terms)
    s = next(it) + next(it)
    s = s + next(it)
    return s - next(it)


@dataclass(frozen=True, eq=False)
class Observable:
    """Dichotomic polarization observable."""

    matrix: np.ndarray


def observable(alpha) -> Observable:
    """O(alpha) = cos(alpha) Z + sin(alpha) X; an array of alpha gives a stack of 2x2 matrices."""
    a = analyzer_angle(alpha)
    a_col = np.asarray(a)[..., None, None]
    return Observable(matrix=np.cos(a_col) * PAULI_Z + np.sin(a_col) * PAULI_X)


def state_phi(xi: float) -> np.ndarray:
    """Source ket cos(xi)|phi+> + sin(xi)|psi-> over the (HH, HV, VH, VV) basis.

    |phi+> = (|HH> + |VV>)/sqrt2 and |psi-> = (|HV> - |VH>)/sqrt2 (singlet).
    """
    x = xi_param(xi)
    c, s = math.cos(x), math.sin(x)
    return np.array([c, s, -s, c], dtype=complex) * SQRT1_2


def _probabilities(alpha, beta, xi) -> tuple:
    """(p_pp, p_pm, p_mp, p_mm): squared overlaps of the source ket with the
    four analyzer product kets.

    The S kernel: takes angles already reduced by analyzer_angle and xi_param
    and broadcasts over arrays of them.
    """
    a_half = 0.5 * alpha
    b_half = 0.5 * beta
    ca, sa = np.cos(a_half), np.sin(a_half)
    cb, sb = np.cos(b_half), np.sin(b_half)
    c, s = np.cos(xi), np.sin(xi)

    def amp(a0, a1, b0, b1):
        # <phi(xi)| (a0,a1) x (b0,b1); all amplitudes involved are real.
        return (c * a0 * b0 + s * a0 * b1 - s * a1 * b0 + c * a1 * b1) * SQRT1_2

    return (
        amp(ca, sa, cb, sb) ** 2,
        amp(ca, sa, sb, -cb) ** 2,
        amp(sa, -ca, cb, sb) ** 2,
        amp(sa, -ca, sb, -cb) ** 2,
    )


def _correlation(alpha, beta, xi):
    """The correlation of one setting's outcome probabilities: p_pp + p_mm - p_pm - p_mp."""
    p_pp, p_pm, p_mp, p_mm = _probabilities(alpha, beta, xi)
    return p_pp + p_mm - p_pm - p_mp


def correlation(alpha, beta, xi):
    """<O_a(alpha) O_b(beta)> as the signed sum of coincidence probabilities; broadcasts."""
    return _scalar_or_array(_correlation(analyzer_angle(alpha), analyzer_angle(beta), xi_param(xi)))


def s_parameter(theta, xi):
    """CHSH combination E(a1,b1) + E(a2,b1) + E(a1,b2) - E(a2,b2) at the theta settings.

    Broadcasts over arrays of theta and xi; scalars give a float.
    """
    pairs, x = _pairs(*_settings(theta)), xi_param(xi)
    return _scalar_or_array(_combine(_correlation(a, b, x) for a, b in pairs))


def bell_operator(theta) -> np.ndarray:
    """The 4x4 Hermitian operator whose expectation value is S at the theta settings.

    An array of theta gives a stack of operators of shape ``theta.shape + (4, 4)``.
    """
    matrices = [observable(angle).matrix for angle in _settings(theta)]  # one per analyzer, not one per term
    return _combine(tensor(oa, ob) for oa, ob in _pairs(*matrices))


@dataclass(frozen=True)
class QuantumBounds:
    """Extreme eigenvalues of the Bell operator, the reachable S range: floats or arrays."""

    s_min: float
    s_max: float


def bell_spectrum(theta) -> np.ndarray:
    """The Bell operator's eigenvalues at theta, ascending on the last axis, from the Jacobi eigensolver."""
    return herm_eigenvalues(bell_operator(theta))


def quantum_bounds(theta) -> QuantumBounds:
    """Spectral S bounds for the theta settings: the ends of bell_spectrum.

    A scalar theta gives floats; an array of theta gives arrays of its shape.
    """
    vals = bell_spectrum(theta)
    return QuantumBounds(s_min=_scalar_or_array(vals[..., 0]), s_max=_scalar_or_array(vals[..., -1]))


def family_extremum(theta):
    """The xi maximizing S at fixed theta, and the maximum value; broadcasts over arrays of theta.

    On the state family S(theta, xi) = A cos(2 xi) + C sin(2 xi) with A = S(theta, 0)
    and C = S(theta, pi/4), so the maximum sqrt(A^2 + C^2) lies at xi* = atan2(C, A)/2,
    reduced into [0, pi).  It is returned as s_parameter(theta, xi*).
    """
    t = theta_param(theta)
    xi_star = xi_param(0.5 * np.arctan2(s_parameter(t, 0.25 * math.pi), s_parameter(t, 0.0)))
    return xi_star, s_parameter(t, xi_star)


def classical_s_values() -> list[float]:
    """CHSH values of all 16 deterministic +-1 assignments, (a1, a2, b1, b2) with a1 slowest."""
    return [float(_combine(x * y for x, y in _pairs(*signs))) for signs in itertools.product((-1, 1), repeat=4)]


def _whole(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an int, once it is a whole number in [low, high], or at least low when high is None."""
    # NaN and the infinities have no int, so they fail as non-whole numbers.
    count = int(value) if value == value and abs(value) != math.inf else None
    if count != value:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if count < low:
        raise ValueError(f"{name} must be at least {low}, got {count}")
    if high is not None and count > high:
        raise ValueError(f"{name} must be at most {high}, got {count}")
    return count


def haar_block(lam, seed: int, start: int, count: int) -> np.ndarray:
    """Bell-operator expectations of the Haar-random pure two-qubit states start..start+count-1.

    ``lam`` is B's ascending spectrum (bell_spectrum).  In B's eigenbasis the
    squared moduli of a Haar-random ket are uniform on the simplex (Zyczkowski
    & Sommers 2001), so <psi|B|psi> = sum_k lambda_k w_k, with w the spacings
    of three sorted uniforms.  State i reads words 3i+1..3i+3 of the stream
    rng.words(seed, ...), and its sum is written out in a fixed order with IEEE +
    and * alone, so its bytes do not depend on numpy's SIMD dispatch, and
    state i depends only on (seed, i), not on the block that holds it.
    """
    u = _unit(words(seed, 3 * start, 3 * count)).reshape(-1, 3)
    # Three compare-exchanges order each triple as np.sort does: uniforms are never NaN or -0.
    lo, hi = np.minimum(u[:, 0], u[:, 1]), np.maximum(u[:, 0], u[:, 1])
    mid, top = np.minimum(hi, u[:, 2]), np.maximum(hi, u[:, 2])
    low, mid = np.minimum(lo, mid), np.maximum(lo, mid)
    w = (low, mid - low, top - mid, 1.0 - top)
    return ((lam[0] * w[0] + lam[1] * w[1]) + lam[2] * w[2]) + lam[3] * w[3]


def haar_sample_s(theta: float, n: int, seed: int) -> np.ndarray:
    """The n values of haar_block at B(theta)'s spectrum, in one array: 8 bytes per state plus a constant.

    n is checked before the spectrum is computed or any state is drawn; the
    states are drawn _HAAR_CHUNK at a time, the blocks the sample command reads.
    """
    count = _whole(n, "n", 1)
    lam, out = bell_spectrum(theta), np.empty(count)
    for start in range(0, count, _HAAR_CHUNK):
        out[start : start + _HAAR_CHUNK] = haar_block(lam, seed, start, min(_HAAR_CHUNK, count - start))
    return out
