"""CHSH correlations for polarization analyzers on a one-parameter setting family.

Analyzers measure O(alpha) = cos(alpha) Z + sin(alpha) X; the four settings are
tied to a single angle theta as (2*theta, 0 | theta, 3*theta), and the source
states interpolate between the phi+ Bell state and the singlet with a mixing
angle xi.  Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import PAULI_X, PAULI_Z, herm_eigenvalues, tensor
from .rng import SplitMix64

TWO_PI = 2.0 * math.pi
SQRT1_2 = 1.0 / math.sqrt(2.0)

CLASSICAL_LIMIT = 2.0
CIRELSON_LIMIT = 2.0 * math.sqrt(2.0)

BOUND_TOL = 1e-9
_HAAR_CHUNK = 2**14  # states per block of normals in haar_sample_s


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


def analyzer_angle(alpha):
    """Reduce analyzer angles into [0, 2*pi); a scalar gives a float, an array an array."""
    # Float modulo may return the modulus itself for tiny negative inputs; the
    # second modulo maps it to 0 and leaves every value below it unchanged.
    a = _validated(alpha, np.isfinite, "analyzer angle must be finite") % TWO_PI % TWO_PI
    return _scalar_or_array(a)


def theta_param(theta):
    """Validate the setting parameter theta, restricted to [0, pi]; arrays entrywise."""
    # NaN fails both comparisons.
    t = _validated(theta, lambda t: (0.0 <= t) & (t <= math.pi), "theta must lie in [0, pi]")
    return _scalar_or_array(t)


def xi_param(xi):
    """Reduce the state mixing angle xi into [0, pi); S is pi-periodic in xi. Arrays entrywise."""
    x = _validated(xi, np.isfinite, "xi must be finite") % math.pi % math.pi
    return _scalar_or_array(x)


@dataclass(frozen=True)
class SettingsQuartet:
    """The four analyzer angles (a1, a2 | b1, b2) derived from theta (floats or arrays)."""

    a1: float
    a2: float
    b1: float
    b2: float


def settings_quartet(theta) -> SettingsQuartet:
    """Settings (2*theta, 0 | theta, 3*theta) for a given theta."""
    t = theta_param(theta)
    return SettingsQuartet(
        a1=analyzer_angle(2.0 * t),
        a2=0.0,
        b1=analyzer_angle(t),
        b2=analyzer_angle(3.0 * t),
    )


@dataclass(frozen=True, eq=False)
class Observable:
    """Dichotomic polarization observable with its defining analyzer angle."""

    alpha: float
    matrix: np.ndarray


def observable(alpha) -> Observable:
    """O(alpha) = cos(alpha) Z + sin(alpha) X; an array of alpha gives a stack of 2x2 matrices."""
    a = analyzer_angle(alpha)
    a_col = np.asarray(a)[..., None, None]
    return Observable(alpha=a, matrix=np.cos(a_col) * PAULI_Z + np.sin(a_col) * PAULI_X)


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
    p_pp, p_pm, p_mp, p_mm = _probabilities(alpha, beta, xi)
    return p_pp + p_mm - p_pm - p_mp


def correlation(alpha, beta, xi):
    """<O_a(alpha) O_b(beta)> as the signed sum of coincidence probabilities; broadcasts."""
    return _scalar_or_array(_correlation(analyzer_angle(alpha), analyzer_angle(beta), xi_param(xi)))


def s_parameter(theta, xi):
    """CHSH combination E(a1,b1) + E(a2,b1) + E(a1,b2) - E(a2,b2) at the theta settings.

    Broadcasts over arrays of theta and xi; scalars give a float.
    """
    q = settings_quartet(theta)
    x = xi_param(xi)
    s = (
        _correlation(q.a1, q.b1, x)
        + _correlation(q.a2, q.b1, x)
        + _correlation(q.a1, q.b2, x)
        - _correlation(q.a2, q.b2, x)
    )
    if np.any(np.abs(s) > CIRELSON_LIMIT + BOUND_TOL):
        raise ArithmeticError(f"|S| = {float(np.max(np.abs(s)))!r} exceeds the quantum ceiling")
    return _scalar_or_array(s)


def _family_coefficients(theta: float) -> tuple[float, float]:
    # S(theta, xi) = A cos(2 xi) + C sin(2 xi) on the state family.
    a = 3.0 * math.cos(theta) - math.cos(3.0 * theta)
    c = math.sin(theta) - math.sin(3.0 * theta)
    return a, c


def bell_operator(theta) -> np.ndarray:
    """The 4x4 Hermitian operator whose expectation value is S at the theta settings.

    An array of theta gives a stack of operators of shape ``theta.shape + (4, 4)``.
    """
    q = settings_quartet(theta)
    oa1 = observable(q.a1).matrix
    oa2 = observable(q.a2).matrix
    ob1 = observable(q.b1).matrix
    ob2 = observable(q.b2).matrix
    return tensor(oa1, ob1) + tensor(oa2, ob1) + tensor(oa1, ob2) - tensor(oa2, ob2)


@dataclass(frozen=True)
class QuantumBounds:
    """Extreme eigenvalues of the Bell operator, the reachable S range: floats or arrays."""

    s_min: float
    s_max: float

    def __post_init__(self):
        if np.any(self.s_min > self.s_max):
            raise ValueError("s_min exceeds s_max")
        if np.any(np.maximum(np.abs(self.s_min), np.abs(self.s_max)) > CIRELSON_LIMIT + BOUND_TOL):
            raise ValueError("bounds exceed the quantum ceiling")


def quantum_bounds(theta) -> QuantumBounds:
    """Spectral S bounds for the theta settings, from the Jacobi eigensolver.

    A scalar theta gives floats; an array of theta gives arrays of its shape.
    """
    vals = herm_eigenvalues(bell_operator(theta))
    return QuantumBounds(s_min=_scalar_or_array(vals[..., 0]), s_max=_scalar_or_array(vals[..., -1]))


def family_extremum(theta: float) -> tuple[float, float]:
    """The xi maximizing S at fixed theta, and the maximum value.

    xi* = atan2(C, A)/2 reduced into [0, pi); the maximum sqrt(A^2 + C^2) is
    returned as s_parameter(theta, xi*) so both code paths stay tied together.
    """
    t = theta_param(theta)
    a, c = _family_coefficients(t)
    xi_star = (0.5 * math.atan2(c, a)) % math.pi
    if xi_star >= math.pi:
        xi_star = 0.0
    return xi_star, s_parameter(t, xi_star)


def classical_s_values() -> list[float]:
    """CHSH values of all 16 deterministic +-1 assignments (a1, a2, b1, b2)."""
    out = []
    for a1 in (-1, 1):
        for a2 in (-1, 1):
            for b1 in (-1, 1):
                for b2 in (-1, 1):
                    out.append(float(a1 * b1 + a2 * b1 + a1 * b2 - a2 * b2))
    return out


def haar_sample_s(theta: float, n: int, seed: int) -> np.ndarray:
    """Bell-operator expectations for n Haar-random pure two-qubit states.

    State i is normals 8i..8i+7 of SplitMix64(seed), the real and imaginary parts
    of its 4 amplitudes, normalized.  Reading the stream _HAAR_CHUNK states at a
    time bounds memory to 8 bytes per state plus a constant; sample i depends
    on neither n nor the chunk size.
    """
    count = int(n)
    if count < 1:
        raise ValueError(f"need at least one sample, got {n!r}")
    b, stream, out = bell_operator(theta), SplitMix64(seed), np.empty(count)
    for start in range(0, count, _HAAR_CHUNK):
        g = stream.standard_normal(8 * min(_HAAR_CHUNK, count - start)).reshape(-1, 8)
        kets = g[:, 0::2] + 1j * g[:, 1::2]
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        out[start : start + len(g)] = np.real(np.einsum("ni,ij,nj->n", kets.conj(), b, kets))
    return out
