"""Dense complex linear algebra for 2x2 and 4x4 Hermitian problems."""

from __future__ import annotations

import math

import numpy as np

ALGEBRA_TOL = 1e-12

_JACOBI_OFF_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 100

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_atan2, _abs = np.frompyfunc(math.atan2, 2, 1), np.frompyfunc(abs, 1, 1)


def require_hermitian(m: np.ndarray) -> None:
    """Raise unless every entry of M - M^dagger, over a matrix or a stack of them, is within ALGEBRA_TOL."""
    m = np.asarray(m, dtype=complex)
    defect = float(np.max(np.abs(m - np.swapaxes(m.conj(), -1, -2)), initial=0.0))
    if defect > ALGEBRA_TOL:
        raise ValueError(
            f"matrix is not Hermitian: max asymmetry {defect:.3e} exceeds tolerance {ALGEBRA_TOL:.1e}"
        )


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of the last two axes, ``a`` the left (slow-index) factor.

    Leading axes broadcast, so stacks of matrices give a stack of products.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(*prod.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def jacobi_rotation(a_pp: np.ndarray, a_pq: np.ndarray, a_qq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cosines and complex sines annihilating the off-diagonals of Hermitian 2x2 blocks.

    For M = [[a_pp, a_pq], [conj(a_pq), a_qq]] the returned pair (c, s) defines the
    unitary J = [[c, -s], [conj(s), c]] with (J^dagger M J) diagonal; the arguments
    broadcast elementwise.  The rotation angle is kept in (-pi/4, pi/4] for
    stability; the atan2 form cannot overflow.  Modulus and atan2 are libm's, element by element, and numpy's cos
    and sin equal libm's on these angles, so the rotations do not depend on numpy's SIMD dispatch.
    """
    a_pq = np.asarray(a_pq, dtype=complex)
    mag = np.asarray(_abs(a_pq), dtype=float)
    # A zero a_pq has phase 0, so s = 0 and, with atan2(0, x) in {0, pi}, c = 1.
    phase = np.divide(a_pq, mag, out=np.zeros_like(a_pq), where=mag != 0.0)
    angle = 0.5 * np.asarray(_atan2(2.0 * mag, np.subtract(a_pp, a_qq)), dtype=float)
    angle = np.where(angle > 0.25 * math.pi, angle - 0.5 * math.pi, angle)
    return np.cos(angle), np.sin(angle) * phase


def herm_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of Hermitian matrices: ``(..., n, n)`` gives ``(..., n)``.

    Cyclic Jacobi with complex plane rotations runs on the whole stack at once.
    Each sweep first drops the matrices whose off-diagonal Frobenius mass is
    below 1e-14 relative to their norm; each pivot then rotates, in one stacked
    product, the remaining matrices whose pivot entry is not negligible.  A
    matrix gets the same rotations, and so the same eigenvalues, as it would
    alone.  The hard cap is 100 sweeps.
    """
    m = np.asarray(m, dtype=complex)
    require_hermitian(m)
    n = m.shape[-1]
    a = m.reshape(-1, n, n).copy()
    # Summed directly over off-diagonal entries: a total-minus-diagonal
    # difference would cancel catastrophically near convergence.
    off = ~np.eye(n, dtype=bool)
    # Relative threshold keeps convergence meaningful if a caller scales inputs.
    scale = np.maximum(1.0, np.linalg.norm(a, axis=(-2, -1)))
    goal = _JACOBI_OFF_TOL * scale
    for _ in range(_JACOBI_MAX_SWEEPS):
        active = np.flatnonzero(np.linalg.norm(a[:, off], axis=-1) > goal)
        if active.size == 0:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                # Pivots this far below scale cannot lift the off-mass above the goal; skipping them
                # avoids denormal phase division.  The modulus is libm's, as in jacobi_rotation.
                idx = active[_abs(a[active, p, q]).astype(float) > 1e-18 * scale[active]]
                c, s = jacobi_rotation(a[idx, p, p].real, a[idx, p, q], a[idx, q, q].real)
                j = np.eye(n, dtype=complex)[None].repeat(idx.size, axis=0)
                j[:, [p, p, q, q], [p, q, p, q]] = np.array([c, -s, s.conj(), c]).T
                a[idx] = np.swapaxes(j.conj(), -1, -2) @ a[idx] @ j
    mass = np.linalg.norm(a[:, off], axis=-1)
    if np.any(mass > goal):
        raise ArithmeticError(
            f"Jacobi eigensolver did not converge within {_JACOBI_MAX_SWEEPS} sweeps "
            f"(off-diagonal mass {np.max(mass[mass > goal]):.3e})"
        )
    vals = np.sort(np.diagonal(a, axis1=-2, axis2=-1).real, axis=-1, kind="stable")
    return vals.reshape(m.shape[:-1])


def expectation(psi: np.ndarray, m: np.ndarray) -> float:
    """<psi|M|psi> of a normalized ket; M's Hermitian check bounds the dropped imaginary part by n * ALGEBRA_TOL / 2."""
    psi = np.asarray(psi, dtype=complex)
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > ALGEBRA_TOL:
        raise ValueError(f"ket is not normalized: norm {nrm!r} deviates from 1 by {abs(nrm - 1.0):.3e}")
    require_hermitian(m)
    return float(np.vdot(psi, np.asarray(m, dtype=complex) @ psi).real)
