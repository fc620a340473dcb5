"""Dense complex linear algebra for 2x2 and 4x4 Hermitian problems."""

from __future__ import annotations

import math

import numpy as np

ALGEBRA_TOL = 1e-12

_JACOBI_OFF_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 100

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise magnitude of M - M^dagger over a matrix or a stack of them."""
    m = np.asarray(m, dtype=complex)
    return float(np.max(np.abs(m - np.swapaxes(m.conj(), -1, -2))))


def require_hermitian(m: np.ndarray) -> None:
    defect = hermiticity_defect(m)
    if defect > ALGEBRA_TOL:
        raise ValueError(
            f"matrix is not Hermitian: max asymmetry {defect:.3e} exceeds tolerance {ALGEBRA_TOL:.1e}"
        )


def require_normalized(psi: np.ndarray) -> None:
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > ALGEBRA_TOL:
        raise ValueError(f"ket is not normalized: norm {nrm!r} deviates from 1 by {abs(nrm - 1.0):.3e}")


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of the last two axes, ``a`` the left (slow-index) factor.

    Leading axes broadcast, so stacks of matrices give a stack of products.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(*prod.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def jacobi_rotation(a_pp: float, a_pq: complex, a_qq: float) -> tuple[float, complex]:
    """Cosine and complex sine annihilating the off-diagonal of a Hermitian 2x2 block.

    For M = [[a_pp, a_pq], [conj(a_pq), a_qq]] the returned pair (c, s) defines the
    unitary J = [[c, -s], [conj(s), c]] with (J^dagger M J) diagonal.  The rotation
    angle is kept in (-pi/4, pi/4] for stability; the atan2 form cannot overflow.
    """
    mag = abs(a_pq)
    if mag == 0.0:
        return 1.0, 0.0 + 0.0j
    phase = a_pq / mag
    angle = 0.5 * math.atan2(2.0 * mag, a_pp - a_qq)
    if angle > 0.25 * math.pi:
        angle -= 0.5 * math.pi
    return math.cos(angle), math.sin(angle) * phase


def _jacobi_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of one Hermitian matrix by cyclic Jacobi."""
    n = a.shape[0]
    # Summed directly over off-diagonal entries: a total-minus-diagonal
    # difference would cancel catastrophically near convergence.
    off = ~np.eye(n, dtype=bool)
    # Relative threshold keeps convergence meaningful if a caller scales inputs.
    scale = max(1.0, float(np.linalg.norm(a)))
    goal = _JACOBI_OFF_TOL * scale
    for _ in range(_JACOBI_MAX_SWEEPS):
        if np.linalg.norm(a[off]) <= goal:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                # Pivots this far below scale cannot lift the off-mass above
                # the goal; skipping them avoids denormal phase division.
                if abs(a[p, q]) <= 1e-18 * scale:
                    continue
                c, s = jacobi_rotation(a[p, p].real, a[p, q], a[q, q].real)
                j = np.eye(n, dtype=complex)
                j[p, p] = c
                j[p, q] = -s
                j[q, p] = np.conj(s)
                j[q, q] = c
                a = j.conj().T @ a @ j
    mass = np.linalg.norm(a[off])
    if mass > goal:
        raise ArithmeticError(
            f"Jacobi eigensolver did not converge within {_JACOBI_MAX_SWEEPS} sweeps "
            f"(off-diagonal mass {mass:.3e})"
        )
    vals = np.diag(a).real
    return vals[np.argsort(vals, kind="stable")]


def herm_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of Hermitian matrices: ``(..., n, n)`` gives ``(..., n)``.

    Each matrix is diagonalised on its own by cyclic Jacobi with complex plane
    rotations, which converges when the off-diagonal Frobenius mass drops below
    1e-14 relative to the matrix norm, with a hard cap of 100 sweeps.
    """
    m = np.asarray(m, dtype=complex)
    require_hermitian(m)
    stack = m.reshape(-1, *m.shape[-2:])
    vals = np.array([_jacobi_eigenvalues(a) for a in stack])
    return vals.reshape(m.shape[:-1])


def expectation(psi: np.ndarray, m: np.ndarray) -> float:
    """<psi|M|psi> for a normalized ket and Hermitian M; the imaginary residue is checked."""
    psi = np.asarray(psi, dtype=complex)
    require_normalized(psi)
    require_hermitian(m)
    val = complex(np.vdot(psi, np.asarray(m, dtype=complex) @ psi))
    if abs(val.imag) > ALGEBRA_TOL:
        raise ArithmeticError(f"expectation value has imaginary residue {val.imag:.3e}")
    return val.real
