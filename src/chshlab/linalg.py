"""Dense complex linear algebra for 2x2 and 4x4 Hermitian problems."""

from __future__ import annotations

import math

import numpy as np

ALGEBRA_TOL = 1e-12
EIGEN_RESIDUAL_TOL = 1e-9

_JACOBI_OFF_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 100

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise magnitude of M - M^dagger."""
    m = np.asarray(m, dtype=complex)
    return float(np.max(np.abs(m - m.conj().T)))


def require_hermitian(m: np.ndarray, tol: float = ALGEBRA_TOL) -> None:
    defect = hermiticity_defect(m)
    if defect > tol:
        raise ValueError(
            f"matrix is not Hermitian: max asymmetry {defect:.3e} exceeds tolerance {tol:.1e}"
        )


def require_normalized(psi: np.ndarray, tol: float = ALGEBRA_TOL) -> None:
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > tol:
        raise ValueError(f"ket is not normalized: norm {nrm!r} deviates from 1 by {abs(nrm - 1.0):.3e}")


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with ``a`` as the left (slow-index) factor."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


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


def _offdiag_mass(a: np.ndarray) -> float:
    # Summed directly over off-diagonal entries: a total-minus-diagonal
    # difference would cancel catastrophically near convergence.
    mask = ~np.eye(a.shape[0], dtype=bool)
    return float(np.linalg.norm(a[mask]))


def herm_eigensystem(m: np.ndarray, tol: float = ALGEBRA_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvector columns of a Hermitian matrix.

    Cyclic Jacobi with complex plane rotations; converges when the off-diagonal
    Frobenius mass drops below 1e-14 relative to the matrix norm, with a hard cap
    of 100 sweeps.  Residuals ||M v - lam v|| stay below 1e-9 for the matrix
    scales this package produces.
    """
    require_hermitian(m, tol)
    a = np.array(m, dtype=complex)
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    # Relative threshold keeps convergence meaningful if a caller scales inputs.
    scale = max(1.0, float(np.linalg.norm(a)))
    goal = _JACOBI_OFF_TOL * scale
    for _ in range(_JACOBI_MAX_SWEEPS):
        if _offdiag_mass(a) <= goal:
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
                v = v @ j
    if _offdiag_mass(a) > goal:
        raise ArithmeticError(
            f"Jacobi eigensolver did not converge within {_JACOBI_MAX_SWEEPS} sweeps "
            f"(off-diagonal mass {_offdiag_mass(a):.3e})"
        )
    vals = np.diag(a).real.copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], v[:, order]


def herm_eigenvalues(m: np.ndarray, tol: float = ALGEBRA_TOL) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix (see herm_eigensystem)."""
    return herm_eigensystem(m, tol)[0]


def expectation(psi: np.ndarray, m: np.ndarray) -> float:
    """<psi|M|psi> for a normalized ket and Hermitian M; the imaginary residue is checked."""
    psi = np.asarray(psi, dtype=complex)
    require_normalized(psi)
    require_hermitian(m)
    val = complex(np.vdot(psi, np.asarray(m, dtype=complex) @ psi))
    if abs(val.imag) > ALGEBRA_TOL:
        raise ArithmeticError(f"expectation value has imaginary residue {val.imag:.3e}")
    return val.real
