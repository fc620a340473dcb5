import math

import numpy as np
import pytest

from chshlab import linalg
from chshlab.chsh import bell_operator
from chshlab.cli import parse_grid
from chshlab.linalg import (
    PAULI_X,
    PAULI_Z,
    expectation,
    herm_eigenvalues,
    jacobi_rotation,
    tensor,
)

SQRT2 = math.sqrt(2.0)
PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / SQRT2
SINGLET = np.array([0, 1, -1, 0], dtype=complex) / SQRT2
ZZ = np.kron(PAULI_Z, PAULI_Z)
XX = np.kron(PAULI_X, PAULI_X)


def kron_by_index(a, b):
    # Brute-force oracle: (i1 i2, j1 j2) -> a[i1,j1] * b[i2,j2].
    out = np.zeros((4, 4), dtype=complex)
    for i1 in range(2):
        for i2 in range(2):
            for j1 in range(2):
                for j2 in range(2):
                    out[2 * i1 + i2, 2 * j1 + j2] = a[i1, j1] * b[i2, j2]
    return out


def random_hermitian(rng, n=4):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m + m.conj().T


def bell_matrix(theta):
    # Independent construction of the four-term Bell combination.
    def obs(a):
        return math.cos(a) * PAULI_Z + math.sin(a) * PAULI_X

    return (
        np.kron(obs(2 * theta), obs(theta))
        + np.kron(obs(0.0), obs(theta))
        + np.kron(obs(2 * theta), obs(3 * theta))
        - np.kron(obs(0.0), obs(3 * theta))
    )


def scalar_rotation(a_pp, a_pq, a_qq):
    # One pivot's rotation in Python scalar arithmetic.
    mag = abs(a_pq)
    if mag == 0.0:
        return 1.0, 0.0 + 0.0j
    phase = a_pq / mag
    angle = 0.5 * math.atan2(2.0 * mag, a_pp - a_qq)
    if angle > 0.25 * math.pi:
        angle -= 0.5 * math.pi
    return math.cos(angle), math.sin(angle) * phase


def jacobi_one_matrix(a):
    """Reference: ascending eigenvalues of one Hermitian matrix by cyclic Jacobi, one rotation at a time."""
    n = a.shape[0]
    off = ~np.eye(n, dtype=bool)
    scale = max(1.0, float(np.linalg.norm(a)))
    goal = linalg._JACOBI_OFF_TOL * scale
    for _ in range(linalg._JACOBI_MAX_SWEEPS):
        if np.linalg.norm(a[off]) <= goal:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= 1e-18 * scale:
                    continue
                c, s = scalar_rotation(a[p, p].real, a[p, q], a[q, q].real)
                j = np.eye(n, dtype=complex)
                j[p, p] = c
                j[p, q] = -s
                j[q, p] = np.conj(s)
                j[q, q] = c
                a = j.conj().T @ a @ j
    assert np.linalg.norm(a[off]) <= goal
    vals = np.diag(a).real
    return vals[np.argsort(vals, kind="stable")]


def one_matrix_at_a_time(m):
    stack = m.reshape(-1, *m.shape[-2:])
    return np.array([jacobi_one_matrix(a) for a in stack]).reshape(m.shape[:-1])


class TestTensor:
    def test_identity(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_zz_diagonal(self):
        assert np.array_equal(tensor(PAULI_Z, PAULI_Z), np.diag([1, -1, -1, 1]).astype(complex))

    def test_xz_matches_index_formula(self):
        assert np.array_equal(tensor(PAULI_X, PAULI_Z), kron_by_index(PAULI_X, PAULI_Z))

    def test_random_pairs_match_index_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            assert np.max(np.abs(tensor(a, b) - kron_by_index(a, b))) <= 1e-12

    def test_bilinear(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            a2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            lhs = tensor(a1 + a2, b)
            rhs = tensor(a1, b) + tensor(a2, b)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_stacks_broadcast_and_match_kron(self):
        rng = np.random.default_rng(18)
        # Leading axes pair up entrywise, unlike np.kron, which multiplies them out.
        a = rng.standard_normal((3, 5, 2, 2)) + 1j * rng.standard_normal((3, 5, 2, 2))
        b = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
        out = tensor(a, b)
        assert out.shape == (3, 5, 4, 4)
        for i in range(3):
            for k in range(5):
                assert np.array_equal(out[i, k], np.kron(a[i, k], b[k]))


class TestEigensolver:
    def test_diagonal_matrix(self):
        vals = herm_eigenvalues(np.diag([4.0, 1.0, 3.0, 2.0]).astype(complex))
        assert np.allclose(vals, [1, 2, 3, 4], atol=1e-12)

    def test_zz(self):
        assert np.allclose(herm_eigenvalues(ZZ), [-1, -1, 1, 1], atol=1e-12)

    def test_bell_combination_at_quarter_pi(self):
        vals = herm_eigenvalues(bell_matrix(math.pi / 4))
        expected = [-2 * SQRT2, 0.0, 0.0, 2 * SQRT2]
        assert np.allclose(vals, expected, atol=1e-9)
        # cross-check against an independent solver
        assert np.allclose(vals, np.linalg.eigvalsh(bell_matrix(math.pi / 4)), atol=1e-9)

    def test_rejects_non_hermitian(self):
        m = np.array(ZZ)
        m[0, 1] = 1e-3
        with pytest.raises(ValueError, match="asymmetry"):
            herm_eigenvalues(m)

    def test_reports_asymmetry_magnitude(self):
        m = np.array(ZZ)
        m[2, 3] = 0.5j
        try:
            herm_eigenvalues(m)
        except ValueError as exc:
            assert "5" in str(exc)
        else:
            pytest.fail("non-Hermitian input was accepted")

    def test_roundtrip_recovers_spectrum(self):
        # Unitaries assembled from the solver's own plane rotations.
        rng = np.random.default_rng(13)
        for _ in range(30):
            diag = np.sort(rng.standard_normal(4) * 3.0)
            u = np.eye(4, dtype=complex)
            for _ in range(12):
                p, q = sorted(rng.choice(4, size=2, replace=False))
                c, s = jacobi_rotation(
                    rng.standard_normal(),
                    rng.standard_normal() + 1j * rng.standard_normal(),
                    rng.standard_normal(),
                )
                j = np.eye(4, dtype=complex)
                j[p, p] = c
                j[p, q] = -s
                j[q, p] = np.conj(s)
                j[q, q] = c
                u = u @ j
            m = u @ np.diag(diag).astype(complex) @ u.conj().T
            m = 0.5 * (m + m.conj().T)
            assert np.max(np.abs(herm_eigenvalues(m) - diag)) <= 1e-9

    def test_rotation_unitary_and_annihilating(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            app, aqq = rng.standard_normal(2)
            apq = rng.standard_normal() + 1j * rng.standard_normal()
            c, s = jacobi_rotation(app, apq, aqq)
            j = np.array([[c, -s], [np.conj(s), c]])
            m = np.array([[app, apq], [np.conj(apq), aqq]])
            assert np.max(np.abs(j.conj().T @ j - np.eye(2))) <= 1e-14
            assert abs((j.conj().T @ m @ j)[0, 1]) <= 1e-13

    def test_trace_and_frobenius_identities(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            m = random_hermitian(rng)
            vals = herm_eigenvalues(m)
            assert abs(vals.sum() - np.trace(m).real) <= 1e-9
            assert abs((vals**2).sum() - np.sum(np.abs(m) ** 2)) <= 1e-9

    def test_residuals(self):
        # min over unit v of ||(M - lam) v|| is the smallest singular value of
        # M - lam; LAPACK's eigvalsh is the independent oracle.
        rng = np.random.default_rng(16)
        for _ in range(20):
            m = random_hermitian(rng)
            vals = herm_eigenvalues(m)
            assert np.max(np.abs(vals - np.linalg.eigvalsh(m))) <= 1e-9
            for lam in vals:
                assert np.linalg.svd(m - lam * np.eye(4), compute_uv=False)[-1] <= 1e-9

    def test_stack_matches_per_matrix_calls(self):
        # The diagonal matrix has converged before the first sweep and ZZ is
        # degenerate; both leave the active set while dense matrices rotate on.
        rng = np.random.default_rng(19)
        stack = np.array([[random_hermitian(rng) for _ in range(5)] for _ in range(3)])
        stack[0, 1] = np.diag([4.0, 1.0, 3.0, 2.0])
        stack[2, 3] = ZZ
        vals = herm_eigenvalues(stack)
        assert vals.shape == (3, 5, 4)
        per_matrix = np.array([[herm_eigenvalues(m) for m in row] for row in stack])
        assert vals.tobytes() == per_matrix.tobytes()

    def test_sweep_cap_raises(self, monkeypatch):
        rng = np.random.default_rng(21)
        stack = np.array([np.diag([1.0, 2.0, 3.0, 4.0])] + [random_hermitian(rng) for _ in range(4)])
        monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(ArithmeticError, match=r"did not converge within 1 sweeps \(off-diagonal mass \d"):
            herm_eigenvalues(stack)

    def test_empty_stack(self):
        vals = herm_eigenvalues(np.zeros((0, 4, 4)))
        assert vals.shape == (0, 4) and vals.dtype == float
        assert herm_eigenvalues(np.zeros((2, 0, 3, 3))).shape == (2, 0, 3)

    def test_rejects_non_hermitian_in_stack(self):
        rng = np.random.default_rng(20)
        stack = np.array([random_hermitian(rng) for _ in range(6)])
        stack[4, 1, 3] += 1e-3
        with pytest.raises(ValueError, match="not Hermitian: max asymmetry 1.000e-03"):
            herm_eigenvalues(stack)


class TestJacobiOracle:
    """The stacked solver against the one-matrix reference, byte for byte.

    Both take libm's atan2, cos, sin and complex abs and BLAS's zgemm for
    every rotation, so no tolerance is needed.
    """

    @pytest.mark.parametrize(
        "theta",
        [
            parse_grid(None),
            parse_grid("0:180:721", degrees=True),
            np.random.default_rng(2026).uniform(0.0, math.pi, 2000),
            0.3,
            math.pi / 4,
        ],
        ids=["grid-181", "degrees-721", "random-2000", "0.3", "pi/4"],
    )
    def test_bell_spectra(self, theta):
        b = bell_operator(theta)
        assert herm_eigenvalues(b).tobytes() == one_matrix_at_a_time(b).tobytes()

    @pytest.mark.parametrize("n, scale", [(2, 1.0), (3, 1.0), (4, 1e-9), (4, 1.0), (4, 1e6), (6, 1.0)])
    def test_dense_hermitian_stacks(self, n, scale):
        rng = np.random.default_rng(22 + n)
        stack = scale * np.array([random_hermitian(rng, n) for _ in range(200)])
        assert herm_eigenvalues(stack).tobytes() == one_matrix_at_a_time(stack).tobytes()


class TestExpectation:
    def test_phi_plus_zz_stabilizer(self):
        assert expectation(PHI_PLUS, ZZ) == pytest.approx(1.0, abs=1e-12)

    def test_hv_zz(self):
        hv = np.array([0, 1, 0, 0], dtype=complex)
        assert expectation(hv, ZZ) == pytest.approx(-1.0, abs=1e-12)

    def test_singlet_xx(self):
        # Matrix-vector oracle: X(x)X reverses amplitude order.
        reversed_singlet = SINGLET[::-1]
        oracle = float(np.real(np.vdot(SINGLET, reversed_singlet)))
        assert oracle == pytest.approx(-1.0, abs=1e-12)
        assert expectation(SINGLET, XX) == pytest.approx(-1.0, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            expectation(2.0 * PHI_PLUS, ZZ)

    def test_rejects_non_hermitian(self):
        m = np.array(ZZ)
        m[0, 2] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            expectation(PHI_PLUS, m)

    def test_matches_trace_expectation(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi /= np.linalg.norm(psi)
            m = random_hermitian(rng)
            trace = np.trace(np.outer(psi, psi.conj()) @ m).real
            assert abs(expectation(psi, m) - trace) <= 1e-12
