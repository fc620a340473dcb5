import math
import tracemalloc

import numpy as np
import pytest

from chshlab import chsh
from chshlab.chsh import (
    CIRELSON_LIMIT,
    CLASSICAL_LIMIT,
    analyzer_angle,
    bell_operator,
    classical_s_values,
    correlation,
    family_extremum,
    haar_block,
    haar_sample_s,
    observable,
    quantum_bounds,
    s_parameter,
    state_phi,
    theta_param,
    xi_param,
)
from chshlab.linalg import PAULI_X, PAULI_Z, expectation, herm_eigenvalues, tensor
from chshlab.rng import _unit, words

SQRT2 = math.sqrt(2.0)


def analyzer_basis(alpha):
    """Reference analyzer kets (s, s_perp) over (H, V).

    s(alpha) = cos(alpha/2)|H> + sin(alpha/2)|V>,
    s_perp(alpha) = sin(alpha/2)|H> - cos(alpha/2)|V>.
    """
    c, s = math.cos(0.5 * alpha), math.sin(0.5 * alpha)
    return np.array([c, s]), np.array([s, -c])

# Calibrated 1e5-sample run at theta = pi/4; this seed gives max ~ 2.784.
HAAR_SEED = 20260808


def coincidence_probabilities(alpha, beta, xi):
    # The chsh probability kernel's four outcomes, at angles reduced as the public functions reduce them.
    return chsh._probabilities(analyzer_angle(alpha), analyzer_angle(beta), xi_param(xi))


def s_closed_form(theta, xi):
    # Independent path: S = (3 cos t - cos 3t) cos 2xi + (sin t - sin 3t) sin 2xi on the state family.
    a = 3.0 * math.cos(theta) - math.cos(3.0 * theta)
    c = math.sin(theta) - math.sin(3.0 * theta)
    return a * math.cos(2.0 * xi) + c * math.sin(2.0 * xi)


def operator_correlation(alpha, beta, xi):
    # Independent path: expectation of O(alpha) x O(beta) on the source ket.
    return expectation(state_phi(xi), tensor(observable(alpha).matrix, observable(beta).matrix))


class TestAngleParams:
    def test_analyzer_angle_reduces(self):
        assert analyzer_angle(2 * math.pi + 0.5) == pytest.approx(0.5, abs=1e-12)
        assert analyzer_angle(-0.5) == pytest.approx(2 * math.pi - 0.5, abs=1e-12)
        assert 0.0 <= analyzer_angle(-1e-18) < 2 * math.pi

    def test_analyzer_angle_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            analyzer_angle(math.inf)

    def test_theta_domain(self):
        assert theta_param(math.pi) == math.pi
        for bad in (-0.1, math.pi + 0.1, math.nan):
            with pytest.raises(ValueError):
                theta_param(bad)

    def test_array_with_one_bad_entry_rejected(self):
        thetas = np.linspace(0.0, math.pi, 7)
        bad_theta = thetas.copy()
        bad_theta[3] = math.pi + 0.1
        with pytest.raises(ValueError, match="theta"):
            s_parameter(bad_theta, 0.0)
        bad_xi = np.zeros(7)
        bad_xi[5] = math.nan
        with pytest.raises(ValueError, match="xi"):
            s_parameter(thetas, bad_xi)

    def test_xi_reduces_to_half_turn(self):
        assert xi_param(math.pi + 0.25) == pytest.approx(0.25, abs=1e-12)
        assert 0.0 <= xi_param(-1e-18) < math.pi


class TestAnalyzerBasis:
    def test_at_zero(self):
        s, s_perp = analyzer_basis(0.0)
        assert np.allclose(s, [1.0, 0.0], atol=1e-12)
        assert np.allclose(s_perp, [0.0, -1.0], atol=1e-12)

    def test_at_pi(self):
        s, s_perp = analyzer_basis(math.pi)
        assert np.allclose(s, [0.0, 1.0], atol=1e-12)
        assert np.allclose(s_perp, [1.0, 0.0], atol=1e-12)

    def test_at_half_pi(self):
        s, s_perp = analyzer_basis(math.pi / 2)
        assert np.allclose(s, [1 / SQRT2, 1 / SQRT2], atol=1e-12)
        assert np.allclose(s_perp, [1 / SQRT2, -1 / SQRT2], atol=1e-12)

    def test_orthonormal(self):
        rng = np.random.default_rng(31)
        for alpha in rng.uniform(0, 2 * math.pi, 100):
            s, s_perp = analyzer_basis(alpha)
            assert abs(np.dot(s, s) - 1.0) <= 1e-12
            assert abs(np.dot(s_perp, s_perp) - 1.0) <= 1e-12
            assert abs(np.dot(s, s_perp)) <= 1e-12


class TestObservable:
    def test_at_zero_is_z(self):
        assert np.allclose(observable(0.0).matrix, PAULI_Z, atol=1e-12)

    def test_at_half_pi_is_x(self):
        assert np.allclose(observable(math.pi / 2).matrix, PAULI_X, atol=1e-12)

    def test_at_quarter_pi(self):
        assert np.allclose(observable(math.pi / 4).matrix, (PAULI_Z + PAULI_X) / SQRT2, atol=1e-12)

    def test_projector_path_agrees(self):
        rng = np.random.default_rng(32)
        for alpha in rng.uniform(0, 2 * math.pi, 50):
            s, s_perp = analyzer_basis(alpha)
            from_projectors = np.outer(s, s) - np.outer(s_perp, s_perp)
            assert np.max(np.abs(observable(alpha).matrix - from_projectors)) <= 1e-12

    def test_involution(self):
        rng = np.random.default_rng(33)
        for alpha in rng.uniform(0, 2 * math.pi, 50):
            m = observable(alpha).matrix
            assert np.max(np.abs(m @ m - np.eye(2))) <= 1e-12


class TestSettingsTable:
    def test_multiples_of_theta(self):
        a1, a2, b1, b2 = chsh._settings(0.3)
        assert (a1, a2) == pytest.approx((0.6, 0.0), abs=1e-12)
        assert (b1, b2) == pytest.approx((0.3, 0.9), abs=1e-12)

    def test_reduction_near_top_of_range(self):
        a1, a2, b1, b2 = chsh._settings(math.pi)
        assert a1 == pytest.approx(0.0, abs=1e-12)  # 2*pi wraps
        assert b2 == pytest.approx(math.pi, abs=1e-12)  # 3*pi wraps
        assert a2 == 0.0 and b1 == math.pi


class TestStatePhi:
    def test_phi_plus(self):
        assert np.allclose(state_phi(0.0), np.array([1, 0, 0, 1]) / SQRT2, atol=1e-12)

    def test_singlet(self):
        assert np.allclose(state_phi(math.pi / 2), np.array([0, 1, -1, 0]) / SQRT2, atol=1e-12)

    def test_equal_mixture(self):
        assert np.allclose(state_phi(math.pi / 4), np.array([1, 1, -1, 1]) / 2.0, atol=1e-12)

    def test_normalized(self):
        rng = np.random.default_rng(34)
        for xi in rng.uniform(0, math.pi, 100):
            assert abs(np.linalg.norm(state_phi(xi)) - 1.0) <= 1e-12


class TestCoincidenceProbabilities:
    def test_phi_plus_correlated(self):
        p = coincidence_probabilities(0.0, 0.0, 0.0)
        assert p == pytest.approx((0.5, 0.0, 0.0, 0.5), abs=1e-12)

    def test_singlet_anticorrelated(self):
        p = coincidence_probabilities(0.0, 0.0, math.pi / 2)
        assert p == pytest.approx((0.0, 0.5, 0.5, 0.0), abs=1e-12)

    def test_crossed_analyzers_uniform(self):
        p = coincidence_probabilities(math.pi / 2, 0.0, 0.0)
        assert p == pytest.approx((0.25, 0.25, 0.25, 0.25), abs=1e-12)

    def test_matches_inner_product_oracle(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            alpha, beta = rng.uniform(0, 2 * math.pi, 2)
            xi = rng.uniform(0, math.pi)
            ket = state_phi(xi)
            s_a, sp_a = analyzer_basis(alpha)
            s_b, sp_b = analyzer_basis(beta)
            oracle = [
                abs(np.vdot(ket, np.kron(ka, kb))) ** 2
                for ka in (s_a, sp_a)
                for kb in (s_b, sp_b)
            ]
            assert coincidence_probabilities(alpha, beta, xi) == pytest.approx(
                tuple(oracle), abs=1e-12
            )

    def test_normalization(self):
        rng = np.random.default_rng(36)
        for _ in range(200):
            p = coincidence_probabilities(
                rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi)
            )
            assert abs(sum(p) - 1.0) <= 1e-12


class TestCorrelation:
    def test_aligned_phi_plus(self):
        assert correlation(0.0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_aligned_singlet(self):
        assert correlation(0.0, 0.0, math.pi / 2) == pytest.approx(-1.0, abs=1e-12)

    def test_sixty_degrees(self):
        # ket at xi=0 gives E = cos(alpha - beta); the operator oracle agrees.
        assert operator_correlation(math.pi / 3, 0.0, 0.0) == pytest.approx(0.5, abs=1e-12)
        assert correlation(math.pi / 3, 0.0, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_probability_and_operator_paths_agree(self):
        rng = np.random.default_rng(37)
        for _ in range(1000):
            alpha, beta = rng.uniform(0, 2 * math.pi, 2)
            xi = rng.uniform(0, math.pi)
            assert abs(correlation(alpha, beta, xi) - operator_correlation(alpha, beta, xi)) <= 1e-12


class TestSParameter:
    def test_cirelson_point(self):
        assert s_parameter(math.pi / 4, 0.0) == pytest.approx(2 * SQRT2, abs=1e-12)

    def test_collinear_settings(self):
        assert s_parameter(0.0, 0.0) == pytest.approx(2.0, abs=1e-12)
        assert expectation(state_phi(0.0), bell_operator(0.0)) == pytest.approx(2.0, abs=1e-12)

    def test_half_pi_quarter_pi(self):
        assert s_parameter(math.pi / 2, math.pi / 4) == pytest.approx(2.0, abs=1e-12)
        assert expectation(state_phi(math.pi / 4), bell_operator(math.pi / 2)) == pytest.approx(
            2.0, abs=1e-12
        )


class TestFourTermOracles:
    # The CHSH combination written out term by term, kept as oracles for the
    # settings table and the combiner: a1 = 2t, a2 = 0, b1 = t, b2 = 3t.

    def test_s_parameter_is_the_four_correlation_sum(self):
        rng = np.random.default_rng(41)
        t = rng.uniform(0.0, math.pi, (300, 1))
        x = rng.uniform(-10.0, 10.0, (1, 300))
        a1, a2, b1, b2 = 2 * t, 0.0, t, 3 * t
        oracle = correlation(a1, b1, x) + correlation(a2, b1, x) + correlation(a1, b2, x) - correlation(a2, b2, x)
        assert s_parameter(t, x).tobytes() == oracle.tobytes()

    def test_bell_operator_is_the_tensor_sum(self):
        for t in (0.3, math.pi / 4, math.pi, np.linspace(0.0, math.pi, 181)):
            oa1, oa2, ob1, ob2 = (observable(alpha).matrix for alpha in (2 * t, 0.0, t, 3 * t))
            oracle = tensor(oa1, ob1) + tensor(oa2, ob1) + tensor(oa1, ob2) - tensor(oa2, ob2)
            assert bell_operator(t).tobytes() == oracle.tobytes()

    def test_classical_values_are_the_nested_loop_enumeration(self):
        oracle = []
        for a1 in (-1, 1):
            for a2 in (-1, 1):
                for b1 in (-1, 1):
                    for b2 in (-1, 1):
                        oracle.append(float(a1 * b1 + a2 * b1 + a1 * b2 - a2 * b2))
        assert classical_s_values() == oracle


class TestClosedForm:
    def test_cirelson_point(self):
        assert s_closed_form(math.pi / 4, 0.0) == pytest.approx(2 * SQRT2, abs=1e-12)

    def test_eighth_pi(self):
        expected = 3 * math.cos(math.pi / 8) - math.cos(3 * math.pi / 8)
        assert expected == pytest.approx(2.3889551651687704, abs=1e-12)
        assert s_closed_form(math.pi / 8, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_half_pi(self):
        assert s_closed_form(math.pi / 2, math.pi / 4) == pytest.approx(2.0, abs=1e-12)

    def test_agrees_with_s_parameter_on_grid(self):
        thetas = np.linspace(0.0, math.pi, 61)
        xis = np.linspace(0.0, math.pi, 61, endpoint=False)
        closed = np.array([[s_closed_form(t, x) for x in xis] for t in thetas])
        scalar = np.array([[s_parameter(t, x) for x in xis] for t in thetas])
        array = s_parameter(thetas[:, None], xis[None, :])
        assert array.shape == closed.shape
        assert np.max(np.abs(scalar - closed)) <= 1e-12
        assert np.max(np.abs(array - closed)) <= 1e-12


class TestBellOperator:
    def test_collinear_is_twice_zz(self):
        assert np.max(np.abs(bell_operator(0.0) - 2.0 * tensor(PAULI_Z, PAULI_Z))) <= 1e-12

    def test_quarter_pi_spectrum(self):
        vals = np.linalg.eigvalsh(bell_operator(math.pi / 4))
        assert np.allclose(vals, [-2 * SQRT2, 0.0, 0.0, 2 * SQRT2], atol=1e-9)

    def test_hermitian_traceless(self):
        rng = np.random.default_rng(38)
        for theta in rng.uniform(0, math.pi, 25):
            b = bell_operator(theta)
            assert np.max(np.abs(b - b.conj().T)) <= 1e-12
            assert abs(np.trace(b)) <= 1e-12

    def test_expectation_equals_s_parameter(self):
        rng = np.random.default_rng(39)
        for _ in range(50):
            theta = rng.uniform(0, math.pi)
            xi = rng.uniform(0, math.pi)
            assert expectation(state_phi(xi), bell_operator(theta)) == pytest.approx(
                s_parameter(theta, xi), abs=1e-12
            )

    def test_array_matches_scalar_calls(self):
        thetas = np.random.default_rng(40).uniform(0, math.pi, (4, 25))
        stack = bell_operator(thetas)
        assert stack.shape == (4, 25, 4, 4)
        per_theta = np.array([[bell_operator(t) for t in row] for row in thetas])
        assert stack.tobytes() == per_theta.tobytes()

    def test_landau_spectrum_at_arbitrary_settings(self):
        # Landau (1987): B at any settings (a1, a2, b1, b2) has the eigenvalues +-2 sqrt(1 +- |x|),
        # x = sin(a1 - a2) sin(b1 - b2); the oracle for a closed-form spectrum.
        a1, a2, b1, b2 = np.random.default_rng(42).uniform(0.0, 2 * math.pi, (4, 20000))
        matrices = [observable(alpha).matrix for alpha in (a1, a2, b1, b2)]
        b = chsh._combine(tensor(oa, ob) for oa, ob in chsh._pairs(*matrices))
        x = np.abs(np.sin(a1 - a2) * np.sin(b1 - b2))
        high, low = 2 * np.sqrt(1 + x), 2 * np.sqrt(1 - x)
        closed = np.stack([-high, -low, low, high], axis=-1)
        assert np.max(np.abs(np.linalg.eigvalsh(b) - closed)) <= 1e-13


class TestQuantumBounds:
    def test_cirelson_attained(self):
        qb = quantum_bounds(math.pi / 4)
        assert qb.s_min == pytest.approx(-2 * SQRT2, abs=1e-9)
        assert qb.s_max == pytest.approx(2 * SQRT2, abs=1e-9)

    def test_collinear(self):
        qb = quantum_bounds(0.0)
        assert (qb.s_min, qb.s_max) == pytest.approx((-2.0, 2.0), abs=1e-9)

    def test_eighth_pi(self):
        qb = quantum_bounds(math.pi / 8)
        assert (qb.s_min, qb.s_max) == pytest.approx(
            (-math.sqrt(6.0), math.sqrt(6.0)), abs=1e-9
        )

    def test_closed_form_envelope(self):
        # +-2 sqrt(1 + sin^2 2 theta), validated against the eigensolver.
        for theta in np.linspace(0.0, math.pi, 181):
            qb = quantum_bounds(theta)
            envelope = 2.0 * math.sqrt(1.0 + math.sin(2 * theta) ** 2)
            assert abs(qb.s_max - envelope) <= 1e-9
            assert abs(qb.s_min + envelope) <= 1e-9

    def test_array_matches_scalar_calls(self):
        # The default grid, bitwise: at rows 44 and 134 another eigensolver
        # (LAPACK) already changes the last printed digit of the bounds gap.
        thetas = np.linspace(0.0, math.pi, 181)
        qb = quantum_bounds(thetas)
        assert qb.s_min.shape == qb.s_max.shape == (181,)
        per_theta = [quantum_bounds(t) for t in thetas]
        assert qb.s_min.tobytes() == np.array([b.s_min for b in per_theta]).tobytes()
        assert qb.s_max.tobytes() == np.array([b.s_max for b in per_theta]).tobytes()

    def test_empty_theta_gives_empty_arrays(self):
        qb = quantum_bounds(np.array([]))
        assert qb.s_min.shape == qb.s_max.shape == (0,)
        assert s_parameter(np.array([]), 0.0).shape == (0,)

    def test_scalar_gives_floats(self):
        qb = quantum_bounds(0.3)
        assert type(qb.s_min) is float and type(qb.s_max) is float

    def test_spectrum_contains_s_below_cirelson(self):
        # Two paths: S from the probability kernel, the bounds from the Jacobi
        # spectrum.  Thetas: the default grid, the 0:180:721 --degrees grid and
        # random points.  The containment and ceiling asserts hold with a worst
        # margin of -4.4e-16, so 1e-12 leaves room only for rounding.
        thetas = np.concatenate([
            np.linspace(0.0, math.pi, 181),
            np.linspace(0.0, math.pi, 721),
            np.random.default_rng(15).uniform(0.0, math.pi, 2000),
        ])
        tol = 1e-12
        qb = quantum_bounds(thetas)
        s = s_parameter(thetas[:, None], np.linspace(0.0, math.pi, 181))
        assert np.all(qb.s_min[:, None] - tol <= s) and np.all(s <= qb.s_max[:, None] + tol)
        assert np.all(qb.s_min <= qb.s_max + tol)
        assert np.all(np.maximum(np.abs(qb.s_min), np.abs(qb.s_max)) <= CIRELSON_LIMIT + tol)


class TestFamilyExtremum:
    def test_quarter_pi(self):
        xi_star, s_star = family_extremum(math.pi / 4)
        assert xi_star == pytest.approx(0.0, abs=1e-12)
        assert s_star == pytest.approx(2 * SQRT2, abs=1e-9)

    def test_half_pi(self):
        xi_star, s_star = family_extremum(math.pi / 2)
        assert xi_star == pytest.approx(math.pi / 4, abs=1e-12)
        assert s_star == pytest.approx(2.0, abs=1e-9)

    def test_eighth_pi(self):
        _, s_star = family_extremum(math.pi / 8)
        assert s_star == pytest.approx(math.sqrt(6.0), abs=1e-9)

    def test_attains_spectral_bound(self):
        for theta in np.linspace(0.0, math.pi, 181):
            _, s_star = family_extremum(theta)
            assert abs(s_star - quantum_bounds(theta).s_max) <= 1e-9

    def test_array_matches_scalar_calls(self):
        thetas = np.linspace(0.0, math.pi, 181)
        xi_star, s_star = family_extremum(thetas)
        assert xi_star.shape == s_star.shape == (181,)
        scalar = [family_extremum(t) for t in thetas]
        assert xi_star.tobytes() == np.array([x for x, _ in scalar]).tobytes()
        assert s_star.tobytes() == np.array([s for _, s in scalar]).tobytes()

    def test_matches_closed_form_maximizer(self):
        # xi* = atan2(sin t - sin 3t, 3 cos t - cos 3t)/2, compared modulo pi.
        thetas = np.linspace(0.0, math.pi, 181)
        xi_star, _ = family_extremum(thetas)
        for theta, got in zip(thetas, xi_star):
            c, a = math.sin(theta) - math.sin(3 * theta), 3 * math.cos(theta) - math.cos(3 * theta)
            closed = 0.5 * math.atan2(c, a)
            gap = abs(got - closed) % math.pi
            assert min(gap, math.pi - gap) <= 1e-15


class TestClassicalBound:
    def test_full_enumeration(self):
        values = classical_s_values()
        assert len(values) == 16
        assert max(values) == 2.0
        assert min(values) == -2.0
        assert max(values) == CLASSICAL_LIMIT

    def test_all_plus_assignment(self):
        a1 = a2 = b1 = b2 = 1
        assert a1 * b1 + a2 * b1 + a1 * b2 - a2 * b2 == 2

    def test_alternating_assignment_saturates(self):
        a1, a2, b1, b2 = 1, -1, 1, -1
        assert abs(a1 * b1 + a2 * b1 + a1 * b2 - a2 * b2) == 2


class TestHaarSampling:
    def test_within_spectral_bounds(self):
        for theta in (0.0, math.pi / 8, math.pi / 4):
            qb = quantum_bounds(theta)
            s = haar_sample_s(theta, 20_000, HAAR_SEED)
            assert s.min() >= qb.s_min - 1e-9
            assert s.max() <= qb.s_max + 1e-9

    def test_calibrated_maximum(self):
        s = haar_sample_s(math.pi / 4, 100_000, HAAR_SEED)
        assert s.max() >= 0.95 * CIRELSON_LIMIT

    def test_deterministic(self):
        a = haar_sample_s(math.pi / 8, 500, 12)
        b = haar_sample_s(math.pi / 8, 500, 12)
        assert np.array_equal(a, b)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            haar_sample_s(math.pi / 4, 0, 1)

    def test_rejects_fractional_count_before_allocating(self, monkeypatch):
        # 2.5 samples used to give 2.
        assert np.array_equal(haar_sample_s(0.3, 1e3, 4), haar_sample_s(0.3, 1000, 4))

        def unreachable(*args):
            raise AssertionError("the count is checked before any state is drawn")

        monkeypatch.setattr(chsh, "bell_operator", unreachable)
        monkeypatch.setattr(chsh, "words", unreachable)
        for n in (2.5, 0.5, np.float64(1000.25)):
            with pytest.raises(ValueError, match="whole number"):
                haar_sample_s(0.3, n, 1)

    def test_checks_n_once(self, monkeypatch):
        calls, whole = [], chsh._whole
        monkeypatch.setattr(chsh, "_whole", lambda *args: calls.append(args) or whole(*args))
        haar_sample_s(0.3, 2 * chsh._HAAR_CHUNK + 5, 1)
        assert calls == [(2 * chsh._HAAR_CHUNK + 5, "n", 1)]

    def test_prefix_stable_across_chunk_boundaries(self):
        # Sample i reads words 3i+1..3i+3 of the seed's stream, whatever n is.
        full = haar_sample_s(0.3, 2 * chsh._HAAR_CHUNK + 5000, 9)
        for k in (1, 1234, chsh._HAAR_CHUNK, chsh._HAAR_CHUNK + 1, 2 * chsh._HAAR_CHUNK + 3):
            assert np.array_equal(full[:k], haar_sample_s(0.3, k, 9))

    def test_state_reads_its_three_words(self):
        # State i: the spacings of the sorted uniforms of words 3i+1..3i+3, summed
        # against the ascending spectrum in a fixed order.
        lam = herm_eigenvalues(bell_operator(0.3))
        samples = haar_sample_s(0.3, 40, 9)
        for i in (0, 1, 39):
            u0, u1, u2 = sorted(float(x) for x in _unit(words(9, 3 * i, 3)))
            w = (u0, u1 - u0, u2 - u1, 1.0 - u2)
            assert samples[i] == ((lam[0] * w[0] + lam[1] * w[1]) + lam[2] * w[2]) + lam[3] * w[3]

    def test_weights_match_sorted_spacings_with_ties_and_zeros(self, monkeypatch):
        # Every triple over {0, 0.25, 0.75} and some random ones: ties, exact 0.0 and
        # every order.  Against a unit-vector spectrum each sample is one weight, exactly.
        grid = np.array(np.meshgrid(*[[0.0, 0.25, 0.75]] * 3)).reshape(3, -1).T
        triples = np.concatenate([grid, np.random.default_rng(2).random((50, 3))])
        monkeypatch.setattr(chsh, "_unit", lambda words: triples.reshape(-1))
        u = np.sort(triples, axis=1)
        expected = (u[:, 0], u[:, 1] - u[:, 0], u[:, 2] - u[:, 1], 1.0 - u[:, 2])
        for k in range(4):
            assert np.array_equal(haar_block(np.eye(4)[k], 1, 0, len(triples)), expected[k])

    def test_bytes_do_not_depend_on_chunk_size(self, monkeypatch):
        expected = {theta: haar_sample_s(theta, 5000, 9) for theta in (0.3, math.pi / 4)}
        for chunk in (7, 1000):
            monkeypatch.setattr(chsh, "_HAAR_CHUNK", chunk)
            for theta, samples in expected.items():
                assert np.array_equal(haar_sample_s(theta, 5000, 9), samples)

    def test_memory_is_bounded(self):
        # All 400k states' words, uniforms and spacings at once peak at about 30 MB;
        # chunks of 2**14 states leave the 3.2 MB result and one chunk (about 5 MB in all).
        haar_sample_s(math.pi / 4, 1000, 1)
        tracemalloc.start()
        try:
            haar_sample_s(math.pi / 4, 400_000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"tracemalloc peak {peak / 2**20:.2f} MB"


class TestHaarLaw:
    # <psi|B|psi> for Haar psi is sum_i lambda_i w_i with w uniform on the simplex, so its law is
    # the cubic B-spline on the spectrum (Curry & Schoenberg 1966).  Seed and thresholds are fixed.
    SEED, N = 11, 1_000_000

    @staticmethod
    def spline_cdf(lam, x):
        # F(x) = 1 - sum_i (lambda_i - x)_+^3 / prod_{j != i} (lambda_i - lambda_j), for distinct lambda.
        tail = sum(
            np.maximum(li - x, 0.0) ** 3 / math.prod(li - lj for j, lj in enumerate(lam) if j != i)
            for i, li in enumerate(lam)
        )
        return 1.0 - tail

    @pytest.mark.parametrize("theta", [0.3, math.pi / 8, 1.0])
    def test_ks_against_spline_law(self, theta):
        kstest = pytest.importorskip("scipy.stats").kstest
        lam = np.linalg.eigvalsh(bell_operator(theta))
        assert np.min(np.diff(lam)) > 0.5  # distinct eigenvalues, where the CDF formula holds
        result = kstest(haar_sample_s(theta, self.N, self.SEED), lambda x: self.spline_cdf(lam, x))
        assert result.pvalue >= 1e-6, f"KS p = {result.pvalue:.3g}"

    @pytest.mark.parametrize("theta", [0.0, math.pi / 4, math.pi / 2])
    def test_moments_at_degenerate_spectra(self, theta):
        # Mean tr B / 4 = 0 and variance tr B^2 / 20 = 0.8 for every theta.
        b = bell_operator(theta)
        assert np.trace(b).real == pytest.approx(0.0, abs=1e-12)
        assert np.trace(b @ b).real / 20.0 == pytest.approx(0.8, abs=1e-12)
        s = haar_sample_s(theta, self.N, self.SEED)
        mean, dev2 = s.mean(), (s - s.mean()) ** 2
        assert abs(mean) <= 6.0 * math.sqrt(0.8 / self.N)
        assert abs(dev2.mean() - 0.8) <= 6.0 * dev2.std() / math.sqrt(self.N)
