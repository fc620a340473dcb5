import math
import tracemalloc
import warnings

import numpy as np
import pytest

from chshlab import chsh, expsim
from chshlab import rng as rng_module
from chshlab.chsh import s_parameter, state_phi
from chshlab.cli import DEFAULT_ANGLE_LIST
from chshlab.expsim import NoiseModel, SEstimate, estimate_s, setting_probabilities
from chshlab.linalg import PAULI_Z
from chshlab.rng import _unit, binomial, derive_seed, words

SQRT2 = math.sqrt(2.0)
NO_NOISE = NoiseModel.ideal()
SINGLET = np.array([0, 1, -1, 0], dtype=complex) / SQRT2
ZZ = np.kron(PAULI_Z, PAULI_Z)


# The density-matrix path the simulator computes in closed form, kept as a
# reference: the half-wave plate on arm b acting on the singlet, the Werner
# mixture, and Re<k|rho|k> on the analyzer product kets.


def prepare_via_hwp(xi):
    """Rotate photon b of the singlet by xi - pi/2.

    The rotation maps |H> -> cos(chi)|H> + sin(chi)|V> and
    |V> -> -sin(chi)|H> + cos(chi)|V> with chi = xi - pi/2.
    """
    chi = xi - 0.5 * math.pi
    c, s = math.cos(chi), math.sin(chi)
    return np.kron(np.eye(2), np.array([[c, -s], [s, c]])) @ SINGLET


def werner_state(psi, visibility):
    """visibility * |psi><psi| + (1 - visibility) * I/4."""
    return visibility * np.outer(psi, psi.conj()) + (1.0 - visibility) * np.eye(4) / 4.0


def analyzer_kets(alpha):
    """(s, s_perp) with s = cos(alpha/2)|H> + sin(alpha/2)|V>."""
    c, s = math.cos(0.5 * alpha), math.sin(0.5 * alpha)
    return np.array([c, s]), np.array([s, -c])


def reference_probabilities(alpha, beta, xi, noise):
    rho = werner_state(prepare_via_hwp(xi), noise.visibility)
    f = noise.accidental_fraction
    kets_a = analyzer_kets(alpha + noise.analyzer_offset_a)
    kets_b = analyzer_kets(beta + noise.analyzer_offset_b)
    return np.array(
        [
            (1.0 - f) * np.real(np.vdot(k, rho @ k)) + 0.25 * f
            for k in (np.kron(ka, kb) for ka in kets_a for kb in kets_b)
        ]
    )


def reference_same(alpha, beta, xi, noise):
    """The reference's same-outcome probability p_pp + p_mm."""
    p_pp, _, _, p_mm = reference_probabilities(alpha, beta, xi, noise)
    return p_pp + p_mm


class TestNoiseModel:
    def test_defaults(self):
        noise = NoiseModel()
        assert noise.visibility == 0.96
        assert noise.analyzer_offset_a == 0.0
        assert noise.analyzer_offset_b == 0.0
        assert noise.accidental_fraction == 0.005

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(visibility=1.2)
        with pytest.raises(ValueError):
            NoiseModel(accidental_fraction=1.0)
        with pytest.raises(ValueError):
            NoiseModel(analyzer_offset_a=math.inf)


class TestPrepareViaHwp:
    """The half-wave plate prepares the kernel's state, state_phi."""

    def test_singlet_fixed_point(self):
        # chi = 0: the rotation is the identity and the singlet passes through.
        out = prepare_via_hwp(math.pi / 2)
        assert np.allclose(out, np.array([0, 1, -1, 0]) / SQRT2, atol=1e-12)

    def test_rotation_to_phi_plus(self):
        # chi = -pi/2 maps |H> -> -|V>, |V> -> |H> on arm b; expanding on the
        # singlet by hand gives (|HH> + |VV>)/sqrt2.
        out = prepare_via_hwp(0.0)
        assert np.allclose(out, np.array([1, 0, 0, 1]) / SQRT2, atol=1e-12)
        assert np.allclose(out, state_phi(0.0), atol=1e-12)

    def test_equal_mixture(self):
        out = prepare_via_hwp(math.pi / 4)
        assert np.allclose(out, np.array([1, 1, -1, 1]) / 2.0, atol=1e-12)
        assert np.allclose(out, state_phi(math.pi / 4), atol=1e-12)

    def test_overlap_with_direct_construction(self):
        rng = np.random.default_rng(41)
        for xi in rng.uniform(0, math.pi, 100):
            overlap = abs(np.vdot(prepare_via_hwp(xi), state_phi(xi)))
            assert abs(overlap - 1.0) <= 1e-12


class TestWernerState:
    """The reference Werner state."""

    def test_full_visibility(self):
        psi = state_phi(0.3)
        assert np.allclose(werner_state(psi, 1.0), np.outer(psi, psi.conj()), atol=1e-12)

    def test_zero_visibility(self):
        assert np.allclose(werner_state(state_phi(0.3), 0.0), np.eye(4) / 4.0, atol=1e-12)

    def test_mixture_expectation(self):
        rho = werner_state(state_phi(0.0), 0.9)
        assert np.trace(rho @ ZZ).real == pytest.approx(0.9, abs=1e-12)
        # The same correlation from the simulator's same-outcome probability.
        p = setting_probabilities(0.0, 0.0, 0.0, NoiseModel(visibility=0.9, accidental_fraction=0.0))
        assert 2 * p - 1 == pytest.approx(0.9, abs=1e-12)


class TestSettingProbabilities:
    """The noisy same-outcome probability, one per analyzer pair."""

    def test_pure_phi_plus_aligned(self):
        # (p_pp, p_pm, p_mp, p_mm) = (1/2, 0, 0, 1/2).
        assert setting_probabilities(0.0, 0.0, 0.0, NO_NOISE) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_is_uniform(self):
        rng = np.random.default_rng(42)
        noise = NoiseModel(visibility=0.0, accidental_fraction=0.0)
        for _ in range(20):
            alpha, beta = rng.uniform(0, 2 * math.pi, 2)
            xi = rng.uniform(0, math.pi)
            p = setting_probabilities(alpha, beta, xi, noise)
            assert p == pytest.approx(0.5, abs=1e-12)
            assert p == pytest.approx(reference_same(alpha, beta, xi, noise), abs=1e-12)

    def test_convex_mixture_arithmetic(self):
        noise = NoiseModel(visibility=0.96, accidental_fraction=0.0)
        p = setting_probabilities(0.0, 0.0, 0.0, noise)
        # 0.96 * (1/2 + 1/2) + 0.04 * (1/4 + 1/4) by direct arithmetic
        assert p == pytest.approx(0.98, abs=1e-12)
        # cross-check against the trace path
        rho = werner_state(state_phi(0.0), 0.96)
        assert (rho[0, 0] + rho[3, 3]).real == pytest.approx(0.98, abs=1e-12)
        assert p == pytest.approx(reference_same(0.0, 0.0, 0.0, noise), abs=1e-12)

    def test_accidental_floor(self):
        noise = NoiseModel(visibility=1.0, accidental_fraction=0.2)
        p = setting_probabilities(0.0, 0.0, 0.0, noise)
        # 0.8 * (1/2 + 1/2) + 0.2 * (1/4 + 1/4)
        assert p == pytest.approx(0.9, abs=1e-12)
        assert p == pytest.approx(reference_same(0.0, 0.0, 0.0, noise), abs=1e-12)

    def test_offsets_shift_analyzers(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            alpha, beta = rng.uniform(0, 2 * math.pi, 2)
            da, db = rng.uniform(-0.3, 0.3, 2)
            noise = NoiseModel(
                visibility=1.0,
                analyzer_offset_a=da,
                analyzer_offset_b=db,
                accidental_fraction=0.0,
            )
            shifted = setting_probabilities(alpha + da, beta + db, 0.4, NO_NOISE)
            assert setting_probabilities(alpha, beta, 0.4, noise) == pytest.approx(shifted, abs=1e-12)
            assert shifted == pytest.approx(reference_same(alpha, beta, 0.4, noise), abs=1e-12)

    def test_sums_to_one(self):
        # With the reference's different-outcome probability p_pm + p_mp, the four outcomes sum to one.
        rng = np.random.default_rng(44)
        alpha, beta = rng.uniform(0, 2 * math.pi, (2, 50))
        p = setting_probabilities(alpha, beta, 1.1, NoiseModel())
        assert p.shape == (50,)
        assert ((0.0 <= p) & (p <= 1.0)).all()
        for p_same, a, b in zip(p, alpha, beta):
            _, p_pm, p_mp, _ = reference_probabilities(a, b, 1.1, NoiseModel())
            assert abs(p_same + (p_pm + p_mp) - 1.0) <= 1e-12

    def test_matches_density_matrix_reference(self):
        rng = np.random.default_rng(46)
        for _ in range(200):
            noise = NoiseModel(
                visibility=rng.uniform(0, 1),
                analyzer_offset_a=rng.uniform(-8, 8),
                analyzer_offset_b=rng.uniform(-8, 8),
                accidental_fraction=rng.uniform(0, 0.5),
            )
            alpha, beta = rng.uniform(0, 2 * math.pi, (2, 4))
            xi = rng.uniform(-4, 4)
            got = setting_probabilities(alpha, beta, xi, noise)
            assert got.shape == (4,) and (got <= 1.0).all()
            for p, a, b in zip(got, alpha, beta):
                assert abs(p - reference_same(a, b, xi, noise)) <= 1e-12

    def test_closed_form_never_exceeds_one(self):
        # p = 1/2 + eta/2 * cos(2 phi) with eta = (1 - f) * v at phi = (a - b)/2 + xi, with no cap at 1: each step
        # rounds monotonically, so eta/2 * cos(2 phi) <= 1/2 keeps p <= 1.  Edge models put v next to 1 and f at 0,
        # at the smallest subnormal and at 2**-53; phi = 0 comes from equal offsets at theta = 0, xi = 0.
        rng = np.random.default_rng(48)
        alpha, beta = rng.uniform(0, 2 * math.pi, (2, 20_000))
        xi = rng.uniform(-4, 4, 20_000)
        alpha[:100], beta[:100], xi[:100] = beta[:100], beta[:100], 0.0  # phi = 0
        offset = 4.614859254854469  # the kernel's p_pp + p_mm rounded above 1 at these equal offsets
        for v in (1.0, 1.0 - 2.0**-53):
            for f in (0.0, 5e-324, 2.0**-53):
                for da, db in ((0.0, 0.0), (offset, offset), (0.3, -0.2)):
                    noise = NoiseModel(visibility=v, analyzer_offset_a=da, analyzer_offset_b=db, accidental_fraction=f)
                    p = setting_probabilities(alpha, beta, xi, noise)
                    a, b = chsh.analyzer_angle(alpha + da), chsh.analyzer_angle(beta + db)
                    eta = (1.0 - f) * v
                    np.testing.assert_array_equal(p, 0.5 + 0.5 * eta * np.cos((a - b) + 2 * chsh.xi_param(xi)))
                    assert p.max() <= 1.0
                    if da == db:
                        assert setting_probabilities(0.0, 0.0, 0.0, noise) <= 1.0
        aligned = NoiseModel(
            visibility=1.0, analyzer_offset_a=offset, analyzer_offset_b=offset, accidental_fraction=0.0
        )
        assert setting_probabilities(0.0, 0.0, 0.0, aligned) == 1.0


class TestTwoParameters:
    """A run depends on the noise only through eta = (1 - f) * v and xi_eff = xi + (da - db)/2; thresholds fixed
    before the first run."""

    @staticmethod
    def inputs(seed, count=20_000):
        rng = np.random.default_rng(seed)
        alpha, beta = rng.uniform(0, 2 * math.pi, (2, count))
        return rng, alpha, beta, rng.uniform(-4, 4, count)

    def test_visibility_and_accidentals_enter_only_through_eta(self):
        rng, alpha, beta, xi = self.inputs(49)
        models = [(0.96, 0.005), (1.0, 0.2), (0.5, 0.5), (1.0 - 2.0**-53, 5e-324)]
        models += [tuple(pair) for pair in zip(rng.uniform(0, 1, 20), rng.uniform(0, 0.999, 20))]
        for v, f in models:
            p = setting_probabilities(alpha, beta, xi, NoiseModel(visibility=v, accidental_fraction=f))
            folded = NoiseModel(visibility=(1.0 - f) * v, accidental_fraction=0.0)
            np.testing.assert_array_equal(p, setting_probabilities(alpha, beta, xi, folded))

    def test_offsets_enter_only_through_xi_eff(self):
        # The two sides differ only in how the cosine's argument, in [-2 pi, 4 pi), is rounded, and p moves by at
        # most eta/2 per unit of it: within 4 ulp of that argument.
        rng, alpha, beta, xi = self.inputs(50)
        for da, db in [(0.013, -0.02), (-0.3, 0.3), *rng.uniform(-0.3, 0.3, (20, 2))]:
            for v, f in ((1.0, 0.0), (0.96, 0.005)):
                shifted = setting_probabilities(alpha, beta, xi + 0.5 * (da - db), NoiseModel(v, 0.0, 0.0, f))
                p = setting_probabilities(alpha, beta, xi, NoiseModel(v, da, db, f))
                tolerance = 0.5 * (1.0 - f) * v * 4 * np.spacing(4 * math.pi)
                assert np.abs(p - shifted).max() <= tolerance, (da, db, v, f)


class TestDefaultLists:
    """simulate's default 5x5 lists: 100 (theta, xi, setting) cells, one binomial table row per distinct p."""

    LISTS = np.array(DEFAULT_ANGLE_LIST)

    def estimate(self, monkeypatch, replications, spied):
        """estimate_s as simulate calls it on the default lists, and the arguments of each spied call."""
        calls = {name: [] for _, name in spied}
        for module, name in spied:
            inner = getattr(module, name)

            def spy(*args, _inner=inner, _name=name):
                calls[_name].append(args)
                return _inner(*args)

            monkeypatch.setattr(module, name, spy)
        i, j, rep = np.ix_(range(5), range(5), range(replications))
        seeds = derive_seed(5, i, j, rep)
        return estimate_s(self.LISTS[i], self.LISTS[j], 10_000, NoiseModel(), seeds), calls

    def test_one_probability_per_phi(self, monkeypatch):
        # Settings with the same phi = (a - b)/2 + xi share one value: 13 distinct probabilities among the 100
        # cells, where the four-amplitude kernel rounded them to 30.
        _, calls = self.estimate(monkeypatch, 1, [(expsim, "setting_probabilities")])
        (args,) = calls["setting_probabilities"]
        p = setting_probabilities(*args)
        assert p.shape == (5, 5, 1, 4)
        assert np.unique(p).size == 13

    def test_windows_are_built_per_row_not_per_draw(self, monkeypatch):
        # 2,000 draws from 100 p entries in one estimate_s call; binomial sizes windows per row, not per draw.
        est, calls = self.estimate(monkeypatch, 20, [(rng_module, "binomial_window")])
        assert est.counts.shape == (5, 5, 20, 4, 2)
        ((_, p),) = calls["binomial_window"]
        assert np.size(p) == np.unique(p).size == 13

    def test_binomial_memory_at_2000_replications(self, monkeypatch):
        # 2e5 draws from the 100 rows peaked at 21.6 MiB when the windows and the row dedup ran on every draw,
        # and peak at 10.05 MiB with one window per distinct row.
        _, calls = self.estimate(monkeypatch, 2000, [(expsim, "binomial")])
        ((n, p, u),) = calls["binomial"]
        assert np.size(u) == 200_000
        binomial(n, p, u)
        tracemalloc.start()
        try:
            binomial(n, p, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20, f"tracemalloc peak {peak / 2**20:.2f} MiB"


class TestSettingDraws:
    """The per-setting same-outcome draws inside estimate_s."""

    def test_degenerate_distribution(self):
        # phi+ with aligned analyzers (theta = 0, no offsets or equal ones) never sends a pair to +- or -+.  At these
        # equal offsets p_pp + p_mm rounds to 1 + 2**-52, which binomial would refuse.
        offset = 4.614859254854469
        aligned = NoiseModel(visibility=1.0, analyzer_offset_a=offset, analyzer_offset_b=offset, accidental_fraction=0.0)
        p_pp, _, _, p_mm = chsh._probabilities(chsh.analyzer_angle(offset), chsh.analyzer_angle(offset), 0.0)
        assert p_pp + p_mm > 1.0
        # setting_probabilities gives 1/2 + cos(0)/2 = 1 exactly.
        assert setting_probabilities(0.0, 0.0, 0.0, aligned) == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for noise in (NO_NOISE, aligned):
                for seed in range(20):
                    assert estimate_s(0.0, 0.0, 100, noise, seed).counts.tolist() == [[100, 0]] * 4

    def test_deterministic(self):
        noise = NoiseModel(analyzer_offset_a=0.05, analyzer_offset_b=-0.02)
        a = estimate_s(0.3, 0.7, 5000, noise, seed=99)
        b = estimate_s(0.3, 0.7, 5000, noise, seed=99)
        assert np.array_equal(a.counts, b.counts)

    def test_uniform_counts_within_five_sigma(self):
        noise = NoiseModel(visibility=0.0, accidental_fraction=0.0)
        est = estimate_s(0.2, 1.3, 1_000_000, noise, seed=8)
        sigma = math.sqrt(1_000_000 * 0.5 * 0.5)
        assert (np.abs(est.counts - 500_000) < 5 * sigma).all()

    def test_count_conservation(self):
        rng = np.random.default_rng(45)
        for seed in range(20):
            pairs = int(rng.integers(2, 5000))
            est = estimate_s(rng.uniform(0, math.pi), 0.9, pairs, NoiseModel(), seed)
            assert (est.counts >= 0).all()
            assert (est.counts.sum(axis=-1) == pairs).all()

    def test_rejects_zero_pairs(self):
        with pytest.raises(ValueError):
            estimate_s(0.5, 0.1, 0, NO_NOISE, seed=1)


class TestSimulatorLaw:
    """The law of estimate_s's draws, over many seeds in one broadcast call.

    The seeds, the setting and the thresholds were fixed before the first run:
    a moment fails beyond 5 standard errors, a chi-square test below p = 1e-6.
    """

    THETA, XI, PAIRS, RUNS = 0.3, 0.2, 10_000, 40_000
    NOISE = NoiseModel(analyzer_offset_a=0.02, analyzer_offset_b=-0.01)

    @pytest.fixture(scope="class")
    def draws(self):
        t = self.THETA
        # (a1, b1), (a2, b1), (a1, b2), (a2, b2) with a1 = 2t, a2 = 0, b1 = t, b2 = 3t.
        alphas, betas = np.array([2 * t, 0.0, 2 * t, 0.0]), np.array([t, t, 3 * t, 3 * t])
        p_same = setting_probabilities(alphas, betas, self.XI, self.NOISE)
        seeds = derive_seed(2026, np.arange(self.RUNS))
        return p_same, estimate_s(self.THETA, self.XI, self.PAIRS, self.NOISE, seeds)

    def test_pull_is_standard(self, draws):
        p_same, est = draws
        e = 2 * p_same - 1
        s_expected = e[0] + e[1] + e[2] - e[3]
        pull = (est.s_hat - s_expected) / est.std_err
        assert abs(pull.mean()) < 5 / math.sqrt(self.RUNS)
        assert abs(pull.var() - 1.0) < 5 * math.sqrt(2 / self.RUNS)

    def test_counts_match_setting_probabilities(self, draws):
        stats = pytest.importorskip("scipy.stats")
        p_same, est = draws
        expected = self.PAIRS * np.stack([p_same, 1.0 - p_same], axis=-1)
        # Pooled over the runs, each setting's (N_same, N_diff) is one binomial draw of RUNS * PAIRS pairs.
        pooled = (est.counts.sum(axis=0) - self.RUNS * expected) ** 2 / (self.RUNS * expected)
        assert stats.chi2.sf(pooled.sum(), df=4) > 1e-6
        # Run by run, the statistics add up to a chi-square with 4 degrees of freedom per run.
        spread = ((est.counts - expected) ** 2 / expected).sum()
        df = 4 * self.RUNS
        assert min(stats.chi2.sf(spread, df), stats.chi2.cdf(spread, df)) > 1e-6


class TestEstimateS:
    def test_noiseless_hits_quantum_ceiling(self):
        est = estimate_s(math.pi / 4, 0.0, 100_000, NO_NOISE, seed=2024)
        assert est.std_err > 0.0
        assert abs(est.s_hat - 2 * SQRT2) < 5 * est.std_err

    def test_zero_visibility_estimates_zero(self):
        noise = NoiseModel(visibility=0.0, accidental_fraction=0.0)
        est = estimate_s(math.pi / 4, 0.0, 100_000, noise, seed=3)
        assert abs(est.s_hat) < 5 * est.std_err

    def test_visibility_scales_s(self):
        noise = NoiseModel(visibility=0.8, accidental_fraction=0.0)
        est = estimate_s(math.pi / 4, 0.0, 1_000_000, noise, seed=4)
        assert abs(est.s_hat - 0.8 * 2 * SQRT2) < 5 * est.std_err

    def test_consistency_over_seeds(self):
        target = s_parameter(math.pi / 8, 0.3)
        hits = 0
        for seed in range(50):
            est = estimate_s(math.pi / 8, 0.3, 10_000, NO_NOISE, seed=seed)
            if abs(est.s_hat - target) < 5 * est.std_err:
                hits += 1
        assert hits >= 49

    def test_consistency_large_sample(self):
        # 200 noiseless replications at 1e6 pairs per setting; the 5-sigma
        # band must hold in at least 99% of them.
        target = s_parameter(math.pi / 8, 0.3)
        hits = 0
        for seed in range(200):
            est = estimate_s(math.pi / 8, 0.3, 1_000_000, NO_NOISE, seed=seed)
            if abs(est.s_hat - target) < 5 * est.std_err:
                hits += 1
        assert hits >= 198

    def test_counts_attached_per_setting(self):
        est = estimate_s(0.7, 0.2, 500, NoiseModel(), seed=6)
        assert isinstance(est, SEstimate)
        assert est.counts.shape == (4, 2)
        assert est.counts.dtype.kind == "i"
        assert (est.counts.sum(axis=-1) == 500).all()

    def test_s_hat_combines_setting_correlations(self):
        est = estimate_s(0.7, 0.2, 500, NoiseModel(), seed=6)
        e = [(int(same) - int(diff)) / 500 for same, diff in est.counts]
        assert est.s_hat == e[0] + e[1] + e[2] - e[3]

    def test_std_err_combines_setting_variances(self):
        est = estimate_s(0.7, 0.2, 500, NoiseModel(), seed=6)
        e = (est.counts[:, 0] - est.counts[:, 1]) / 500
        expected = math.sqrt(sum((1.0 - e**2) / 500))
        assert est.std_err == pytest.approx(expected, abs=1e-15)

    def test_scalar_inputs_give_floats(self):
        # A seed beyond 64 bits wraps, as derive_seed does.
        est = estimate_s(0.7, 0.2, 500, NoiseModel(), seed=2**64 + 6)
        assert type(est.s_hat) is float and type(est.std_err) is float
        assert np.array_equal(est.counts, estimate_s(0.7, 0.2, 500, NoiseModel(), seed=6).counts)

    def test_array_matches_scalar_calls(self):
        noise = NoiseModel(
            visibility=0.9, analyzer_offset_a=0.013, analyzer_offset_b=-7.0, accidental_fraction=0.02
        )
        thetas = np.array([0.0, 0.3, math.pi / 4, 3.0])[:, None, None]
        xis = np.array([-4.0, 0.0, 1.2])[None, :, None]
        seeds = derive_seed(2**63 + 5, np.arange(4)[:, None, None], np.arange(3)[:, None], np.arange(5))
        est = estimate_s(thetas, xis, 20_000, noise, seeds)
        assert est.s_hat.shape == est.std_err.shape == (4, 3, 5)
        assert est.counts.shape == (4, 3, 5, 4, 2)
        for (a, b, r), s_hat in np.ndenumerate(est.s_hat):
            theta, xi, seed = float(thetas[a, 0, 0]), float(xis[0, b, 0]), int(seeds[a, b, r])
            one = estimate_s(theta, xi, 20_000, noise, seed)
            assert (one.s_hat, one.std_err) == (s_hat, est.std_err[a, b, r])
            assert np.array_equal(one.counts, est.counts[a, b, r])

    def test_one_table_per_theta_xi(self, monkeypatch):
        calls = []
        kernel = expsim.setting_probabilities

        def counted(*args):
            calls.append(kernel(*args))
            return calls[-1]

        monkeypatch.setattr(expsim, "setting_probabilities", counted)
        est = estimate_s(np.array([0.1, 0.2])[:, None], 0.3, 100, NoiseModel(), np.arange(7))
        assert est.s_hat.shape == (2, 7)
        assert [p.shape for p in calls] == [(2, 1, 4)]

    def test_deterministic(self):
        a = estimate_s(0.9, 0.1, 2000, NoiseModel(), seed=11)
        b = estimate_s(0.9, 0.1, 2000, NoiseModel(), seed=11)
        assert a.s_hat == b.s_hat and a.std_err == b.std_err

    def test_settings_use_independent_derived_seeds(self):
        # Each setting must reproduce standalone from its derived seed, so
        # settings can run concurrently and merge in index order.
        theta, xi, pairs, seed = 0.9, 0.1, 2000, 11
        noise = NoiseModel(analyzer_offset_a=0.01, analyzer_offset_b=-0.03)
        est = estimate_s(theta, xi, pairs, noise, seed=seed)
        plan = chsh._pairs(*chsh._settings(theta))
        assert len(plan) == 4
        for index, (a, b) in enumerate(plan):
            p = setting_probabilities(a, b, xi, noise)
            same = binomial(pairs, p, _unit(words(derive_seed(seed, index), 0, 1))[0])
            assert est.counts[index].tolist() == [same, pairs - same]

    def test_one_kernel_call_per_estimate(self, monkeypatch):
        calls = []
        kernel = expsim.setting_probabilities

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(expsim, "setting_probabilities", counted)
        estimate_s(0.9, 0.1, 2000, NoiseModel(), seed=11)
        assert len(calls) == 1
        assert all(np.shape(arg) == (4,) for arg in calls[0][:2])

    def test_one_binomial_call_per_estimate(self, monkeypatch):
        calls = []

        def counted(n, p, u):
            calls.append((np.shape(p), np.shape(u)))
            return binomial(n, p, u)

        monkeypatch.setattr(expsim, "binomial", counted)
        estimate_s(np.array([0.1, 0.2])[:, None], 0.3, 2000, NoiseModel(), np.arange(7))
        assert calls == [((2, 1, 4), (7, 4))]

    def test_rejects_single_pair(self):
        with pytest.raises(ValueError):
            estimate_s(0.5, 0.1, 1, NoiseModel(), seed=0)

    def test_rejects_pairs_above_cap_before_allocating(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the pair cap is checked before any table is built")

        monkeypatch.setattr(expsim, "setting_probabilities", unreachable)
        monkeypatch.setattr(expsim, "binomial", unreachable)
        assert expsim.MAX_PAIRS == 10**12
        with pytest.raises(ValueError, match=r"pairs must be at most 1000000000000, got 1000000000001"):
            estimate_s(0.5, 0.1, 10**12 + 1, NoiseModel(), seed=0)

    def test_rejects_fractional_pairs_before_allocating(self, monkeypatch):
        # 2.9 pairs used to draw 2 per setting.
        expected = estimate_s(0.5, 0.1, 10**4, NoiseModel(), seed=0)
        np.testing.assert_array_equal(estimate_s(0.5, 0.1, 1e4, NoiseModel(), seed=0).counts, expected.counts)

        def unreachable(*args):
            raise AssertionError("pairs are checked before any table is built")

        monkeypatch.setattr(expsim, "setting_probabilities", unreachable)
        monkeypatch.setattr(expsim, "binomial", unreachable)
        for pairs in (2.9, 1e4 + 0.5, np.float64(37.25)):
            with pytest.raises(ValueError, match="whole number"):
                estimate_s(0.5, 0.1, pairs, NoiseModel(), seed=0)
