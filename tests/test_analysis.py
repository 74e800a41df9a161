import math

import numpy as np
import pytest

from ldpmin.analysis import (
    error_bound,
    fit_rate,
    rising_factorial,
    rr_concentration_rate,
    tail_bound,
)
from ldpmin.datagen import BetaScaled, TruncNormal, fixed_cohort
from ldpmin.params import choose_params, gamma_threshold
from ldpmin.protocol import MAX_DEPTH, ProtocolConfig, run_private_min

from conftest import make_rng

mpmath = pytest.importorskip("mpmath")


class TestTailBound:
    def test_zero_deviation_gives_one(self):
        assert tail_bound(1.0, 0.0, 10**4) == 1.0

    def test_clamped_to_unit_interval(self):
        assert 0.0 <= tail_bound(5.0, 0.9, 10**6) <= 1.0

    def test_threshold_identity(self):
        # at the scheduled threshold the bound collapses to e^{-h} exactly
        for epsilon, depth, h, n in [(1.0, 3, 2.5, 10**4), (0.25, 7, 11.0, 2**16),
                                     (4.0, 5, 3.5, 1024), (2.0, 1, 0.7, 50)]:
            g = gamma_threshold(epsilon, depth, h, n)
            assert tail_bound(epsilon / depth, g, n) == pytest.approx(
                math.exp(-h), rel=1e-12
            )

    def test_rate_is_stable_form_of_definition(self):
        with mpmath.workdps(50):
            for eps in (0.1, 1.0, 7.0, 30.0):
                e = mpmath.exp(mpmath.mpf(eps))
                ref = float((e - 1) ** 2 / (4 * (e + 1) * e))
                assert rr_concentration_rate(eps) == pytest.approx(ref, rel=1e-13)
        assert rr_concentration_rate(math.inf) == 0.25

    def test_negative_deviation_rejected(self):
        with pytest.raises(ValueError):
            tail_bound(1.0, -0.1, 10)

    def test_monte_carlo_tail_respects_bound(self):
        # all raw bits -1 (true +1-fraction zero); empirical exceedance of
        # the debiased estimate over gamma must sit below the bound
        from ldpmin.mechanisms import RoundBudget, phi_correction, rr_keep_probability

        n, reps, gamma, eps = 1000, 2 * 10**4, 0.12, 1.0
        budget = RoundBudget(eps)
        p, corr = rr_keep_probability(budget), phi_correction(budget)
        rng = make_rng(9)
        exceed = 0
        for _ in range(reps):
            flips = rng.random(n) >= p
            sum_z = int(np.where(flips, 1, -1).sum())
            exceed += (corr * sum_z / (2 * n) + 0.5) > gamma
        bound = tail_bound(eps, gamma, n)
        sigma = math.sqrt(bound * (1 - bound) / reps)
        assert exceed / reps <= bound + 3 * sigma


def beta_model(alpha, c):
    """A beta(alpha, 1) model whose fatness constant is c: its C is 1/delta^alpha."""
    return BetaScaled(alpha, 1.0, -1.0, c ** (-1.0 / alpha))


class TestErrorBounds:
    def test_fixed_terms_match_reference(self):
        # high-precision evaluation of the three summands at one grid point
        b = error_bound(beta_model(1.0, 1.0 / 0.3), ProtocolConfig(1.0, 5, 0.05, 4096), "fixed")
        assert b.quantile_term == pytest.approx(0.06, rel=1e-12)
        assert b.noise_term == pytest.approx(0.954802410069152305, rel=1e-12)
        assert b.discretization_term == 2.0**-5
        assert b.value == pytest.approx(1.04605241006915231, rel=1e-12)

    def test_fixed_matches_reference_on_grid(self):
        # beta_model's widths for C = 2, 1 and 0.7 are 0.25, 1 and (1/0.7)^0.5
        with mpmath.workdps(50):
            for gamma in (0.01, 0.08, 0.3):
                for epsilon, depth in [(0.5, 3), (2.0, 7)]:
                    for n in (256, 65536):
                        for alpha, c in [(0.5, 2.0), (1.0, 1.0), (2.0, 0.7)]:
                            m = mpmath.mpf(epsilon) / depth
                            t1 = 2 * (2 * mpmath.mpf(gamma) / c) ** (1 / mpmath.mpf(alpha))
                            t2 = mpmath.exp(-(mpmath.exp(m) - 1) ** 2 * gamma**2 * n
                                            / (4 * (mpmath.exp(m) + 1) * mpmath.exp(m)))
                            ref = float(t1 + t2 + mpmath.mpf(2) ** -depth)
                            config = ProtocolConfig(epsilon, depth, gamma, n)
                            got = error_bound(beta_model(alpha, c), config, "fixed")
                            assert got.value == pytest.approx(ref, rel=1e-11)
                            for term in (got.quantile_term, got.noise_term,
                                         got.discretization_term):
                                assert 0.0 <= term <= got.value

    def test_vanishes_in_the_joint_limit(self):
        # gamma -> 0 and depth -> its cap kill the first and last terms; the
        # noise term needs gamma^2 N -> inf as well (alone, gamma -> 0
        # drives it to 1, not 0)
        config = ProtocolConfig(1.0, MAX_DEPTH, 1e-6, 10**24)
        b = error_bound(BetaScaled(1.0, 1.0, -1.0, 1.0), config, "fixed")
        assert b.value < 1e-5
        assert b.noise_term < 1e-12

    def test_applicability_flag(self):
        # a beta(1, 1) model's C (x_max - x_min) is 1 at any width
        model = BetaScaled(1.0, 1.0, -1.0, 2.0)
        wide = error_bound(model, ProtocolConfig(1.0, 5, 0.05, 100), "fixed")
        narrow = error_bound(model, ProtocolConfig(1.0, 5, 0.6, 100), "fixed")
        assert wide.applicable is True
        assert narrow.applicable is False

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("setting", ["fixed", "iid"])
    @pytest.mark.parametrize("model, gamma", [
        (TruncNormal(0.0, 0.02, -1.0, -0.7), 0.1),  # C = 0
        (BetaScaled(0.005, 1.0, -1.0, 0.3), 100.0),  # (2 gamma / C)^200 leaves float64
        (BetaScaled(2000.0, 1.0, -1.0, 2.0), 0.1),  # delta^alpha leaves float64
    ], ids=["zero_c", "quantile_overflow", "constant_overflow"])
    def test_unbounded_quantile_term_is_inf(self, model, gamma, setting):
        b = error_bound(model, ProtocolConfig(1.0, 5, gamma, 100), setting)
        assert b.quantile_term == b.value == math.inf
        assert b.applicable is False
        assert type(b.noise_term) is type(b.discretization_term) is float

    def test_unknown_setting_rejected(self):
        with pytest.raises(ValueError, match="setting"):
            error_bound(BetaScaled(1.0, 1.0, -1.0, 2.0), ProtocolConfig(1.0, 5, 0.05, 100), "x")

    def test_iid_alpha_one_reduces_to_ceiling_ratio(self):
        gamma, n, c = 0.05, 4096, 1.0 / 0.3
        b = error_bound(beta_model(1.0, c), ProtocolConfig(1.0, 5, gamma, n), "iid")
        k = math.ceil(2 * gamma * n)
        assert b.quantile_term == pytest.approx(2 * (1 / c) * k / (n + 1), rel=1e-12)

    def test_iid_shares_noise_and_discretization_terms(self):
        model, config = beta_model(1.5, 0.8), ProtocolConfig(2.0, 6, 0.03, 512)
        fixed = error_bound(model, config, "fixed")
        iid = error_bound(model, config, "iid")
        assert iid.noise_term == fixed.noise_term
        assert iid.discretization_term == fixed.discretization_term

    def test_iid_large_n_limit(self):
        # the rising-factorial ratio approaches (2 gamma N / (N+1))^(1/alpha)
        n, gamma = 10**6, 0.001
        k = math.ceil(2 * gamma * n)
        for alpha in (0.5, 1.0, 2.0):
            ratio = rising_factorial(k, 1 / alpha) / rising_factorial(n + 1, 1 / alpha)
            limit = (2 * gamma * n / (n + 1)) ** (1 / alpha)
            assert ratio / limit == pytest.approx(1.0, rel=2e-3)

    def test_empirical_error_below_fixed_bound(self):
        # statistical check: worst-case mean error of actual runs on a
        # uniform cohort stays under the closed form when it applies
        model = BetaScaled(1.0, 1.0, -1.0, 2.0)
        config = choose_params("lower_alpha", 4096, 4.0)
        bound = error_bound(model, config, "fixed")
        assert bound.applicable
        cohort = fixed_cohort(model, config.n)
        rng = make_rng(21)
        errs = [abs(run_private_min(cohort, config, rng).estimate - model.x_min)
                for _ in range(100)]
        assert np.mean(errs) <= bound.value


class TestRisingFactorial:
    def test_identities(self):
        assert rising_factorial(2.0, 0.0) == pytest.approx(1.0, rel=1e-15)
        assert rising_factorial(3.0, 1.0) == pytest.approx(3.0, rel=1e-12)

    def test_half_integer_point(self):
        # Gamma(4)/Gamma(2.5), 50-digit evaluation rounded to double
        assert rising_factorial(2.5, 1.5) == pytest.approx(4.5135166683820503, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rising_factorial(-1.0, 0.5)
        with pytest.raises(ValueError):
            rising_factorial(2.0, -0.5)


class TestFitRate:
    NS = [2**k for k in range(10, 17)]

    def test_pure_power_law(self):
        fit = fit_rate([(n, n**-0.5) for n in self.NS])
        assert fit.A == pytest.approx(0.5, abs=1e-9)
        assert fit.B == pytest.approx(0.0, abs=1e-7)
        assert fit.alpha_hat == pytest.approx(1.0, abs=1e-6)
        assert fit.residual < 1e-9

    def test_planted_model_recovered_exactly(self):
        fit = fit_rate([(n, 3.0 * math.log(n) ** 2 / n**0.25) for n in self.NS])
        assert fit.A == pytest.approx(0.25, abs=1e-8)
        assert fit.B == pytest.approx(2.0, abs=1e-7)
        assert fit.C == pytest.approx(3.0, rel=1e-6)
        assert fit.residual < 1e-9

    def test_scaling_only_moves_c(self):
        base = fit_rate([(n, math.log(n) / n**0.4) for n in self.NS])
        scaled = fit_rate([(n, 7.0 * math.log(n) / n**0.4) for n in self.NS])
        assert scaled.A == pytest.approx(base.A, abs=1e-9)
        assert scaled.B == pytest.approx(base.B, abs=1e-7)
        assert scaled.C == pytest.approx(7.0 * base.C, rel=1e-6)

    def test_growing_errors_have_no_alpha(self):
        fit = fit_rate([(n, n**0.5) for n in self.NS])
        assert fit.A < 0 and fit.alpha_hat is None

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_rate([(10, 0.1), (20, 0.05)])
        with pytest.raises(ValueError):
            fit_rate([(10, 0.1), (10, 0.05), (20, 0.02)])
        with pytest.raises(ValueError):
            fit_rate([(10, 0.1), (20, -0.05), (40, 0.02)])

    @pytest.mark.parametrize("row", [(20, math.nan), (20, math.inf), (20, -math.inf),
                                     (10**400, 0.05)],
                             ids=["nan-err", "inf-err", "minus-inf-err", "n-beyond-float"])
    def test_non_finite_rows_are_refused(self, row):
        # a NaN error used to fit A = nan, and an n past float range to raise OverflowError
        with pytest.raises(ValueError, match="finite|float range"):
            fit_rate([(10, 0.1), row, (40, 0.02)])
