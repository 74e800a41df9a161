import math

import pytest

from ldpmin.params import (
    choose_params,
    gamma_threshold,
    params_known_alpha,
    params_unknown_alpha,
)
from ldpmin.protocol import ProtocolConfig

mpmath = pytest.importorskip("mpmath")


def reference_gamma(epsilon, depth, h, n):
    """Arbitrary-precision evaluation of the defining threshold formula."""
    with mpmath.workdps(50):
        m = mpmath.mpf(epsilon) / depth
        num = 4 * mpmath.exp(m) * (1 + mpmath.exp(m)) * mpmath.mpf(h)
        den = (mpmath.exp(m) - 1) ** 2 * n
        return float(mpmath.sqrt(num / den))


class TestGammaThreshold:
    def test_frozen_value(self):
        # high-precision evaluation, 50 digits, rounded to double
        assert gamma_threshold(1.0, 1, 1.0, 100) == pytest.approx(
            0.3700445322003778, rel=1e-14
        )

    def test_matches_reference_to_twelve_digits(self):
        for epsilon in (0.125, 0.5, 1.0, 4.0, 32.0):
            for depth in (1, 3, 10, 21):
                for h in (0.3, 3.45, 12.0):
                    for n in (64, 4096, 2**20):
                        ours = gamma_threshold(epsilon, depth, h, n)
                        ref = reference_gamma(epsilon, depth, h, n)
                        assert ours == pytest.approx(ref, rel=1e-12)

    def test_vanishes_with_h(self):
        assert gamma_threshold(1.0, 1, 1e-30, 100) < 1e-14

    def test_quarter_n_doubles_gamma(self):
        g1 = gamma_threshold(2.0, 4, 3.0, 1000)
        g4 = gamma_threshold(2.0, 4, 3.0, 4000)
        assert g1 / g4 == pytest.approx(2.0, rel=1e-12)

    def test_finite_at_infinite_epsilon(self):
        g = gamma_threshold(math.inf, 5, 2.0, 100)
        assert g == pytest.approx(2.0 * math.sqrt(2.0 / 100), rel=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gamma_threshold(0.0, 1, 1.0, 10)
        with pytest.raises(ValueError):
            gamma_threshold(1.0, 1, -1.0, 10)

    def test_rejects_epsilon_below_float_resolution(self):
        # e^-m rounds to 1 once m = eps/L drops below 2^-54 (about 5.6e-17)
        with pytest.raises(ValueError, match="resolution"):
            gamma_threshold(1e-300, 3, 1.0, 10)
        with pytest.raises(ValueError, match="resolution"):
            gamma_threshold(1.5e-16, 3, 1.0, 10)
        assert math.isfinite(gamma_threshold(3e-16, 3, 1.0, 10))


class TestKnownAlphaSchedule:
    def test_depth_and_h_at_two_to_twenty(self):
        p = params_known_alpha(2**20, 1.0, 4.0)
        assert isinstance(p, ProtocolConfig)
        assert (p.epsilon, p.depth, p.n) == (4.0, 10, 2**20)
        assert p.gamma == gamma_threshold(4.0, 10, math.log(2**20) / 2.0, 2**20)

    def test_depth_floor(self):
        assert params_known_alpha(2, 1.0, 1.0).depth == 1

    def test_half_alpha_doubles_depth(self):
        p = params_known_alpha(2**10, 0.5, 1.0)
        assert p.depth == 10
        assert p.gamma == gamma_threshold(1.0, 10, math.log(2**10) / 1.0, 2**10)

    def test_gamma_is_cached_consistently(self):
        p = params_known_alpha(5000, 1.0, 2.0)
        assert p.gamma == gamma_threshold(2.0, p.depth, math.log(5000) / 2.0, 5000)

    def test_discretization_below_target_rate(self):
        # 2^-L <= N^(-1/(2 alpha0)) so the grid never dominates the rate
        for n in (4, 100, 1024, 10**6):
            for alpha0 in (0.5, 1.0, 2.0, 3.5):
                p = params_known_alpha(n, alpha0, 1.0)
                assert 2.0**-p.depth <= n ** (-1.0 / (2 * alpha0)) * (1 + 1e-12)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            params_known_alpha(1, 1.0, 1.0)

    @pytest.mark.parametrize("alpha0", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_alpha0_not_finite_and_positive(self, alpha0):
        with pytest.raises(ValueError, match="alpha0 must be finite and positive"):
            params_known_alpha(1024, alpha0, 1.0)

    @pytest.mark.parametrize("alpha0", [5e-324, 1e-310])
    def test_alpha0_whose_depth_overflows_rejected(self, alpha0):
        # log2(N) / (2 alpha0) is inf, which math.ceil refuses with an OverflowError
        with pytest.raises(ValueError, match="too small"):
            choose_params(f"known_alpha:{alpha0!r}", 1024, 1.0)

    def test_largest_alpha0_keeps_a_positive_h(self):
        # 2 alpha0 overflows past 2^1023; h = ln(N) / (2 alpha0) must not become 0
        p = params_known_alpha(1024, 1.7e308, 1.0)
        assert p.depth == 1 and p.gamma > 0.0

    def test_depth_past_float_resolution_rejected(self):
        assert choose_params("known_alpha:0.1", 1024, 1.0).depth == 50
        with pytest.raises(ValueError, match="54"):
            choose_params("known_alpha:0.1", 2048, 1.0)  # would be depth 55

    def test_epsilon_below_float_resolution_rejected(self):
        with pytest.raises(ValueError, match="resolution"):
            params_known_alpha(1000, 1.0, 1e-300)


def unknown_alpha_h(n):
    return 0.5 * (math.log(n) / math.log(1000.0)) * math.log(n)


class TestUnknownAlphaSchedule:
    def test_presets_coincide_at_base(self):
        lower = params_known_alpha(1000, 1.0, 2.0)
        unknown = params_unknown_alpha(1000, 2.0)
        assert unknown == lower
        assert unknown.depth == 5
        assert unknown.gamma == gamma_threshold(2.0, 5, math.log(1000) / 2.0, 1000)

    def test_depth_at_two_to_twenty(self):
        p = params_unknown_alpha(2**20, 1.0)
        assert (p.epsilon, p.depth, p.n) == (1.0, 21, 2**20)
        assert p.gamma == gamma_threshold(1.0, 21, unknown_alpha_h(2**20), 2**20)

    def test_monotone_in_n(self):
        grid = [2**k for k in range(2, 21)]
        configs = [params_unknown_alpha(n, 1.0) for n in grid]
        depths = [p.depth for p in configs]
        assert depths == sorted(depths)
        for n, p in zip(grid, configs):
            assert p.gamma == gamma_threshold(1.0, p.depth, unknown_alpha_h(n), n)


class TestModeTokens:
    def test_round_trips(self):
        assert choose_params("lower_alpha", 500, 1.0) == params_known_alpha(500, 1.0, 1.0)
        assert choose_params("known_alpha:2", 500, 1.0) == params_known_alpha(500, 2.0, 1.0)
        assert choose_params("unknown_alpha", 500, 1.0) == params_unknown_alpha(500, 1.0)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            choose_params("nope", 100, 1.0)
        with pytest.raises(ValueError):
            choose_params("known_alpha:x", 100, 1.0)

    def test_unknown_alpha_takes_no_argument(self):
        with pytest.raises(ValueError, match="unknown parameter mode"):
            choose_params("unknown_alpha:50", 500, 1.0)
