import math
import re

import pytest

from ldpmin.params import Schedule, choose_params, gamma_threshold, parse_schedule
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
        p = choose_params("lower_alpha", 2**20, 4.0)
        assert isinstance(p, ProtocolConfig)
        assert (p.epsilon, p.depth, p.n) == (4.0, 10, 2**20)
        assert p.gamma == gamma_threshold(4.0, 10, math.log(2**20) / 2.0, 2**20)

    def test_depth_floor(self):
        assert choose_params("lower_alpha", 2, 1.0).depth == 1

    def test_half_alpha_doubles_depth(self):
        p = choose_params("known_alpha:0.5", 2**10, 1.0)
        assert p.depth == 10
        assert p.gamma == gamma_threshold(1.0, 10, math.log(2**10) / 1.0, 2**10)

    def test_gamma_is_cached_consistently(self):
        p = choose_params("lower_alpha", 5000, 2.0)
        assert p.gamma == gamma_threshold(2.0, p.depth, math.log(5000) / 2.0, 5000)

    def test_discretization_below_target_rate(self):
        # 2^-L <= N^(-1/(2 alpha0)) so the grid never dominates the rate
        for n in (4, 100, 1024, 10**6):
            for alpha0 in (0.5, 1.0, 2.0, 3.5):
                p = choose_params(f"known_alpha:{alpha0!r}", n, 1.0)
                assert 2.0**-p.depth <= n ** (-1.0 / (2 * alpha0)) * (1 + 1e-12)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            choose_params("lower_alpha", 1, 1.0)

    @pytest.mark.parametrize("alpha0", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_alpha0_not_finite_and_positive(self, alpha0):
        with pytest.raises(ValueError, match="alpha0 must be finite and positive"):
            choose_params(f"known_alpha:{alpha0!r}", 1024, 1.0)

    @pytest.mark.parametrize("alpha0", [5e-324, 1e-310])
    def test_alpha0_whose_depth_overflows_rejected(self, alpha0):
        # log2(N) / (2 alpha0) is inf, which math.ceil refuses with an OverflowError
        with pytest.raises(ValueError, match="too small"):
            choose_params(f"known_alpha:{alpha0!r}", 1024, 1.0)

    def test_largest_alpha0_keeps_a_positive_h(self):
        # 2 alpha0 overflows past 2^1023; h = ln(N) / (2 alpha0) must not become 0
        p = choose_params(f"known_alpha:{1.7e308!r}", 1024, 1.0)
        assert p.depth == 1 and p.gamma > 0.0

    def test_depth_past_float_resolution_rejected(self):
        assert choose_params("known_alpha:0.1", 1024, 1.0).depth == 50
        with pytest.raises(ValueError, match="54"):
            choose_params("known_alpha:0.1", 2048, 1.0)  # would be depth 55

    def test_epsilon_below_float_resolution_rejected(self):
        with pytest.raises(ValueError, match="resolution"):
            choose_params("lower_alpha", 1000, 1e-300)


def unknown_alpha_h(n):
    return 0.5 * (math.log(n) / math.log(1000.0)) * math.log(n)


class TestUnknownAlphaSchedule:
    def test_presets_coincide_at_base(self):
        lower = choose_params("lower_alpha", 1000, 2.0)
        unknown = choose_params("unknown_alpha", 1000, 2.0)
        assert unknown == lower
        assert unknown.depth == 5
        assert unknown.gamma == gamma_threshold(2.0, 5, math.log(1000) / 2.0, 1000)

    def test_depth_at_two_to_twenty(self):
        p = choose_params("unknown_alpha", 2**20, 1.0)
        assert (p.epsilon, p.depth, p.n) == (1.0, 21, 2**20)
        assert p.gamma == gamma_threshold(1.0, 21, unknown_alpha_h(2**20), 2**20)

    def test_monotone_in_n(self):
        grid = [2**k for k in range(2, 21)]
        configs = [choose_params("unknown_alpha", n, 1.0) for n in grid]
        depths = [p.depth for p in configs]
        assert depths == sorted(depths)
        for n, p in zip(grid, configs):
            assert p.gamma == gamma_threshold(1.0, p.depth, unknown_alpha_h(n), n)


# each stock token's (depth, gamma, threshold), recorded before the schedules
# shared one builder; gamma as float.hex, so every bit is pinned
STOCK_CONFIGS = [
    ("lower_alpha", 2, 1.0, 1, "0x1.8a5866ec1ce7ep+0", 2),
    ("lower_alpha", 1000, 2.0, 5, "0x1.d7d5ebc6ffe21p-2", -15),
    ("lower_alpha", 4096, 4.0, 6, "0x1.49fb80faaa9c9p-3", -892),
    ("lower_alpha", 2**20, 1.0, 10, "0x1.3177c2adf696ap-4", -44571),
    ("lower_alpha", 2**16, math.inf, 8, "0x1.2d6abe44afc43p-6", -63124),
    ("known_alpha:0.5", 2, 1.0, 1, "0x1.16d820c886559p+1", 3),
    ("known_alpha:0.5", 1000, 2.0, 10, "0x1.3c97490a65c49p+0", 147),
    ("known_alpha:0.5", 4096, 4.0, 12, "0x1.aa8dd83845347p-2", -112),
    ("known_alpha:0.5", 2**20, 1.0, 20, "0x1.aa9055e707525p-3", -15291),
    ("known_alpha:0.5", 2**16, math.inf, 16, "0x1.aa4499161cd47p-6", -62125),
    ("known_alpha:2", 2, 1.0, 1, "0x1.16d820c886559p+0", 2),
    ("known_alpha:2", 1000, 2.0, 3, "0x1.ae595ff4a9fc0p-3", -186),
    ("known_alpha:2", 4096, 4.0, 3, "0x1.19c15ed9b70dbp-4", -2058),
    ("known_alpha:2", 2**20, 1.0, 5, "0x1.bb354c847205cp-6", -98855),
    ("known_alpha:2", 2**16, math.inf, 4, "0x1.aa4499161cd47p-7", -63830),
    ("unknown_alpha", 2, 1.0, 1, "0x1.f3aad529e9811p-2", 0),
    ("unknown_alpha", 1000, 2.0, 5, "0x1.d7d5ebc6ffe21p-2", -15),
    ("unknown_alpha", 4096, 4.0, 8, "0x1.cd5b5019c6601p-3", -551),
    ("unknown_alpha", 2**20, 1.0, 21, "0x1.c0641d2dde1b8p-3", -14031),
    ("unknown_alpha", 2**16, math.inf, 13, "0x1.7deb6abb8de8cp-6", -62480),
]


class TestModeTokens:
    @pytest.mark.parametrize("token, n, epsilon, depth, gamma, threshold", STOCK_CONFIGS)
    def test_stock_configs_are_pinned(self, token, n, epsilon, depth, gamma, threshold):
        p = choose_params(token, n, epsilon)
        assert (p.epsilon, p.depth, p.gamma.hex(), p.threshold, p.n) == (
            epsilon, depth, gamma, threshold, n)

    @pytest.mark.parametrize("token, schedule", [
        ("lower_alpha", Schedule(1.0, 3.0)),
        ("known_alpha:1", Schedule(1.0, 3.0)),
        ("known_alpha:0.5", Schedule(0.5, 3.0)),
        ("known_alpha: 2", Schedule(2.0, 3.0)),
        ("known_alpha:1e-300", Schedule(1e-300, 3.0)),
        ("unknown_alpha", Schedule(None, 6.0)),
    ])
    def test_parse_schedule(self, token, schedule):
        assert parse_schedule(token) == schedule

    @pytest.mark.parametrize("token, message", [
        ("nope", "unknown parameter mode 'nope'"),
        ("", "unknown parameter mode ''"),
        ("known_alpha", "unknown parameter mode 'known_alpha'"),
        ("unknown_alpha:50", "unknown parameter mode 'unknown_alpha:50'"),
        ("lower_alpha:1", "unknown parameter mode 'lower_alpha:1'"),
        ("Lower_Alpha", "unknown parameter mode 'Lower_Alpha'"),
        ("known_alpha:", "bad parameter in mode 'known_alpha:'"),
        ("known_alpha:x", "bad parameter in mode 'known_alpha:x'"),
        ("known_alpha:inf", "alpha0 must be finite and positive, got inf"),
        ("known_alpha:nan", "alpha0 must be finite and positive, got nan"),
        ("known_alpha:0", "alpha0 must be finite and positive, got 0.0"),
        ("known_alpha:-1", "alpha0 must be finite and positive, got -1.0"),
    ])
    def test_parse_schedule_refuses(self, token, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_schedule(token)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            choose_params(token, 500, 1.0)
