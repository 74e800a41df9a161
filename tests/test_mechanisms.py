import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ldpmin.mechanisms import (
    PrivacyBudget,
    RoundBudget,
    laplace_scale,
    phi_correction,
    randomized_response,
    rr_keep_probability,
    rr_respond_many,
    unbiased_phi,
)

from conftest import ConstantRng, CountingRng, laplace_sanitize, make_rng, rr_flip_probability


class TestBudgets:
    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                PrivacyBudget(bad)
            with pytest.raises(ValueError):
                RoundBudget(bad)

    def test_rejects_round_budget_too_small_to_debias(self):
        # coth(eps/2) ~ 2/eps leaves float64 below eps ~ 1.1e-308
        for tiny in (1e-320, 5e-324):
            with pytest.raises(ValueError, match="debiasing"):
                RoundBudget(tiny)
            with pytest.raises(ValueError, match="debiasing"):
                PrivacyBudget(3 * tiny).split(3)
        assert math.isfinite(phi_correction(RoundBudget(2.3e-308)))

    def test_inf_is_the_noise_free_switch(self):
        assert PrivacyBudget(math.inf).split(3).epsilon_round == math.inf

    def test_split_is_even(self):
        budget = PrivacyBudget(2.0).split(4)
        assert budget.epsilon_round * 4 == pytest.approx(2.0, rel=1e-15)


class TestKeepProbability:
    def test_ln3_gives_three_quarters(self):
        # e^eps/(1+e^eps) = 3/4 at eps = ln 3
        p = rr_keep_probability(RoundBudget(math.log(3)))
        assert p == pytest.approx(0.75, rel=1e-14)

    def test_symmetry_limit(self):
        p = rr_keep_probability(RoundBudget(1e-12))
        assert 0.5 < p < 0.5 + 1e-9

    def test_no_noise_limit(self):
        assert rr_keep_probability(RoundBudget(math.inf)) == 1.0

    @given(st.floats(min_value=1e-6, max_value=36.0))
    def test_strictly_between_half_and_one(self, eps):
        # strict in exact arithmetic; float64 saturates once e^-eps drops
        # below 2^-53 (eps ~ 36.7), hence the cap
        p = rr_keep_probability(RoundBudget(eps))
        assert 0.5 < p < 1.0

    def test_float64_saturation_point(self):
        assert rr_keep_probability(RoundBudget(37.0)) == 1.0

    @given(st.floats(min_value=1e-6, max_value=30.0))
    def test_likelihood_ratio_is_exp_eps(self, eps):
        # P(out = in) / P(out = -in) = e^eps, checked on the probabilities
        # themselves rather than by sampling
        budget = RoundBudget(eps)
        ratio = rr_keep_probability(budget) / rr_flip_probability(budget)
        assert ratio == pytest.approx(math.exp(eps), rel=1e-12)


class TestRandomizedResponse:
    def test_keep_branch_is_identity(self):
        assert randomized_response(-1, RoundBudget(1.0), ConstantRng(0.0)) == -1
        assert randomized_response(1, RoundBudget(1.0), ConstantRng(0.0)) == 1

    def test_flip_branch_negates(self):
        assert randomized_response(-1, RoundBudget(1.0), ConstantRng(0.999999)) == 1

    def test_rejects_non_bits(self):
        for bad in (0, 2, 0.5):
            with pytest.raises(ValueError):
                randomized_response(bad, RoundBudget(1.0), ConstantRng(0.0))

    def test_consumes_exactly_one_variate(self):
        rng = CountingRng(0)
        randomized_response(1, RoundBudget(1.0), rng)
        assert rng.consumed == 1

    def test_empirical_keep_frequency(self):
        # 1e5 trials at eps = ln 3: frequency of unchanged output within
        # 4 sigma of 3/4
        trials = 10**5
        budget = RoundBudget(math.log(3))
        out = rr_respond_many(np.ones(trials, dtype=int), budget, make_rng(2024))
        freq = np.mean(out == 1)
        sigma = math.sqrt(0.75 * 0.25 / trials)
        assert abs(freq - 0.75) < 4 * sigma

    def test_vectorized_matches_scalar_stream(self):
        budget = RoundBudget(0.7)
        bits = np.array([1, -1, 1, 1, -1, -1, 1])
        vec = rr_respond_many(bits, budget, make_rng(99))
        scalar_rng = make_rng(99)
        scalar = [randomized_response(int(b), budget, scalar_rng) for b in bits]
        assert vec.tolist() == scalar


class TestUnbiasedPhi:
    def test_no_noise_limit_reduces_to_plain_frequency(self):
        # correction factor -> 1, so phi' -> (1/2n) sum_z + 1/2
        assert unbiased_phi(4, 10, RoundBudget(math.inf)) == pytest.approx(0.7, abs=1e-15)
        assert phi_correction(RoundBudget(math.inf)) == 1.0

    def test_all_plus_one_exceeds_unity(self):
        for eps in (0.25, 1.0, 4.0):
            budget = RoundBudget(eps)
            phi = unbiased_phi(8, 8, budget)
            expected = 0.5 * phi_correction(budget) + 0.5
            assert phi == pytest.approx(expected, rel=1e-14)
            assert phi > 1.0

    def test_affine_in_sum_z(self):
        budget = RoundBudget(1.0)
        lo, mid, hi = (unbiased_phi(s, 10, budget) for s in (-2, 0, 2))
        assert mid == pytest.approx((lo + hi) / 2, rel=1e-12)

    def test_input_validation(self):
        budget = RoundBudget(1.0)
        with pytest.raises(ValueError):
            unbiased_phi(0, 0, budget)
        with pytest.raises(ValueError):
            unbiased_phi(12, 10, budget)
        with pytest.raises(ValueError):
            unbiased_phi(3, 10, budget)  # parity: sum of ten odd terms is even

    def test_unbiasedness_monte_carlo(self):
        # true +1-fraction 0.3, n = 1000, eps = 1: the mean of phi' over 1e5
        # sanitizations lands within 3 standard errors of 0.3
        n, reps = 1000, 10**5
        budget = RoundBudget(1.0)
        bits = np.where(np.arange(n) < 300, 1, -1)
        rng = make_rng(77)
        p = rr_keep_probability(budget)
        correction = phi_correction(budget)
        chunk = 2000
        phis = np.empty(reps)
        done = 0
        while done < reps:
            m = min(chunk, reps - done)
            u = rng.random((m, n))
            z = np.where(u < p, bits, -bits)
            phis[done:done + m] = correction * z.sum(axis=1) / (2 * n) + 0.5
            done += m
        se = phis.std(ddof=1) / math.sqrt(reps)
        assert abs(phis.mean() - 0.3) < 3 * se


class TestLaplace:
    def test_scale_is_two_over_epsilon(self):
        assert laplace_scale(PrivacyBudget(2.0)) == 1.0

    def test_forced_zero_noise(self):
        # u = 0.5 sits at the distribution's median, zero noise exactly
        assert laplace_sanitize(0.3, PrivacyBudget(1.0), ConstantRng(0.5)) == 0.3

    def test_consumes_exactly_one_variate(self):
        rng = CountingRng(5)
        laplace_sanitize(0.0, PrivacyBudget(1.0), rng)
        assert rng.consumed == 1

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            laplace_sanitize(1.5, PrivacyBudget(1.0), ConstantRng(0.5))

    def test_monte_carlo_mean(self):
        budget = PrivacyBudget(1.0)
        b = laplace_scale(budget)
        rng = make_rng(31)
        x = 0.25
        draws = np.array([laplace_sanitize(x, budget, rng) for _ in range(10**5)])
        tol = 3 * (b * math.sqrt(2)) / math.sqrt(10**5)
        assert abs(draws.mean() - x) < tol

    def test_vectorized_noise_is_laplace_noise_of_the_scalar_uniforms(self):
        # exact: one uniform per draw, in index order, taken where the scalar
        # stream takes them, and the stream left where it leaves it
        from ldpmin.mechanisms import laplace_noise, laplace_noise_many

        budget = PrivacyBudget(0.5)
        for seed in range(300):
            rng, scalar_rng = make_rng(seed), make_rng(seed)
            vec = laplace_noise_many(9, budget, rng)
            uniforms = np.array([scalar_rng.random() for _ in range(9)])
            assert vec.tolist() == laplace_noise(uniforms, budget).tolist()
            assert rng.bit_generator.state == scalar_rng.bit_generator.state

    def test_vectorized_noise_is_within_an_ulp_of_the_scalar_reference(self):
        # numpy's log is not libm's math.log: they may differ in the last bit
        # (11 of these 300 seeds do), and nothing in the package promises libm's bits
        from ldpmin.mechanisms import laplace_noise_many

        budget = PrivacyBudget(0.5)
        for seed in range(300):
            vec = laplace_noise_many(9, budget, make_rng(seed))
            scalar_rng = make_rng(seed)
            scalar = np.array([laplace_sanitize(0.0, budget, scalar_rng) for _ in range(9)])
            assert np.all(np.abs(vec - scalar) <= np.spacing(np.abs(scalar)))

    @pytest.mark.parametrize("epsilon", [1.0, 4.0, 1.5e-308], ids=["scale2", "scale0.5", "scale1.33e308"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_float_noise_is_the_array_noise(self, epsilon):
        # the float form gives the array form's bits, numpy's log included; at
        # scale 1.33e308 the noise of a uniform near 0 or 1 overflows to +-inf
        from ldpmin.mechanisms import laplace_noise, laplace_noise_one

        budget = PrivacyBudget(epsilon)
        scale = laplace_scale(budget)
        edges = [0.0, 0.5, 1.0 - 2.0**-53, 5e-324]
        u = np.concatenate([edges, make_rng(33).random(10**5)])
        floats = np.array([laplace_noise_one(x, scale) for x in u.tolist()])
        assert floats.tobytes() == laplace_noise(u, budget).tobytes()
        assert type(laplace_noise_one(0.25, scale)) is float

    def test_median_and_mad_scale(self):
        # noise median ~ 0; median |noise| = b ln 2 recovers the scale
        budget = PrivacyBudget(0.8)
        b = laplace_scale(budget)
        rng = make_rng(32)
        noise = np.array([laplace_sanitize(0.0, budget, rng) for _ in range(10**5)])
        assert abs(np.median(noise)) < 0.05 * b
        scale_hat = np.median(np.abs(noise)) / math.log(2)
        assert abs(scale_hat - b) / b < 0.05
