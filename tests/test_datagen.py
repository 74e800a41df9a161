import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special, stats

from ldpmin.datagen import (
    BetaScaled,
    Cohort,
    IidCounts,
    TruncNormal,
    fatness_constant,
    fixed_cohort,
    iid_cohort,
)

from conftest import make_rng

PARAMETRIC_MODELS = [
    BetaScaled(0.5, 1.0, -1.0, 2.0),
    BetaScaled(1.0, 2.0, -0.7, 0.9),
    BetaScaled(2.0, 1.0, -1.0, 2.0),
    BetaScaled(2.0, 2.0, -0.2, 0.6),
    BetaScaled(4.0, 1.0, -1.0, 0.3),
    TruncNormal(0.0, 1.0, -1.0, 1.0),
    TruncNormal(0.4, 0.25, -0.5, 0.8),
]

# supports many sigmas out in one tail: Phi(b) - Phi(a) cancels to 0 above
# the mean, so these need the survival-side evaluation
FAR_TAIL_MODELS = [
    TruncNormal(0.0, 0.05, 0.5, 1.0),
    TruncNormal(0.0, 0.05, -1.0, -0.5),
    TruncNormal(-0.3, 0.02, 0.2, 0.9),
]


class TestCdf:
    def test_uniform_is_linear(self):
        model = BetaScaled(1.0, 1.0, -0.4, 0.8)
        xs = np.linspace(-1, 1, 41)
        expected = np.clip((xs - -0.4) / 0.8, 0.0, 1.0)
        assert np.allclose(model.cdf(xs), expected, atol=1e-12)

    def test_support_endpoints(self):
        for model in PARAMETRIC_MODELS:
            assert model.cdf(model.x_min) == pytest.approx(0.0, abs=1e-12)
            assert model.cdf(model.x_max) == pytest.approx(1.0, abs=1e-12)

    def test_square_law_point(self):
        # shape (2, 1) on [-1, 1]: F(x) = ((x+1)/2)^2, so F(0) = 1/4
        assert BetaScaled(2.0, 1.0, -1.0, 2.0).cdf(0.0) == pytest.approx(0.25, rel=1e-12)

    def test_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            BetaScaled(1.0, 1.0, -1.0, 2.0).cdf(1.5)

    def test_truncnorm_midpoint_symmetry(self):
        model = TruncNormal(0.0, 0.7, -1.0, 1.0)
        assert model.cdf(0.0) == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("model", PARAMETRIC_MODELS + FAR_TAIL_MODELS, ids=repr)
    def test_float_path_matches_array_path_bit_for_bit(self, model):
        # one round's query is a float and takes comparisons instead of numpy
        # calls; its result must be the array path's, NaN included (np.clip
        # keeps a NaN where max(0.0, nan) would return 0.0)
        grid = [*np.linspace(-1.0, 1.0, 201), -1.0, 1.0, -0.0, model.x_min, model.x_max,
                np.nextafter(model.x_min, -2.0), np.nextafter(model.x_max, 2.0), math.nan]
        for x in [x for x in grid if not abs(x) > 1.0]:  # keeps the NaN
            one, many = model.cdf(float(x)), model.cdf(np.array([x]))[0]
            assert type(one) is float
            assert one == many or (math.isnan(one) and math.isnan(many)), x

    @pytest.mark.parametrize("model", PARAMETRIC_MODELS, ids=repr)
    def test_float_outside_domain_rejected(self, model):
        for x in (1.5, -1.0000000000000002, 1.0000000000000002, math.inf, -math.inf):
            with pytest.raises(ValueError, match="must lie in"):
                model.cdf(x)
            with pytest.raises(ValueError, match="must lie in"):
                model.cdf(np.array([0.0, x]))


class TestQuantileInversion:
    def test_bisection_matches_incomplete_beta_inverse(self):
        qs = np.linspace(0.001, 0.999, 57)
        for model in PARAMETRIC_MODELS:
            if not isinstance(model, BetaScaled):
                continue
            ours = model.quantile(qs)
            oracle = model.x_min + model.delta * special.betaincinv(
                model.alpha, model.beta, qs
            )
            assert np.allclose(ours, oracle, atol=1e-9)

    def test_round_trip_through_cdf_and_monotone(self):
        # grid step 5e-4 keeps alpha = 0.5 clear of its infinite density at
        # x_min, where one ulp of x already moves F by more than 1e-12
        qs = np.linspace(0.0, 1.0, 2001)
        for model in PARAMETRIC_MODELS + FAR_TAIL_MODELS:
            xs = model.quantile(qs)
            assert np.max(np.abs(model.cdf(xs) - qs)) <= 1e-12, repr(model)
            assert np.all(np.diff(xs) >= 0.0), repr(model)

    def test_beta_matches_scipy_ppf(self):
        qs = np.linspace(0.0, 1.0, 1001)
        for model in PARAMETRIC_MODELS:
            if not isinstance(model, BetaScaled):
                continue
            oracle = stats.beta.ppf(qs, model.alpha, model.beta,
                                    loc=model.x_min, scale=model.delta)
            assert np.allclose(model.quantile(qs), oracle, rtol=0.0, atol=1e-12), repr(model)

    def test_truncnorm_matches_scipy_ppf(self):
        qs = np.linspace(0.0, 1.0, 1001)
        for model in PARAMETRIC_MODELS + FAR_TAIL_MODELS:
            if not isinstance(model, TruncNormal):
                continue
            a = (model.x_min - model.mu) / model.sigma
            b = (model.x_max - model.mu) / model.sigma
            oracle = stats.truncnorm.ppf(qs, a, b, loc=model.mu, scale=model.sigma)
            assert np.allclose(model.quantile(qs), oracle, rtol=0.0, atol=1e-12), repr(model)

    def test_endpoints_exact(self):
        for model in PARAMETRIC_MODELS + FAR_TAIL_MODELS:
            assert model.quantile(0.0) == model.x_min
            assert model.quantile(1.0) == model.x_max

    def test_levels_outside_unit_rejected(self):
        with pytest.raises(ValueError):
            BetaScaled(1.0, 1.0, -1.0, 2.0).quantile(1.5)
        with pytest.raises(ValueError):
            TruncNormal(0.0, 1.0, -1.0, 1.0).quantile(np.array([0.5, math.nan]))


class TestFarTailTruncNormal:
    def test_cdf_is_finite_and_matches_scipy(self):
        for model in FAR_TAIL_MODELS:
            xs = np.linspace(model.x_min, model.x_max, 101)
            a = (model.x_min - model.mu) / model.sigma
            b = (model.x_max - model.mu) / model.sigma
            oracle = stats.truncnorm.cdf(xs, a, b, loc=model.mu, scale=model.sigma)
            assert np.allclose(model.cdf(xs), oracle, rtol=0.0, atol=1e-12), repr(model)

    def test_fixed_cohort_not_piled_on_the_right_edge(self):
        model = TruncNormal(0.0, 0.05, 0.5, 1.0)
        values = fixed_cohort(model, 5).values
        assert values[0] == 0.5 and values[-1] == 1.0
        # the mass sits within a few hundredths of x_min
        assert np.all(values[1:-1] < 0.52)
        assert np.all(np.diff(values) > 0)

    def test_iid_cohort_matches_scipy_truncnorm(self):
        model = TruncNormal(0.0, 0.05, 0.5, 1.0)
        n = 10**4
        sample = iid_cohort(model, n, make_rng(406)).values
        a, b = 0.5 / 0.05, 1.0 / 0.05
        ks = stats.kstest(sample, stats.truncnorm(a, b, loc=0.0, scale=0.05).cdf)
        assert ks.pvalue > 0.01

    def test_underflowing_support_rejected(self):
        # 50 sigmas above the mean: the support's mass is below float64's range
        with pytest.raises(ValueError, match="no probability mass"):
            TruncNormal(0.0, 0.01, 0.5, 1.0)
        with pytest.raises(ValueError, match="no probability mass"):
            TruncNormal(0.0, 0.01, -1.0, -0.5)
        with pytest.raises(ValueError):
            TruncNormal(math.nan, 0.1, -1.0, 1.0)


class TestFixedCohort:
    def test_uniform_three_points(self):
        got = fixed_cohort(BetaScaled(1.0, 1.0, -1.0, 2.0), 3).values
        assert got[0] == -1.0 and got[2] == 1.0
        assert abs(got[1]) < 1e-9

    def test_first_value_is_support_minimum(self):
        for model in PARAMETRIC_MODELS:
            assert fixed_cohort(model, 5).values[0] == model.x_min

    def test_two_points_are_the_support(self):
        got = fixed_cohort(BetaScaled(2.0, 1.0, -1.0, 2.0), 2).values
        assert got.tolist() == [-1.0, 1.0]

    def test_levels_recovered_through_cdf(self):
        # inversion tolerance on the probability axis
        for model in PARAMETRIC_MODELS:
            n = 33
            values = fixed_cohort(model, n).values
            levels = np.arange(n) / (n - 1)
            assert np.allclose(model.cdf(values), levels, atol=1e-10)

    def test_sorted_and_rejects_tiny_n(self):
        values = fixed_cohort(BetaScaled(2.0, 2.0, -0.2, 0.6), 17).values
        assert np.all(np.diff(values) >= 0)
        with pytest.raises(ValueError):
            fixed_cohort(BetaScaled(1.0, 1.0, -1.0, 2.0), 1)


    @pytest.mark.parametrize("n", [2, 3, 1024, 65536])
    @pytest.mark.parametrize("model", PARAMETRIC_MODELS + FAR_TAIL_MODELS)
    def test_values_are_nondecreasing_so_counts_read_them_unsorted(self, model, n):
        cohort = fixed_cohort(model, n)
        assert np.all(cohort.values[:-1] <= cohort.values[1:])
        assert cohort._sorted is cohort.values  # no sorted copy is made


class ZeroRng:
    def random(self, size=None):
        return np.zeros(size) if size is not None else 0.0


class TestIidCohort:
    def test_kolmogorov_smirnov_against_model(self):
        n = 10**5
        for model in (BetaScaled(2.0, 1.0, -1.0, 2.0), TruncNormal(0.0, 1.0, -1.0, 1.0)):
            sample = iid_cohort(model, n, make_rng(404)).values
            u = np.sort(model.cdf(sample))
            grid = np.arange(1, n + 1) / n
            ks = max(np.max(np.abs(u - grid)), np.max(np.abs(u - (grid - 1.0 / n))))
            assert ks < 1.63 / math.sqrt(n)  # 99% Kolmogorov band

    def test_zero_uniforms_hit_support_minimum(self):
        model = BetaScaled(2.0, 1.0, -0.5, 1.0)
        values = iid_cohort(model, 4, ZeroRng()).values
        assert np.all(values == model.x_min)

    def test_sample_mean_tracks_beta_mean(self):
        model = BetaScaled(2.0, 1.0, -1.0, 2.0)
        n = 10**5
        sample = iid_cohort(model, n, make_rng(405)).values
        mean = model.x_min + model.delta * (2.0 / 3.0)
        sd = model.delta * math.sqrt(2.0 / (9.0 * 4.0))  # beta(2,1) variance 2/36
        assert abs(sample.mean() - mean) < 3 * sd / math.sqrt(n)

    def test_consumes_one_uniform_per_sample(self):
        from conftest import CountingRng

        rng = CountingRng(2)
        iid_cohort(BetaScaled(1.0, 1.0, -1.0, 2.0), 37, rng)
        assert rng.consumed == 37

    @pytest.mark.parametrize("model", [BetaScaled(2.0, 1.0, -1.0, 0.3),
                                       TruncNormal(0.0, 0.3, -0.4, 0.2)], ids=repr)
    def test_values_are_read_when_asked(self, model):
        # the quantile waits for a reader, and gives the bits of evaluating
        # it on all n uniforms at once
        from conftest import CountingModel

        n = 1000
        expected = model.quantile(make_rng(407).random(n))
        counting = CountingModel(model)
        cohort = iid_cohort(counting, n, make_rng(407))
        assert counting.levels == 0 and cohort.n == n
        idx = np.array([0, 17, 17, 999])
        assert cohort.values_at(idx).tobytes() == expected[idx].tobytes()
        assert counting.levels == idx.size
        assert cohort.values.tobytes() == expected.tobytes()
        assert cohort.values is cohort.values  # evaluated once
        assert counting.levels == idx.size + n
        assert cohort.bounds == (model.x_min, model.x_max)
        assert cohort.true_min() == expected.min()


class TestFatness:
    def test_uniform_constant(self):
        c = fatness_constant(BetaScaled(1.0, 1.0, -1.0, 2.0))
        assert c == 0.5 and type(c) is float

    def test_inequality_on_dense_grid(self):
        for model in PARAMETRIC_MODELS + FAR_TAIL_MODELS:
            alpha = model.fat_alpha
            c = fatness_constant(model)
            assert math.isfinite(c) and c >= 0.0, repr(model)
            assert type(c) is float, repr(model)
            xs = np.linspace(model.x_min, model.x_max, 1001)[1:-1]
            lower = c * (xs - model.x_min) ** alpha
            assert np.all(model.cdf(xs) >= lower - 1e-12), repr(model)

    def test_symmetric_truncnorm_boundary_densities_agree(self):
        model = TruncNormal(0.0, 0.8, -0.6, 0.6)
        c = fatness_constant(model)
        a = (model.x_min - model.mu) / model.sigma
        z = special.ndtr(-a) - special.ndtr(a)
        density = math.exp(-0.5 * a * a) / math.sqrt(2 * math.pi) / (model.sigma * z)
        assert c == pytest.approx(density, rel=1e-12)

    def test_empirical_rejected(self):
        # a step CDF over observed values has the model shape but no closed form
        values = np.array([0.0, 0.5])
        step = SimpleNamespace(
            cdf=lambda x: np.searchsorted(values, x, side="right") / values.size,
            quantile=lambda q: values[max(math.ceil(q * values.size), 1) - 1],
            x_min=0.0, x_max=0.5, fat_alpha=None,
        )
        with pytest.raises(TypeError):
            fatness_constant(step)


class TestCohort:
    def test_validation(self):
        with pytest.raises(ValueError):
            Cohort(np.array([1.5]), "fixed")
        with pytest.raises(ValueError):
            Cohort(np.array([0.0]), "sometimes")

    @pytest.mark.parametrize("values", [[math.nan, 0.5], [0.5, math.nan], [math.nan]])
    def test_nan_value_rejected(self, values):
        # a NaN fails both range tests, so a check written as "below -1 or
        # above 1" lets it through
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            Cohort(np.array(values), "fixed")

    def test_negated_round_trip(self):
        cohort = Cohort(np.array([-0.25, 1.0]), "iid")
        assert cohort.negated().negated().values.tolist() == cohort.values.tolist()

    @pytest.mark.parametrize("values", [
        [-1.0, -0.5, -0.5, 0.0, 0.25, 0.25, 0.25, 1.0],   # sorted, with ties
        [0.25, -0.5, 1.0, 0.25, -1.0, 0.0, -0.5, 0.25],   # the same, unsorted
        [0.3, 0.3, 0.3],
        [-0.0, 0.0, -1.0],
    ], ids=["sorted", "unsorted", "all-tied", "signed-zeros"])
    def test_count_at_or_below_is_the_scan(self, values):
        cohort = Cohort(np.array(values), "iid")
        taus = [*values, -1.0, 1.0, -0.75, 0.1, 0.5, np.nextafter(0.25, 0.0),
                np.nextafter(0.25, 1.0), -0.0]
        for tau in taus:
            k = cohort.count_at_or_below(tau)
            assert type(k) is int
            assert k == int(np.count_nonzero(cohort.values <= tau)), tau
        assert cohort.values.tolist() == values  # the sorted copy is a copy

    @pytest.mark.parametrize("make", [
        lambda: Cohort(np.array([0.25, -0.5, 1.0, 0.25, -1.0]), "fixed"),  # as --data gives
        lambda: fixed_cohort(BetaScaled(2.0, 1.0, -0.6, 1.2), 257).negated(),
        lambda: iid_cohort(BetaScaled(2.0, 1.0, -0.6, 1.2), 257, make_rng(9)),
    ], ids=["data", "negated", "iid"])
    def test_unsorted_cohort_counts_by_a_sorted_copy(self, make):
        cohort = make()
        before = cohort.values.copy()
        assert np.any(np.diff(before) < 0)
        assert np.array_equal(cohort._sorted, np.sort(before))
        for tau in np.linspace(-1.0, 1.0, 41):
            assert cohort.count_at_or_below(float(tau)) == int(np.count_nonzero(before <= tau))
        assert np.array_equal(cohort.values, before)


class TestIidCounts:
    MODEL = BetaScaled(2.0, 1.0, -0.6, 1.2)

    def test_ends_are_known_and_drawn_counts_stay_monotone(self):
        rng = make_rng(40)
        counts = IidCounts(self.MODEL, 1000, rng)
        state = rng.bit_generator.state
        assert counts.count_at_or_below(-1.0) == 0 and counts.count_at_or_below(1.0) == 1000
        assert rng.bit_generator.state == state  # the ends take no draw
        taus = [0.0, -0.5, 0.5, 0.25, -0.75, 0.125]
        ks = [counts.count_at_or_below(tau) for tau in taus]
        state = rng.bit_generator.state
        assert [counts.count_at_or_below(tau) for tau in taus] == ks  # known: no redraw
        assert rng.bit_generator.state == state
        order = sorted(zip(taus, ks))
        assert all(a[1] <= b[1] for a, b in zip(order, order[1:]))
        # below the support nobody sits, above it everybody does
        assert counts.count_at_or_below(-0.7) == 0
        assert counts.count_at_or_below(0.7) == 1000

    def test_one_point_is_binomial_in_f(self):
        # the first query's count is Binom(n, F(tau)) exactly: the chain must
        # consume one binomial draw with those parameters
        counts = IidCounts(self.MODEL, 4096, make_rng(41))
        replay = make_rng(41)
        assert counts.count_at_or_below(0.0) == replay.binomial(4096, self.MODEL.cdf(0.0))

    def test_outside_domain_rejected(self):
        counts = IidCounts(self.MODEL, 10, make_rng(42))
        for tau in (1.5, -1.5):
            with pytest.raises(ValueError, match="must lie in"):
                counts.count_at_or_below(tau)
