import functools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats

from ldpmin.datagen import (
    BetaScaled,
    Cohort,
    IidCounts,
    TruncNormal,
    fixed_cohort,
    iid_cohort,
)
from ldpmin.harness import ModelTemplate

from conftest import fixed_values, iid_values, make_rng

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


def cdf_at(model, xs) -> np.ndarray:
    """The model's CDF at each point of a grid, one float at a time."""
    return np.array([model.cdf(float(x)) for x in xs])


class TestCdf:
    def test_uniform_is_linear(self):
        model = BetaScaled(1.0, 1.0, -0.4, 0.8)
        xs = np.linspace(-1, 1, 41)
        expected = np.clip((xs - -0.4) / 0.8, 0.0, 1.0)
        assert np.allclose(cdf_at(model, xs), expected, atol=1e-12)

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
    def test_float_path_is_a_cdf_on_the_whole_domain(self, model):
        # one round's query is a float and takes comparisons instead of numpy
        # calls: it must still give a float CDF that is exactly 0 (never -0.0)
        # up to the support, exactly 1 from its top, monotone between, and NaN
        # at NaN (max(0.0, nan) would return 0.0 where np.clip keeps the NaN)
        grid = [*np.linspace(-1.0, 1.0, 201), -1.0, 1.0, -0.0, model.x_min, model.x_max,
                np.nextafter(model.x_min, -2.0), np.nextafter(model.x_max, 2.0)]
        xs = sorted(float(x) for x in grid if not abs(x) > 1.0)
        ys = [model.cdf(x) for x in xs]
        assert all(type(y) is float for y in ys)
        for x, y in zip(xs, ys):
            if x <= model.x_min:
                assert y == 0.0 and math.copysign(1.0, y) == 1.0, x
            if x >= model.x_max:
                assert y == 1.0, x
            assert 0.0 <= y <= 1.0, x
        assert all(a <= b for a, b in zip(ys, ys[1:]))
        assert math.isnan(model.cdf(math.nan))

    @pytest.mark.parametrize("model", PARAMETRIC_MODELS, ids=repr)
    def test_float_outside_domain_rejected(self, model):
        for x in (1.5, -1.0000000000000002, 1.0000000000000002, math.inf, -math.inf):
            with pytest.raises(ValueError, match="must lie in"):
                model.cdf(x)


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
            assert np.max(np.abs(cdf_at(model, xs) - qs)) <= 1e-12, repr(model)
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

    @pytest.mark.parametrize("model", PARAMETRIC_MODELS + FAR_TAIL_MODELS, ids=repr)
    @settings(max_examples=50, deadline=None)
    @given(levels=st.lists(st.floats(0.0, 1.0), max_size=8))
    def test_float_path_matches_array_path_bit_for_bit(self, model, levels):
        # a count probes one level at a time, without arrays; its value must be
        # the one fixed_cohort holds
        for q in [0.0, 1.0, 5e-324, 1.0 - 2.0**-53, *levels]:
            one, many = model.quantile(q), model.quantile(np.array([q]))[0]
            assert type(one) is float
            assert struct.pack("<d", one) == struct.pack("<d", many), q

    @pytest.mark.parametrize("model", PARAMETRIC_MODELS[:1] + PARAMETRIC_MODELS[-1:], ids=repr)
    @pytest.mark.parametrize("q", [math.nan, -0.1, 1.1])
    def test_float_level_refused_as_an_array_level(self, model, q):
        for level in (q, np.array([q])):
            with pytest.raises(ValueError, match=r"quantile levels must lie in \[0, 1\]"):
                model.quantile(level)


# the flat beta (uniform) at the stock delta-0.3 placements, at x_min = 0.0 (where
# x = -0.0 gives u = -0.0) and at the full width
FLAT_MODELS = [ModelTemplate("uniform", delta=0.3).place(x_min)
               for x_min in ModelTemplate("uniform", delta=0.3).default_xmin_grid()]
FLAT_MODELS += [BetaScaled(1.0, 1.0, 0.0, 0.3), BetaScaled(1.0, 1.0, -1.0, 2.0)]


def flat_levels():
    tiny = [0.0, 1.0, 5e-324, 1.0 - 2.0**-53, 2.0**-52, 1e-10, 3e-10, 1.0 - 1e-10]
    return np.concatenate([tiny, np.linspace(0.0, 1.0, 100_001),
                           make_rng(2101).random(100_000)])


class TestFlatBetaOracle:
    """The flat beta evaluates without scipy; these say so if scipy's incomplete
    beta at (1, 1) ever stops being the identity, bit for bit."""

    @pytest.mark.parametrize("model", FLAT_MODELS, ids=repr)
    def test_cdf_is_scipys_betainc(self, model):
        xs = np.concatenate([model.x_min + model.delta * flat_levels(),
                             np.linspace(-1.0, 1.0, 20_001), [-0.0, 0.0, math.nan]])
        xs = xs[~(np.abs(xs) > 1.0)]  # keeps the NaN
        u = np.clip((xs - model.x_min) / model.delta, 0.0, 1.0)
        oracle = special.betainc(1.0, 1.0, u)
        assert cdf_at(model, xs).tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("model", FLAT_MODELS, ids=repr)
    def test_quantile_is_scipys_betaincinv(self, model):
        qs = flat_levels()
        x = np.clip(model.x_min + model.delta * special.betaincinv(1.0, 1.0, qs),
                    model.x_min, model.x_max)
        oracle = np.where(qs == 0.0, model.x_min, np.where(qs == 1.0, model.x_max, x))
        assert model.quantile(qs).tobytes() == oracle.tobytes()
        for q, want in zip(qs[::10], oracle[::10]):
            assert model.quantile(float(q)).hex() == float(want).hex(), q

    @pytest.mark.parametrize("model", FLAT_MODELS, ids=repr)
    def test_fatness_constant_is_scipys_beta(self, model):
        oracle = 1.0 / max(1.0, float(special.beta(1.0, 1.0))) / model.delta
        assert model.fatness_constant().hex() == oracle.hex()


def ulps_from(value: float, exact) -> float:
    """How many ulps of ``exact`` (an mpmath number) lie between it and ``value``."""
    return float(abs(value - exact)) / math.ulp(float(exact))


def power_levels():
    # uniform levels, levels spread over float64's exponents, and the edges
    rng = make_rng(2701)
    return [5e-324, 1e-300, 2.0**-52, 0.5, 1.0 - 2.0**-53,
            *rng.random(2000), *10.0 ** -rng.uniform(0.0, 300.0, 1000)]


class TestAlphaFamilyOracle:
    """beta(alpha, 1), F(u) = u**alpha, evaluates in closed form without scipy;
    on the unit support, where x = u, each value lies within 1 ulp of the exact one."""

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 4.0])
    def test_cdf_within_an_ulp(self, alpha):
        mpmath = pytest.importorskip("mpmath")
        model = BetaScaled(alpha, 1.0, 0.0, 1.0)
        with mpmath.workdps(40):
            worst = max(ulps_from(model.cdf(u), mpmath.mpf(u) ** alpha) for u in power_levels())
        assert worst <= 1.0

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 4.0])
    def test_quantile_within_an_ulp(self, alpha):
        mpmath = pytest.importorskip("mpmath")
        model = BetaScaled(alpha, 1.0, 0.0, 1.0)
        levels = power_levels()
        with mpmath.workdps(40):
            exact = [mpmath.mpf(q) ** (1 / mpmath.mpf(alpha)) for q in levels]
            worst = max(ulps_from(model.quantile(q), x) for q, x in zip(levels, exact))
        assert worst <= 1.0

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 4.0, 100.0])
    def test_fatness_constant_is_one_over_delta_to_the_alpha(self, alpha):
        # B(alpha, 1) = 1/alpha, so min{1, 1/(alpha B)} = 1 (scipy's B(100, 1)
        # made it 1 - 2**-52)
        assert BetaScaled(alpha, 1.0, -1.0, 0.3).fatness_constant() == 1.0 / 0.3**alpha


class TestFarTailTruncNormal:
    def test_cdf_is_finite_and_matches_scipy(self):
        for model in FAR_TAIL_MODELS:
            xs = np.linspace(model.x_min, model.x_max, 101)
            a = (model.x_min - model.mu) / model.sigma
            b = (model.x_max - model.mu) / model.sigma
            oracle = stats.truncnorm.cdf(xs, a, b, loc=model.mu, scale=model.sigma)
            assert np.allclose(cdf_at(model, xs), oracle, rtol=0.0, atol=1e-12), repr(model)

    def test_fixed_cohort_not_piled_on_the_right_edge(self):
        model = TruncNormal(0.0, 0.05, 0.5, 1.0)
        values = fixed_values(model, 5)
        assert values[0] == 0.5 and values[-1] == 1.0
        # the mass sits within a few hundredths of x_min
        assert np.all(values[1:-1] < 0.52)
        assert np.all(np.diff(values) > 0)

    def test_iid_cohort_matches_scipy_truncnorm(self):
        model = TruncNormal(0.0, 0.05, 0.5, 1.0)
        n = 10**4
        sample = iid_values(model, n, make_rng(406)).values
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
        got = fixed_values(BetaScaled(1.0, 1.0, -1.0, 2.0), 3)
        assert got[0] == -1.0 and got[2] == 1.0
        assert abs(got[1]) < 1e-9

    def test_first_value_is_support_minimum(self):
        for model in PARAMETRIC_MODELS:
            assert fixed_values(model, 5)[0] == model.x_min

    def test_two_points_are_the_support(self):
        got = fixed_values(BetaScaled(2.0, 1.0, -1.0, 2.0), 2)
        assert got.tolist() == [-1.0, 1.0]

    def test_levels_recovered_through_cdf(self):
        # inversion tolerance on the probability axis
        for model in PARAMETRIC_MODELS:
            n = 33
            values = fixed_values(model, n)
            levels = np.arange(n) / (n - 1)
            assert np.allclose(cdf_at(model, values), levels, atol=1e-10)

    def test_is_a_count_source_without_values(self):
        # read through its counts, n, bounds and values_at, never as a Cohort
        counts = fixed_cohort(BetaScaled(2.0, 1.0, -1.0, 0.3), 5)
        assert not isinstance(counts, Cohort)
        assert not hasattr(counts, "values")
        assert (counts.n, counts.bounds) == (5, (-1.0, -0.7))

    def test_sorted_and_rejects_tiny_n(self):
        values = fixed_values(BetaScaled(2.0, 2.0, -0.2, 0.6), 17)
        assert np.all(np.diff(values) >= 0)
        with pytest.raises(ValueError):
            fixed_cohort(BetaScaled(1.0, 1.0, -1.0, 2.0), 1)


    @pytest.mark.parametrize("n", [2, 3, 1024, 65536])
    @pytest.mark.parametrize("model", PARAMETRIC_MODELS + FAR_TAIL_MODELS)
    def test_values_are_nondecreasing_so_counts_read_them_unsorted(self, model, n):
        values = fixed_values(model, n)
        assert np.all(values[:-1] <= values[1:])


# the harness's templates at their stock placements: uniform, a thin and a fat
# left tail, and a truncnorm whose supports lie below, then above, mu
COUNT_TEMPLATES = [
    ModelTemplate("uniform", delta=0.3),
    ModelTemplate("beta", alpha=2.0, beta=1.0, delta=0.3),
    ModelTemplate("beta", alpha=0.5, beta=3.0, delta=0.3),
    ModelTemplate("truncnorm", delta=0.6, mu=0.9, sigma=0.3),
    ModelTemplate("truncnorm", delta=0.6, mu=-0.9, sigma=0.3),
]


@functools.lru_cache(maxsize=None)
def stock_cohort(template, x_min, n):
    """The fixed cohort's values, counted by binary search: the walk's reference."""
    return Cohort(fixed_values(template.place(x_min), n), "fixed")


def tau_specs(n):
    """Taus anywhere, at bisection midpoints or the ends, and (i, below): on value
    i of a cohort of n, or on the float just below it."""
    midpoint = st.integers(1, 53).flatmap(
        lambda t: st.integers(0, 2 ** (t - 1) - 1).map(lambda j: (2 * j + 1) * 2.0 ** (1 - t) - 1.0))
    return st.lists(st.one_of(st.floats(-1.0, 1.0), midpoint, st.sampled_from([-1.0, 1.0]),
                              st.tuples(st.integers(0, n - 1), st.booleans())),
                    min_size=1, max_size=12)


def tau_at(spec, values):
    if isinstance(spec, float):
        return spec
    i, below = spec
    return float(np.nextafter(values[i], -1.0)) if below else float(values[i])


class CountingModel:
    """A model that counts its cdf and quantile calls."""

    def __init__(self, model):
        self.model, self.calls = model, 0

    def __getattr__(self, name):
        return getattr(self.model, name)

    def cdf(self, x):
        self.calls += 1
        return self.model.cdf(x)

    def quantile(self, q):
        self.calls += 1
        return self.model.quantile(q)


class TestFixedCohortCounts:
    @pytest.mark.parametrize("n", [2, 3, 1024, 4097, 65536])
    @pytest.mark.parametrize("template", COUNT_TEMPLATES, ids=repr)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_counts_are_the_materialized_cohorts(self, template, n, data):
        specs = data.draw(tau_specs(n))
        for x_min in template.default_xmin_grid():
            cohort = stock_cohort(template, x_min, n)
            counts = fixed_cohort(template.place(x_min), n)
            for tau in (tau_at(spec, cohort.values) for spec in specs):
                k = counts.count_at_or_below(tau)
                assert type(k) is int
                assert k == cohort.count_at_or_below(tau), (x_min, tau)

    def test_a_known_tau_costs_no_model_call(self):
        model = CountingModel(ModelTemplate("beta", alpha=2.0, beta=1.0, delta=0.3).place(-1.0))
        counts = fixed_cohort(model, 4097)
        taus = [-0.5, -0.75, -0.875, -1.0, 1.0, -0.8125]
        ks = [counts.count_at_or_below(tau) for tau in taus]
        calls = model.calls
        assert calls > 0
        assert [counts.count_at_or_below(tau) for tau in reversed(taus)] == ks[::-1]
        assert model.calls == calls

    def test_shared_values_cost_log_n_quantiles(self):
        # alpha = 0.05 piles a sixth of the users on the support's first two
        # floats, so a tau there is hundreds to thousands of users away from
        # F(tau)'s guess (10712 at the minimum, 228 one float above it)
        n = 65536
        cohort = Cohort(fixed_values(BetaScaled(0.05, 1.0, -1.0, 0.3), n), "fixed")
        for tau in (-1.0, float(np.nextafter(-1.0, 0.0))):
            model = CountingModel(BetaScaled(0.05, 1.0, -1.0, 0.3))
            assert fixed_cohort(model, n).count_at_or_below(tau) == cohort.count_at_or_below(tau)
            assert model.calls <= 2 + 2 * math.ceil(math.log2(n))

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_rejects_tiny_n(self, n):
        with pytest.raises(ValueError, match="n >= 2"):
            fixed_cohort(BetaScaled(1.0, 1.0, -1.0, 2.0), n)


class ZeroRng:
    def random(self, size=None):
        return np.zeros(size) if size is not None else 0.0


class TestIidCohort:
    def test_kolmogorov_smirnov_against_model(self):
        n = 10**5
        for model in (BetaScaled(2.0, 1.0, -1.0, 2.0), TruncNormal(0.0, 1.0, -1.0, 1.0)):
            sample = iid_values(model, n, make_rng(404)).values
            u = np.sort(cdf_at(model, sample))
            grid = np.arange(1, n + 1) / n
            ks = max(np.max(np.abs(u - grid)), np.max(np.abs(u - (grid - 1.0 / n))))
            assert ks < 1.63 / math.sqrt(n)  # 99% Kolmogorov band

    def test_zero_uniforms_hit_support_minimum(self):
        model = BetaScaled(2.0, 1.0, -0.5, 1.0)
        values = iid_values(model, 4, ZeroRng()).values
        assert np.all(values == model.x_min)

    def test_sample_mean_tracks_beta_mean(self):
        model = BetaScaled(2.0, 1.0, -1.0, 2.0)
        n = 10**5
        sample = iid_values(model, n, make_rng(405)).values
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
        assert cohort.values_at(np.arange(n)).tobytes() == expected.tobytes()
        assert counting.levels == idx.size + n
        assert cohort.bounds == (model.x_min, model.x_max)

    def test_is_read_by_the_baseline_only(self):
        # an iid search counts from IidCounts; the deferred cohort has no counts
        cohort = iid_cohort(BetaScaled(2.0, 1.0, -1.0, 0.3), 5, make_rng(408))
        assert not isinstance(cohort, Cohort)
        assert not hasattr(cohort, "count_at_or_below")


class TestFatness:
    def test_uniform_constant(self):
        c = BetaScaled(1.0, 1.0, -1.0, 2.0).fatness_constant()
        assert c == 0.5 and type(c) is float

    def test_inequality_on_dense_grid(self):
        for model in PARAMETRIC_MODELS + FAR_TAIL_MODELS:
            alpha = model.fat_alpha
            c = model.fatness_constant()
            assert math.isfinite(c) and c >= 0.0, repr(model)
            assert type(c) is float, repr(model)
            xs = np.linspace(model.x_min, model.x_max, 1001)[1:-1]
            lower = c * (xs - model.x_min) ** alpha
            assert np.all(cdf_at(model, xs) >= lower - 1e-12), repr(model)

    def test_symmetric_truncnorm_boundary_densities_agree(self):
        model = TruncNormal(0.0, 0.8, -0.6, 0.6)
        c = model.fatness_constant()
        a = (model.x_min - model.mu) / model.sigma
        z = special.ndtr(-a) - special.ndtr(a)
        density = math.exp(-0.5 * a * a) / math.sqrt(2 * math.pi) / (model.sigma * z)
        assert c == pytest.approx(density, rel=1e-12)


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
        lambda: Cohort(fixed_values(BetaScaled(2.0, 1.0, -0.6, 1.2), 257), "fixed").negated(),
        lambda: iid_values(BetaScaled(2.0, 1.0, -0.6, 1.2), 257, make_rng(9)),
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

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_an_empty_cohort(self, n):
        with pytest.raises(ValueError, match="n >= 1"):
            IidCounts(self.MODEL, n, make_rng(43))

    def test_outside_domain_rejected(self):
        counts = IidCounts(self.MODEL, 10, make_rng(42))
        for tau in (1.5, -1.5):
            with pytest.raises(ValueError, match="must lie in"):
                counts.count_at_or_below(tau)


@pytest.mark.parametrize("make", [
    lambda n: fixed_cohort(BetaScaled(2.0, 1.0, -0.6, 1.2), n),
    lambda n: IidCounts(BetaScaled(2.0, 1.0, -0.6, 1.2), n, make_rng(44)),
], ids=["fixed", "iid-counts"])
def test_sizes_past_int64_rejected(make):
    # numpy draws a binomial count as an int64: the largest one still counts
    counts = make(2**63 - 1)
    assert 0 < counts.count_at_or_below(0.0) < 2**63 - 1
    for n in (2**63, 2**70):
        with pytest.raises(ValueError, match=r"2\*\*63 - 1"):
            make(n)
