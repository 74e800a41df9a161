import collections
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ldpmin.datagen import BetaScaled, Cohort, IidCounts, TruncNormal, fixed_cohort, iid_cohort
from ldpmin.mechanisms import (
    PrivacyBudget,
    RoundBudget,
    debias,
    laplace_noise,
    laplace_noise_many,
    laplace_noise_one,
    laplace_scale,
    phi_correction,
    rr_keep_probability,
    unbiased_phi,
)
from ldpmin import protocol
from ldpmin.protocol import (
    BRANCH_LEFT,
    BRANCH_RIGHT,
    MAX_DEPTH,
    ProtocolConfig,
    baseline_min,
    bisect,
    private_min_estimate,
    run_nonprivate_min,
    run_private_max,
    run_private_min,
    sign,
    user_respond,
)

from conftest import (
    ConstantRng,
    CountingRng,
    always_two_binomials,
    eager_walk,
    fixed_values,
    iid_values,
    make_rng,
    per_user_round_sum,
    respond_round,
    rr_flip_probability,
)

cohort_values = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=1, max_size=60
)


def fixed_cohort_of(values) -> Cohort:
    return Cohort(np.asarray(values, dtype=float), "fixed")


class TestSignAndUserResponse:
    def test_sign_convention(self):
        assert sign(0.0) == 1
        assert sign(-1e-300) == -1

    def test_tau_equal_x_reports_plus_one(self):
        # sign(0) = +1: a user sitting exactly on the midpoint counts left
        assert user_respond(0.5, 0.5, RoundBudget(math.inf), ConstantRng(0.0)) == 1

    def test_no_noise_sign(self):
        assert user_respond(0.5, 0.0, RoundBudget(math.inf), ConstantRng(0.0)) == -1

    def test_keep_probability_after_sign(self):
        # raw bit sign(0 - (-1)) = +1, kept w.p. 3/4 at eps = ln 3
        budget = RoundBudget(math.log(3))
        rng = make_rng(5)
        outs = np.array([user_respond(-1.0, 0.0, budget, rng) for _ in range(10**5)])
        freq = np.mean(outs == 1)
        assert abs(freq - 0.75) < 4 * math.sqrt(0.75 * 0.25 / 10**5)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            user_respond(1.5, 0.0, RoundBudget(1.0), ConstantRng(0.0))
        with pytest.raises(ValueError):
            user_respond(0.0, -2.0, RoundBudget(1.0), ConstantRng(0.0))


def forced_walk(depth, pattern):
    """bisect at eps = inf with every round's answers forced by pattern(t)."""
    config = ProtocolConfig(math.inf, depth, 0.5, 1)
    return bisect(config, lambda t, tau: 1 if pattern(t) == BRANCH_LEFT else -1)


class TestBisect:
    def test_halving(self):
        left = forced_walk(2, lambda t: BRANCH_LEFT)
        right = forced_walk(2, lambda t: BRANCH_RIGHT)
        assert [r.tau for r in left.rounds] == [0.0, -0.5]
        assert [r.tau for r in right.rounds] == [0.0, 0.5]
        assert (left.estimate, right.estimate) == (-0.75, 0.75)

    def test_midpoints_stay_dyadic(self):
        # round t's interval has width 2^(2-t), so shifted midpoints are
        # odd multiples of 2^(1-t), exactly, up to the depth bound; the
        # all-left and all-right walks reach the domain's ends
        for pattern in (lambda t: BRANCH_LEFT, lambda t: BRANCH_RIGHT,
                        lambda t: BRANCH_RIGHT if t % 3 else BRANCH_LEFT):
            walk = forced_walk(MAX_DEPTH, pattern)
            assert [r.branch for r in walk.rounds] == [pattern(r.round) for r in walk.rounds]
            for r in walk.rounds:
                scaled = (Fraction(r.tau) + 1) * 2 ** (r.round - 1)
                assert scaled.denominator == 1 and scaled.numerator % 2 == 1

    def test_depth_bound(self):
        # 54 rounds complete the walks that reach the domain's ends; a 55th
        # would need a midpoint finer than float64 holds next to -1 or 1
        assert MAX_DEPTH == 54
        low = run_nonprivate_min(fixed_cohort_of([-1.0]), MAX_DEPTH)
        assert all(r.branch == BRANCH_LEFT for r in low.rounds)
        assert -1.0 <= low.estimate <= -1.0 + 2.0**-MAX_DEPTH
        config = ProtocolConfig(math.inf, MAX_DEPTH, 9.0, 1)
        high = run_private_min(fixed_cohort_of([-1.0]), config, make_rng(0))
        assert high.config.degenerate_gamma
        assert all(r.branch == BRANCH_RIGHT for r in high.rounds)
        assert 1.0 - 2.0**-MAX_DEPTH <= high.estimate <= 1.0
        with pytest.raises(ValueError, match="54"):
            ProtocolConfig(1.0, MAX_DEPTH + 1, 0.1, 1)
        with pytest.raises(ValueError, match="54"):
            ProtocolConfig(1.0, 0, 0.1, 1)
        with pytest.raises(ValueError, match="54"):
            run_nonprivate_min(fixed_cohort_of([-1.0]), MAX_DEPTH + 1)


class TestTranscript:
    """A run keeps one plain step per round; ``rounds`` builds the records on read."""

    @settings(max_examples=60, deadline=None)
    @given(cohort_values, st.integers(min_value=1, max_value=12),
           st.floats(min_value=0.0, max_value=1.2),
           st.floats(min_value=0.05, max_value=16.0) | st.just(math.inf),
           st.integers(min_value=0, max_value=2**31))
    def test_rounds_equal_the_eager_records(self, values, depth, gamma, epsilon, seed):
        cohort, n = fixed_cohort_of(values), len(values)
        config = ProtocolConfig(epsilon, depth, gamma, n)
        negated = -cohort.values
        plain = ProtocolConfig(math.inf, depth, 1.0 / (2 * n), n)
        user_seeds = [seed + i for i in range(n)]
        runs = {
            "shared": (run_private_min(cohort, config, make_rng(seed)),
                       eager_walk(config, always_two_binomials(cohort, config, make_rng(seed)))),
            "per-user": (
                run_private_min(cohort, config, user_rngs=[make_rng(s) for s in user_seeds]),
                eager_walk(config, per_user_round_sum(
                    cohort.values, config, [make_rng(s) for s in user_seeds]))),
            "nonprivate": (run_nonprivate_min(cohort, depth), eager_walk(
                plain, lambda t, tau: 2 * int(np.count_nonzero(cohort.values <= tau)) - n)),
            "max": (run_private_max(cohort, config, make_rng(seed)), eager_walk(
                config, always_two_binomials(fixed_cohort_of(negated), config, make_rng(seed)))),
        }
        for name, (t, (records, estimate)) in runs.items():
            if name == "max":  # the mirrored search's records, midpoints reflected
                records = tuple(r._replace(tau=-r.tau) for r in records)
                estimate = -estimate
            assert t.rounds == records, name
            assert t.estimate == estimate, name

    def test_reading_rounds_keeps_equality_and_hash(self):
        cohort = fixed_cohort_of(np.linspace(-0.9, 0.4, 11))
        config = ProtocolConfig(epsilon=1.0, depth=6, gamma=0.3, n=11)
        t1 = run_private_min(cohort, config, make_rng(42))
        t2 = run_private_min(cohort, config, make_rng(42))
        before = hash(t1)
        assert len(t1.rounds) == 6 and t1.rounds == t1.rounds
        assert not hasattr(t1, "__dict__")  # a transcript caches nothing
        assert t1 == t2 and hash(t1) == before == hash(t2)


class TestConfig:
    def test_phi_that_would_overflow_is_refused(self):
        # phi_correction * sum_z must stay finite for every |sum_z| <= n
        with pytest.raises(ValueError, match="overflows"):
            ProtocolConfig(2.2e-308, 1, 0.3, 3)
        with pytest.raises(ValueError, match="overflows"):
            ProtocolConfig(1e-300, 1, 0.3, 10**9)
        edge = ProtocolConfig(2.2e-308, 1, 0.3, 1)
        assert math.isfinite(phi_correction(edge.round_budget))
        for sum_z in (-1, 1):
            assert math.isfinite(unbiased_phi(sum_z, 1, edge.round_budget))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.01, max_value=100.0) | st.just(math.inf),
           st.integers(min_value=1, max_value=MAX_DEPTH),
           st.floats(min_value=0.0, max_value=2.0),
           st.integers(min_value=1, max_value=2**62))
    def test_derived_values_are_set_at_construction(self, epsilon, depth, gamma, n):
        built = []

        def counting_budget(eps):
            built.append(eps)
            return PrivacyBudget(eps)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(protocol, "PrivacyBudget", counting_budget)
            config = ProtocolConfig(epsilon, depth, gamma, n)
        assert len(built) == 1
        derived = {k: vars(config)[k]
                   for k in ("budget", "round_budget", "p_keep", "correction", "threshold")}
        round_budget = RoundBudget(epsilon / depth)
        correction = phi_correction(round_budget)
        assert derived["budget"] == PrivacyBudget(epsilon)
        assert derived["round_budget"] == round_budget
        assert derived["p_keep"].hex() == rr_keep_probability(round_budget).hex()
        assert derived["correction"].hex() == correction.hex()
        # the float rule: the least sum in [-n, n + 1] whose debiased estimate reaches gamma
        threshold = derived["threshold"]
        assert threshold == n + 1 or debias(threshold, 2.0 * n, correction) >= gamma
        assert threshold == -n or debias(threshold - 1, 2.0 * n, correction) < gamma
        # equality, hash and repr see only the four fields
        twin = ProtocolConfig(epsilon, depth, gamma, n)
        assert config == twin and hash(config) == hash(twin)
        assert repr(config) == (f"ProtocolConfig(epsilon={epsilon!r}, depth={depth}, "
                                f"gamma={gamma!r}, n={n})")

    def test_derived_values_are_computed_once(self):
        config = ProtocolConfig(3.0, 6, 0.4, 50)
        assert config.budget is config.budget
        assert config.round_budget is config.round_budget
        assert config.budget == PrivacyBudget(3.0)
        assert config.round_budget == PrivacyBudget(3.0).split(6)
        assert config.p_keep == rr_keep_probability(config.round_budget)
        assert config.correction == phi_correction(config.round_budget)
        assert not config.degenerate_gamma
        assert ProtocolConfig(math.inf, 6, 1.5, 1).degenerate_gamma

    @pytest.mark.parametrize("gamma", [math.nan, -0.1, -math.inf])
    def test_gamma_nan_or_negative_is_refused(self, gamma):
        # "gamma < 0" is false for a NaN, which then sends every branch right
        with pytest.raises(ValueError, match="gamma"):
            ProtocolConfig(1.0, 3, gamma, 4)

    @pytest.mark.parametrize("config, degenerate", [
        # phi at all answers +1 equals gamma: round 1 goes left
        (ProtocolConfig(0.33840939862751007, 17, 50.73667026479139, 24), False),
        # phi at all answers +1 falls short of gamma: every round goes right
        (ProtocolConfig(0.0037235160352141897, 20, 5371.767336738776, 25), True),
    ])
    def test_degenerate_flag_agrees_with_the_walk(self, config, degenerate):
        # gamma within an ulp of phi's largest value, where 0.5 * correction + 0.5
        # is not the float that debias gives at sum_z = n
        records, _ = eager_walk(config, lambda t, tau: config.n)
        assert bisect(config, lambda t, tau: config.n).rounds == records
        assert config.degenerate_gamma is degenerate
        assert all((r.branch == BRANCH_RIGHT) is degenerate for r in records)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.01, max_value=100.0) | st.just(math.inf),
           st.integers(min_value=1, max_value=MAX_DEPTH),
           st.integers(min_value=1, max_value=2**62) | st.just(10**24),
           st.data())
    def test_threshold_is_the_float_rule(self, epsilon, depth, n, data):
        correction = ProtocolConfig(epsilon, depth, 0.0, n).correction
        phi = debias(data.draw(st.integers(min_value=-n, max_value=n)), 2.0 * n, correction)
        gamma = data.draw(st.sampled_from([
            0.0, math.inf, math.nextafter(debias(n, 2.0 * n, correction), math.inf),
            phi, math.nextafter(phi, -math.inf), math.nextafter(phi, math.inf)]))
        config = ProtocolConfig(epsilon, depth, max(gamma, 0.0), n)
        threshold = config.threshold
        assert -n <= threshold <= n + 1
        for s in (*range(threshold - 2, threshold + 3), -n, n):
            if -n <= s <= n:
                assert (s >= threshold) == (debias(s, 2.0 * n, correction) >= config.gamma)
        assert config.degenerate_gamma == (debias(n, 2.0 * n, correction) < config.gamma)
        assert config.always_left == (debias(-n, 2.0 * n, correction) >= config.gamma)


class TestNonPrivate:
    def test_hand_trace_single_user(self):
        t = run_nonprivate_min(fixed_cohort_of([0.5]), 3)
        assert [r.tau for r in t.rounds] == [0.0, 0.5, 0.25]
        assert [r.branch for r in t.rounds] == [BRANCH_RIGHT, BRANCH_LEFT, BRANCH_RIGHT]
        assert t.estimate == 0.375
        assert abs(t.estimate - 0.5) == 2.0**-3

    def test_minimum_at_left_edge(self):
        for depth in (1, 4, 9):
            t = run_nonprivate_min(fixed_cohort_of([-1.0, 0.2, 0.9]), depth)
            assert all(r.branch == BRANCH_LEFT for r in t.rounds)
            assert -1.0 <= t.estimate <= -1.0 + 2.0 ** (1 - depth)

    def test_config_is_built_once_per_size_and_depth(self):
        # an iid sweep's repetitions share (n, depth), so the threshold is found once
        first = run_nonprivate_min(fixed_cohort_of([0.1, 0.2]), 5)
        again = run_nonprivate_min(fixed_cohort_of([-0.3, 0.9]), 5)
        assert first.config is again.config
        assert run_nonprivate_min(fixed_cohort_of([0.1, 0.2]), 6).config is not first.config

    def test_round_records_expose_plain_frequency(self):
        t = run_nonprivate_min(fixed_cohort_of([-0.5, 0.5]), 1)
        assert t.rounds[0].phi == 0.5
        assert t.rounds[0].sum_z == 0

    @settings(max_examples=60, deadline=None)
    @given(cohort_values, st.integers(min_value=1, max_value=12))
    def test_error_within_discretization(self, values, depth):
        cohort = fixed_cohort_of(values)
        t = run_nonprivate_min(cohort, depth)
        assert abs(t.estimate - cohort.true_min()) <= 2.0**-depth

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Cohort(np.array([]), "fixed")


class TestPrivateMin:
    def test_each_round_takes_two_binomial_draws(self):
        rng = CountingRng(3)
        cohort = fixed_cohort_of(np.linspace(-1, 1, 7))
        config = ProtocolConfig(epsilon=2.0, depth=5, gamma=0.2, n=7)
        run_private_min(cohort, config, rng)
        assert rng.binomials == 2 * 5
        assert rng.consumed == 0

    def test_transcript_is_replayable(self):
        cohort = fixed_cohort_of(np.linspace(-0.9, 0.4, 11))
        config = ProtocolConfig(epsilon=1.0, depth=6, gamma=0.3, n=11)
        t1 = run_private_min(cohort, config, make_rng(42))
        t2 = run_private_min(cohort, config, make_rng(42))
        assert t1 == t2

    def test_shared_stream_matches_per_user_streams_distributionally(self):
        # not bit-identical (different stream layouts), but equal in law.
        # Fixed seeds; a two-sample KS test must not reject at p < 1e-3, and
        # the same test must reject the law of a wrong kernel, 2 Binom(n, p)
        # - n, at p < 1e-6 (so it has the power to tell the laws apart)
        from scipy.stats import ks_2samp

        reps = 4000
        # one round at tau = 0: k = 10 of n = 40 users sit at or below it
        cohort = fixed_cohort_of(np.r_[np.linspace(-0.9, 0.0, 10), np.linspace(0.1, 0.9, 30)])
        config = ProtocolConfig(epsilon=1.0, depth=1, gamma=0.5, n=40)
        rng = make_rng(70)
        engine = [run_private_min(cohort, config, rng).rounds[0].sum_z for _ in range(reps)]
        ref_rng = make_rng(71)
        reference = [int(respond_round(cohort.values, 0.0, config.round_budget, ref_rng).sum())
                     for _ in range(reps)]
        assert ks_2samp(engine, reference).pvalue > 1e-3
        p_keep = rr_keep_probability(config.round_budget)
        wrong = 2 * make_rng(72).binomial(config.n, p_keep, size=reps) - config.n
        assert ks_2samp(wrong, reference).pvalue < 1e-6

        # whole runs on a small cohort: estimates against per-user streams
        cohort = fixed_cohort_of([0.1, -0.4, 0.8, -0.7, 0.3, -0.1, 0.6, 0.9])
        config = ProtocolConfig(epsilon=2.0, depth=4, gamma=0.3, n=8)
        rng = make_rng(73)
        shared = [run_private_min(cohort, config, rng).estimate for _ in range(2000)]
        user_rngs = [make_rng(100 + i) for i in range(8)]
        per_user = [run_private_min(cohort, config, user_rngs=user_rngs).estimate
                    for _ in range(2000)]
        assert ks_2samp(shared, per_user).pvalue > 1e-3

    def test_requires_exactly_one_stream_argument(self):
        cohort = fixed_cohort_of([0.0])
        config = ProtocolConfig(epsilon=1.0, depth=1, gamma=0.1, n=1)
        with pytest.raises(ValueError):
            run_private_min(cohort, config)
        with pytest.raises(ValueError):
            run_private_min(cohort, config, make_rng(0), user_rngs=[make_rng(1)])

    def test_cohort_size_must_match_config(self):
        config = ProtocolConfig(epsilon=1.0, depth=1, gamma=0.1, n=2)
        with pytest.raises(ValueError):
            run_private_min(fixed_cohort_of([0.0]), config, make_rng(0))

    @settings(max_examples=40, deadline=None)
    @given(cohort_values, st.integers(min_value=1, max_value=10))
    def test_noise_free_reduction(self, values, depth):
        # with no noise and gamma in (0, 1/N], thresholding the debiased
        # estimate reproduces the strict positivity test exactly
        cohort = fixed_cohort_of(values)
        config = ProtocolConfig(math.inf, depth, 1.0 / (2 * cohort.n), cohort.n)
        private = run_private_min(cohort, config, make_rng(0))
        plain = run_nonprivate_min(cohort, depth)
        strict = [BRANCH_LEFT if np.any(cohort.values <= r.tau) else BRANCH_RIGHT
                  for r in plain.rounds]
        assert [r.branch for r in plain.rounds] == strict
        assert [r.branch for r in private.rounds] == strict
        assert private.estimate == plain.estimate

    @settings(max_examples=30, deadline=None)
    @given(cohort_values, st.integers(min_value=1, max_value=10),
           st.floats(min_value=0.0, max_value=1.2), st.floats(min_value=0.1, max_value=8.0))
    def test_estimate_always_in_domain(self, values, depth, gamma, epsilon):
        cohort = fixed_cohort_of(values)
        config = ProtocolConfig(epsilon, depth, gamma, cohort.n)
        t = run_private_min(cohort, config, make_rng(1))
        assert -1.0 <= t.estimate <= 1.0

    def test_vectorized_round_matches_user_loop(self):
        budget = RoundBudget(0.9)
        values = np.linspace(-1, 1, 9)
        vec = respond_round(values, 0.25, budget, make_rng(8))
        loop_rng = make_rng(8)
        loop = [user_respond(float(x), 0.25, budget, loop_rng) for x in values]
        assert vec.tolist() == loop

    @pytest.mark.parametrize("epsilon", [2.0, math.inf])
    @pytest.mark.parametrize("setting", ["fixed", "iid"])
    def test_round_sum_replays_from_two_binomials(self, setting, epsilon):
        # every round's sum recomputed from a fresh stream with the same seed:
        # k from the cohort, then Binom(k, p) and Binom(n - k, 1 - p) in that
        # order, leaving the stream where the run left it; a sorted and an
        # unsorted cohort
        model = BetaScaled(2.0, 1.0, -0.6, 1.2)
        n, depth = 257, 9
        if setting == "fixed":
            cohort, values = fixed_cohort(model, n), fixed_values(model, n)
        else:
            cohort = iid_values(model, n, make_rng(30))
            values = cohort.values
            assert np.any(np.diff(values) < 0)
        config = ProtocolConfig(epsilon, depth, 0.05, n)
        rng = make_rng(31)
        t = run_private_min(cohort, config, rng)
        p_keep = rr_keep_probability(config.round_budget)
        replay = make_rng(31)
        for r in t.rounds:
            k = int(np.count_nonzero(values <= r.tau))
            plus = replay.binomial(k, p_keep) + replay.binomial(n - k, 1.0 - p_keep)
            assert r.sum_z == 2 * plus - n
        assert rng.bit_generator.state == replay.bit_generator.state

    @pytest.mark.parametrize("epsilon", [2.0, math.inf])
    def test_chain_round_sum_replays_from_three_binomials(self, epsilon):
        # an iid count source: each round's new tau first draws its count
        # k_a + Binom(k_b - k_a, (F(tau) - F(a)) / (F(b) - F(a))) between its
        # known neighbours, then the round's two answer binomials, all from
        # the run's one stream, which the replay must leave in the same state
        from bisect import bisect_left

        from ldpmin.datagen import BetaScaled, IidCounts

        model = BetaScaled(2.0, 1.0, -0.6, 1.2)
        n, depth = 100_003, 12
        config = ProtocolConfig(epsilon, depth, 0.05, n)
        rng = make_rng(32)
        t = run_private_min(IidCounts(model, n, rng), config, rng)
        p_keep = rr_keep_probability(config.round_budget)
        replay = make_rng(32)
        known = [(-1.0, 0.0, 0), (1.0, 1.0, n)]  # (tau, F, k), sorted by tau
        for r in t.rounds:
            i = bisect_left(known, (r.tau,))
            (_, fa, ka), (_, fb, kb) = known[i - 1], known[i]
            f = model.cdf(r.tau)
            k = ka + replay.binomial(kb - ka, min(max((f - fa) / (fb - fa), 0.0), 1.0))
            known.insert(i, (r.tau, f, k))
            plus = replay.binomial(k, p_keep) + replay.binomial(n - k, 1.0 - p_keep)
            assert r.sum_z == 2 * plus - n
        assert rng.bit_generator.state == replay.bit_generator.state

    # (count source from the run's stream, epsilon, depth, gamma); each case
    # meets k = 0 or k = n, where the round's empty binomial is not drawn
    SKIP_CASES = {
        "one-user": (lambda rng: fixed_cohort_of([0.3]), 1.0, 8, 0.3),
        "all-equal": (lambda rng: fixed_cohort_of([0.2] * 5), 2.0, 8, 0.5),
        "at-minus-one": (lambda rng: fixed_cohort_of([-1.0, -1.0]), 1.0, 6, 0.2),
        "at-plus-one": (lambda rng: fixed_cohort_of([1.0, 1.0, 1.0]), 1.0, 6, 0.2),
        "two-users": (lambda rng: fixed_cohort_of([0.5, -0.25]), 1.0, 8, 0.3),
        "noise-free": (lambda rng: fixed_cohort_of([0.1, -0.4, 0.8]), math.inf, 10, 1 / 6),
        "gamma-zero": (lambda rng: fixed_cohort_of(np.linspace(-0.5, 0.5, 9)), 2.0, 10, 0.0),
        "gamma-above-max-phi": (lambda rng: fixed_cohort_of(np.linspace(-0.5, 0.5, 9)),
                                2.0, 10, 50.0),
        "iid-cohort": (lambda rng: iid_values(BetaScaled(2.0, 1.0, -0.3, 0.4), 33, make_rng(5)),
                       1.0, 12, 0.05),
        "iid-counts": (lambda rng: IidCounts(BetaScaled(2.0, 1.0, -0.3, 0.4), 1000, rng),
                       4.0, 12, 0.02),
    }

    @pytest.mark.parametrize("case", SKIP_CASES.values(), ids=SKIP_CASES.keys())
    def test_skipped_empty_draws_keep_the_stream(self, case):
        # the run equals the walk that draws both binomials every round, and
        # leaves its stream in the same state
        make_counts, epsilon, depth, gamma = case
        rng, ref_rng = make_rng(50), make_rng(50)
        counts, ref_counts = make_counts(rng), make_counts(ref_rng)
        config = ProtocolConfig(epsilon, depth, gamma, counts.n)
        t = run_private_min(counts, config, rng)
        assert t == bisect(config, always_two_binomials(ref_counts, config, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert {ref_counts.count_at_or_below(r.tau) for r in t.rounds} & {0, counts.n}

    @settings(max_examples=60, deadline=None)
    @given(cohort_values, st.integers(min_value=1, max_value=12),
           st.floats(min_value=0.0, max_value=1.5),
           st.floats(min_value=0.05, max_value=60.0) | st.just(math.inf))
    def test_round_phi_is_unbiased_phi_bit_for_bit(self, values, depth, gamma, epsilon):
        cohort = fixed_cohort_of(values)
        config = ProtocolConfig(epsilon, depth, gamma, cohort.n)
        for r in run_private_min(cohort, config, make_rng(6)).rounds:
            assert r.phi.hex() == unbiased_phi(r.sum_z, cohort.n, config.round_budget).hex()

    def test_per_user_streams_need_a_cohort(self):
        from ldpmin.datagen import BetaScaled, IidCounts

        counts = IidCounts(BetaScaled(1.0, 1.0, -1.0, 2.0), 3, make_rng(0))
        config = ProtocolConfig(epsilon=1.0, depth=2, gamma=0.1, n=3)
        with pytest.raises(ValueError, match="cohort"):
            run_private_min(counts, config, user_rngs=[make_rng(i) for i in range(3)])

    def test_per_user_streams_refuse_a_fixed_cohort(self):
        # a fixed cohort is a count source: it holds no values to answer from
        counts = fixed_cohort(BetaScaled(1.0, 1.0, -1.0, 2.0), 3)
        config = ProtocolConfig(epsilon=1.0, depth=2, gamma=0.1, n=3)
        with pytest.raises(ValueError, match="user_rngs need a cohort's values"):
            run_private_min(counts, config, user_rngs=[make_rng(i) for i in range(3)])

    def test_degenerate_gamma_forces_all_right(self):
        config = ProtocolConfig(epsilon=1.0, depth=1, gamma=5.0, n=1)
        assert config.gamma > unbiased_phi(1, 1, config.round_budget)  # phi's largest value
        t = run_private_min(fixed_cohort_of([-1.0]), config, make_rng(0))
        assert t.config.degenerate_gamma
        assert t.rounds[0].branch == BRANCH_RIGHT
        assert t.estimate == 0.5

    def test_zero_gamma_without_noise_forces_all_left(self):
        # phi's least value, at all answers -1, is 0 at eps = inf: it reaches gamma 0
        config = ProtocolConfig(epsilon=math.inf, depth=4, gamma=0.0, n=2)
        t = run_private_min(fixed_cohort_of([0.5, 0.8]), config, make_rng(0))
        assert t.config.always_left and not t.config.degenerate_gamma
        assert [r.branch for r in t.rounds] == [BRANCH_LEFT] * 4
        assert t.estimate == -0.9375

    def test_reachable_gamma_not_flagged(self):
        config = ProtocolConfig(epsilon=1.0, depth=2, gamma=0.5, n=4)
        t = run_private_min(fixed_cohort_of([0.0, 0.1, 0.2, 0.3]), config, make_rng(0))
        assert not t.config.degenerate_gamma
        assert not t.config.always_left


class TestEstimateOnly:
    """``private_min_estimate`` against ``run_private_min``: the same estimate
    to the bit, and each stream left at the same place."""

    CASES = {
        "fixed-uniform": (lambda rng: fixed_cohort(BetaScaled(1.0, 1.0, -0.7, 0.3), 4096),
                          4.0, 14, 0.01),
        "fixed-beta21": (lambda rng: fixed_cohort(BetaScaled(2.0, 1.0, -0.3, 0.4), 1000),
                         1.0, 12, 0.02),
        "fixed-truncnorm": (lambda rng: fixed_cohort(TruncNormal(0.0, 1.0, -1.0, -0.7), 777),
                            2.0, 12, 0.02),
        "cohort-ties": (lambda rng: fixed_cohort_of([0.25] * 5 + [-0.5] * 3 + [0.9]),
                        3.0, 10, 0.2),
        "cohort-one-user": (lambda rng: fixed_cohort_of([-0.125]), 8.0, 10, 0.3),
        "iid-counts": (lambda rng: IidCounts(BetaScaled(2.0, 1.0, -0.3, 0.4), 1000, rng),
                       4.0, 12, 0.02),
        "noise-free": (lambda rng: fixed_cohort_of([0.1, -0.4, 0.8]), math.inf, 10, 1 / 6),
        "degenerate-gamma": (lambda rng: fixed_cohort_of(np.linspace(-0.5, 0.5, 9)),
                             2.0, 10, 50.0),
        "depth-1": (lambda rng: fixed_cohort_of(np.linspace(-0.5, 0.5, 9)), 2.0, 1, 0.1),
        "max-depth": (lambda rng: fixed_cohort(BetaScaled(1.0, 1.0, -1.0, 2.0), 512),
                      8.0, MAX_DEPTH, 0.05),
    }

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    @pytest.mark.parametrize("seed", [0, 11])
    def test_estimate_is_the_transcript_estimate(self, case, seed):
        make_counts, epsilon, depth, gamma = case
        rng, ref_rng = make_rng(seed), make_rng(seed)
        counts, ref_counts = make_counts(rng), make_counts(ref_rng)  # a source each
        config = ProtocolConfig(epsilon, depth, gamma, counts.n)
        assert config.degenerate_gamma == (gamma == 50.0)
        estimate = private_min_estimate(counts, config, rng)
        t = run_private_min(ref_counts, config, ref_rng)
        assert len(t.steps) == depth
        assert estimate.hex() == t.estimate.hex()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.random() == ref_rng.random()

    @settings(max_examples=60, deadline=None)
    @given(cohort_values, st.integers(min_value=1, max_value=MAX_DEPTH),
           st.floats(min_value=0.0, max_value=1.5),
           st.floats(min_value=0.05, max_value=60.0) | st.just(math.inf),
           st.integers(0, 2**32 - 1))
    def test_estimate_is_the_transcript_estimate_on_any_cohort(self, values, depth, gamma,
                                                              epsilon, seed):
        cohort = fixed_cohort_of(values)
        config = ProtocolConfig(epsilon, depth, gamma, cohort.n)
        rng, ref_rng = make_rng(seed), make_rng(seed)
        estimate = private_min_estimate(cohort, config, rng)
        assert estimate.hex() == run_private_min(cohort, config, ref_rng).estimate.hex()
        assert rng.random() == ref_rng.random()

    def test_cohort_size_must_match_config(self):
        config = ProtocolConfig(epsilon=1.0, depth=1, gamma=0.1, n=2)
        with pytest.raises(ValueError, match="cohort size 1 != configured n 2"):
            private_min_estimate(fixed_cohort_of([0.0]), config, make_rng(0))


def ks_critical(reps: int) -> float:
    """Two-sample KS critical value at alpha = 0.001 for two samples of ``reps``."""
    return 1.95 * math.sqrt(2.0 / reps)


class TestIidChain:
    """The chain against a materialized iid cohort: equal laws, fixed seeds.

    Each KS statistic, chain estimates against cohort estimates (R = 1500
    repetitions each), must stay below the alpha = 0.001 critical value
    1.95 sqrt(2/R), a bound fixed before the tests were run.
    """

    REPS = 1500

    @staticmethod
    def estimates(model, config, seed, materialize, private=True):
        rng = make_rng(seed)
        out = []
        for _ in range(TestIidChain.REPS):
            counts = (iid_values if materialize else IidCounts)(model, config.n, rng)
            t = (run_private_min(counts, config, rng) if private
                 else run_nonprivate_min(counts, config.depth))
            out.append(t.estimate)
        return out

    @pytest.mark.parametrize("model,n,param_mode", [
        ("beta", 4096, "lower_alpha"),
        ("truncnorm", 2048, "unknown_alpha"),
        ("uniform", 1024, "lower_alpha"),
    ])
    def test_chain_matches_materialized_cohort(self, model, n, param_mode):
        from scipy.stats import ks_2samp

        from ldpmin.datagen import BetaScaled, TruncNormal
        from ldpmin.params import choose_params

        model = {"beta": BetaScaled(2.0, 1.0, -1.0, 0.3),
                 "truncnorm": TruncNormal(0.1, 0.3, -0.8, 0.6),
                 "uniform": BetaScaled(1.0, 1.0, -0.5, 0.3)}[model]
        config = choose_params(param_mode, n, 1.0)
        chain = self.estimates(model, config, 80, materialize=False)
        cohort = self.estimates(model, config, 81, materialize=True)
        assert ks_2samp(chain, cohort).statistic < ks_critical(self.REPS)

    def test_nonprivate_chain_matches_materialized_cohort(self):
        # deep enough that the last rounds hit sparse counts near the minimum
        from scipy.stats import ks_2samp

        from ldpmin.datagen import BetaScaled

        model = BetaScaled(2.0, 1.0, -0.7, 0.3)
        config = ProtocolConfig(math.inf, 14, 1.0 / 512, 256)
        chain = self.estimates(model, config, 82, materialize=False, private=False)
        cohort = self.estimates(model, config, 83, materialize=True, private=False)
        assert ks_2samp(chain, cohort).statistic < ks_critical(self.REPS)

    def test_cost_does_not_grow_with_n(self):
        import time

        from ldpmin.datagen import BetaScaled, IidCounts
        from ldpmin.params import choose_params

        model = BetaScaled(2.0, 1.0, -1.0, 0.3)
        config = choose_params("lower_alpha", 2**30, 1.0)
        rng = make_rng(84)
        start = time.perf_counter()
        for _ in range(200):
            run_private_min(IidCounts(model, 2**30, rng), config, rng)
        assert time.perf_counter() - start < 2.0


class TestPrivacyComposition:
    def test_per_round_ratio_and_product(self):
        # L sanitizations at eps/L each: per-invocation likelihood ratio
        # e^{eps/L}, product across rounds e^eps (up to float rounding)
        for epsilon, depth in [(1.0, 5), (4.0, 8), (0.25, 3)]:
            budget = ProtocolConfig(epsilon, depth, 0.1, 1).round_budget
            ratio = rr_keep_probability(budget) / rr_flip_probability(budget)
            assert ratio == pytest.approx(math.exp(epsilon / depth), rel=1e-12)
            assert ratio**depth == pytest.approx(math.exp(epsilon), rel=1e-10)


class TestMaxByReflection:
    @settings(max_examples=40, deadline=None)
    @given(cohort_values, st.integers(min_value=1, max_value=8),
           st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=0, max_value=2**31))
    def test_reflection_identity(self, values, depth, gamma, seed):
        cohort = fixed_cohort_of(values)
        config = ProtocolConfig(1.0, depth, gamma, cohort.n)
        t_max = run_private_max(cohort, config, make_rng(seed))
        t_min = run_private_min(cohort.negated(), config, make_rng(seed))
        assert t_max.estimate == -t_min.estimate
        assert [r.tau for r in t_max.rounds] == [-r.tau for r in t_min.rounds]
        assert [r.sum_z for r in t_max.rounds] == [r.sum_z for r in t_min.rounds]

    def test_no_noise_single_user(self):
        cohort = fixed_cohort_of([0.5])
        config = ProtocolConfig(math.inf, 3, 0.5, 1)
        t = run_private_max(cohort, config, make_rng(0))
        assert abs(t.estimate - 0.5) <= 2.0**-3


class TestBaseline:
    def test_zero_noise_stream_returns_true_min(self):
        from ldpmin.mechanisms import PrivacyBudget

        cohort = fixed_cohort_of([0.3, -0.7, 0.9])
        assert baseline_min(cohort, PrivacyBudget(1.0), ConstantRng(0.5)) == -0.7

    def test_noise_minimum_matches_independent_sampler(self):
        # our inverse-CDF path vs numpy's own Laplace sampler, both taking
        # the min over N draws; the two Monte Carlo means must agree
        from ldpmin.mechanisms import PrivacyBudget

        n, reps = 64, 4000
        budget = PrivacyBudget(1.0)
        cohort = fixed_cohort_of(np.zeros(n))
        rng = make_rng(11)
        ours = np.array([baseline_min(cohort, budget, rng) for _ in range(reps)])
        oracle_rng = make_rng(12)
        oracle = oracle_rng.laplace(0.0, 2.0, size=(reps, n)).min(axis=1)
        se = math.hypot(ours.std(ddof=1), oracle.std(ddof=1)) / math.sqrt(reps)
        assert abs(ours.mean() - oracle.mean()) < 3 * se

    @pytest.mark.parametrize("epsilon", [5e-324, 1.5e-308, 1e-305, 1e-300, 1.0, 32.0, math.inf],
                             ids=["eps5e-324", "eps1.5e-308", "eps1e-305", "eps1e-300", "eps1",
                                  "eps32", "epsinf"])
    @pytest.mark.parametrize("n", [1, 2, 1000])
    @pytest.mark.parametrize("model", [
        BetaScaled(2.0, 1.0, -1.0, 0.3), BetaScaled(0.5, 3.0, 0.2, 0.5),
        TruncNormal(0.0, 0.3, -0.4, 0.2), BetaScaled(0.01, 1.0, -1.0, 0.3),
    ], ids=["beta(2,1)", "beta(0.5,3)", "truncnorm", "ties-at-min"])
    @pytest.mark.parametrize("kind", ["deferred", "materialized", "fixed"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_pruned_minimum_is_the_full_minimum(self, epsilon, n, model, kind):
        # reading only the users whose report can be the minimum returns the
        # bits of the minimum over all N reports, and leaves the stream where
        # the full computation leaves it; at eps = 1.5e-308 the scale is finite
        # but most users' noise overflows to -inf, and the minimum is -inf
        budget = PrivacyBudget(epsilon)
        if kind == "fixed":
            n = max(n, 2)  # a fixed cohort needs two users
        for seed in range(8):
            ref = make_rng(seed)
            if kind == "fixed":
                values = model.quantile(np.arange(n) / (n - 1))
            else:
                values = model.quantile(ref.random(n))
            expected = np.float64((values + laplace_noise_many(n, budget, ref)).min())
            rng = make_rng(seed)
            if kind == "fixed":
                cohort = fixed_cohort(model, n)
            else:
                cohort = iid_cohort(model, n, rng)
            if kind == "materialized":
                cohort = Cohort(cohort.values_at(np.arange(n)), "iid")
            got = np.float64(baseline_min(cohort, budget, rng))
            assert got.tobytes() == expected.tobytes(), (seed, got, expected)
            assert rng.random() == ref.random()

    def test_nan_noise_reaches_the_minimum(self):
        # u = 1/2 at an infinite noise scale gives inf * log(1) = NaN; the
        # unpruned minimum propagates it, so the pruned one must too
        cohort = iid_cohort(BetaScaled(2.0, 1.0, -1.0, 0.3), 5, ConstantRng(0.5))
        with np.errstate(invalid="ignore"):
            estimate = baseline_min(cohort, PrivacyBudget(5e-324), ConstantRng(0.5))
        assert math.isnan(estimate)

    def test_iid_baseline_reads_few_values(self):
        # at eps = 1 only users within the support's width of the noise
        # minimum can hold it: about one of N = 2^20 needs its value
        from conftest import CountingModel

        model = CountingModel(BetaScaled(2.0, 1.0, -1.0, 0.3))
        rng = make_rng(13)
        estimate = baseline_min(iid_cohort(model, 2**20, rng), PrivacyBudget(1.0), rng)
        assert estimate < -1.0
        assert 1 <= model.levels < 100

    def test_iid_baseline_turns_few_uniforms_into_noise(self, monkeypatch):
        # all N uniforms are drawn, but only those of users who can hold the
        # minimum pass through the noise transform, in its array or float form
        seen = []

        def spy(u, budget):
            seen.append(u.size)
            return laplace_noise(u, budget)

        def spy_one(u, scale):
            seen.append(1)
            return laplace_noise_one(u, scale)

        monkeypatch.setattr(protocol, "laplace_noise", spy)
        monkeypatch.setattr(protocol, "laplace_noise_one", spy_one)
        rng = make_rng(13)
        cohort = iid_cohort(BetaScaled(2.0, 1.0, -1.0, 0.3), 2**20, rng)
        assert baseline_min(cohort, PrivacyBudget(1.0), rng) < -1.0
        assert 1 <= sum(seen) < 100

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_pruned_minimum_cases_run_both_paths(self, monkeypatch):
        # the oracle test's grid reads candidates as floats, and on arrays at
        # a finite nonzero scale too, when they are more than FLOAT_CANDIDATES
        calls = collections.Counter()

        def spy(u, budget):
            calls["array", 0.0 < laplace_scale(budget) < math.inf] += 1
            return laplace_noise(u, budget)

        def spy_one(u, scale):
            calls["float"] += 1
            return laplace_noise_one(u, scale)

        monkeypatch.setattr(protocol, "laplace_noise", spy)
        monkeypatch.setattr(protocol, "laplace_noise_one", spy_one)
        oracle = TestBaseline.test_pruned_minimum_is_the_full_minimum
        grid = {mark.args[0]: mark.args[1] for mark in oracle.pytestmark
                if mark.name == "parametrize"}
        for case in itertools.product(*(grid[name] for name in ("epsilon", "n", "model", "kind"))):
            oracle(self, *case)
        assert calls["float"] > 0 and calls["array", True] > 0 and calls["array", False] > 0

    @pytest.mark.parametrize("values", [[0.0, -0.0], [-0.0, 0.0], [0.0, -0.0, 0.0]])
    def test_tied_zero_reports_resolve_as_np_min(self, values):
        # at u = 1/2 every noise is -0.0, so the reports are 0.0 and -0.0; np.min
        # over them picks one sign by its own order, not Python's first-wins
        expected = np.float64((np.array(values) + laplace_noise(np.full(len(values), 0.5),
                                                                PrivacyBudget(1.0))).min())
        got = np.float64(baseline_min(fixed_cohort_of(values), PrivacyBudget(1.0),
                                      ConstantRng(0.5)))
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("epsilon", [1.0, 8.0], ids=["eps1", "eps8"])
    def test_fixed_baseline_reads_few_values(self, epsilon):
        # a fixed cohort evaluates the quantile only at the users whose report
        # can be the minimum, and gives the bits of the baseline on all its
        # values
        from conftest import CountingModel

        model, n = BetaScaled(2.0, 1.0, -1.0, 0.3), 4097
        full = Cohort(fixed_values(model, n), "fixed")
        budget = PrivacyBudget(epsilon)
        for seed in range(6):
            counting = CountingModel(model)
            got = np.float64(baseline_min(fixed_cohort(counting, n), budget, make_rng(seed)))
            expected = np.float64(baseline_min(full, budget, make_rng(seed)))
            assert got.tobytes() == expected.tobytes(), (seed, got, expected)
            assert counting.levels < 64
