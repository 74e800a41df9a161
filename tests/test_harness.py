import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import seed_sequence_rep_rng
from ldpmin.datagen import Cohort
from ldpmin.harness import (
    MECH_BINARY_SEARCH,
    MECH_LAPLACE,
    MECH_NONPRIVATE,
    MECHANISMS,
    ConfigError,
    ExperimentSpec,
    ModelTemplate,
    compare_baseline,
    guideline_curve,
    parse_experiment_config,
    rep_rng,
    rep_rngs,
    run_experiment,
)
from ldpmin.params import choose_params
from ldpmin.protocol import run_nonprivate_min, run_private_min

UNIFORM = ModelTemplate(kind="uniform", delta=0.3)


def small_spec(**overrides) -> ExperimentSpec:
    base = dict(
        model=UNIFORM,
        setting="fixed",
        n_grid=(64, 128),
        epsilon_grid=(2.0,),
        param_mode="lower_alpha",
        reps=8,
        xmin_grid=UNIFORM.default_xmin_grid(),
        seed=31337,
        mechanisms=(MECH_BINARY_SEARCH,),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestModelTemplate:
    def test_default_grid_spans_admissible_placements(self):
        grid = UNIFORM.default_xmin_grid()
        assert len(grid) == 6
        assert grid[0] == -1.0
        assert grid[-1] == pytest.approx(1.0 - 0.3, rel=1e-12)
        for x in grid:
            UNIFORM.place(x)  # must not raise

    def test_full_width_grid_collapses(self):
        assert ModelTemplate(kind="uniform", delta=2.0).default_xmin_grid() == (-1.0,)

    def test_infeasible_placement_rejected(self):
        with pytest.raises(ValueError, match="placement"):
            UNIFORM.place(0.9)

    @pytest.mark.parametrize("kind, reads", [
        ("uniform", {"delta"}),
        ("beta", {"alpha", "beta", "delta"}),
        ("truncnorm", {"mu", "sigma", "delta"}),
    ])
    def test_a_field_the_kind_never_reads_is_refused(self, kind, reads):
        # (alpha, beta, mu, sigma, delta) off their defaults 1, 1, 0, 1, 2
        changed = {"alpha": 2.0, "beta": 3.0, "mu": 0.2, "sigma": 0.4, "delta": 0.5}
        ModelTemplate(kind, **{name: changed[name] for name in reads})
        for name in changed.keys() - reads:
            with pytest.raises(ValueError, match=f"^model '{kind}' does not read {name}$"):
                ModelTemplate(kind, **{name: changed[name]})
            default = next(f.default for f in fields(ModelTemplate) if f.name == name)
            ModelTemplate(kind, **{name: default})  # a default it does not read passes

    def test_beta_and_truncnorm_kinds(self):
        beta = ModelTemplate(kind="beta", alpha=2.0, beta=1.0, delta=0.5).place(-0.25)
        assert beta.alpha == 2.0 and beta.x_min == -0.25
        tn = ModelTemplate(kind="truncnorm", mu=0.1, sigma=0.4, delta=0.8).place(-0.5)
        assert tn.x_min == -0.5 and tn.x_max == pytest.approx(0.3)


class TestStreams:
    def test_streams_keyed_on_values_not_order(self):
        a = rep_rng(1, MECH_BINARY_SEARCH, 64, 2.0, -1.0, 3).random(4)
        b = rep_rng(1, MECH_BINARY_SEARCH, 64, 2.0, -1.0, 3).random(4)
        assert a.tolist() == b.tolist()

    def test_streams_differ_across_cells_and_reps(self):
        base = rep_rng(1, MECH_BINARY_SEARCH, 64, 2.0, -1.0, 3).random(4).tolist()
        for other in [
            rep_rng(2, MECH_BINARY_SEARCH, 64, 2.0, -1.0, 3),
            rep_rng(1, MECH_LAPLACE, 64, 2.0, -1.0, 3),
            rep_rng(1, MECH_BINARY_SEARCH, 128, 2.0, -1.0, 3),
            rep_rng(1, MECH_BINARY_SEARCH, 64, 4.0, -1.0, 3),
            rep_rng(1, MECH_BINARY_SEARCH, 64, 2.0, -0.3, 3),
            rep_rng(1, MECH_BINARY_SEARCH, 64, 2.0, -1.0, 4),
        ]:
            assert other.random(4).tolist() != base

    # reps at and around the 64-rep blocks the derivation works in, up to the last rep
    REPS = (0, 1, 63, 64, 65, 127, 128, 129, 2**32 - 65, 2**32 - 64, 2**32 - 1)
    CODES = {MECH_BINARY_SEARCH: 0, MECH_LAPLACE: 1, MECH_NONPRIVATE: 2}

    @staticmethod
    def assert_reference_stream(seed, mechanism, n, epsilon, x_min, rep):
        got = rep_rng(seed, mechanism, n, epsilon, x_min, rep)
        want = seed_sequence_rep_rng(seed, TestStreams.CODES[mechanism], n, epsilon, x_min, rep)
        assert got.bit_generator.state == want.bit_generator.state
        assert got.random(3).tolist() == want.random(3).tolist()
        assert got.binomial(1000, 0.3) == want.binomial(1000, 0.3)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**40 + 5])
    def test_stream_is_the_seed_sequence_stream(self, seed):
        for mechanism in MECHANISMS:
            for epsilon in (4.0, 0.1, math.inf):
                for x_min in (-1.0, -0.3, -0.0):
                    for rep in self.REPS:
                        self.assert_reference_stream(seed, mechanism, 1024, epsilon, x_min, rep)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**80), st.sampled_from(MECHANISMS), st.integers(1, 2**40),
           st.floats(), st.floats(), st.integers(0, 2**32 - 1))
    def test_stream_is_the_seed_sequence_stream_for_any_key(self, seed, mechanism, n,
                                                             epsilon, x_min, rep):
        self.assert_reference_stream(seed, mechanism, n, epsilon, x_min, rep)

    # a seed past 32 bits takes a second key word, which shifts the rep word's constants
    @pytest.mark.parametrize("seed", [7, 2**40 + 5])
    @pytest.mark.parametrize("reps", [1, 63, 64, 65, 130])
    def test_cell_streams_are_the_rep_streams(self, seed, reps):
        key = (seed, MECH_LAPLACE, 4096, 4.0, -0.3)
        got = [g.random(2).tolist() for g in rep_rngs(*key, reps)]
        assert got == [rep_rng(*key, rep).random(2).tolist() for rep in range(reps)]

    @pytest.mark.parametrize("seed, rep", [(-1, 0), (0, -1), (0, 2**32)])
    def test_key_outside_its_words_is_refused(self, seed, rep):
        with pytest.raises(ValueError):
            rep_rng(seed, MECH_BINARY_SEARCH, 64, 2.0, -1.0, rep)


class TestRunExperiment:
    def test_deterministic_given_seed(self):
        spec = small_spec()
        assert run_experiment(spec) == run_experiment(spec)

    def test_grid_iteration_order_is_irrelevant(self):
        spec = small_spec()
        shuffled = small_spec(
            n_grid=tuple(reversed(spec.n_grid)),
            xmin_grid=tuple(reversed(spec.xmin_grid)),
        )
        key = lambda c: (c.mechanism, c.epsilon, c.n)
        assert sorted(run_experiment(spec), key=key) == sorted(
            run_experiment(shuffled), key=key
        )

    def test_worst_placement_rule(self):
        # the multi-placement cell must report exactly the max over the
        # per-placement means, each recomputable from a single-placement run
        spec = small_spec(n_grid=(64,), reps=6)
        cell = run_experiment(spec)[0]
        singles = [
            run_experiment(small_spec(n_grid=(64,), reps=6, xmin_grid=(x,)))[0]
            for x in spec.xmin_grid
        ]
        best = max(singles, key=lambda c: c.mean_abs_err)
        assert cell.mean_abs_err == best.mean_abs_err
        assert cell.x_min == best.x_min
        assert cell.q05 == best.q05 and cell.q95 == best.q95

    def test_row_shape(self):
        spec = small_spec(
            epsilon_grid=(1.0, 2.0), mechanisms=(MECH_BINARY_SEARCH, MECH_LAPLACE)
        )
        cells = run_experiment(spec)
        assert len(cells) == 2 * 2 * 2
        assert {c.mechanism for c in cells} == {MECH_BINARY_SEARCH, MECH_LAPLACE}

    def test_nonprivate_is_zero_variance_and_within_discretization(self):
        spec = small_spec(mechanisms=(MECH_NONPRIVATE,))
        for cell in run_experiment(spec):
            depth = choose_params(spec.param_mode, cell.n, cell.epsilon).depth
            assert cell.mean_abs_err <= 2.0**-depth
            assert cell.q05 == cell.mean_abs_err == cell.q95

    def test_iid_setting_runs(self):
        cells = run_experiment(small_spec(setting="iid", n_grid=(64,), reps=4))
        assert len(cells) == 1 and cells[0].mean_abs_err >= 0.0

    def test_only_the_baseline_materializes_iid_cohorts(self, monkeypatch):
        # a search reads counts; only the Laplace repetitions need the values
        import ldpmin.harness as harness

        calls = []
        real = harness.iid_cohort

        def counted(model, n, rng):
            calls.append(n)
            return real(model, n, rng)

        monkeypatch.setattr(harness, "iid_cohort", counted)
        spec = small_spec(setting="iid", reps=3, mechanisms=(MECH_BINARY_SEARCH, MECH_LAPLACE))
        cells = run_experiment(spec)
        assert len(cells) == 4
        laplace_reps = spec.reps * len(spec.xmin_grid)
        assert sorted(calls) == sorted(spec.n_grid * laplace_reps)

    def test_iid_search_consumes_the_chain_stream(self):
        # each iid search repetition reads its rep_rng through the chain, so
        # its error is recomputable from IidCounts on the same stream
        from ldpmin.datagen import IidCounts

        spec = small_spec(setting="iid", n_grid=(64,), reps=5,
                          mechanisms=(MECH_BINARY_SEARCH, MECH_NONPRIVATE))
        cells = run_experiment(spec)
        for cell in cells:
            config = choose_params(spec.param_mode, 64, 2.0)
            errs = []
            for rep in range(spec.reps):
                rng = rep_rng(spec.seed, cell.mechanism, 64, 2.0, cell.x_min, rep)
                counts = IidCounts(spec.model.place(cell.x_min), 64, rng)
                if cell.mechanism == MECH_BINARY_SEARCH:
                    t = run_private_min(counts, config, rng)
                else:
                    t = run_nonprivate_min(counts, config.depth)
                errs.append(abs(t.estimate - cell.x_min))
            assert cell.mean_abs_err == float(np.mean(errs))

    def test_depth_bound_fails_before_any_run(self, monkeypatch):
        # known_alpha:0.1 needs depth 55 at N = 2048; the N = 1024 cell
        # must not run first and spend its work
        import ldpmin.harness as harness

        def no_run(*args, **kwargs):
            raise AssertionError("a repetition ran")

        monkeypatch.setattr(harness, "fixed_cohort", no_run)
        monkeypatch.setattr(harness, "private_min_estimate", no_run)
        spec = small_spec(param_mode="known_alpha:0.1", n_grid=(1024, 2048))
        with pytest.raises(ValueError, match="54"):
            run_experiment(spec)

    def test_infeasible_xmin_grid_reported(self):
        with pytest.raises(ValueError, match="infeasible"):
            small_spec(xmin_grid=(0.9,))

    def test_sweep_builds_no_round_record(self, monkeypatch):
        # a sweep reads only each run's estimate, so no run builds its records,
        # and its sanitized searches and baselines build no transcript
        from ldpmin import protocol

        built, record = [], protocol.RoundRecord
        transcripts, transcript = [], protocol.Transcript

        def counting_record(*fields):
            built.append(fields)
            return record(*fields)

        def counting_transcript(*fields):
            transcripts.append(fields)
            return transcript(*fields)

        monkeypatch.setattr(protocol, "RoundRecord", counting_record)
        monkeypatch.setattr(protocol, "Transcript", counting_transcript)
        for setting in ("fixed", "iid"):
            spec = small_spec(setting=setting, reps=3, mechanisms=MECHANISMS)
            run_experiment(spec)
            # the noise-free search walks by callback and builds one transcript
            # per run: an i.i.d. nonprivate cell one each rep, a fixed nonprivate
            # cell one per placement; every other cell builds none
            runs = spec.reps if setting == "iid" else 1
            assert len(transcripts) == len(spec.n_grid) * len(spec.xmin_grid) * runs
            assert {config.epsilon for config, _, _ in transcripts} == {math.inf}
            transcripts.clear()
        assert built == []
        # the counter sees the records a reader asks for
        config = choose_params("lower_alpha", 64, 2.0)
        t = run_private_min(Cohort(np.linspace(-0.5, 0.5, 64), "fixed"), config,
                            rep_rng(0, MECH_BINARY_SEARCH, 64, 2.0, -0.5, 0))
        assert built == []
        assert len(t.rounds) == config.depth == len(built)


class TestCompareBaseline:
    def test_pairing_and_ratio(self):
        rows = compare_baseline(small_spec(n_grid=(64, 128), reps=6))
        assert len(rows) == 2
        for row in rows:
            assert row.ratio == pytest.approx(
                row.err_laplace / row.err_binary_search, rel=1e-12
            )

    def test_noise_free_limit_baseline_wins(self):
        # with epsilon = inf the baseline is exact while bisection keeps
        # its discretization error
        rows = compare_baseline(small_spec(epsilon_grid=(math.inf,), reps=3))
        for row in rows:
            assert row.err_laplace == 0.0
            assert row.err_binary_search > 0.0
            assert row.ratio == 0.0


class TestGuideline:
    NS = [2**k for k in range(10, 15)]

    def test_anchoring_at_largest_n(self):
        curve = guideline_curve("lower_alpha", 1.0, self.NS, 1.0, anchor=0.042)
        assert curve[-1][1] == pytest.approx(0.042, rel=1e-12)

    def test_unknown_to_known_ratio_is_log_cubed(self):
        known = guideline_curve("lower_alpha", 2.0, self.NS, 1.0)
        unknown = guideline_curve("unknown_alpha", 2.0, self.NS, 1.0)
        for (n, kv), (_, uv) in zip(known, unknown):
            assert uv / kv == pytest.approx(math.log(n) ** (3 / 4), rel=1e-10)

    def test_zero_rate_curve_has_nothing_to_anchor(self):
        assert guideline_curve("lower_alpha", 1.0, self.NS, math.inf, anchor=0.042) == []
        assert [v for _, v in guideline_curve("lower_alpha", 1.0, self.NS, math.inf)] == [0.0] * 5

    @pytest.mark.parametrize("alpha, epsilon", [(1.0, 1e200), (0.001, 0.01)],
                             ids=["epsilon_squared", "power"])
    def test_rate_beyond_float64_has_no_curve(self, alpha, epsilon):
        assert guideline_curve("lower_alpha", alpha, self.NS, epsilon) == []
        assert guideline_curve("lower_alpha", alpha, self.NS, epsilon, anchor=0.042) == []

    def test_quadrupling_n_roughly_halves_alpha_one_curve(self):
        curve = dict(guideline_curve("lower_alpha", 1.0, [4096, 16384], 1.0))
        ratio = curve[4096] / curve[16384]
        # N^(-1/2) alone gives 2; the slowly growing log factor drags it down
        assert 1.4 < ratio < 2.0
        expected = 2.0 * (math.log(4096) / math.log(16384)) ** 1.5
        assert ratio == pytest.approx(expected, rel=1e-10)


def write_cfg(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text, encoding="utf-8")
    return path


class TestConfigParsing:
    GOOD = """
# comment
model = beta
alpha = 2
beta = 1
delta = 0.3
setting = fixed
n_grid = 64, 128
epsilon_grid = 1, 4
param_mode = lower_alpha
reps = 5
xmin_grid = auto
seed = 99
mechanisms = binary_search, laplace
"""

    def test_full_round_trip(self, tmp_path):
        spec = parse_experiment_config(write_cfg(tmp_path, self.GOOD))
        assert spec.model.kind == "beta" and spec.model.alpha == 2.0
        assert spec.n_grid == (64, 128)
        assert spec.epsilon_grid == (1.0, 4.0)
        assert spec.mechanisms == (MECH_BINARY_SEARCH, MECH_LAPLACE)
        assert spec.xmin_grid == spec.model.default_xmin_grid()
        assert spec.seed == 99

    def test_unknown_key_has_line_number(self, tmp_path):
        with pytest.raises(ConfigError, match="line 2"):
            parse_experiment_config(write_cfg(tmp_path, "\nwat = 12\nn_grid = 4\n"))

    def test_bad_list_has_line_number(self, tmp_path):
        with pytest.raises(ConfigError, match="line 1"):
            parse_experiment_config(write_cfg(tmp_path, "n_grid = 64, potato\nepsilon_grid = 1\n"))

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ConfigError, match="n_grid"):
            parse_experiment_config(write_cfg(tmp_path, "epsilon_grid = 1\n"))

    def test_explicit_xmin_grid(self, tmp_path):
        cfg = "n_grid = 64\nepsilon_grid = 1\nxmin_grid = -1, -0.5\ndelta = 0.3\n"
        spec = parse_experiment_config(write_cfg(tmp_path, cfg))
        assert spec.xmin_grid == (-1.0, -0.5)

    def test_empty_xmin_grid_is_not_auto(self, tmp_path):
        with pytest.raises(ConfigError, match="line 3"):
            parse_experiment_config(write_cfg(tmp_path, "n_grid = 64\nepsilon_grid = 1\nxmin_grid =\n"))

    def test_defaults_come_from_the_dataclasses(self, tmp_path):
        spec = parse_experiment_config(write_cfg(tmp_path, "n_grid = 64, 128\nepsilon_grid = 4\n"))
        assert spec == ExperimentSpec(ModelTemplate(), n_grid=(64, 128), epsilon_grid=(4.0,))

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_experiment_config(write_cfg(tmp_path, "seed = 1\nseed = 2\nn_grid = 4\n"))

    def test_empty_mechanisms_has_line_number(self, tmp_path):
        with pytest.raises(ConfigError, match="line 3"):
            parse_experiment_config(write_cfg(tmp_path, "n_grid = 64\nepsilon_grid = 1\nmechanisms =\n"))
        with pytest.raises(ValueError, match="mechanisms"):
            small_spec(mechanisms=())

    @pytest.mark.parametrize("line, key", [("seed = -1", "seed"),
                                           ("reps = 0", "reps"),
                                           ("reps = 4294967297", "reps")])
    def test_key_word_out_of_range_rejected(self, tmp_path, line, key):
        # seed and rep are words of each repetition's stream key
        with pytest.raises(ConfigError, match=f"{key} must"):
            parse_experiment_config(write_cfg(tmp_path, f"n_grid = 64\nepsilon_grid = 1\n{line}\n"))

    def test_reps_2_32_and_a_multiword_seed_accepted(self, tmp_path):
        cfg = "n_grid = 64\nepsilon_grid = 1\nreps = 4294967296\nseed = 1208925819614629174706176\n"
        spec = parse_experiment_config(write_cfg(tmp_path, cfg))
        assert spec.reps == 2**32 and spec.seed == 2**80

    @pytest.mark.parametrize("grids", ["n_grid = 64, 0x40\nepsilon_grid = 1\n",
                                       "n_grid = 64\nepsilon_grid = 4, 4.0\n",
                                       "n_grid = 64\nepsilon_grid = 1\nmechanisms = laplace, laplace\n"],
                             ids=["n_grid", "epsilon_grid", "mechanisms"])
    def test_repeated_grid_value_rejected(self, tmp_path, grids):
        # a repeat would run the cell twice and, for epsilon, write one guideline twice
        with pytest.raises(ConfigError, match="without repeats"):
            parse_experiment_config(write_cfg(tmp_path, grids))
