"""Experiment orchestration: sweeps over N and epsilon with repetition stats.

For every grid cell (N, epsilon, mechanism) the harness runs ``reps``
independent repetitions at each candidate placement of the data minimum,
averages the absolute error |estimate - x_min| per placement, and reports
the worst placement (largest mean) together with the 0.05/0.95 quantiles
of the errors observed there.  Scanning the minimum over a small offset
grid stabilizes the otherwise placement-dependent discretization error of
the bisection grid.

Repetition streams are derived by counter-based splitting: the generator
for one repetition is PCG64 seeded by numpy's SeedSequence on the key
(seed, mechanism, N, epsilon, x_min, rep), never on loop indices, so cells
are independent of iteration order and can run in parallel.  numpy mixes
a cell's part of the key into its pool; ``rep_rng`` mixes in the rep word
and hashes out the state, 64 reps at a time.  A sweep walks a cell's reps
through ``rep_rngs``, which packs the cell's key once and yields the same
streams in rep order, and keeps only each search's estimate
(``private_min_estimate``).  In the i.i.d. setting a
search's stream gives each round's count (``IidCounts``), then its answers;
a baseline's gives the users' uniforms, then one noise uniform per user, and
noise is computed, and a value read, only for the users who can hold the
minimum, one float at a time when they are few.  A fixed placement's one ``fixed_cohort`` serves all its
repetitions: a search counts from the model, each tau once, and a baseline
reads only the users that can hold the minimum.

``ModelTemplate`` and ``ExperimentSpec`` hold every default of a sweep;
``parse_experiment_config`` maps each config key to one of their fields.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .datagen import BetaScaled, IidCounts, TruncNormal, fixed_cohort, iid_cohort
from .params import choose_params
from .protocol import ProtocolConfig, baseline_min, private_min_estimate, run_nonprivate_min
from .protocol import run_private_min  # noqa: F401 - bench hook

MECH_BINARY_SEARCH = "binary_search"
MECH_LAPLACE = "laplace"
MECH_NONPRIVATE = "nonprivate"
MECHANISMS = (MECH_BINARY_SEARCH, MECH_LAPLACE, MECH_NONPRIVATE)
_MECH_CODE = {name: i for i, name in enumerate(MECHANISMS)}
# each model kind and the template fields it reads
_MODEL_PARAMS = {"uniform": ("delta",), "beta": ("alpha", "beta", "delta"),
                "truncnorm": ("mu", "sigma", "delta")}
MODEL_KINDS = tuple(_MODEL_PARAMS)


@dataclass(frozen=True)
class ModelTemplate:
    """A data model with the minimum's placement left free.

    kind "uniform" is shorthand for a flat beta model.  ``delta`` is the
    support width; the template is instantiated at concrete x_min values
    by :meth:`place`.  A field the kind does not read keeps its default.
    """

    kind: str = "uniform"
    alpha: float = 1.0
    beta: float = 1.0
    delta: float = 2.0
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        for f in fields(self)[1:]:  # the fields after kind
            if f.name not in _MODEL_PARAMS[self.kind] and getattr(self, f.name) != f.default:
                raise ValueError(f"model {self.kind!r} does not read {f.name}")
        if not 0.0 < self.delta <= 2.0:
            raise ValueError(f"delta must lie in (0, 2], got {self.delta}")

    def place(self, x_min: float):
        if not (x_min >= -1.0 and x_min + self.delta <= 1.0 + 1e-12):  # a NaN fails too
            raise ValueError(
                f"infeasible placement x_min={x_min} with delta={self.delta} leaves [-1, 1]"
            )
        x_max = min(x_min + self.delta, 1.0)
        if x_max == x_min:
            raise ValueError(f"delta={self.delta} is below float64 resolution at "
                             f"x_min={x_min}: x_min + delta rounds back to x_min")
        if self.kind == "truncnorm":
            return TruncNormal(self.mu, self.sigma, x_min, x_max)
        return BetaScaled(self.alpha, self.beta, x_min, x_max - x_min)

    def default_xmin_grid(self) -> tuple[float, ...]:
        """Six evenly spaced admissible placements, k/5 * (2 - delta) - 1.

        Collapses to the single placement -1 for a full-width model.
        """
        grid = (k * 0.2 * (2.0 - self.delta) - 1.0 for k in range(6))
        return tuple(dict.fromkeys(grid))


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one sweep, including the master seed.

    An empty ``xmin_grid`` stands for the model's stock placement grid.
    """

    model: ModelTemplate
    n_grid: tuple[int, ...]
    epsilon_grid: tuple[float, ...]
    setting: str = "fixed"  # or "iid"
    param_mode: str = "lower_alpha"
    reps: int = 200
    xmin_grid: tuple[float, ...] = ()
    seed: int = 0
    mechanisms: tuple[str, ...] = (MECH_BINARY_SEARCH,)

    def __post_init__(self):
        if not self.xmin_grid:
            object.__setattr__(self, "xmin_grid", self.model.default_xmin_grid())
        if self.setting not in ("fixed", "iid"):
            raise ValueError(f"setting must be 'fixed' or 'iid', got {self.setting!r}")
        for name in ("n_grid", "epsilon_grid", "mechanisms"):
            grid = getattr(self, name)
            if not grid or len(set(grid)) != len(grid):
                raise ValueError(f"{name} must be nonempty without repeats, got {grid!r}")
        # seed and rep are words of rep_rng's key: a nonnegative int, and one uint32
        if not 1 <= self.reps <= 2**32:
            raise ValueError(f"reps must lie in [1, 2**32], got {self.reps}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for mech in self.mechanisms:
            if mech not in MECHANISMS:
                raise ValueError(f"unknown mechanism {mech!r}")
        for x_min in self.xmin_grid:
            self.model.place(x_min)


@dataclass(frozen=True)
class CellResult:
    """Worst-placement error statistics for one (N, epsilon, mechanism) cell."""

    n: int
    epsilon: float
    mechanism: str
    param_mode: str
    x_min: float  # the worst placement
    mean_abs_err: float
    q05: float
    q95: float
    reps: int
    seed: int


RESULT_COLUMNS = tuple(f.name for f in fields(CellResult))  # results.csv's header


# numpy's SeedSequence (bit_generator.pyx, a pool of 4 uint32 words) for keys
# that differ only in their last word.  rep_rng's key is a cell's five ints, at
# least one word each, then the rep's one word: numpy mixes the cell into its
# pool, then a block of reps mixes in its rep words and hashes out the state as
# uint32 arrays.  The k-th hash constant is init * mult**k mod 2**32.
# tests/conftest.py holds the reference.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_REP_BLOCK = 64
_FLOAT64, _UINT64 = struct.Struct("<d"), struct.Struct("<Q")
# the hash constants of generate_state's 8 output words
_HASH_B = np.array([_INIT_B * pow(_MULT_B, k, 2**32) % 2**32 for k in range(9)], dtype=np.uint32)


def _hashmix(value, const, next_const):  # on uint32 arrays, which wrap mod 2**32
    value = (value ^ const) * next_const
    return value ^ value >> 16


@functools.lru_cache(maxsize=16)
def _rep_mix(block: int, first: int) -> np.ndarray:
    """``_MIX_R`` times the rep word's four hashes, for each rep of one block: a row of 4 uint32.

    The hashes use the 5 hash constants from the ``first``-th on; they do not
    depend on the cell's words, only on how many there are.
    """
    if not 0 <= block < 2**32 // _REP_BLOCK:
        raise ValueError("rep must lie in [0, 2**32): it is one uint32 word of the key")
    consts = np.array([_INIT_A * pow(_MULT_A, k, 2**32) % 2**32 for k in range(first, first + 5)],
                      dtype=np.uint32)
    reps = np.arange(block * _REP_BLOCK, (block + 1) * _REP_BLOCK, dtype=np.uint32)
    mix = _MIX_R * _hashmix(reps[:, None], consts[:-1], consts[1:])
    mix.flags.writeable = False
    return mix


@functools.lru_cache(maxsize=8)
def _block_states(block: int, *cell: int) -> np.ndarray:
    """PCG64's seed state for each rep of one block of a cell, a row of 4 uint64."""
    # numpy's pool took 4 hash constants per word of the cell (5 words or more);
    # the rep word's four mixes take the next ones
    mix = _rep_mix(block, 4 * sum((max(v.bit_length(), 1) + 31) // 32 for v in cell))
    pool = _MIX_L * np.random.SeedSequence(cell).pool - mix
    pool ^= pool >> 16
    out = _hashmix(np.concatenate((pool, pool), axis=1), _HASH_B[:-1], _HASH_B[1:])
    states = out.astype("<u4").view("<u8").astype(np.uint64)
    states.flags.writeable = False
    return states


class _SeedState(ISeedSequence):
    """A seed sequence whose state is already derived: PCG64 asks for 4 uint64 words."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _cell_key(seed: int, mechanism: str, n: int, epsilon: float, x_min: float) -> tuple:
    """The cell's five key words: the floats as their float64 bit patterns."""
    return (int(seed), _MECH_CODE[mechanism], int(n), _UINT64.unpack(_FLOAT64.pack(epsilon))[0],
            _UINT64.unpack(_FLOAT64.pack(x_min))[0])


def _generator(state: np.ndarray):
    return np.random.Generator(np.random.PCG64(_SeedState(state)))


def rep_rng(seed: int, mechanism: str, n: int, epsilon: float, x_min: float, rep: int):
    """Independent, order-free stream for one repetition of one cell.

    Equal to ``Generator(PCG64(SeedSequence([seed, mechanism code, n,
    bits(epsilon), bits(x_min), rep])))``, with bits the float64 bit pattern.
    """
    rep = int(rep)
    states = _block_states(rep // _REP_BLOCK, *_cell_key(seed, mechanism, n, epsilon, x_min))
    return _generator(states[rep % _REP_BLOCK])


def rep_rngs(seed: int, mechanism: str, n: int, epsilon: float, x_min: float, reps: int):
    """The streams of reps 0 .. reps - 1 of one cell, each as :func:`rep_rng` gives it.

    Packs the cell's key once and derives the states 64 reps at a time.
    """
    cell = _cell_key(seed, mechanism, n, epsilon, x_min)
    for start in range(0, reps, _REP_BLOCK):
        for state in _block_states(start // _REP_BLOCK, *cell)[:reps - start]:
            yield _generator(state)


def _errors_for_placement(spec: ExperimentSpec, mechanism: str, config: ProtocolConfig,
                          x_min: float) -> np.ndarray:
    model = spec.model.place(x_min)
    fixed = spec.setting == "fixed"
    if fixed:
        cohort = fixed_cohort(model, config.n)

    if mechanism == MECH_NONPRIVATE and fixed:
        # deterministic: one run stands for all repetitions
        err = abs(run_nonprivate_min(cohort, config.depth).estimate - x_min)
        return np.full(spec.reps, err)

    errs = np.empty(spec.reps)
    rngs = rep_rngs(spec.seed, mechanism, config.n, config.epsilon, x_min, spec.reps)
    for rep, rng in enumerate(rngs):
        if not fixed:
            cohort = (iid_cohort if mechanism == MECH_LAPLACE else IidCounts)(model, config.n, rng)
        if mechanism == MECH_BINARY_SEARCH:
            estimate = private_min_estimate(cohort, config, rng)
        elif mechanism == MECH_LAPLACE:
            estimate = baseline_min(cohort, config.budget, rng)
        else:
            estimate = run_nonprivate_min(cohort, config.depth).estimate
        errs[rep] = abs(estimate - x_min)
    return errs


def run_experiment(spec: ExperimentSpec) -> list[CellResult]:
    """Full sweep; one row per (N, epsilon, mechanism), worst placement kept."""
    # every schedule first, so one past the depth bound fails before any run
    configs = {(n, epsilon): choose_params(spec.param_mode, n, epsilon)
               for epsilon in spec.epsilon_grid for n in spec.n_grid}
    results = []
    for mechanism in spec.mechanisms:
        for epsilon in spec.epsilon_grid:
            for n in spec.n_grid:
                worst = None
                for x_min in spec.xmin_grid:
                    errs = _errors_for_placement(spec, mechanism, configs[(n, epsilon)], x_min)
                    mean = float(errs.mean())
                    if worst is None or mean > worst[0]:
                        worst = (mean, x_min, errs)
                mean, x_min, errs = worst
                q05, q95 = np.quantile(errs, [0.05, 0.95])
                results.append(CellResult(
                    n=n, epsilon=float(epsilon), mechanism=mechanism,
                    param_mode=spec.param_mode, x_min=float(x_min),
                    mean_abs_err=mean, q05=float(q05), q95=float(q95),
                    reps=spec.reps, seed=spec.seed,
                ))
    return results


@dataclass(frozen=True)
class PairedResult:
    """Side-by-side errors of the bisection mechanism and the naive baseline."""

    n: int
    epsilon: float
    err_binary_search: float
    err_laplace: float
    ratio: float  # laplace / binary_search


def compare_baseline(spec: ExperimentSpec) -> list[PairedResult]:
    """Run both mechanisms on the same grid and pair the results per cell."""
    both = replace(spec, mechanisms=(MECH_BINARY_SEARCH, MECH_LAPLACE))
    cells = run_experiment(both)
    by_key = {(c.mechanism, c.n, c.epsilon): c for c in cells}
    paired = []
    for epsilon in both.epsilon_grid:
        for n in both.n_grid:
            bs = by_key[(MECH_BINARY_SEARCH, n, float(epsilon))]
            lap = by_key[(MECH_LAPLACE, n, float(epsilon))]
            paired.append(PairedResult(
                n=n, epsilon=float(epsilon),
                err_binary_search=bs.mean_abs_err,
                err_laplace=lap.mean_abs_err,
                ratio=lap.mean_abs_err / bs.mean_abs_err,
            ))
    return paired


def guideline_curve(param_mode: str, alpha: float, n_grid, epsilon: float,
                    anchor: float | None = None) -> list[tuple[int, float]]:
    """Theoretical decay rate evaluated on the grid, for slope comparison.

    (ln^3 N / (eps^2 N))^{1/2 alpha} under the known-lower-bound schedule,
    ln^6 in the log-squared one.  When ``anchor`` is given, the curve is
    scaled to pass through it at the largest N; the guideline carries slope
    information only, never an absolute level.  A curve that is 0 there
    (eps = inf) has no slope and, anchored, is empty; one whose terms leave
    float64 (``epsilon**2`` or the power overflows) is empty either way.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    log_power = 6.0 if param_mode == "unknown_alpha" else 3.0
    ns = sorted(int(n) for n in n_grid)
    try:
        raw = [(n, (math.log(n) ** log_power / (epsilon**2 * n)) ** (1.0 / (2.0 * alpha)))
               for n in ns]
    except OverflowError:
        return []
    if anchor is None:
        return raw
    if raw[-1][1] == 0.0:
        return []
    scale = anchor / raw[-1][1]
    return [(n, v * scale) for n, v in raw]


class ConfigError(ValueError):
    """Malformed experiment config file (message carries the line number)."""


def _list(conv):
    """Parser for a nonempty comma-separated list of ``conv`` values."""
    def parse(raw: str) -> tuple:
        items = tuple(conv(s.strip()) for s in raw.split(",") if s.strip())
        if not items:
            raise ValueError("empty list")
        return items
    return parse


# config key -> (ModelTemplate or ExperimentSpec field, value parser);
# xmin_grid "auto" is the empty grid, which ExperimentSpec fills in
_CONFIG_KEYS = {
    "model": ("kind", str), "alpha": ("alpha", float), "beta": ("beta", float),
    "delta": ("delta", float), "mu": ("mu", float), "sigma": ("sigma", float),
    "setting": ("setting", str), "param_mode": ("param_mode", str),
    "reps": ("reps", int), "seed": ("seed", int), "mechanisms": ("mechanisms", _list(str)),
    "n_grid": ("n_grid", _list(lambda s: int(s, 0))),
    "epsilon_grid": ("epsilon_grid", _list(float)),
    "xmin_grid": ("xmin_grid", lambda raw: () if raw == "auto" else _list(float)(raw)),
}


def parse_experiment_config(path) -> ExperimentSpec:
    """Read a flat key = value file (lists comma-separated, # comments).

    Keys name ModelTemplate and ExperimentSpec fields (``model`` sets
    ``kind``); a key left out takes the field's default.  ``xmin_grid =
    auto`` selects the stock six-placement grid for the model's width.
    """
    values: dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            key, sep, raw = text.partition("=")
            if not sep:
                raise ConfigError(f"{path}: line {lineno}: expected key = value")
            key, raw = key.strip().lower(), raw.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
            field, parse = _CONFIG_KEYS[key]
            if field in values:
                raise ConfigError(f"{path}: line {lineno}: duplicate key {key!r}")
            try:
                values[field] = parse(raw)
            except ValueError:
                raise ConfigError(f"{path}: line {lineno}: bad value for {key}: {raw!r}") from None

    model_fields = {f.name for f in fields(ModelTemplate)}
    spec_args = {k: v for k, v in values.items() if k not in model_fields}
    for f in fields(ExperimentSpec):
        if f.default is MISSING and f.name not in spec_args and f.name != "model":
            raise ConfigError(f"{path}: missing required key {f.name!r}")
    try:
        model = ModelTemplate(**{k: v for k, v in values.items() if k in model_fields})
        return ExperimentSpec(model, **spec_args)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
