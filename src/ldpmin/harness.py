"""Experiment orchestration: sweeps over N and epsilon with repetition stats.

For every grid cell (N, epsilon, mechanism) the harness runs ``reps``
independent repetitions at each candidate placement of the data minimum,
averages the absolute error |estimate - x_min| per placement, and reports
the worst placement (largest mean) together with the 0.05/0.95 quantiles
of the errors observed there.  Scanning the minimum over a small offset
grid stabilizes the otherwise placement-dependent discretization error of
the bisection grid.

Repetition streams are derived by counter-based splitting: the generator
for one repetition is keyed on (seed, mechanism, N, epsilon, x_min, rep)
values, never on loop indices, so cells are independent of iteration order
and can run in parallel.  In the i.i.d. setting a repetition's stream is
consumed cohort-first, then protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .datagen import BetaScaled, TruncNormal, fixed_cohort, iid_cohort
from .mechanisms import PrivacyBudget
from .params import ParamChoice, choose_params
from .protocol import ProtocolConfig, baseline_min, run_nonprivate_min, run_private_min

MECH_BINARY_SEARCH = "binary_search"
MECH_LAPLACE = "laplace"
MECH_NONPRIVATE = "nonprivate"
MECHANISMS = (MECH_BINARY_SEARCH, MECH_LAPLACE, MECH_NONPRIVATE)
_MECH_CODE = {name: i for i, name in enumerate(MECHANISMS)}


@dataclass(frozen=True)
class ModelTemplate:
    """A data model with the minimum's placement left free.

    kind "uniform" is shorthand for a flat beta model.  ``delta`` is the
    support width; the template is instantiated at concrete x_min values
    by :meth:`place`.
    """

    kind: str = "uniform"
    alpha: float = 1.0
    beta: float = 1.0
    delta: float = 2.0
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("uniform", "beta", "truncnorm"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not 0.0 < self.delta <= 2.0:
            raise ValueError(f"delta must lie in (0, 2], got {self.delta}")

    def place(self, x_min: float):
        if x_min + self.delta > 1.0 + 1e-12 or x_min < -1.0:
            raise ValueError(
                f"infeasible placement x_min={x_min} with delta={self.delta} leaves [-1, 1]"
            )
        x_max = min(x_min + self.delta, 1.0)
        if self.kind == "truncnorm":
            return TruncNormal(self.mu, self.sigma, x_min, x_max)
        a = 1.0 if self.kind == "uniform" else self.alpha
        b = 1.0 if self.kind == "uniform" else self.beta
        return BetaScaled(a, b, x_min, x_max - x_min)

    @property
    def fat_alpha(self) -> float:
        if self.kind == "truncnorm":
            return 1.0
        return 1.0 if self.kind == "uniform" else self.alpha

    def default_xmin_grid(self) -> tuple[float, ...]:
        """Six evenly spaced admissible placements, k/5 * (2 - delta) - 1.

        Collapses to the single placement -1 for a full-width model.
        """
        grid = (k * 0.2 * (2.0 - self.delta) - 1.0 for k in range(6))
        return tuple(dict.fromkeys(grid))


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one sweep, including the master seed."""

    model: ModelTemplate
    setting: str  # "fixed" or "iid"
    n_grid: tuple[int, ...]
    epsilon_grid: tuple[float, ...]
    param_mode: str
    reps: int
    xmin_grid: tuple[float, ...]
    seed: int
    mechanisms: tuple[str, ...] = (MECH_BINARY_SEARCH,)

    def __post_init__(self):
        if self.setting not in ("fixed", "iid"):
            raise ValueError(f"setting must be 'fixed' or 'iid', got {self.setting!r}")
        if not self.n_grid or not self.epsilon_grid or not self.xmin_grid:
            raise ValueError("n_grid, epsilon_grid and xmin_grid must be nonempty")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
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


def _float_key(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def rep_rng(seed: int, mechanism: str, n: int, epsilon: float, x_min: float, rep: int):
    """Independent, order-free stream for one repetition of one cell."""
    entropy = [
        int(seed),
        _MECH_CODE[mechanism],
        int(n),
        _float_key(epsilon),
        _float_key(x_min),
        int(rep),
    ]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _errors_for_placement(spec: ExperimentSpec, mechanism: str, n: int,
                          epsilon: float, x_min: float, params: ParamChoice) -> np.ndarray:
    model = spec.model.place(x_min)
    fixed = spec.setting == "fixed"
    cohort = fixed_cohort(model, n) if fixed else None

    if mechanism == MECH_NONPRIVATE and fixed:
        # deterministic: one run stands for all repetitions
        err = abs(run_nonprivate_min(cohort, params.depth).estimate - x_min)
        return np.full(spec.reps, err)

    errs = np.empty(spec.reps)
    for rep in range(spec.reps):
        rng = rep_rng(spec.seed, mechanism, n, epsilon, x_min, rep)
        if not fixed:
            cohort = iid_cohort(model, n, rng)
        if mechanism == MECH_BINARY_SEARCH:
            config = ProtocolConfig(epsilon, params.depth, params.gamma, n)
            estimate = run_private_min(cohort, config, rng).estimate
        elif mechanism == MECH_LAPLACE:
            estimate = baseline_min(cohort, PrivacyBudget(epsilon), rng)
        else:
            estimate = run_nonprivate_min(cohort, params.depth).estimate
        errs[rep] = abs(estimate - x_min)
    return errs


def run_experiment(spec: ExperimentSpec) -> list[CellResult]:
    """Full sweep; one row per (N, epsilon, mechanism), worst placement kept."""
    # every schedule first, so one past the depth bound fails before any run
    schedules = {(n, epsilon): choose_params(spec.param_mode, n, epsilon)
                 for epsilon in spec.epsilon_grid for n in spec.n_grid}
    results = []
    for mechanism in spec.mechanisms:
        for epsilon in spec.epsilon_grid:
            for n in spec.n_grid:
                params = schedules[(n, epsilon)]
                worst = None
                for x_min in spec.xmin_grid:
                    errs = _errors_for_placement(spec, mechanism, n, epsilon, x_min, params)
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
    information only, never an absolute level.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    log_power = 6.0 if param_mode.startswith("unknown_alpha") else 3.0
    ns = sorted(int(n) for n in n_grid)
    raw = [(n, (math.log(n) ** log_power / (epsilon**2 * n)) ** (1.0 / (2.0 * alpha)))
           for n in ns]
    if anchor is None:
        return raw
    scale = anchor / raw[-1][1]
    return [(n, v * scale) for n, v in raw]


class ConfigError(ValueError):
    """Malformed experiment config file (message carries the line number)."""


_MODEL_KEYS = {"model", "alpha", "beta", "delta", "mu", "sigma"}
_SPEC_KEYS = {"setting", "n_grid", "epsilon_grid", "param_mode", "reps",
              "xmin_grid", "seed", "mechanisms"}


def parse_experiment_config(path) -> ExperimentSpec:
    """Read a flat key = value file (lists comma-separated, # comments).

    Keys mirror the ExperimentSpec and ModelTemplate field names;
    ``xmin_grid = auto`` selects the stock six-placement grid for the
    model's width.
    """
    entries: dict[str, tuple[int, str]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            key, sep, value = text.partition("=")
            if not sep:
                raise ConfigError(f"{path}: line {lineno}: expected key = value")
            key = key.strip().lower()
            if key not in _MODEL_KEYS | _SPEC_KEYS:
                raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
            if key in entries:
                raise ConfigError(f"{path}: line {lineno}: duplicate key {key!r}")
            entries[key] = (lineno, value.strip())

    def take(key, default=None):
        if key in entries:
            return entries[key][1]
        return default

    def number(key, default, conv):
        raw = take(key)
        if raw is None:
            return default
        lineno = entries[key][0]
        try:
            return conv(raw)
        except ValueError:
            raise ConfigError(f"{path}: line {lineno}: bad value for {key}: {raw!r}") from None

    def number_list(key, conv):
        raw = take(key)
        if raw is None:
            raise ConfigError(f"{path}: missing required key {key!r}")
        lineno = entries[key][0]
        items = [s.strip() for s in raw.split(",") if s.strip()]
        if not items:
            raise ConfigError(f"{path}: line {lineno}: {key} must be a nonempty list")
        try:
            return tuple(conv(s) for s in items)
        except ValueError:
            raise ConfigError(f"{path}: line {lineno}: bad list for {key}: {raw!r}") from None

    model = ModelTemplate(
        kind=take("model", "uniform"),
        alpha=number("alpha", 1.0, float),
        beta=number("beta", 1.0, float),
        delta=number("delta", 2.0, float),
        mu=number("mu", 0.0, float),
        sigma=number("sigma", 1.0, float),
    )
    mech_raw = take("mechanisms", MECH_BINARY_SEARCH)
    mechanisms = tuple(s.strip() for s in mech_raw.split(",") if s.strip())

    xmin_raw = take("xmin_grid", "auto")
    if xmin_raw == "auto":
        xmin_grid = model.default_xmin_grid()
    else:
        lineno = entries["xmin_grid"][0]
        try:
            xmin_grid = tuple(float(s) for s in xmin_raw.split(",") if s.strip())
        except ValueError:
            raise ConfigError(f"{path}: line {lineno}: bad list for xmin_grid") from None

    try:
        return ExperimentSpec(
            model=model,
            setting=take("setting", "fixed"),
            n_grid=number_list("n_grid", lambda s: int(s, 0)),
            epsilon_grid=number_list("epsilon_grid", float),
            param_mode=take("param_mode", "lower_alpha"),
            reps=number("reps", 200, int),
            xmin_grid=xmin_grid,
            seed=number("seed", 0, int),
            mechanisms=mechanisms,
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
