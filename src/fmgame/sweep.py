"""Config parsing, parameter sweeps, and deterministic CSV emission.

Config files are flat ``key=value`` lines with ``#`` comments. All seven
parameter keys (theta, c, w_high, w_low, eta_cap, k, s) are required;
defaults are deliberately not provided, so a config is a complete record of
the experiment. Sweeps move one symbol (k or s) over a uniform grid and
emit one row per point; numbers are serialized with 12 significant digits,
LF line endings, and '.' decimals, so repeated runs are byte-identical.
Points that leave the admissible region are kept in the output with the
violation named in the status column rather than silently dropped. A k
grid is validated once per run of equal reports, an s grid point by point;
the admitted points are then solved together, as arrays over the swept
symbol (closed_form), with the bits that each point's own scalar solve
gives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .closed_form import _solve
from .extensions import _integrated, _with_outlay
from .params import ModelParams, Regime, ValidationReport, validate
from .welfare import _k_grid, _mandate_equilibrium, welfare_for_equilibrium

_KEYS = ("theta", "c", "w_high", "w_low", "eta_cap", "k", "s")


class ConfigError(ValueError):
    """Malformed or incomplete config content."""


def read_config(path: str) -> ModelParams:
    """Parse a key=value config file into ModelParams.

    Every one of the seven keys must be present exactly once; unknown keys
    are rejected. I/O problems propagate as OSError; content problems raise
    ConfigError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    seen: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            seen[key] = float(value.strip())
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: {key} is not a number: {value.strip()!r}")
    missing = [k for k in _KEYS if k not in seen]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")
    return ModelParams(**seen)


_SCENARIOS = ("baseline", "mandate", "integration", "subsidy")


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep request."""

    parameter: str          # "k" or "s"
    lo: float
    hi: float
    steps: int
    scenario: str = "baseline"

    def check(self) -> None:
        if self.parameter not in ("k", "s"):
            raise ConfigError(f"sweep parameter must be k or s, got {self.parameter!r}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ConfigError("sweep bounds must be finite")
        if not (self.lo < self.hi):
            raise ConfigError("sweep requires lo < hi")
        if self.steps < 2:
            raise ConfigError("sweep requires steps >= 2")
        # The largest product _k_grid forms; past it the grid holds inf or nan.
        if not math.isfinite((self.hi - self.lo) * (self.steps - 2)):
            raise ConfigError("sweep grid overflows: (hi - lo) * (steps - 2) is not finite")
        if self.scenario not in _SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.parameter == "s" and self.scenario in ("mandate", "integration"):
            raise ConfigError(f"the {self.scenario} scenario is solved at s = 0; sweep k instead")


_BASE_COLS = ("k", "s", "regime", "w1", "eta1", "Q1", "Q2", "pi_dev1", "pi_dev2",
              "profit_deployer", "consumer_surplus", "social_welfare")

_EXTRA_COLS = {
    "baseline": (),
    "mandate": ("Q1_mandate", "Q2_mandate", "pi_dev1_mandate", "pi_dev2_mandate",
                "profit_deployer_mandate", "consumer_surplus_mandate",
                "social_welfare_mandate"),
    "integration": ("chain_profit", "Q1_integrated", "Q2_integrated",
                    "profit_integrated", "consumer_surplus_integrated",
                    "social_welfare_integrated"),
    "subsidy": ("regime_subsidized", "w1_subsidized", "eta1_subsidized",
                "Q1_subsidized", "Q2_subsidized", "pi_dev1_subsidized",
                "pi_dev2_subsidized", "profit_deployer_subsidized",
                "consumer_surplus_subsidized", "social_welfare_subsidized",
                "subsidy_spend"),
}


def sweep_columns(scenario: str) -> tuple[str, ...]:
    return _BASE_COLS + _EXTRA_COLS[scenario] + ("status",)


def _fmt(x) -> str:
    if isinstance(x, Regime):
        return x.value
    v = float(x)
    if v == 0.0:
        v = 0.0   # collapse negative zero
    return f"{v:.12g}"


def run_sweep(params: ModelParams, spec: SweepSpec) -> tuple[tuple[str, ...], list[list[str]]]:
    """Evaluate the sweep and return (columns, formatted rows).

    Each grid point gets validate()'s report (_grid_reports); the admitted
    points are solved in one array pass (under np.errstate, so that a
    division by zero raises as it does on floats), with solve's argmax guard
    and the welfare cross-validation applied to every one of them. A sweep
    costs its validate() calls plus the formatting of its cells.
    """
    spec.check()
    cols = sweep_columns(spec.scenario)
    if spec.scenario in ("mandate", "integration"):
        params = replace(params, s=0.0)
    grid = _k_grid(spec.lo, spec.hi, spec.steps)
    reports = _grid_reports(params, spec, grid)
    admitted = np.array([report.ok for report in reports])
    solved = iter(_solved_rows(replace(params, **{spec.parameter: np.array(grid)[admitted]}),
                               spec.scenario) if admitted.any() else ())
    pad = ["" for _ in range(len(cols) - 3)]
    fixed = _fmt(params.s if spec.parameter == "k" else params.k)
    return cols, [next(solved) if report.ok
                  else ([_fmt(v), fixed] if spec.parameter == "k" else [fixed, _fmt(v)])
                  + pad + ["; ".join(report.violations)]
                  for v, report in zip(grid, reports)]


def _grid_reports(params: ModelParams, spec: SweepSpec, grid: list[float]) -> list[ValidationReport]:
    """validate()'s report at each grid point; for the subsidy, the s = 0
    twin's where that rejects the point. validate() reads k only through
    k < 0 and k > k_max and names neither, so on a k grid (non-decreasing
    for any step count below about 1e15) equal reports form runs, whose ends
    bisection finds; it reads s through theta + s, where rounding promises
    no runs.
    """
    @functools.cache
    def report(i: int) -> ValidationReport:
        p = replace(params, **{spec.parameter: grid[i]})
        if spec.scenario == "subsidy":
            twin = validate(replace(p, s=0.0))
            if not twin.ok:
                return twin
        return validate(p)

    if spec.parameter == "s":
        return [report(i) for i in range(len(grid))]
    reports: list[ValidationReport] = []
    while len(reports) < len(grid):
        first = report(len(reports))
        lo, hi = len(reports) + 1, len(grid)   # the run's end, exclusive, is in [lo, hi]
        while lo < hi:
            mid = (lo + hi) // 2
            if report(mid) == first:
                lo = mid + 1
            else:
                hi = mid
        reports += [first] * (lo - len(reports))
    return reports


def _solved_rows(p: ModelParams, scenario: str) -> list[list[str]]:
    # The formatted rows of validated points: k or s of p is their array.
    base_p = replace(p, s=0.0) if scenario == "subsidy" else p
    with np.errstate(divide="raise", invalid="raise"):
        eq = _solve(base_p)
        w = welfare_for_equilibrium(base_p, eq)
        # p.s is the swept subsidy; the baseline cells are the s = 0 game.
        cells = [p.k, p.s, eq.regime, eq.strategy.w1, eq.strategy.eta1,
                 eq.period1.effort, eq.period2.effort,
                 w.dev1, w.dev2, w.deployer, w.consumer, w.social]
        if scenario == "mandate":
            m = _mandate_equilibrium(p)
            wm = welfare_for_equilibrium(p, m)
            cells += [m.period1.effort, m.period2.effort,
                      wm.dev1, wm.dev2, wm.deployer, wm.consumer, wm.social]
        elif scenario == "integration":
            v = _integrated(p)
            cells += [w.dev1 + w.deployer, v.q1v, v.q2v, v.profit, v.consumer, v.social]
        elif scenario == "subsidy":
            sub = _with_outlay(p, _solve(p))
            ws = welfare_for_equilibrium(p, sub)
            cells += [sub.regime, sub.strategy.w1, sub.strategy.eta1,
                      sub.period1.effort, sub.period2.effort,
                      ws.dev1, ws.dev2, ws.deployer, ws.consumer, ws.social,
                      sub.subsidy_spend]
    # A cell is an array over the points, or one value that they share.
    n = max(np.size(p.k), np.size(p.s))
    columns = [_fmt_column(c) if isinstance(c, np.ndarray) else [_fmt(c)] * n for c in cells]
    return [row + ["ok"] for row in map(list, zip(*columns))]


def _fmt_column(col: np.ndarray) -> list[str]:
    """[_fmt(x) for x in col], a float column in one pass."""
    if col.dtype.kind != "f":
        return [_fmt(x) for x in col.tolist()]
    # + 0.0 turns -0.0 into 0.0, as _fmt does.
    return list(map("{:.12g}".format, (col + 0.0).tolist()))


def write_csv(cols, rows, stream) -> None:
    stream.write(",".join(cols) + "\n")
    for row in rows:
        stream.write(",".join(row) + "\n")
