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
from .extensions import _POLICIES, _game_cells, _Policy
from .params import _FIELDS, ModelParams, Regime, ValidationReport, validate
from .welfare import _k_grid, welfare_for_equilibrium


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
        if key not in _FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            seen[key] = float(value.strip())
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: {key} is not a number: {value.strip()!r}")
    missing = [k for k in _FIELDS if k not in seen]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")
    return ModelParams(**seen)


# Each scenario's row of the policy table; the baseline has none.
_SCENARIOS = {"baseline": None, **_POLICIES}


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
        # A step count past the largest float overflows in the conversion.
        try:
            finite = math.isfinite((self.hi - self.lo) * (self.steps - 2))
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError("sweep grid overflows: (hi - lo) * (steps - 2) is not finite")
        if self.scenario not in _SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        policy = _SCENARIOS[self.scenario]
        if self.parameter == "s" and policy is not None and not policy.own_s:
            raise ConfigError(f"the {self.scenario} scenario is solved at s = 0; sweep k instead")


@functools.cache
def sweep_columns(scenario: str) -> tuple[str, ...]:
    # The names of the cells on a grid of no points, where nothing is solved.
    return _solved_rows(ModelParams(**{name: np.empty(0) for name in _FIELDS}), _SCENARIOS[scenario])[0]


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
    policy = _SCENARIOS[spec.scenario]
    if policy is not None and not policy.own_s:
        params = replace(params, s=0.0)
    grid = _k_grid(spec.lo, spec.hi, spec.steps)
    reports = _grid_reports(params, spec.parameter, grid, policy is not None and policy.own_s)
    admitted = np.array([report.ok for report in reports])
    solved = iter(_solved_rows(replace(params, **{spec.parameter: np.array(grid)[admitted]}),
                               policy)[1] if admitted.any() else ())
    pad = ["" for _ in range(len(cols) - 3)]
    fixed = _fmt(params.s if spec.parameter == "k" else params.k)
    return cols, [next(solved) if report.ok
                  else ([_fmt(v), fixed] if spec.parameter == "k" else [fixed, _fmt(v)])
                  + pad + ["; ".join(report.violations)]
                  for v, report in zip(grid, reports)]


def _grid_reports(params: ModelParams, parameter: str, grid: list[float],
                  with_twin: bool) -> list[ValidationReport]:
    """validate()'s report at each grid point; with_twin, the s = 0 twin's
    where that rejects the point. validate() reads k only through
    k < 0 and k > k_max and names neither, so on a k grid (non-decreasing
    for any step count below about 1e15) equal reports form runs, whose ends
    bisection finds; it reads s through theta + s, where rounding promises
    no runs.
    """
    @functools.cache
    def report(i: int) -> ValidationReport:
        p = replace(params, **{parameter: grid[i]})
        if with_twin:
            twin = validate(replace(p, s=0.0))
            if not twin.ok:
                return twin
        return validate(p)

    if parameter == "s":
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


def _solved_rows(p: ModelParams, policy: _Policy | None) -> tuple[tuple[str, ...], list[list[str]]]:
    # The columns, and the formatted rows of validated points: k or s of p is
    # their array. p.s is the swept subsidy; a policy's baseline is the s = 0 game.
    base_p = p if policy is None else replace(p, s=0.0)
    with np.errstate(divide="raise", invalid="raise"):
        eq = _solve(base_p)
        w = welfare_for_equilibrium(base_p, eq)
        cells = ((("k", p.k), ("s", p.s)) + _game_cells(eq, w)
                 + (() if policy is None else policy.cells(p, w)))
    # A cell is an array over the points, or one value that they share.
    n = max(np.size(p.k), np.size(p.s))
    columns = [_fmt_column(c) if isinstance(c, np.ndarray) else [_fmt(c)] * n for _, c in cells]
    return (tuple(name for name, _ in cells) + ("status",),
            [row + ["ok"] for row in map(list, zip(*columns))])


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
