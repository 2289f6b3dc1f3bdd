"""Config parsing, parameter sweeps, and deterministic CSV emission.

Config files are flat ``key=value`` lines with ``#`` comments. All seven
parameter keys (theta, c, w_high, w_low, eta_cap, k, s) are required;
defaults are deliberately not provided, so a config is a complete record of
the experiment. Sweeps move one symbol (k or s) over a uniform grid and
emit one row per point; numbers are serialized with 12 significant digits,
LF line endings, and '.' decimals, so repeated runs are byte-identical.
Points that leave the admissible region are kept in the output with the
violation named in the status column rather than silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .closed_form import solve
from .extensions import solve_integrated, solve_subsidized
from .params import ModelParams, validate
from .welfare import _k_grid, mandate_equilibrium, welfare_for_equilibrium

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
        if not (self.lo < self.hi):
            raise ConfigError("sweep requires lo < hi")
        if self.steps < 2:
            raise ConfigError("sweep requires steps >= 2")
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
    if isinstance(x, str):
        return x
    v = float(x)
    if v == 0.0:
        v = 0.0   # collapse negative zero
    return f"{v:.12g}"


def _base_cells(params: ModelParams):
    eq = solve(params)
    w = welfare_for_equilibrium(params, eq)
    return [
        params.k, params.s, eq.regime.value, eq.strategy.w1, eq.strategy.eta1,
        eq.period1.effort, eq.period2.effort,
        w.dev1, w.dev2, w.deployer, w.consumer, w.social,
    ], w


def run_sweep(params: ModelParams, spec: SweepSpec) -> tuple[tuple[str, ...], list[list[str]]]:
    """Evaluate the sweep and return (columns, formatted rows)."""
    spec.check()
    cols = sweep_columns(spec.scenario)
    rows: list[list[str]] = []
    for value in _k_grid(spec.lo, spec.hi, spec.steps):
        p = replace(params, **{spec.parameter: value})
        if spec.scenario in ("mandate", "integration"):
            p = replace(p, s=0.0)
        base_p = replace(p, s=0.0) if spec.scenario == "subsidy" else p
        report = validate(base_p)
        if report.ok and spec.scenario == "subsidy":
            report = validate(p)
        if not report.ok:
            pad = ["" for _ in range(len(cols) - 3)]
            rows.append([_fmt(p.k), _fmt(p.s)] + pad + ["; ".join(report.violations)])
            continue

        cells, w_base = _base_cells(base_p)
        if spec.scenario == "subsidy":
            cells[1] = p.s    # report the swept subsidy, baseline cells are s=0
        if spec.scenario == "mandate":
            eq = mandate_equilibrium(p)
            w = welfare_for_equilibrium(p, eq)
            cells += [eq.period1.effort, eq.period2.effort,
                      w.dev1, w.dev2, w.deployer, w.consumer, w.social]
        elif spec.scenario == "integration":
            v = solve_integrated(p)
            cells += [w_base.dev1 + w_base.deployer, v.q1v, v.q2v,
                      v.profit, v.consumer, v.social]
        elif spec.scenario == "subsidy":
            sub = solve_subsidized(p)
            ws = welfare_for_equilibrium(p, sub)
            cells += [sub.regime.value, sub.strategy.w1, sub.strategy.eta1,
                      sub.period1.effort, sub.period2.effort,
                      ws.dev1, ws.dev2, ws.deployer, ws.consumer, ws.social,
                      sub.subsidy_spend]
        cells.append("ok")
        rows.append([_fmt(c) for c in cells])
    return cols, rows


def write_csv(cols, rows, stream) -> None:
    stream.write(",".join(cols) + "\n")
    for row in rows:
        stream.write(",".join(row) + "\n")
