"""Two-period foundation-model value-chain game.

An incumbent developer serves a deployer for two periods while an entrant
waits in the wings. The incumbent's period-1 fee and openness choices trade
off current revenue against the data advantage that decides whether it keeps
the deployer in period 2. The package solves the game in closed form, checks
every formula against a formula-blind numeric oracle, and prices three
interventions: an openness mandate, vertical integration, and a usage
subsidy.
"""

from .closed_form import (
    RegimeThresholds,
    ScenarioProfits,
    eta_bar_high,
    eta_bar_low,
    regime_thresholds,
    scenario_profits,
    solve_baseline,
)
from .extensions import (
    IntegrationThresholds,
    ThresholdCrossing,
    integration_comparison,
    integration_thresholds,
    solve_integrated,
    solve_subsidized,
    subsidy_comparison,
)
from .oracle import OracleConfig, oracle_solve_game, oracle_solve_integrated
from .outcomes import Equilibrium, IntegratedOutcome
from .params import (
    InvalidParams,
    ModelParams,
    Regime,
    ValidationReport,
    Winner,
    k_max,
    require_valid,
    validate,
)
from .sweep import ConfigError, SweepSpec, read_config, run_sweep, sweep_columns, write_csv
from .verify import CheckResult, compare_with_oracle, random_valid_params, run_verification
from .welfare import (
    PolicyComparison,
    WelfareBreakdown,
    mandate_comparison,
    mandate_equilibrium,
    openness_trap_threshold,
    welfare_for_equilibrium,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "ConfigError",
    "Equilibrium",
    "IntegratedOutcome",
    "IntegrationThresholds",
    "InvalidParams",
    "ModelParams",
    "OracleConfig",
    "PolicyComparison",
    "Regime",
    "RegimeThresholds",
    "ScenarioProfits",
    "SweepSpec",
    "ThresholdCrossing",
    "ValidationReport",
    "WelfareBreakdown",
    "Winner",
    "compare_with_oracle",
    "eta_bar_high",
    "eta_bar_low",
    "integration_comparison",
    "integration_thresholds",
    "k_max",
    "mandate_comparison",
    "mandate_equilibrium",
    "openness_trap_threshold",
    "oracle_solve_game",
    "oracle_solve_integrated",
    "random_valid_params",
    "read_config",
    "regime_thresholds",
    "require_valid",
    "run_sweep",
    "run_verification",
    "scenario_profits",
    "solve_baseline",
    "solve_integrated",
    "solve_subsidized",
    "subsidy_comparison",
    "sweep_columns",
    "validate",
    "welfare_for_equilibrium",
    "write_csv",
]
