"""Closed-form equilibrium of the two-period openness game.

Timing, working backward:

- Period 2: a rival developer arrives with an equally capable model and
  undercuts at the follower fee. Both developers open up fully (openness is
  pure cost relief for the deployer once the fee is set, and the period-2
  developer has nothing left to protect). The deployer picks whichever
  developer offers the higher fine-tuning surplus: the incumbent's cost
  denominator grows with the period-1 engagement it harvested (flywheel),
  the entrant's grows with the openness the incumbent chose in period 1
  (spillover). Indifference goes to the incumbent.
- Period 1: the incumbent commits to a fee (premium or follower) and an
  openness level, anticipating all of the above. The deployer then picks
  its fine-tuning effort myopically; realized engagement equals effort.

Three candidate strategies survive: harvest (premium fee, full openness,
concede period 2), defend (premium fee, openness capped at the level that
just retains the deployer), and dominate (follower fee, capped openness).
Comparing their two-period fee revenues yields two thresholds in the
flywheel strength k that partition the admissible range into the three
regimes.

All formulas take the subsidy into account through the deployer's net
margin (theta - w + s); the baseline game is the s = 0 special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .outcomes import Equilibrium, PeriodOutcome
from .params import (
    InvalidParams,
    ModelParams,
    Regime,
    Strategy,
    ValidationReport,
    Winner,
    require_valid,
    validate,
)

#: Tolerance for the built-in regime-vs-argmax consistency check.
_CONSISTENCY_TOL = 1e-9


@dataclass(frozen=True)
class ScenarioProfits:
    """Incumbent two-period fee revenue under each candidate strategy."""

    pi_s0: float   # harvest
    pi_s1: float   # defend
    pi_s2: float   # dominate


@dataclass(frozen=True)
class RegimeThresholds:
    """Flywheel-strength thresholds partitioning the regimes.

    k_bar_1 = min(k_bar_13, k_bar_23) separates harvest from defend,
    k_bar_2 = max(k_bar_12, k_bar_23) separates defend from dominate.
    eta_prime is the openness-cap level at which the pairwise thresholds
    reorder; NaN when undefined (both fee bounds tight), +inf entries mark
    comparisons that never bind (identical fees).
    """

    k_bar_1: float
    k_bar_2: float
    k_bar_12: float
    k_bar_13: float
    k_bar_23: float
    eta_prime: float


def _check_strategy(params: ModelParams, strategy: Strategy) -> None:
    if strategy.w1 != params.w_high and strategy.w1 != params.w_low:
        raise ValueError("strategy fee must equal w_high or w_low")
    if not (0.0 <= strategy.eta1 <= params.eta_cap):
        raise ValueError("strategy openness must lie in [0, eta_cap]")


def q1_star(params: ModelParams, strategy: Strategy) -> float:
    """Deployer's period-1 fine-tuning effort given the incumbent's offer.

    Maximizes (theta - w1 + s) Q - c Q^2 / (1 + eta1); the margin is always
    positive under admissible fees, so the interior optimum applies.
    """
    _check_strategy(params, strategy)
    margin = params.theta - strategy.w1 + params.s
    return (1.0 + strategy.eta1) * margin / (2.0 * params.c)


def period2_profit_incumbent(params: ModelParams, alpha1: float, w2: float, eta2: float) -> float:
    """Deployer's period-2 surplus when staying with the incumbent.

    The flywheel term (1 + k alpha1) scales down fine-tuning cost, so the
    optimized surplus scales up linearly in it.
    """
    margin = params.theta - w2 + params.s
    return (1.0 + params.k * alpha1) * (1.0 + eta2) * margin * margin / (4.0 * params.c)


def period2_profit_entrant(params: ModelParams, eta1: float, eta2_tilde: float, w2_tilde: float) -> float:
    """Deployer's period-2 surplus when switching to the entrant.

    The spillover term (1 + eta1) is what the incumbent's period-1 openness
    hands the rival.
    """
    margin = params.theta - w2_tilde + params.s
    return (1.0 + eta1) * (1.0 + eta2_tilde) * margin * margin / (4.0 * params.c)


def eta_bar_high(params: ModelParams) -> float:
    """Largest openness keeping the deployer at the premium fee (raw, uncapped).

    Solves the winning condition with equality at w1 = w_high. Raises
    ValueError when 2c - k (theta - w_high + s) <= 0 (retention constraint
    cannot bind, outside the admissible k range).
    """
    return _eta_bar(params, params.w_high)


def eta_bar_low(params: ModelParams) -> float:
    """Largest openness keeping the deployer at the follower fee (raw, uncapped)."""
    return _eta_bar(params, params.w_low)


def _eta_bar(params: ModelParams, w1: float) -> float:
    margin = params.theta - w1 + params.s
    den = 2.0 * params.c - params.k * margin
    if den <= 0.0:
        raise ValueError("retention threshold undefined: 2c - k (theta - w1 + s) <= 0")
    return params.k * margin / den


def scenario_profits(params: ModelParams) -> ScenarioProfits:
    """Incumbent two-period fee revenue under the three candidate strategies.

    Fee revenue is gross of subsidy (the developer receives the full w; the
    government pays s). Period 2 is always transacted at the follower fee.
    """
    require_valid(params)
    t = params.theta + params.s
    c2 = 2.0 * params.c
    eta = params.eta_cap
    m_h = t - params.w_high
    m_l = t - params.w_low

    pi_s0 = (1.0 + eta) * m_h * params.w_high / c2

    d_h = c2 - params.k * m_h
    pi_s1 = (params.w_high * m_h + (1.0 + eta) * params.w_low * m_l) / d_h

    d_l = c2 - params.k * m_l
    pi_s2 = (2.0 + eta) * params.w_low * m_l / d_l

    return ScenarioProfits(pi_s0=pi_s0, pi_s1=pi_s1, pi_s2=pi_s2)


def regime_thresholds(params: ModelParams) -> RegimeThresholds:
    """Pairwise and binding regime thresholds in the flywheel strength k.

    Thresholds are returned raw (they may fall outside [0, k_max]); the
    binding pair is k_bar_1 = min(k_bar_13, k_bar_23) and
    k_bar_2 = max(k_bar_12, k_bar_23). With identical fees the defend and
    dominate strategies coincide, the defend-vs-dominate comparison never
    flips, and k_bar_12 is +inf. eta_prime (the cap level at which the
    pairwise ordering reverses) is NaN when its denominator vanishes.
    """
    report = validate(replace(params, k=0.0))   # the formulas are k-free
    if not report.ok:
        raise InvalidParams(report)
    t = params.theta + params.s
    c2 = 2.0 * params.c
    eta = params.eta_cap
    w_h, w_l = params.w_high, params.w_low
    m_h = t - w_h
    m_l = t - w_l

    if w_h == w_l:
        k_12 = math.inf
    else:
        k_12 = c2 * (t - w_l - w_h) / (m_l * (t - w_h + w_l + eta * w_l))

    if w_h == 0.0:
        # Zero fees: all scenario profits vanish identically; no comparison binds.
        k_13 = math.inf
        k_23 = math.inf
    else:
        k_13 = (
            c2 * (eta * m_h * w_h - (1.0 + eta) * t * w_l + (1.0 + eta) * w_l * w_l)
            / ((1.0 + eta) * m_h * m_h * w_h)
        )
        k_23 = c2 * (1.0 / m_l - (2.0 + eta) * w_l / ((1.0 + eta) * m_h * w_h))

    den = (t - w_h - w_l) * (w_h - w_l)
    if den == 0.0:
        eta_prime = math.nan
    else:
        eta_prime = (m_h * m_h + w_l * (w_h - w_l)) / den

    return RegimeThresholds(
        k_bar_1=min(k_13, k_23),
        k_bar_2=max(k_12, k_23),
        k_bar_12=k_12,
        k_bar_13=k_13,
        k_bar_23=k_23,
        eta_prime=eta_prime,
    )


def _regime_from_thresholds(params: ModelParams, th: RegimeThresholds) -> Regime:
    if params.k <= th.k_bar_1:
        return Regime.HARVEST
    if params.k <= th.k_bar_2:
        return Regime.DEFEND
    return Regime.DOMINATE


def _argmax_regime(profits: ScenarioProfits) -> Regime:
    # Tie order: harvest > defend > dominate (weak inequalities encode it).
    if profits.pi_s0 >= profits.pi_s1 and profits.pi_s0 >= profits.pi_s2:
        return Regime.HARVEST
    if profits.pi_s1 >= profits.pi_s2:
        return Regime.DEFEND
    return Regime.DOMINATE


def equilibrium_for_regime(params: ModelParams, regime: Regime,
                           profits: ScenarioProfits | None = None) -> Equilibrium:
    """Assemble the equilibrium objects for a given (possibly imposed) regime.

    Used by the solver after regime selection and by policy counterfactuals
    that force a regime (the openness mandate forces harvest).
    """
    if profits is None:
        profits = scenario_profits(params)
    t = params.theta + params.s
    c2 = 2.0 * params.c
    eta = params.eta_cap
    m_h = t - params.w_high
    m_l = t - params.w_low

    if regime is Regime.HARVEST:
        w1, eta1 = params.w_high, eta
        q1 = (1.0 + eta) * m_h / c2
        q2 = (1.0 + eta) * (1.0 + eta) * m_l / c2
        winner = Winner.ENTRANT
        profit = profits.pi_s0
    elif regime is Regime.DEFEND:
        w1 = params.w_high
        eta1 = eta_bar_high(params)
        d_h = c2 - params.k * m_h
        q1 = m_h / d_h
        q2 = (1.0 + eta) * m_l / d_h
        winner = Winner.INCUMBENT
        profit = profits.pi_s1
    else:
        w1 = params.w_low
        eta1 = eta_bar_low(params)
        d_l = c2 - params.k * m_l
        q1 = m_l / d_l
        q2 = (1.0 + eta) * m_l / d_l
        winner = Winner.INCUMBENT
        profit = profits.pi_s2

    return Equilibrium(
        regime=regime,
        strategy=Strategy(w1=w1, eta1=eta1),
        period1=PeriodOutcome(effort=q1, engagement=q1,
                              fee_paid=w1 - params.s, openness=eta1),
        period2=PeriodOutcome(effort=q2, engagement=q2,
                              fee_paid=params.w_low - params.s, openness=eta),
        winner2=winner,
        w2=params.w_low,
        eta2=eta,
        eta2_tilde=eta,
        incumbent_profit=profit,
    )


def solve(params: ModelParams) -> Equilibrium:
    """Subgame-perfect equilibrium for any admissible subsidy s.

    Regime selection compares k to (k_bar_1, k_bar_2), ties resolved toward
    the lower-k regime; the choice is cross-checked against the scenario
    profit argmax and a RuntimeError flags any disagreement. params are not
    validated here: callers check them first, as solve_baseline and
    solve_subsidized do with require_valid.
    """
    profits = scenario_profits(params)
    th = regime_thresholds(params)
    if math.isnan(th.k_bar_1) or math.isnan(th.k_bar_2):
        regime = _argmax_regime(profits)
    else:
        regime = _regime_from_thresholds(params, th)
        # Built-in consistency check: the threshold-selected strategy must
        # attain the scenario-profit maximum (up to tie tolerance).
        chosen = getattr(profits, f"pi_s{_SCENARIO_INDEX[regime]}")
        best = max(profits.pi_s0, profits.pi_s1, profits.pi_s2)
        scale = max(1.0, abs(best))
        if chosen < best - _CONSISTENCY_TOL * scale:
            raise RuntimeError(
                "internal inconsistency: threshold regime %s has revenue %r "
                "but scenario argmax is %r" % (regime.value, chosen, best)
            )
    return equilibrium_for_regime(params, regime, profits)


_SCENARIO_INDEX = {Regime.HARVEST: 0, Regime.DEFEND: 1, Regime.DOMINATE: 2}


def solve_baseline(params: ModelParams) -> Equilibrium:
    """Subgame-perfect equilibrium of the baseline (unsubsidized) game; see solve."""
    require_valid(params)
    if params.s != 0.0:
        raise InvalidParams(ValidationReport(("baseline solver requires s = 0",)))
    return solve(params)
