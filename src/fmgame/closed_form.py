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
regimes. Each regime's play, revenue and welfare-table row are written
once, in _row.

All formulas take the subsidy into account through the deployer's net
margin (theta - w + s); the baseline game is the s = 0 special case.

The same expressions evaluate a whole grid at once: k or s of the params
handed to _row, _thresholds and _solve may be a float array (never both),
and where the scalar code branches on the regime the array code selects
per element (numerics.select and choose), so every element carries the bits
of its own scalar solve. numpy's element-wise + - * / round as Python's
float operations do.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from . import numerics
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
    margin = params.theta + params.s - w1   # _row's and validate()'s rounding
    den = 2.0 * params.c - params.k * margin
    if numerics.any_true(den <= 0.0):
        raise ValueError("retention threshold undefined: 2c - k (theta - w1 + s) <= 0")
    return params.k * margin / den


# One regime's closed forms: the period-1 fee, openness and effort, the
# period-2 effort and developer, the incumbent's two-period fee revenue (also
# the dev1 welfare entry) and the rest of the appendix welfare row.
_Row = namedtuple("_Row", "w1 eta1 q1 q2 winner revenue dev2 deployer consumer")

# Regime i of the element-wise choices; indexed by an int, it gives the member.
_REGIMES = np.array(tuple(Regime), dtype=object)


def _row(params: ModelParams, regime: Regime) -> _Row:
    # Welfare entries are written as the appendix states them (expanded
    # numerators), with t = theta + s carrying the subsidy. params are not
    # validated here.
    t = params.theta + params.s
    c = params.c
    c2 = 2.0 * c
    eta = params.eta_cap
    one = 1.0 + eta
    w_h, w_l = params.w_high, params.w_low
    m_h = t - w_h
    m_l = t - w_l
    deployer_num = ((2.0 + eta) * t * t + w_h * w_h + one * w_l * w_l
                    - 2.0 * t * (w_h + w_l + eta * w_l))

    if regime is Regime.HARVEST:
        return _Row(w1=w_h, eta1=eta, q1=one * m_h / c2, q2=one * one * m_l / c2,
                    winner=Winner.ENTRANT, revenue=one * m_h * w_h / c2,
                    dev2=one * one * m_l * w_l / c2, deployer=one * deployer_num / (4.0 * c),
                    consumer=one * one * (m_h * m_h + one * one * m_l * m_l) / (8.0 * c * c))
    # At a k_max set by the openness cap, eta_bar_low can round past eta_cap,
    # and so can eta_bar_high where the fees are too small to move t - w.
    if regime is Regime.DEFEND:
        d_h = c2 - params.k * m_h
        return _Row(w1=w_h, eta1=numerics.smaller(eta_bar_high(params), eta), q1=m_h / d_h, q2=one * m_l / d_h,
                    winner=Winner.INCUMBENT, revenue=(w_h * m_h + one * w_l * m_l) / d_h,
                    dev2=0.0, deployer=deployer_num / (2.0 * d_h),
                    consumer=((2.0 + eta * (2.0 + eta)) * t * t + w_h * w_h
                              + one * one * w_l * w_l - 2.0 * t * (w_h + one * one * w_l))
                    / (2.0 * d_h * d_h))
    d_l = c2 - params.k * m_l
    return _Row(w1=w_l, eta1=numerics.smaller(eta_bar_low(params), eta), q1=m_l / d_l, q2=one * m_l / d_l,
                winner=Winner.INCUMBENT, revenue=(2.0 + eta) * w_l * m_l / d_l,
                dev2=0.0, deployer=(2.0 + eta) * m_l * m_l / (2.0 * d_l),
                consumer=(2.0 + eta * (2.0 + eta)) * m_l * m_l / (2.0 * d_l * d_l))


def _pick_row(index, rows: list[_Row]) -> _Row:
    # rows[index]; field by field per element when index is an array.
    if isinstance(index, np.ndarray):
        return _Row(*(numerics.choose(index, field) for field in zip(*rows)))
    return rows[index]


def _played_row(params: ModelParams, regime) -> _Row:
    """The regime's _row; on an array of regimes, each element's own row."""
    if isinstance(regime, Regime):
        return _row(params, regime)
    order = list(Regime)
    index = np.array([order.index(r) for r in regime.tolist()], dtype=int)
    return _pick_row(index, [_row(params, r) for r in order])


def scenario_profits(params: ModelParams) -> ScenarioProfits:
    """Incumbent two-period fee revenue under the three candidate strategies.

    Fee revenue is gross of subsidy (the developer receives the full w; the
    government pays s). Period 2 is always transacted at the follower fee.
    """
    require_valid(params)
    return ScenarioProfits(*(_row(params, regime).revenue for regime in Regime))


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
    return _thresholds(params)


def _thresholds(params: ModelParams) -> RegimeThresholds:
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

    # NaN where the denominator vanishes: x / nan is nan and raises nothing.
    den = (t - w_h - w_l) * (w_h - w_l)
    eta_prime = (m_h * m_h + w_l * (w_h - w_l)) / numerics.select(den == 0.0, math.nan, den)

    return RegimeThresholds(
        k_bar_1=numerics.smaller(k_13, k_23),
        k_bar_2=numerics.larger(k_12, k_23),
        k_bar_12=k_12,
        k_bar_13=k_13,
        k_bar_23=k_23,
        eta_prime=eta_prime,
    )


def _equilibrium(params: ModelParams, regime: Regime, row: _Row) -> Equilibrium:
    return Equilibrium(
        regime=regime,
        strategy=Strategy(w1=row.w1, eta1=row.eta1),
        period1=PeriodOutcome(effort=row.q1, engagement=row.q1,
                              fee_paid=row.w1 - params.s, openness=row.eta1),
        period2=PeriodOutcome(effort=row.q2, engagement=row.q2,
                              fee_paid=params.w_low - params.s, openness=params.eta_cap),
        winner2=row.winner,
        w2=params.w_low,
        eta2=params.eta_cap,
        eta2_tilde=params.eta_cap,
        incumbent_profit=row.revenue,
    )


def solve(params: ModelParams) -> Equilibrium:
    """Subgame-perfect equilibrium for any admissible subsidy s.

    Raises InvalidParams unless params pass validate() (require_valid, at
    every point of a grid); solve_baseline adds its s == 0 check on top.
    Regime selection compares k to (k_bar_1, k_bar_2), ties resolved toward
    the lower-k regime; the choice is cross-checked against the scenario
    revenue argmax and a RuntimeError flags any disagreement. Each regime's
    row is built once. With k or s an array, every field of the result is
    an array (or a scalar shared by all points), the regime an array of
    Regime members.
    """
    require_valid(params)
    return _solve(params)


def _solve(params: ModelParams) -> Equilibrium:
    # solve without the validation, for grids whose points the caller has
    # validated one by one.
    rows = [_row(params, regime) for regime in Regime]
    # No admitted threshold is NaN: Python raises on a float division by
    # zero, and validate() bounds every product, so nothing overflows to inf.
    th = _thresholds(params)
    index = numerics.select(params.k <= th.k_bar_1, 0,
                            numerics.select(params.k <= th.k_bar_2, 1, 2))
    regime = _REGIMES[index]
    row = _pick_row(index, rows)
    # Built-in consistency check: the threshold-selected strategy must
    # attain the scenario-profit maximum (up to tie tolerance).
    chosen = row.revenue
    best = numerics.larger(numerics.larger(rows[0].revenue, rows[1].revenue), rows[2].revenue)
    scale = numerics.larger(1.0, abs(best))
    bad = chosen < best - _CONSISTENCY_TOL * scale
    if numerics.any_true(bad):
        regime, chosen, best = numerics.first_where(bad, regime, chosen, best)
        raise RuntimeError(
            "internal inconsistency: threshold regime %s has revenue %r "
            "but scenario argmax is %r" % (regime.value, chosen, best)
        )
    return _equilibrium(params, regime, row)


def solve_baseline(params: ModelParams) -> Equilibrium:
    """Subgame-perfect equilibrium of the baseline (unsubsidized) game; see solve."""
    eq = solve(params)   # validates first, so invalid params keep precedence
    if params.s != 0.0:
        raise InvalidParams(ValidationReport(("baseline solver requires s = 0",)))
    return eq
