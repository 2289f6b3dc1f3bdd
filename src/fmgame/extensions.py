"""Policy extensions: vertical integration and an adoption subsidy.

Vertical integration merges the incumbent developer and the deployer. The
per-unit fee becomes an internal transfer, so the merged firm fine-tunes
against the full quality value theta; it opens up fully in both periods
(openness is now pure cost relief, there is no rival left to feed because
the deployer never switches) and the entrant is foreclosed. Integration
trades the entrant's surplus and the double-marginalization wedge against
the openness distortions of the decentralized play; whether the chain, the
consumers, or society gain flips at flywheel thresholds located numerically.

The adoption subsidy pays the deployer s per unit of usage in both periods;
developers still receive their full fee. All margins shift from theta - w
to theta - w + s, which moves both regime thresholds, and the comparison
names its region by the pair of regimes it solves. Where the thresholds
move up, as on set_b, the subsidy extends the harvest range (everyone
gains, the entrant's arrival is what the extra engagement feeds) but it
also extends the defend range, where the incumbent strategically
*contracts* openness that the baseline would have conceded, and efforts
plus social welfare fall. On many other admissible parameter sets they
move down, and the subsidy tips harvest into defend, or harvest or defend
into dominate (ROADMAP.md, open item 2). Subsidy outlays are reported
separately, never silently netted out of social welfare.

Grids of parameters go through the validation-free cores (_integrated and
closed_form._solve), never through the public solvers.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .closed_form import Equilibrium, _solve, solve
from .outcomes import IntegratedOutcome
from .params import (InvalidParams, ModelParams, Regime, ValidationReport, baseline_twin,
                     consumer_surplus, deployer_surplus, k_max, require_valid, stay_denominator)
from .welfare import (
    PolicyComparison,
    ThresholdCrossing,
    WelfareBreakdown,
    _against_baseline,
    _first_drift,
    _last_crossing,
    _mandate_equilibrium,
    mandate_comparison,
    welfare_for_equilibrium,
)


@dataclass(frozen=True)
class IntegrationThresholds:
    """Flywheel thresholds past which integration helps chain, users, society."""

    chain: ThresholdCrossing
    consumer: ThresholdCrossing
    social: ThresholdCrossing


def solve_integrated(params: ModelParams) -> IntegratedOutcome:
    """Closed-form outcome under vertical integration.

    The merged firm opens fully in both periods and fine-tunes against the
    full margin theta. Efforts are chosen per period (the effort planner is
    myopic, matching the decentralized deployer), so the period-1 effort
    ignores its own flywheel payoff. Fees are internal transfers and the
    subsidy plays no role. Profit and consumer surplus are cross-checked
    against a rebuild from the efforts.
    """
    require_valid(params)
    return _integrated(params)


def _integrated(params: ModelParams) -> IntegratedOutcome:
    # solve_integrated without the validation, for admitted points and
    # grids (k an array).
    th, c, k = params.theta, params.c, params.k
    one = 1.0 + params.eta_cap
    q1v = one * th / (2.0 * c)
    q2v = one * (2.0 * c + k * th * one) * th / (4.0 * c * c)

    profit = one * (4.0 * c + one * k * th) * th * th / (8.0 * c * c)
    # Squared by a product, never by ** 2: Python's ** calls C pow, numpy's
    # multiplies, and the two may round apart.
    lift = 1.0 + one * k * th / (2.0 * c)
    consumer = one * one * th * th * (1.0 + lift * lift) / (8.0 * c * c)

    # Rebuild both from the efforts; abort on drift.
    d2 = stay_denominator(k, q1v, params.eta_cap)
    profit_rebuilt = deployer_surplus(th, q1v, c, one) + deployer_surplus(th, q2v, c, d2)
    consumer_rebuilt = consumer_surplus(q1v, q2v)
    failure = _first_drift((profit, consumer), (profit_rebuilt, consumer_rebuilt))
    if failure is not None:
        i, a, b = failure
        raise RuntimeError(
            "integrated %s cross-validation failed: closed form %r vs rebuild %r"
            % (("profit", "consumer")[i], a, b)
        )

    return IntegratedOutcome(
        eta1v=params.eta_cap, eta2v=params.eta_cap,
        q1v=q1v, q2v=q2v,
        profit=profit, consumer=consumer, social=profit + consumer,
    )


def integration_thresholds(params: ModelParams) -> IntegrationThresholds:
    """Locate the k thresholds where integration starts to pay.

    Three comparisons against the decentralized baseline at the same k:
    chain profit (incumbent revenue + deployer surplus vs merged profit),
    consumer surplus, and social welfare (all four components vs merged
    profit + consumer surplus; the entrant's foreclosed revenue counts
    against integration). Each difference is scanned over [0, k_max] by
    welfare._last_crossing, evaluated once on the whole grid as an array
    (one array pass serves all three), and the last bracket is bisected on
    floats. params.k is ignored, and the s = 0 twin is played.
    """
    params = baseline_twin(params)
    gaps = _integration_gaps(params)
    km = k_max(params)
    return IntegrationThresholds(*(_last_crossing(lambda k, i=i: gaps(k)[i], 0.0, km)
                                   for i in range(3)))


def _integration_gaps(params: ModelParams):
    # Integrated minus decentralized chain profit, consumer surplus and
    # social welfare at k, a float or an array; params.k is ignored, s is 0
    # and every k is admitted (the callers check). All three come from the
    # same two solves, so each k (or grid) is solved once.
    solved: dict = {}

    def gaps(k):
        key = k.tobytes() if isinstance(k, np.ndarray) else k
        if key not in solved:
            p = replace(params, k=k)
            v = _integrated(p)
            w = welfare_for_equilibrium(p, _solve(p))
            solved[key] = (v.profit - (w.dev1 + w.deployer), v.consumer - w.consumer,
                           v.social - w.social)
        return solved[key]

    return gaps


def integration_comparison(params: ModelParams) -> PolicyComparison:
    """Baseline vs integrated welfare at the params' own k.

    The region says whether the chain (incumbent plus deployer) and the
    consumers gain: "lose_lose" (neither), "mixed" (one of them) or
    "win_win" (both). A side gains when k is at or past the last threshold
    that integration_thresholds locates for it, or when its status there is
    "always". The subsidy is irrelevant under integration (there is no fee left to
    subsidize through), so the comparison is always against the s = 0
    baseline.
    """
    def counterfactual(p0, base_eq, base):
        v = solve_integrated(p0)
        th = integration_thresholds(p0)
        gains = sum(c.status == "always" or (c.status == "crossing" and p0.k >= c.value)
                    for c in (th.chain, th.consumer))
        return (WelfareBreakdown.from_components(dev1=v.profit, dev2=0.0, deployer=0.0,
                                                 consumer=v.consumer),
                ("lose_lose", "mixed", "win_win")[gains])

    return _against_baseline("integration", params, counterfactual)


# bench/tracing.py traces this name; once it traces closed_form.solve (ROADMAP item 1), it can go.
solve_subsidized = solve


# Subsidy region by (baseline regime, subsidized regime); any other pair is "other".
_SUBSIDY_REGIONS = {
    (Regime.HARVEST, Regime.HARVEST): "harvest_both",
    (Regime.DEFEND, Regime.HARVEST): "subsidy_all_win",
    (Regime.DOMINATE, Regime.DEFEND): "subsidy_capture",
    (Regime.HARVEST, Regime.DEFEND): "subsidy_defends",
    (Regime.HARVEST, Regime.DOMINATE): "subsidy_dominates",
    (Regime.DEFEND, Regime.DOMINATE): "subsidy_dominates",
}


def subsidy_comparison(params: ModelParams) -> PolicyComparison:
    """Baseline (s = 0) vs subsidized welfare at the params' own k.

    The region names the pair of regimes the two games play: "harvest_both",
    "subsidy_all_win" (defend becomes harvest, every component gains),
    "subsidy_capture" (dominate becomes defend, efforts and welfare fall, the
    incumbent captures the transfer), "subsidy_defends" (harvest becomes
    defend), "subsidy_dominates" (harvest or defend becomes dominate) or
    "other" (any other pair).
    """
    require_valid(params)
    if params.s <= 0.0:
        raise InvalidParams(ValidationReport(("subsidy comparison requires s > 0",)))

    def counterfactual(p0, base_eq, base):
        sub_eq = solve(params)
        counter = welfare_for_equilibrium(params, sub_eq)
        return (counter, _SUBSIDY_REGIONS.get((base_eq.regime, sub_eq.regime), "other"),
                sub_eq.subsidy_spend, counter.social - sub_eq.subsidy_spend)

    return _against_baseline("subsidy", params, counterfactual)


def _game_cells(eq: Equilibrium, w: WelfareBreakdown, suffix: str = "") -> tuple:
    # The sweep's (column, value) pairs of a solved game and its welfare.
    return tuple((name + suffix, value) for name, value in (
        ("regime", eq.regime), ("w1", eq.w1), ("eta1", eq.eta1),
        ("Q1", eq.q1), ("Q2", eq.q2), ("pi_dev1", w.dev1),
        ("pi_dev2", w.dev2), ("profit_deployer", w.deployer),
        ("consumer_surplus", w.consumer), ("social_welfare", w.social)))


def _mandate_cells(p: ModelParams, w: WelfareBreakdown) -> tuple:
    # The mandate fixes the regime, the fee and the openness: its columns start at Q1.
    m = _mandate_equilibrium(p)
    return _game_cells(m, welfare_for_equilibrium(p, m), "_mandate")[3:]


def _integration_cells(p: ModelParams, w: WelfareBreakdown) -> tuple:
    v = _integrated(p)
    return (("chain_profit", w.dev1 + w.deployer), ("Q1_integrated", v.q1v),
            ("Q2_integrated", v.q2v), ("profit_integrated", v.profit),
            ("consumer_surplus_integrated", v.consumer), ("social_welfare_integrated", v.social))


def _subsidy_cells(p: ModelParams, w: WelfareBreakdown) -> tuple:
    sub = _solve(p)
    return (_game_cells(sub, welfare_for_equilibrium(p, sub), "_subsidized")
            + (("subsidy_spend", sub.subsidy_spend),))


# One intervention: its name; own_s, True where it plays the params' own s
# (and validates their s = 0 twin too), False where it plays the twin; its
# point comparison; the (label, PolicyComparison field) lines that `fmgame
# policy` adds; and cells(p, w), the sweep's (column, value) pairs at validated
# points p (k or s an array), built in one call; w is the s = 0 baseline's welfare.
_Policy = namedtuple("_Policy", "name own_s compare report cells")

# Every intervention, welfare's mandate included: a new one is one row.
_POLICIES = {row.name: row for row in (
    _Policy("mandate", False, mandate_comparison, (), _mandate_cells),
    _Policy("integration", False, integration_comparison, (), _integration_cells),
    _Policy("subsidy", True, subsidy_comparison,
            (("subsidy spend", "subsidy_spend"), ("social net of spend", "sw_net_of_spend")),
            _subsidy_cells),
)}
