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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .closed_form import Equilibrium, _solve, solve, solve_baseline
from .outcomes import IntegratedOutcome
from .params import InvalidParams, ModelParams, Regime, ValidationReport, k_max, require_valid
from .welfare import (
    PolicyComparison,
    WelfareBreakdown,
    _first_drift,
    _k_grid,
    welfare_for_equilibrium,
)


@dataclass(frozen=True)
class SubsidizedEquilibrium(Equilibrium):
    """Equilibrium of the subsidized game plus the subsidy outlay."""

    subsidy_spend: float = 0.0


@dataclass(frozen=True)
class ThresholdCrossing:
    """One numerically located policy threshold in k.

    status is "crossing" (value holds the root), "always" (the intervention
    helps on the whole admissible range) or "never" (it never helps).
    """

    value: float | None
    status: str


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
    against a rebuild from the efforts. k may be an array (see solve).
    """
    require_valid(params)
    return _integrated(params)


def _integrated(params: ModelParams) -> IntegratedOutcome:
    # solve_integrated without the validation, for validated grids.
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
    d2 = (1.0 + k * q1v) * one
    profit_rebuilt = (th * q1v - c * q1v * q1v / one) + (th * q2v - c * q2v * q2v / d2)
    consumer_rebuilt = 0.5 * (q1v * q1v + q2v * q2v)
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
    against integration). Each difference is scanned over [0, k_max],
    evaluated once on the whole grid as an array (one array pass serves all
    three), and the last root is bisected on floats. params.k is ignored.
    """
    require_valid(params)
    if params.s != 0.0:
        raise InvalidParams(ValidationReport(("integration analysis requires s = 0",)))
    grid = _k_grid(0.0, k_max(params))
    gaps = _integration_gaps(params)

    results = []
    for idx in range(3):
        def diff(k, _i=idx):
            return gaps(k)[_i]

        root = numerics.scan_and_bisect(diff, grid)
        if root is None:
            status = "always" if diff(grid[0]) > 0 else "never"
        else:
            status = "crossing"
        results.append(ThresholdCrossing(value=root, status=status))
    return IntegrationThresholds(chain=results[0], consumer=results[1], social=results[2])


def _integration_gaps(params: ModelParams):
    # Integrated minus decentralized chain profit, consumer surplus and
    # social welfare at k, a float or an array; params.k is ignored, and s
    # is 0 (the callers check). All three come from the same two solves, so
    # each k (or grid) is solved once.
    solved: dict = {}

    def gaps(k):
        key = k.tobytes() if isinstance(k, np.ndarray) else k
        if key not in solved:
            p = replace(params, k=k)
            v = solve_integrated(p)
            w = welfare_for_equilibrium(p, _solve(p))   # p is validated
            solved[key] = (v.profit - (w.dev1 + w.deployer), v.consumer - w.consumer,
                           v.social - w.social)
        return solved[key]

    return gaps


def _gains(crossing: ThresholdCrossing, k: float) -> bool:
    if crossing.status == "always":
        return True
    if crossing.status == "never":
        return False
    return k >= crossing.value


def integration_comparison(params: ModelParams) -> PolicyComparison:
    """Baseline vs integrated welfare at the params' own k.

    The subsidy is irrelevant under integration (there is no fee left to
    subsidize through), so the comparison is always against the s = 0
    baseline.
    """
    p0 = replace(params, s=0.0)
    base_eq = solve_baseline(p0)
    base = welfare_for_equilibrium(p0, base_eq)
    v = solve_integrated(p0)
    counter = WelfareBreakdown.from_components(
        dev1=v.profit, dev2=0.0, deployer=0.0, consumer=v.consumer,
    )
    th = integration_thresholds(p0)
    gains_chain = _gains(th.chain, params.k)
    gains_user = _gains(th.consumer, params.k)
    if gains_chain and gains_user:
        region = "win_win"
    elif gains_chain or gains_user:
        region = "mixed"
    else:
        region = "lose_lose"
    return PolicyComparison(
        intervention="integration",
        region=region,
        baseline_equilibrium=base_eq,
        baseline=base,
        counterfactual=counter,
    )


def solve_subsidized(params: ModelParams) -> SubsidizedEquilibrium:
    """Equilibrium of the game with a per-unit adoption subsidy.

    Same backward induction as the baseline with every deployer margin
    shifted to theta - w + s (developers keep their full fee, the
    government covers s), plus the subsidy outlay s * (alpha1 + alpha2).
    Accepts s = 0, where it reduces exactly to the baseline. k or s may be
    an array (see solve).
    """
    return _with_outlay(params, solve(params))


def _with_outlay(params: ModelParams, eq: Equilibrium) -> SubsidizedEquilibrium:
    # The equilibrium plus the subsidy outlay s * (alpha1 + alpha2).
    spend = params.s * (eq.period1.engagement + eq.period2.engagement)
    # shallow: asdict would turn the PeriodOutcomes into dicts
    return SubsidizedEquilibrium(**vars(eq), subsidy_spend=spend)


def welfare_subsidized(params: ModelParams) -> WelfareBreakdown:
    """Welfare under the subsidy: four private components, outlay excluded."""
    eq = solve_subsidized(params)
    return welfare_for_equilibrium(params, eq)


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
    base_params = replace(params, s=0.0)
    base_eq = solve_baseline(base_params)
    base = welfare_for_equilibrium(base_params, base_eq)
    sub_eq = solve_subsidized(params)
    counter = welfare_for_equilibrium(params, sub_eq)
    return PolicyComparison(
        intervention="subsidy",
        region=_SUBSIDY_REGIONS.get((base_eq.regime, sub_eq.regime), "other"),
        baseline_equilibrium=base_eq,
        baseline=base,
        counterfactual=counter,
        subsidy_spend=sub_eq.subsidy_spend,
        sw_net_of_spend=counter.social - sub_eq.subsidy_spend,
    )
