"""Welfare decomposition and the full-openness mandate counterfactual.

Surplus is split four ways: the incumbent developer's fee revenue, the
entrant's fee revenue, the deployer's fine-tuning surplus, and end-user
surplus. End users with heterogeneous tastes generate engagement alpha_t
per period; aggregate consumer surplus is sum_t alpha_t^2 / 2. Social
welfare is the plain sum of the four components (government outlays under a
subsidy are accounted separately by the policy comparison, never netted out
silently here).

Every component is computed twice: once from the closed-form welfare table
(rational functions of k), whose rows live in closed_form next to each
regime's play and revenue, and once rebuilt here from the equilibrium
efforts (fee revenue = w * alpha, deployer surplus = margin * alpha - cost,
consumer surplus from engagements). The two routes must agree to 1e-6
relative; a mismatch aborts with the offending component and regime named,
since it means a table row or the regime mapping was mistranscribed. Both
routes also run on a grid of k or s, element by element (closed_form).

The mandate counterfactual pins period-1 openness at the cap. The incumbent
then cannot defend the deployer at any admissible flywheel strength, so the
harvest outcome obtains regardless of k. For strong flywheels the baseline
would have delivered the dominate outcome, whose efforts grow without the
openness distortion; past a threshold k the mandate therefore lowers
deployer surplus, consumer surplus, and social welfare. That threshold is
located by scanning a k grid in one array pass and bisecting on floats.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, replace

from . import numerics
from .closed_form import (
    Equilibrium,
    Regime,
    Winner,
    _equilibrium,
    _played_row,
    _row,
    regime_thresholds,
    solve,
    solve_baseline,
)
from .params import InvalidParams, ModelParams, ValidationReport, k_max, require_valid

#: Relative tolerance for the table-vs-rebuild cross-validation.
_CROSS_TOL = 1e-6

#: Grid points of the k scans that bracket policy thresholds.
_K_GRID_POINTS = 512


@dataclass(frozen=True)
class WelfareBreakdown:
    """Four-component surplus split; social is their exact sum."""

    dev1: float
    dev2: float
    deployer: float
    consumer: float
    social: float

    @classmethod
    def from_components(cls, dev1: float, dev2: float, deployer: float,
                        consumer: float) -> "WelfareBreakdown":
        return cls(dev1=dev1, dev2=dev2, deployer=deployer, consumer=consumer,
                   social=dev1 + dev2 + deployer + consumer)

    def delta(self, other: "WelfareBreakdown") -> "WelfareBreakdown":
        """Component-wise self - other."""
        return WelfareBreakdown.from_components(
            self.dev1 - other.dev1,
            self.dev2 - other.dev2,
            self.deployer - other.deployer,
            self.consumer - other.consumer,
        )


@dataclass(frozen=True)
class PolicyComparison:
    """Paired baseline vs counterfactual welfare for one intervention."""

    intervention: str
    region: str
    baseline_equilibrium: Equilibrium
    baseline: WelfareBreakdown
    counterfactual: WelfareBreakdown
    subsidy_spend: float = 0.0
    sw_net_of_spend: float | None = None

    @property
    def delta(self) -> WelfareBreakdown:
        """Counterfactual minus baseline, component-wise."""
        return self.counterfactual.delta(self.baseline)


def _k_grid(lo: float, hi: float, points: int = _K_GRID_POINTS) -> list[float]:
    """Uniform grid of points on [lo, hi] whose last point is exactly hi."""
    # lo + (hi - lo) * n / n can round past hi, and a k above k_max is invalid.
    n = points - 1
    return [lo + (hi - lo) * i / n for i in range(n)] + [hi]


def _rebuilt_components(params: ModelParams, eq: Equilibrium) -> tuple[float, float, float, float]:
    # Independent route: rebuild every component from the equilibrium efforts.
    t = params.theta + params.s
    c = params.c
    a1 = eq.period1.engagement
    a2 = eq.period2.engagement
    w1 = eq.strategy.w1
    w2 = eq.w2

    # Against the value: numpy would turn the member itself into its str().
    incumbent = eq.winner2 == Winner.INCUMBENT.value
    dev1 = numerics.select(incumbent, w1 * a1 + w2 * a2, w1 * a1)
    dev2 = numerics.select(incumbent, 0.0, w2 * a2)
    d2_eff = numerics.select(incumbent, (1.0 + params.k * a1) * (1.0 + eq.eta2),
                             (1.0 + eq.strategy.eta1) * (1.0 + eq.eta2_tilde))

    d1_eff = 1.0 + eq.strategy.eta1
    deployer = ((t - w1) * a1 - c * a1 * a1 / d1_eff) \
        + ((t - w2) * a2 - c * a2 * a2 / d2_eff)
    consumer = 0.5 * (a1 * a1 + a2 * a2)
    return dev1, dev2, deployer, consumer


_COMPONENT_NAMES = ("dev1", "dev2", "deployer", "consumer")


def welfare_for_equilibrium(params: ModelParams, eq: Equilibrium) -> WelfareBreakdown:
    """Welfare breakdown for a solved (or imposed) equilibrium.

    Evaluates the regime's closed-form table row and cross-validates it
    against the rebuild from efforts; raises RuntimeError naming the first
    disagreeing component if the two routes drift beyond 1e-6 relative.
    On a grid (an equilibrium solved with k or s an array) both routes run
    per element, and the first disagreeing point is named.
    """
    row = _played_row(params, eq.regime)
    table = (row.revenue, row.dev2, row.deployer, row.consumer)
    failure = _first_drift(table, _rebuilt_components(params, eq), eq.regime)
    if failure is not None:
        i, a, b, regime = failure
        raise RuntimeError(
            "welfare cross-validation failed for component %r in regime %r: "
            "table %r vs rebuild %r" % (_COMPONENT_NAMES[i], regime.value, a, b)
        )
    return WelfareBreakdown.from_components(*table)


def _drift(a, b):
    # Whether two routes to one quantity disagree beyond _CROSS_TOL relative.
    return abs(a - b) > _CROSS_TOL * numerics.larger(numerics.larger(1.0, abs(a)), abs(b))


def _first_drift(table: tuple, rebuilt: tuple, *context):
    # None when every component of the two routes agrees at every point.
    # Else (component index, table value, rebuilt value, *context) at the
    # first point where one drifts, for its first drifting component: what
    # the point's own scalar check reports.
    bad = functools.reduce(operator.or_, map(_drift, table, rebuilt))
    if not numerics.any_true(bad):
        return None
    n = len(table)
    values = numerics.first_where(bad, *table, *rebuilt, *context)
    i = next(i for i in range(n) if _drift(values[i], values[n + i]))
    return (i, values[i], values[n + i], *values[2 * n:])


def welfare_baseline(params: ModelParams) -> WelfareBreakdown:
    """Equilibrium welfare of the baseline game (s = 0)."""
    eq = solve_baseline(params)
    return welfare_for_equilibrium(params, eq)


def mandate_equilibrium(params: ModelParams) -> Equilibrium:
    """Outcome when period-1 openness is mandated at the cap.

    Full openness hands the entrant the whole spillover, so the incumbent
    cannot retain the deployer at any admissible k; the harvest outcome
    obtains regardless of the flywheel strength, and the premium fee is the
    incumbent's best remaining choice. k may be an array (see solve).
    """
    require_valid(params)
    if params.s != 0.0:
        raise InvalidParams(ValidationReport(("mandate analysis requires s = 0",)))
    return _mandate_equilibrium(params)


def _mandate_equilibrium(params: ModelParams) -> Equilibrium:
    # mandate_equilibrium without its checks, for validated s = 0 grids.
    return _equilibrium(params, Regime.HARVEST, _row(params, Regime.HARVEST))


def welfare_mandate(params: ModelParams) -> WelfareBreakdown:
    """Welfare under the full-openness mandate (k-independent)."""
    eq = mandate_equilibrium(params)
    return welfare_for_equilibrium(params, eq)


def openness_trap_threshold(params: ModelParams) -> float | None:
    """Flywheel strength past which the mandate lowers social welfare.

    Scans (k_bar_1, k_max] for sign changes of
    f(k) = SW_baseline(k) - SW_mandate, evaluating f once on the whole grid
    as an array, and bisects the final bracket on floats to a k-resolution
    of 1e-13 (so the SW gap at the root is far below 1e-8).
    Returns None when f never changes sign on the binding range: either the
    mandate helps everywhere it binds, or it hurts everywhere it binds (as
    when the baseline goes straight from harvest to dominate). k is the
    only moving part; params.k is ignored.
    """
    require_valid(params)
    if params.s != 0.0:
        raise InvalidParams(ValidationReport(("mandate analysis requires s = 0",)))
    binding = _binding_range(params)
    if binding is None:
        return None   # the mandate never binds on the admissible range
    return numerics.scan_and_bisect(_trap_gap(params), _k_grid(*binding))


def _trap_gap(params: ModelParams):
    # f(k) = SW_baseline(k) - SW_mandate, the gap whose sign change is the
    # openness trap, for k a float or an array; params.k is ignored, and s
    # is 0 (the callers check).
    sw_mandate = welfare_mandate(replace(params, k=0.0)).social

    def gap(k):
        p = replace(params, k=k)
        return welfare_for_equilibrium(p, solve(p)).social - sw_mandate

    return gap


def _binding_range(params: ModelParams) -> tuple[float, float] | None:
    # (lo, hi] of k where the mandate binds, None when it is empty. The
    # interval is opened on the left: at k_bar_1 itself the mandate does not bind.
    k_hi = k_max(params)
    k_lo = max(regime_thresholds(params).k_bar_1, 0.0)
    if k_lo >= k_hi:
        return None
    return k_lo + 1e-12 * max(1.0, k_hi), k_hi


def mandate_comparison(params: ModelParams) -> PolicyComparison:
    """Baseline vs mandated-openness welfare at the params' own k.

    Regions: "mandate_slack" (the baseline harvests at full openness
    anyway), "trap" (the mandate lowers social welfare at this k) and
    "mandate_binding" (it binds without lowering social welfare).
    """
    base_eq = solve_baseline(params)
    base = welfare_for_equilibrium(params, base_eq)
    counter = welfare_mandate(params)
    if base_eq.regime is Regime.HARVEST:
        region = "mandate_slack"          # harvest anyway, mandate changes nothing
    elif counter.social < base.social:
        region = "trap"
    else:
        region = "mandate_binding"
    return PolicyComparison(
        intervention="mandate",
        region=region,
        baseline_equilibrium=base_eq,
        baseline=base,
        counterfactual=counter,
    )
