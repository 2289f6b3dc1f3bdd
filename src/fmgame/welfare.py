"""Welfare decomposition and the full-openness mandate counterfactual.

Surplus is split four ways: the incumbent developer's fee revenue, the
entrant's fee revenue, the deployer's fine-tuning surplus, and end-user
surplus. End users with heterogeneous tastes generate engagement alpha_t
per period; aggregate consumer surplus is sum_t alpha_t^2 / 2. Social
welfare is the plain sum of the four components (government outlays under a
subsidy are accounted separately by the policy comparison, never netted out
silently here).

Every component is computed twice: once in the closed-form welfare table
(rational functions of k) whose played row the equilibrium carries, and
once rebuilt from the equilibrium's fees, openness and efforts with the
primitives of params (fee revenue = w * alpha, the deployer's surplus
under each period's cost denominator, consumer surplus). The two routes
must agree to 1e-6 relative; a mismatch aborts with the offending component
and regime named, since it means a table row or the regime mapping was
mistranscribed. Both routes also run on a grid of parameters, element by
element (closed_form).

The mandate counterfactual pins period-1 openness at the cap. The incumbent
then cannot defend the deployer at any admissible flywheel strength, so the
harvest outcome obtains regardless of k. The exception is a k_max set by
the openness cap (set_a at k = 0.26666666666666666): there the follower fee
retains the deployer at the cap, up to rounding, and harvest is played all
the same (ROADMAP item 21). For strong flywheels the baseline would have
delivered the dominate outcome, whose efforts grow without the openness
distortion; past a threshold k the mandate therefore lowers deployer
surplus, consumer surplus, and social welfare. That threshold, like
the integration thresholds of extensions, is located by _last_crossing, the
one policy-threshold scanner: it brackets the sign changes on its k grid
in one array pass through the validation-free cores and bisects the last
bracket on floats (validate() admits a point at every k up to k_max or at
none). The trap threshold and mandate_comparison play the s = 0 twin of
their params (params.baseline_twin: the same params with s = 0, validated);
mandate_equilibrium refuses s > 0.
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
    _row,
    _solve,
    regime_thresholds,
)
from .params import (InvalidParams, ModelParams, ValidationReport, _rebuilt_components,
                     baseline_twin, k_max, require_valid)

#: Relative tolerance for the table-vs-rebuild cross-validation.
_CROSS_TOL = 1e-6

#: Grid points of the k scans that bracket policy thresholds.
_K_GRID_POINTS = 512


@dataclass(frozen=True)
class ThresholdCrossing:
    """One numerically located policy threshold in k.

    status is "crossing" (value holds the root), "always" (the intervention
    helps on the whole admissible range) or "never" (it never helps).
    """

    value: float | None
    status: str


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


def _last_crossing(diff, lo: float, hi: float) -> ThresholdCrossing:
    """Last sign change on [lo, hi], 0 <= lo <= hi <= k_max, of diff (k a
    float or an array), whose params the caller validated: validate() admits
    them at every such k.

    diff takes the whole grid as an array for the scan and a float at each
    bisection step of the last bracket; an exact zero at a grid point is
    the root itself. Without a sign change, the status is "always" where
    diff(lo) > 0, else "never".
    """
    brackets = numerics.sign_change_brackets(diff, _k_grid(lo, hi))
    if not brackets:
        return ThresholdCrossing(value=None, status="always" if diff(lo) > 0 else "never")
    a, b = brackets[-1]
    return ThresholdCrossing(value=a if a == b else numerics.bisect_root(diff, a, b),
                             status="crossing")


_COMPONENT_NAMES = ("dev1", "dev2", "deployer", "consumer")


def welfare_for_equilibrium(params: ModelParams, eq: Equilibrium) -> WelfareBreakdown:
    """Welfare breakdown for a solved (or imposed) equilibrium.

    Reads the table entries the equilibrium carries and cross-validates them
    against the rebuild from its play (w1, eta1, q1, q2, w2, eta2, eta2_tilde,
    winner2); raises RuntimeError naming the first disagreeing component if
    the two routes drift beyond 1e-6 relative.
    On a grid (an equilibrium solved with array params) both routes run
    per element, and the first disagreeing point is named.
    """
    table = (eq.incumbent_profit, eq.dev2, eq.deployer, eq.consumer)
    # Against the value: numpy would turn the member itself into its str().
    rebuilt = _rebuilt_components(params, eq.w1, eq.eta1, eq.q1,
                                  eq.w2, eq.q2, eq.winner2 == Winner.INCUMBENT.value,
                                  eq.eta2, eq.eta2_tilde)
    failure = _first_drift(table, rebuilt, eq.regime)
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


def mandate_equilibrium(params: ModelParams) -> Equilibrium:
    """Outcome when period-1 openness is mandated at the cap.

    Full openness hands the entrant the whole spillover, so the incumbent
    cannot retain the deployer at any admissible k; the harvest outcome
    obtains regardless of the flywheel strength, and the premium fee is the
    incumbent's best remaining choice. The exception is a k_max set by the
    openness cap, where the follower fee retains the deployer at the cap,
    up to rounding; harvest is played there all the same (ROADMAP item 21).
    """
    require_valid(params)
    if params.s != 0.0:
        raise InvalidParams(ValidationReport(("mandate analysis requires s = 0",)))
    return _mandate_equilibrium(params)


def _mandate_equilibrium(params: ModelParams) -> Equilibrium:
    # mandate_equilibrium without its checks, for validated s = 0 grids.
    return _equilibrium(params, Regime.HARVEST, _row(params, Regime.HARVEST))


def openness_trap_threshold(params: ModelParams) -> float | None:
    """Flywheel strength past which the mandate lowers social welfare.

    Scans (k_bar_1, k_max] for sign changes of
    f(k) = SW_baseline(k) - SW_mandate, evaluating f once on the whole grid
    as an array, and bisects the final bracket on floats to an absolute
    k-width of 1e-13. On a binding range narrower than about 5e-11, as
    wherever k_max is that small, a grid cell is narrower still, and its
    midpoint is returned unbisected, whatever the SW gap there (ROADMAP
    items 5 and 19).
    Returns None when f never changes sign on the binding range: either the
    mandate helps everywhere it binds, or it hurts everywhere it binds (as
    when the baseline goes straight from harvest to dominate). k is the
    only moving part; params.k is ignored, and the s = 0 twin is played.
    """
    params = baseline_twin(params)
    binding = _binding_range(params)
    if binding is None:
        return None   # the mandate never binds on the admissible range
    return _last_crossing(_trap_gap(params), *binding).value


def _trap_gap(params: ModelParams):
    # f(k) = SW_baseline(k) - SW_mandate, the gap whose sign change is the
    # openness trap, for k a float or an array; params.k is ignored, s is 0
    # and every k is admitted (the callers check).
    p0 = replace(params, k=0.0)
    sw_mandate = welfare_for_equilibrium(p0, mandate_equilibrium(p0)).social

    def gap(k):
        p = replace(params, k=k)
        return welfare_for_equilibrium(p, _solve(p)).social - sw_mandate

    return gap


def _binding_range(params: ModelParams) -> tuple[float, float] | None:
    # (lo, hi] of k where the mandate binds, None when it is empty. The
    # interval is opened on the left (at k_bar_1 the mandate does not bind),
    # by at most a share of it, so a narrow range still opens below k_max.
    k_hi = k_max(params)
    k_lo = max(regime_thresholds(params).k_bar_1, 0.0)
    if k_lo >= k_hi:
        return None
    return k_lo + min(1e-12 * max(1.0, k_hi), 1e-3 * (k_hi - k_lo)), k_hi


def _against_baseline(intervention: str, params: ModelParams, counterfactual) -> PolicyComparison:
    # The one baseline play of every policy comparison: the s = 0 twin p0 of
    # params is solved and priced, then counterfactual(p0, base_eq, base)
    # returns the intervention's welfare, its region and any further
    # PolicyComparison fields, in field order.
    p0 = baseline_twin(params)
    base_eq = _solve(p0)
    base = welfare_for_equilibrium(p0, base_eq)
    counter, region, *rest = counterfactual(p0, base_eq, base)
    return PolicyComparison(intervention, region, base_eq, base, counter, *rest)


def mandate_comparison(params: ModelParams) -> PolicyComparison:
    """Baseline vs mandated-openness welfare at the params' own k.

    Regions: "mandate_slack" (the baseline harvests at full openness
    anyway), "trap" (the mandate lowers social welfare at this k) and
    "mandate_binding" (it binds without lowering social welfare). The
    s = 0 twin of params is played.
    """
    def counterfactual(p0, base_eq, base):
        counter = welfare_for_equilibrium(p0, mandate_equilibrium(p0))
        # At harvest the baseline opens fully anyway: the mandate changes nothing.
        return counter, ("mandate_slack" if base_eq.regime is Regime.HARVEST
                         else "trap" if counter.social < base.social else "mandate_binding")

    return _against_baseline("mandate", params, counterfactual)
