"""Brute-force oracle: solves the game numerically, knowing no closed forms.

This module is the independent referee for every formula in the package.
It imports only the primitives (parameters and, from ``params``, the
deployer's surplus, the stay and switch cost denominators and consumer
surplus; outcome containers; generic numerics) and replays the game
mechanics directly:

- deployer efforts come from golden-section search on the per-period
  surplus, never from first-order conditions;
- the incumbent's period-1 strategy is found by scanning a uniform openness
  grid for each admissible fee;
- the period-2 subgame is played out move by move: the incumbent may quote
  either fee (including the premium deviation the closed forms rule out),
  the deployer compares surpluses and stays on ties.

Bisection is used only to refine the location of the retention boundary in
openness, so threshold candidates are represented exactly rather than to
grid resolution. The grid's own stay gaps say which grid cell holds the
boundary, and one regula-falsi step narrows that cell to a window
2e-10 max(1, eta_cap) wide around it, so the bisection runs its scalar
searches only inside the window, after testing the window's ends. If the
premium-fee deviation ever strictly wins period 2, the admissibility bound
on k was transcribed wrong and the oracle raises.

Every effort the oracle plays is the deployer's best response to the
surplus m Q - c Q^2 / D, at a margin m fixed by one fee and a cost
denominator D that may differ from lane to lane. With Q = D u the surplus
equals D (m u - c u^2), and D > 0, so the best Q is D times the best unit
effort u, whatever D is. So the oracle runs one scalar golden-section
search of u on [0, m / c] per margin and scales it by each lane's D: the
period-1 effort (1 + eta1) u, on the grid and at scalar candidates alike,
the stay lanes on the grid, and both stages of the integrated firm. The
period-1 margin at fee w1 and the stay margin at fee w2 are both
theta + s - w, so ``oracle_solve_game`` searches u once per fee at the
start of each call, and the period-1 and stay lanes share it: the
retention bisection repeats no search of u at its steps, and nothing is
kept from one call to the next. This is exact algebra on the model's own
cost term, and u still comes from a search of the surplus, not from a
first-order condition. Two searches keep Q as their variable:

- The scalar stay and switch searches (the retention bisection and the
  played boundary) are compared with each other. At k = 0 and eta1 = 0
  their denominators are equal, and there they must tie exactly, so both
  search Q on the same bracket.
- The switch lanes on the grid, one search of Q per lane. They read
  neither k nor the period-1 fee, so they are cached for the two latest
  (params without k, grid size) keys, and a sweep over k, as in
  ``fmgame verify``, runs them once per parameter set. They are also the
  one caller of the vectorized ``numerics.golden_max`` that the bench
  traces (ROADMAP item 1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .outcomes import Equilibrium, IntegratedOutcome, PeriodOutcome
from .params import (ModelParams, Regime, Strategy, Winner, consumer_surplus, deployer_surplus,
                     require_valid, stay_denominator, switch_denominator)


@dataclass(frozen=True)
class OracleConfig:
    """Search resolution knobs for the brute-force solver."""

    eta_grid_points: int = 10001

    def __post_init__(self):
        # Both ends of [0, eta_cap] must be grid points: the full-openness
        # corner is one of them, and the grid step divides by n - 1.
        if self.eta_grid_points < 2:
            raise ValueError(f"eta_grid_points must be at least 2, got {self.eta_grid_points!r}")


def oracle_best_effort(margin, cost_denominator, c: float = 1.0):
    """Numeric maximizer of margin * Q - c Q^2 / denominator over Q >= 0.

    Golden-section search on [0, margin * denominator / c] (the objective is
    negative beyond that, and concave). Non-positive margins return 0.
    Accepts scalars or broadcastable arrays; scalar inputs give a float.
    The search evaluates the same surplus as params.deployer_surplus, but
    factored as Q (margin - Q c/d), with c/d divided out once per search:
    it runs on every iteration, and the oracle's bits rest on that form.
    """
    # isinstance (np.float64 included) spares floats the slower np.ndim.
    if ((isinstance(margin, float) or np.ndim(margin) == 0)
            and (isinstance(cost_denominator, float) or np.ndim(cost_denominator) == 0)):
        m = float(margin)
        d = float(cost_denominator)
        if d <= 0:
            raise ValueError("cost denominator must be positive")
        if m <= 0:
            return 0.0
        cd = c / d
        return numerics.golden_max_scalar(lambda q: q * (m - q * cd), 0.0, m * d / c)

    m = np.asarray(margin, dtype=float)
    d = np.asarray(cost_denominator, dtype=float)
    if np.any(d <= 0):
        raise ValueError("cost denominator must be positive")
    hi = np.where(m > 0, m, 0.0) * d / c
    cd = c / d
    return numerics.golden_max(lambda q: q * (m - q * cd), np.zeros_like(hi), hi)


def _surplus_at_best(margin, denom, c):
    q = oracle_best_effort(margin, denom, c)
    return q, deployer_surplus(margin, q, c, denom)


def _fees(params: ModelParams) -> tuple[float, ...]:
    # The period-1 fees the incumbent may quote, premium fee first.
    return (params.w_high,) if params.w_low == params.w_high else (params.w_high, params.w_low)


def _unit_efforts(params: ModelParams) -> dict[float, float]:
    # The best unit effort at each fee's margin theta + s - w, which the
    # period-1 margin at fee w1 and the stay margin at fee w2 share.
    return {w: oracle_best_effort(params.theta + params.s - w, 1.0, params.c)
            for w in _fees(params)}


def _effort_lanes(units, w1: float, etas):
    # The period-1 effort at fee w1 and each openness in etas (an array or
    # one float): the unit effort at w1 scaled by 1 + eta1.
    return (1.0 + etas) * units[w1]


def _switch_lanes(params: ModelParams, etas):
    # The deployer's period-2 effort and surplus from switching at each
    # openness in etas; reads neither params.k nor the period-1 fee.
    return _surplus_at_best(params.theta + params.s - params.w_low,
                            switch_denominator(etas, params.eta_cap), params.c)


def _stay_lanes(params: ModelParams, units, w2: float, q1):
    # The deployer's period-2 effort and surplus from staying with the
    # incumbent at fee w2, after period-1 efforts q1. On an array of q1, the
    # unit effort at w2 is scaled by each lane's cost denominator (see the
    # module docstring); on one float, Q itself is searched.
    m = params.theta + params.s - w2
    d = stay_denominator(params.k, q1, params.eta_cap)
    if not isinstance(q1, np.ndarray):
        return _surplus_at_best(m, d, params.c)
    q = d * units[w2]
    return q, deployer_surplus(m, q, params.c, d)


def _lanes(params: ModelParams, units, w1: float, etas, switch=None):
    # At fee w1 and each openness in etas (grid arrays or one float): the
    # period-1 effort, then the deployer's period-2 effort and surplus from
    # staying (incumbent at the follower fee) and from switching. switch,
    # where given, holds the switch lanes already.
    q1 = _effort_lanes(units, w1, etas)
    stay = _stay_lanes(params, units, params.w_low, q1)
    return q1, stay, _switch_lanes(params, etas) if switch is None else switch


def _stay_gap(lanes):
    # The deployer's period-2 surplus advantage of staying at the follower
    # fee over switching, from _lanes: it stays where this is >= 0.
    return lanes[1][1] - lanes[2][1]


@functools.lru_cache(maxsize=2)
def _k_free_grid(params: ModelParams, n: int):
    # The k-free lanes on the n-point grid from eta_cap down to 0, for params
    # with k = 0: the grid and its switch lanes. Two entries hold the coarse
    # and the fine grid of verify's refinement check. The arrays are shared
    # by every hit, so read-only.
    etas = np.linspace(params.eta_cap, 0.0, n)
    switch = _switch_lanes(params, etas)
    for a in (etas, *switch):
        a.flags.writeable = False
    return etas, switch


def _best_candidate(params: ModelParams, units, w1: float, etas, lanes):
    # The best period-1 openness among etas (grid arrays or one float) at
    # fee w1, given _lanes there: the period-2 subgame played out, the
    # deployer staying on ties. Returns (profit, fee, eta1, won, w2, q1, q2)
    # of the first best lane, and the stay gaps. On one float every choice
    # is made on plain floats.
    q1, (q2_stay_low, _), (q2_switch, v_switch) = lanes
    q2_stay_high, v_stay_high = _stay_lanes(params, units, params.w_high, q1)

    gaps = _stay_gap(lanes)
    wins_low = gaps >= 0
    wins_high = v_stay_high >= v_switch
    if numerics.any_true(v_stay_high > v_switch + 1e-9 * numerics.larger(1.0, abs(v_switch))):
        raise RuntimeError(
            "oracle: period-2 premium-fee deviation won strictly; "
            "the k admissibility bound is wrong for these params"
        )

    select = numerics.select
    rev_low = select(wins_low, params.w_low * q2_stay_low, -np.inf)
    rev_high = select(wins_high, params.w_high * q2_stay_high, -np.inf)
    # Ties between the two winning fees go to the follower fee.
    pick_high = rev_high > rev_low
    won = wins_low | wins_high
    rev2 = select(won, select(pick_high, rev_high, rev_low), 0.0)
    w2 = select(pick_high, params.w_high, params.w_low)
    q2 = select(won, select(pick_high, q2_stay_high, q2_stay_low), q2_switch)

    profit = w1 * q1 + rev2
    eta1 = etas
    if isinstance(profit, np.ndarray):
        i = int(np.argmax(profit))
        profit, eta1, won, w2, q1, q2 = (a[i] for a in (profit, etas, won, w2, q1, q2))
    return (float(profit), w1, float(eta1), bool(won), float(w2), float(q1), float(q2)), gaps


#: Half-width of the window around the regula-falsi estimate of the
#: retention boundary, times max(1, eta_cap). _stay_gap's sign is noise
#: within about +-4e-12 of the boundary (a FOUND line of CHANGES.md), so
#: the window's ends lie well outside that band.
_WINDOW = 1e-10


def _retention_boundary(params: ModelParams, units, w1: float, etas, gaps):
    # The largest openness at which the deployer stays at the follower fee
    # (_stay_gap >= 0), bisected on [0, eta_cap], and the scalar _lanes
    # there. The gaps on the descending grid etas turn from switch to stay in
    # one cell; a regula-falsi step from the interpolated root narrows it to
    # a window, largest_true's guess. The grid's gaps can differ from the
    # scalar ones in the last bit and the estimate can miss, so largest_true
    # tests the guess's ends with the scalar gap itself and searches on past
    # an end that disagrees. The lanes at the boundary are those of the probe
    # there, almost always made already.
    probes = {}

    def gap_at(eta1):
        probes[eta1] = lanes = _lanes(params, units, w1, eta1)
        return _stay_gap(lanes)

    stays = gaps >= 0
    j = int(np.argmax(stays)) if stays.any() else len(etas) - 1
    cell = None if j == 0 else (float(etas[j]), float(etas[j - 1]))
    if j > 0 and stays[j]:
        a, b = cell
        ga, gb = float(gaps[j]), float(gaps[j - 1])
        r = a + (b - a) * ga / (ga - gb)
        gr = gap_at(r)
        r = r + (b - r) * gr / (gr - gb) if gr >= 0 else a + (r - a) * ga / (ga - gr)
        half = _WINDOW * max(1.0, params.eta_cap)
        cell = (max(a, r - half), min(b, r + half))
    edge = numerics.largest_true(lambda e: gap_at(e) >= 0, 0.0, params.eta_cap, cell)
    return edge, probes.get(edge) or _lanes(params, units, w1, edge)


def oracle_solve_game(params: ModelParams, config: OracleConfig = OracleConfig()) -> Equilibrium:
    """Numeric subgame-perfect equilibrium by grid search over strategies.

    For each fee the openness grid is played out first. Where its stay
    gaps turn from switch to stay, one grid cell brackets the retention
    boundary, and a regula-falsi step from the gaps at the cell's ends
    narrows it to a window around the boundary: largest_true tests the
    window's ends with the scalar stay gap and bisects inside it, taking
    the same steps as a bisection of [0, eta_cap] would. The bisected
    boundary is a candidate beside the grid, played out in the bisection's
    own scalar arithmetic (on plain floats, with the stay and switch
    searches of the bisection's probe there), so defend/dominate optima are
    located to bisection precision, not grid precision. Candidate order (premium fee
    first, the grid in descending openness before the boundary) implements
    the documented tie preferences. The switch lanes of the grid are reused
    from an earlier call with the same params apart from k and the same
    grid size.
    """
    require_valid(params)
    etas, switch = _k_free_grid(replace(params, k=0.0), config.eta_grid_points)
    units = _unit_efforts(params)
    best = None   # (profit, fee, eta1, won, w2, q1, q2)
    for w1 in _fees(params):
        grid, gaps = _best_candidate(params, units, w1, etas,
                                     _lanes(params, units, w1, etas, switch))
        edge, lanes = _retention_boundary(params, units, w1, etas, gaps)
        boundary, _ = _best_candidate(params, units, w1, edge, lanes)
        for cand in (grid, boundary):
            if best is None or cand[0] > best[0]:
                best = cand

    profit, w1, eta1, won, w2, q1, q2 = best
    if won:
        regime = Regime.DEFEND if w1 == params.w_high else Regime.DOMINATE
        winner = Winner.INCUMBENT
    else:
        if w1 != params.w_high:
            raise RuntimeError("oracle: losing follower-fee strategy won the argmax")
        regime = Regime.HARVEST
        winner = Winner.ENTRANT

    return Equilibrium(
        regime=regime,
        strategy=Strategy(w1=w1, eta1=eta1),
        period1=PeriodOutcome(effort=q1, engagement=q1,
                              fee_paid=w1 - params.s, openness=eta1),
        period2=PeriodOutcome(effort=q2, engagement=q2,
                              fee_paid=w2 - params.s, openness=params.eta_cap),
        winner2=winner,
        w2=w2,
        eta2=params.eta_cap,
        eta2_tilde=params.eta_cap,
        incumbent_profit=profit,
    )


def oracle_solve_integrated(params: ModelParams, config: OracleConfig = OracleConfig()) -> IntegratedOutcome:
    """Numeric outcome of the merged firm by per-period grid search.

    Stage 1 scans the openness grid for the period-1 profit maximum (margin
    theta, since fees are internal); stage 2 repeats for period 2 given the
    realized engagement. Both stages share the margin, so one unit effort,
    searched by golden section, is scaled by each grid point's cost
    denominator in both. Both scans must discover the full-openness corner
    on their own.
    """
    require_valid(params)
    c = params.c
    th = params.theta
    etas = np.linspace(0.0, params.eta_cap, config.eta_grid_points)
    u = oracle_best_effort(th, 1.0, c)

    d1 = 1.0 + etas
    q1_all = d1 * u
    v1_all = deployer_surplus(th, q1_all, c, d1)
    i1 = int(np.argmax(v1_all))
    eta1v, q1v = float(etas[i1]), float(q1_all[i1])

    d2 = stay_denominator(params.k, q1v, etas)
    q2_all = d2 * u
    v2_all = deployer_surplus(th, q2_all, c, d2)
    i2 = int(np.argmax(v2_all))
    eta2v, q2v = float(etas[i2]), float(q2_all[i2])

    profit = float(v1_all[i1] + v2_all[i2])
    consumer = consumer_surplus(q1v, q2v)
    return IntegratedOutcome(
        eta1v=eta1v, eta2v=eta2v, q1v=q1v, q2v=q2v,
        profit=profit, consumer=consumer, social=profit + consumer,
    )
