"""Brute-force oracle: solves the game numerically, knowing no closed forms.

This module is the independent referee for every formula in the package.
It imports only the primitives (parameters and, from ``params``, the
deployer's surplus, the stay and switch cost denominators, consumer
surplus and the welfare entries built from them; outcome containers;
generic numerics) and replays the game mechanics directly:

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
effort u, whatever D is. This is exact algebra on the model's own cost
term, and u still comes from a golden-section search of the surplus on
[0, m / c], not from a first-order condition. The period-1 margin at fee
w1, the stay margin at fee w2 and the switch margin are all theta + s - w
(the switch at w = w_low), so ``oracle_solve_game`` searches u once per
parameter set, in one call of the vectorized ``numerics.golden_max`` with a
lane per fee, whose fixed step count ends on any bracket. Every grid lane
scales it: the period-1 efforts (1 + eta1) u, the stay lanes and the
switch lanes. So does the period-1 effort at every scalar candidate, and
both stages of the integrated firm scale their own unit effort at margin
theta.

What does not read k is cached for the two latest (params without k, grid
size) keys: the grid, the unit efforts, each fee's period-1 lanes, the
switch lanes and the premium-fee guard over them. So a sweep over k, as in
``fmgame verify``, searches u once per parameter set and grid size, and
keeps nothing else from one call to the next. At k = 0 and eta1 = 0 the
stay and switch denominators are both 1 + eta_cap, so there the grid's
stay and switch lanes tie exactly and the deployer stays. The arrays a
warm call plays the grid with are new heap each time, and each is deleted
once read: the C allocator grows the heap for them and gives it back to the
system after the call, so the fewer are alive at once, the fewer pages each
call faults in again.

One search keeps Q as its variable: the scalar stay and switch searches of
the retention bisection and the played boundary, by
``numerics.golden_max_scalar``. They are compared with each other, and at
k = 0 and eta1 = 0 their denominators are equal and they must tie exactly,
so both search Q on the same bracket.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from . import numerics
from .outcomes import Equilibrium, IntegratedOutcome
from .params import (ModelParams, Regime, Winner, _rebuilt_components, consumer_surplus,
                     deployer_surplus, require_valid, stay_denominator, switch_denominator)


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
    # period-1 margin at fee w1, the stay margin at fee w2 and (at w_low)
    # the switch margin share: one golden_max lane per fee, whose fixed step
    # count ends on any bracket.
    fees = _fees(params)
    units = oracle_best_effort(params.theta + params.s - np.array(fees), 1.0, params.c)
    return dict(zip(fees, units.tolist()))


def _effort_lanes(units, w1: float, etas):
    # The period-1 effort at fee w1 and each openness in etas (an array or
    # one float): the unit effort at w1 scaled by 1 + eta1.
    return (1.0 + etas) * units[w1]


def _period2_lanes(params: ModelParams, units, w: float, d):
    # The deployer's period-2 effort and surplus at fee w's margin
    # theta + s - w and cost denominators d. On an array of d, the unit
    # effort at w is scaled by each lane's d (see the module docstring); on
    # one float, Q itself is searched.
    m = params.theta + params.s - w
    if not isinstance(d, np.ndarray):
        return _surplus_at_best(m, d, params.c)
    q = d * units[w]
    return q, deployer_surplus(m, q, params.c, d)


def _switch_lanes(params: ModelParams, units, etas):
    # The deployer's period-2 effort and surplus from switching at each
    # openness in etas; reads neither params.k nor the period-1 fee.
    return _period2_lanes(params, units, params.w_low,
                          switch_denominator(etas, params.eta_cap))


def _lanes(params: ModelParams, units, q1, switch):
    # From period-1 efforts q1 (grid arrays or one float) and the switch
    # lanes at the same openness: q1, the stay cost denominator, and the
    # deployer's period-2 effort and surplus from staying (incumbent at the
    # follower fee) and from switching.
    d = stay_denominator(params.k, q1, params.eta_cap)
    return q1, d, _period2_lanes(params, units, params.w_low, d), switch


def _lanes_at(params: ModelParams, units, w1: float, eta1: float):
    # _lanes at fee w1 and one openness eta1, on plain floats.
    return _lanes(params, units, _effort_lanes(units, w1, eta1),
                  _switch_lanes(params, units, eta1))


def _stay_gap(lanes):
    # The deployer's period-2 surplus advantage of staying at the follower
    # fee over switching, from _lanes: it stays where this is >= 0.
    return lanes[2][1] - lanes[3][1]


def _premium_guard(v_switch):
    # The switch surplus that a premium-fee stay may not strictly beat,
    # past rounding.
    return v_switch + 1e-9 * numerics.larger(1.0, abs(v_switch))


@functools.lru_cache(maxsize=2)
def _k_free_grid(params: ModelParams, n: int):
    # The k-free work on the n-point grid from eta_cap down to 0, for params
    # with k = 0: the grid, the unit efforts by fee, each fee's period-1
    # lanes, the switch lanes and the premium guard over them. Two entries
    # hold the coarse and the fine grid of verify's refinement check. Every
    # hit shares them, so the arrays and both mappings by fee are read-only.
    etas = np.linspace(params.eta_cap, 0.0, n)
    units = _unit_efforts(params)
    q1 = {w: _effort_lanes(units, w, etas) for w in units}
    switch = _switch_lanes(params, units, etas)
    guard = _premium_guard(switch[1])
    for a in (etas, *q1.values(), *switch, guard):
        a.flags.writeable = False
    return etas, MappingProxyType(units), MappingProxyType(q1), switch, guard


def _best_candidate(params: ModelParams, units, w1: float, etas, lanes, guard=None):
    # The best period-1 openness among etas (grid arrays or one float) at
    # fee w1, given _lanes there: the period-2 subgame played out, the
    # deployer staying on ties. guard, where given, is _premium_guard of the
    # switch lanes. Returns (profit, fee, eta1, won, w2, q1, q2) of the first
    # best lane, and the stay gaps. On one float every choice is made on
    # plain floats.
    q1, d, (q2_stay_low, v_stay_low), (q2_switch, v_switch) = lanes
    # Each grid array is deleted once read (see the module docstring).
    del lanes
    gaps = v_stay_low - v_switch
    del v_stay_low
    q2_stay_high, v_stay_high = _period2_lanes(params, units, params.w_high, d)
    del d
    if numerics.any_true(v_stay_high > (_premium_guard(v_switch) if guard is None else guard)):
        raise RuntimeError(
            "oracle: period-2 premium-fee deviation won strictly; "
            "the k admissibility bound is wrong for these params"
        )
    wins_low = gaps >= 0
    wins_high = v_stay_high >= v_switch
    del v_stay_high

    select = numerics.select
    rev_low = select(wins_low, params.w_low * q2_stay_low, -np.inf)
    rev_high = select(wins_high, params.w_high * q2_stay_high, -np.inf)
    # Ties between the two winning fees go to the follower fee.
    pick_high = rev_high > rev_low
    won = wins_low | wins_high
    rev2 = select(won, select(pick_high, rev_high, rev_low), 0.0)
    del rev_low, rev_high
    profit = w1 * q1 + rev2
    eta1 = etas
    if isinstance(profit, np.ndarray):
        i = int(np.argmax(profit))
        profit, eta1, won, pick_high, q1, q2_stay_high, q2_stay_low, q2_switch = (
            a[i] for a in (profit, etas, won, pick_high, q1, q2_stay_high, q2_stay_low,
                           q2_switch))
    w2, q2_stay = (params.w_high, q2_stay_high) if pick_high else (params.w_low, q2_stay_low)
    q2 = q2_stay if won else q2_switch
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
        probes[eta1] = lanes = _lanes_at(params, units, w1, eta1)
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
    return edge, probes.get(edge) or _lanes_at(params, units, w1, edge)


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
    the documented tie preferences. The grid's k-free work (the unit
    efforts, each fee's period-1 lanes, the switch lanes and the premium-fee
    guard) is reused from an earlier call with the same params apart from k
    and the same grid size. The play found gives the welfare entries and the
    outlay.
    """
    require_valid(params)
    etas, units, q1, switch, guard = _k_free_grid(replace(params, k=0.0),
                                                  config.eta_grid_points)
    best = None   # (profit, fee, eta1, won, w2, q1, q2)
    for w1 in _fees(params):
        grid, gaps = _best_candidate(params, units, w1, etas,
                                     _lanes(params, units, q1[w1], switch), guard)
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

    _, dev2, deployer, consumer = _rebuilt_components(params, w1, eta1, q1, w2, q2, won,
                                                      params.eta_cap, params.eta_cap)
    return Equilibrium(
        regime=regime,
        w1=w1,
        eta1=eta1,
        q1=q1,
        q2=q2,
        winner2=winner,
        incumbent_profit=profit,
        dev2=dev2,
        deployer=deployer,
        consumer=consumer,
        w2=w2,
        eta2=params.eta_cap,
        eta2_tilde=params.eta_cap,
        subsidy_spend=params.s * (q1 + q2),
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
