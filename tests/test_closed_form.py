"""Closed-form equilibrium: scenario revenues, thresholds, regime selection.

Numeric anchors were frozen from the brute-force grid search in
fmgame.oracle before these formulas were written down, then cross-checked
by hand where the arithmetic is short (exact rationals at set A).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmgame import (
    OracleConfig,
    Regime,
    Winner,
    compare_with_oracle,
    eta_bar_high,
    eta_bar_low,
    k_max,
    regime_thresholds,
    scenario_profits,
    solve_baseline,
)
from fmgame.closed_form import _equilibrium, _row

from conftest import SET_A, SET_B


class TestThresholdsSetA:
    def test_pairwise_crossings(self):
        th = regime_thresholds(SET_A)
        assert th.k_bar_13 == pytest.approx(0.192, abs=1e-12)
        assert th.k_bar_23 == pytest.approx(0.220444444444444, abs=1e-12)
        assert th.k_bar_12 == pytest.approx(0.237037037037037, abs=1e-12)

    def test_regime_boundaries(self):
        th = regime_thresholds(SET_A)
        assert th.k_bar_1 == pytest.approx(0.192, abs=1e-12)
        assert th.k_bar_2 == pytest.approx(0.237037037037037, abs=1e-12)
        assert th.k_bar_1 == min(th.k_bar_13, th.k_bar_23)
        assert th.k_bar_2 == max(th.k_bar_12, th.k_bar_23)

    def test_openness_pivot(self):
        # engagement level above which staying open beats clamping down
        assert regime_thresholds(SET_A).eta_prime == pytest.approx(1.8125, abs=1e-12)

    def test_crossing_identities(self):
        # each pairwise threshold equalizes its two scenario revenues:
        # defend overtakes harvest at k_bar_13, dominate overtakes harvest
        # at k_bar_23, dominate overtakes defend at k_bar_12
        th = regime_thresholds(SET_A)
        p13 = scenario_profits(replace(SET_A, k=th.k_bar_13))
        assert p13.pi_s1 == pytest.approx(p13.pi_s0, abs=1e-9)
        p23 = scenario_profits(replace(SET_A, k=th.k_bar_23))
        assert p23.pi_s2 == pytest.approx(p23.pi_s0, abs=1e-9)
        p12 = scenario_profits(replace(SET_A, k=th.k_bar_12))
        assert p12.pi_s2 == pytest.approx(p12.pi_s1, abs=1e-9)


class TestScenarioProfitsSetA:
    def test_at_k_02(self):
        prof = scenario_profits(SET_A)
        assert prof.pi_s0 == pytest.approx(7.8125, abs=1e-12)
        # 11.875 / 1.5 with D_H = 2 - 0.2 * 2.5
        assert prof.pi_s1 == pytest.approx(7.916666666666667, abs=1e-12)
        # 7.875 / 1.1 with D_L = 2 - 0.2 * 4.5
        assert prof.pi_s2 == pytest.approx(7.159090909090909, abs=1e-12)

    def test_harvest_revenue_is_k_free(self):
        vals = {scenario_profits(replace(SET_A, k=k)).pi_s0 for k in (0.0, 0.1, 0.25)}
        assert len(vals) == 1


class TestRetentionCaps:
    def test_set_a_values(self):
        assert eta_bar_high(SET_A) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert eta_bar_low(SET_A) == pytest.approx(9.0 / 11.0, abs=1e-12)

    def test_collapse_at_k_zero(self):
        p = replace(SET_A, k=0.0)
        assert eta_bar_high(p) == 0.0
        assert eta_bar_low(p) == 0.0

    def test_monotone_in_k(self):
        ks = np.linspace(0.0, k_max(SET_A), 40)
        hs = [eta_bar_high(replace(SET_A, k=float(k))) for k in ks]
        ls = [eta_bar_low(replace(SET_A, k=float(k))) for k in ks]
        assert all(b >= a for a, b in zip(hs, hs[1:]))
        assert all(b >= a for a, b in zip(ls, ls[1:]))
        # the discounted fee buys a laxer retention constraint
        assert all(l >= h for h, l in zip(hs, ls))


class TestEquilibriumSetA:
    def test_harvest_point(self):
        eq = solve_baseline(replace(SET_A, k=0.1))
        assert eq.regime is Regime.HARVEST
        assert eq.w1 == 2.5
        assert eq.eta1 == 1.5
        assert eq.q1 == pytest.approx(3.125, abs=1e-12)
        assert eq.q2 == pytest.approx(14.0625, abs=1e-12)
        assert eq.winner2 is Winner.ENTRANT
        assert eq.incumbent_profit == pytest.approx(7.8125, abs=1e-12)

    def test_defend_point(self):
        eq = solve_baseline(SET_A)
        assert eq.regime is Regime.DEFEND
        assert eq.w1 == 2.5
        assert eq.eta1 == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert eq.q1 == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert eq.q2 == pytest.approx(7.5, abs=1e-12)
        assert eq.winner2 is Winner.INCUMBENT
        assert eq.w2 == 0.5
        assert eq.incumbent_profit == pytest.approx(7.916666666666667, abs=1e-12)

    def test_dominate_point(self):
        eq = solve_baseline(replace(SET_A, k=0.25))
        assert eq.regime is Regime.DOMINATE
        assert eq.w1 == 0.5
        assert eq.eta1 == pytest.approx(9.0 / 7.0, abs=1e-12)
        assert eq.q1 == pytest.approx(36.0 / 7.0, abs=1e-12)
        assert eq.q2 == pytest.approx(90.0 / 7.0, abs=1e-12)
        assert eq.incumbent_profit == pytest.approx(9.0, abs=1e-12)

    def test_profit_is_scenario_max(self):
        for k in (0.0, 0.1, 0.2, 0.23, 0.25, 4.0 / 15.0):
            p = replace(SET_A, k=k)
            eq = solve_baseline(p)
            prof = scenario_profits(p)
            assert eq.incumbent_profit == pytest.approx(
                max(prof.pi_s0, prof.pi_s1, prof.pi_s2), abs=1e-12)

    def test_ties_go_to_the_lower_k_regime(self):
        th = regime_thresholds(SET_A)
        assert solve_baseline(replace(SET_A, k=th.k_bar_1)).regime is Regime.HARVEST
        assert solve_baseline(replace(SET_A, k=th.k_bar_2)).regime is Regime.DEFEND

    def test_k_max_boundary_accepted(self):
        eq = solve_baseline(replace(SET_A, k=k_max(SET_A)))
        assert eq.regime is Regime.DOMINATE


def test_q1_responds_to_fee_and_openness():
    # The harvest row plays the premium fee at full openness, so its q1 is
    # the deployer's best response to (w_high, eta_cap).
    p = replace(SET_A, eta_cap=1.0)
    base = _row(p, Regime.HARVEST).q1
    assert _row(replace(p, w_high=0.5), Regime.HARVEST).q1 > base
    assert _row(replace(p, eta_cap=1.4), Regime.HARVEST).q1 > base
    assert base == pytest.approx(2.0 * 2.5 / 2.0, abs=1e-12)


@pytest.mark.parametrize("params", [SET_A, SET_B], ids=["set_a", "set_b"])
@pytest.mark.parametrize("regime", list(Regime), ids=lambda r: r.value)
def test_equilibrium_lays_out_the_row_by_name(params, regime):
    # _equilibrium hands _Row's fields to Equilibrium by position: each one
    # must land on the field of its own name, as the very same object.
    row = _row(params, regime)
    eq = _equilibrium(params, regime, row)
    assert eq.regime is regime
    for name in ("w1", "eta1", "q1", "q2", "dev2", "deployer", "consumer"):
        assert getattr(eq, name) is getattr(row, name), name
    assert eq.winner2 is row.winner
    assert eq.incumbent_profit is row.revenue
    assert eq.w2 is params.w_low
    assert eq.eta2 is params.eta_cap
    assert eq.eta2_tilde is params.eta_cap
    assert eq.subsidy_spend.hex() == (params.s * (row.q1 + row.q2)).hex()


def test_equal_fees_defend_at_k_zero():
    # No premium to harvest: holding the deployer is free, so the defend
    # profile (two sales at the only fee) wins already at k = 0.
    p = replace(SET_A, w_low=2.5, k=0.0)
    th = regime_thresholds(p)
    assert th.k_bar_12 == np.inf
    eq = solve_baseline(p)
    assert eq.regime is Regime.DEFEND
    assert eq.eta1 == 0.0
    assert eq.winner2 is Winner.INCUMBENT
    # The oracle must give the same indifference tie to the incumbent.
    assert compare_with_oracle(p, OracleConfig()) is None


def _random_params(rng):
    theta = rng.uniform(2.0, 10.0)
    c = rng.uniform(0.3, 3.0)
    w_high = rng.uniform(0.15, 0.5) * theta
    w_high = min(w_high, theta / 2.0)
    w_low = rng.uniform(0.1, 0.95) * w_high
    eta_cap = rng.uniform(0.3, 3.0)
    p = replace(SET_A, theta=theta, c=c, w_high=w_high, w_low=w_low,
                eta_cap=eta_cap, k=0.0)
    return replace(p, k=rng.uniform(0.0, k_max(p)))


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_regime_agrees_with_revenue_ranking(seed):
    rng = np.random.default_rng(seed)
    p = _random_params(rng)
    eq = solve_baseline(p)
    prof = scenario_profits(p)
    ranked = [(prof.pi_s0, Regime.HARVEST), (prof.pi_s1, Regime.DEFEND),
              (prof.pi_s2, Regime.DOMINATE)]
    best = max(v for v, _ in ranked)
    # earlier regime wins ties, mirroring the threshold rule
    expect = next(r for v, r in ranked if v >= best)
    assert eq.regime is expect
    assert eq.incumbent_profit == pytest.approx(best, rel=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_regime_changes_at_most_twice(seed):
    rng = np.random.default_rng(seed)
    p = _random_params(rng)
    regimes = [solve_baseline(replace(p, k=float(k))).regime
               for k in np.linspace(0.0, k_max(p), 60)]
    changes = sum(a is not b for a, b in zip(regimes, regimes[1:]))
    assert changes <= 2
    # and never out of order: harvest before defend before dominate
    order = {Regime.HARVEST: 0, Regime.DEFEND: 1, Regime.DOMINATE: 2}
    assert all(order[a] <= order[b] for a, b in zip(regimes, regimes[1:]))
