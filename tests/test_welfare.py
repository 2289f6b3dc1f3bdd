"""Welfare accounting and the full-openness mandate counterfactual.

Anchors below were frozen from effort-level rebuilds (revenue = fee x
engagement, deployer surplus and user utility from the quadratic payoffs)
before the table expressions were trusted; welfare_for_equilibrium refuses
to return if the two routes disagree, so these tests double as a check
that the guard stays quiet on honest inputs.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmgame import (
    ModelParams,
    Regime,
    k_max,
    mandate_comparison,
    mandate_equilibrium,
    openness_trap_threshold,
    random_valid_params,
    regime_thresholds,
    solve_baseline,
    welfare_for_equilibrium,
)
from fmgame.welfare import WelfareBreakdown

from conftest import HARVEST_TO_DOMINATE, MANDATE_SCAN_OVERSHOOT, SET_A, SET_B
from test_closed_form import _random_params


class TestBreakdownSetA:
    def test_defend_point(self):
        w = welfare_for_equilibrium(SET_A, solve_baseline(SET_A))
        assert w.dev1 == pytest.approx(7.916666666666667, abs=1e-9)
        assert w.dev2 == 0.0
        assert w.deployer == pytest.approx(18.958333333333333, abs=1e-9)
        assert w.consumer == pytest.approx(29.513888888888889, abs=1e-9)
        assert w.social == pytest.approx(56.388888888888889, abs=1e-9)

    def test_harvest_point(self):
        p = replace(SET_A, k=0.1)
        w = welfare_for_equilibrium(p, solve_baseline(p))
        assert w.dev1 == pytest.approx(7.8125, abs=1e-9)
        assert w.dev2 == pytest.approx(7.03125, abs=1e-9)
        assert w.deployer == pytest.approx(35.546875, abs=1e-9)
        assert w.consumer == pytest.approx(103.759765625, abs=1e-9)
        assert w.social == pytest.approx(154.150390625, abs=1e-9)

    def test_dominate_point(self):
        p = replace(SET_A, k=0.25)
        w = welfare_for_equilibrium(p, solve_baseline(p))
        assert w.dev1 == pytest.approx(9.0, abs=1e-9)
        assert w.dev2 == 0.0
        assert w.deployer == pytest.approx(40.5, abs=1e-9)
        assert w.consumer == pytest.approx(9396.0 / 98.0, abs=1e-9)

    def test_consumer_matches_engagement(self):
        eq = solve_baseline(SET_A)
        w = welfare_for_equilibrium(SET_A, eq)
        a1, a2 = eq.q1, eq.q2
        assert w.consumer == pytest.approx((a1 * a1 + a2 * a2) / 2.0, rel=1e-12)

    def test_social_is_exact_sum(self):
        p = replace(SET_A, k=0.11)
        w = welfare_for_equilibrium(p, solve_baseline(p))
        assert w.social == w.dev1 + w.dev2 + w.deployer + w.consumer

    def test_delta(self):
        a = WelfareBreakdown.from_components(1.0, 2.0, 3.0, 4.0)
        b = WelfareBreakdown.from_components(2.0, 1.0, 5.0, 4.0)
        d = b.delta(a)
        assert (d.dev1, d.dev2, d.deployer, d.consumer) == (1.0, -1.0, 2.0, 0.0)
        assert d.social == pytest.approx(2.0)


@given(st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_table_matches_rebuild_everywhere(seed):
    # welfare_for_equilibrium raises if table and rebuild drift past 1e-6
    rng = np.random.default_rng(seed)
    p = _random_params(rng)
    w = welfare_for_equilibrium(p, solve_baseline(p))
    assert w.social > 0


class TestMandate:
    def test_row_is_harvest_at_any_k(self):
        for k in (0.0, 0.1, 0.2, 0.25):
            p = replace(SET_A, k=k)
            eq = mandate_equilibrium(p)
            assert eq.regime is Regime.HARVEST
            assert eq.eta1 == p.eta_cap
            w = welfare_for_equilibrium(p, eq)
            assert w.social == pytest.approx(154.150390625, abs=1e-9)

    def test_slack_when_openness_already_full(self):
        cmp = mandate_comparison(replace(SET_A, k=0.1))
        assert cmp.region == "mandate_slack"
        assert cmp.delta.social == 0.0

    def test_binding_raises_welfare_below_trap(self):
        cmp = mandate_comparison(replace(SET_A, k=0.2))
        assert cmp.region == "mandate_binding"
        assert cmp.delta.social > 0

    def test_binding_just_above_dominate_switch(self):
        # forcing openness up can help well into the dominate region;
        # harm only starts past the trap threshold
        cmp = mandate_comparison(replace(SET_A, k=0.25))
        assert cmp.region == "mandate_binding"
        assert cmp.delta.social == pytest.approx(154.150390625 - 145.377551020408,
                                                 abs=1e-6)

    def test_trap_region(self):
        cmp = mandate_comparison(replace(SET_A, k=0.26))
        assert cmp.region == "trap"
        assert cmp.delta.social < 0
        assert cmp.delta.deployer < 0
        assert cmp.delta.consumer < 0

    def test_trap_where_harvest_gives_way_to_dominate(self):
        # No defend range (k_bar_1 == k_bar_2): the mandate lowers welfare on
        # the whole binding range, so the trap scan finds no sign change.
        p = HARVEST_TO_DOMINATE
        cmp = mandate_comparison(p)
        assert cmp.baseline_equilibrium.regime is Regime.DOMINATE
        assert cmp.region == "trap"
        assert cmp.delta.social == pytest.approx(-7.6327084111, abs=1e-9)
        assert openness_trap_threshold(p) is None

    @pytest.mark.parametrize("source", ["set_a", "random"])
    def test_region_matches_scan_reference(self, source):
        if source == "set_a":
            # the k values of the benchmark's closed-form policy ops
            points = [replace(SET_A, k=round(0.2666666666 * (j + 0.5) / 32, 10))
                      for j in range(32)]
        else:
            rng = np.random.default_rng(20240811)
            points = [random_valid_params(rng) for _ in range(40)]
        # Reference: slack up to k_bar_1, then trap past the scanned root.
        for p in points:
            region = mandate_comparison(p).region
            if p.k <= regime_thresholds(p).k_bar_1:
                assert region == "mandate_slack", p
                continue
            root = openness_trap_threshold(p)
            expect = "trap" if root is not None and p.k > root else "mandate_binding"
            assert region == expect or (root is not None and abs(p.k - root) < 1e-9), p


class TestTrapThreshold:
    def test_location(self):
        kb = openness_trap_threshold(SET_A)
        # independent route: in the dominate region social welfare is
        # A/D + B/D^2 with D = 2c - k m_L; equate to the mandate level and
        # solve the quadratic in 1/D
        swm = 154.150390625
        a, b = 73.40625, 43.3125
        x = (-b + np.sqrt(b * b + 4.0 * a * swm)) / (2.0 * a)
        expect = (2.0 - 1.0 / x) / 4.5
        assert kb == pytest.approx(expect, abs=1e-9)

    def test_welfare_gap_closes_at_root(self):
        kb = openness_trap_threshold(SET_A)
        p = replace(SET_A, k=kb)
        assert welfare_for_equilibrium(p, solve_baseline(p)).social == pytest.approx(
            welfare_for_equilibrium(p, mandate_equilibrium(p)).social, abs=1e-8)

    def test_root_sits_between_k_bar_1_and_k_max(self):
        kb = openness_trap_threshold(SET_A)
        assert regime_thresholds(SET_A).k_bar_1 < kb <= k_max(SET_A)

    def test_scan_stays_inside_k_max(self):
        # The scan's last point must be k_max itself, not a rounding past it.
        assert openness_trap_threshold(MANDATE_SCAN_OVERSHOOT) is None
        cmp = mandate_comparison(MANDATE_SCAN_OVERSHOOT)
        assert cmp.region == "mandate_binding"
        assert cmp.delta.social > 0

    @pytest.mark.parametrize("p, root", [
        # k_bar_1 < 0 and k_max = 2.5e-15: the binding range is [0, k_max].
        (ModelParams(theta=1000.0, c=1e-6, w_high=500.0, w_low=200.0, eta_cap=1e-6, k=0.0),
         None),
        # The binding range (1.39e-12, 2.22e-12].
        (ModelParams(theta=1e6, c=1e-6, w_high=4e5, w_low=1e5, eta_cap=1000.0, k=0.0),
         2.219188997021678e-12),
    ], ids=["whole_range", "above_k_bar_1"])
    def test_a_range_narrower_than_the_opening_offset_is_scanned(self, p, root):
        # 1e-12 * max(1, k_max), the offset that opens the binding range on the
        # left, is wider than the range; the scan must still stay inside it.
        found = openness_trap_threshold(p)
        if root is None:
            assert found is None
        else:
            assert regime_thresholds(p).k_bar_1 < found <= k_max(p)
            assert found == pytest.approx(root, rel=1e-9)

    def test_absent_when_cap_is_low(self):
        # with a modest cap the dominate region lies beyond k_max and the
        # mandate never destroys welfare
        p = replace(SET_A, eta_cap=0.8, k=0.0)
        assert openness_trap_threshold(p) is None
        cmp = mandate_comparison(replace(p, k=0.15))
        assert cmp.delta.social >= 0


@pytest.mark.parametrize("analysis", [openness_trap_threshold, mandate_comparison])
def test_a_mandate_analysis_plays_the_unsubsidized_twin(analysis):
    assert analysis(SET_B) == analysis(replace(SET_B, s=0.0))
