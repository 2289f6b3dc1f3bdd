"""Vertical integration and usage-subsidy counterfactuals."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fmgame import (
    InvalidParams,
    Regime,
    eta_bar_high,
    integration_comparison,
    integration_thresholds,
    k_max,
    regime_thresholds,
    solve_baseline,
    solve_integrated,
    solve_subsidized,
    subsidy_comparison,
    welfare_for_equilibrium,
)
from fmgame.verify import random_valid_params

from conftest import (
    INTEGRATION_SCAN_OVERSHOOT,
    SET_A,
    SET_B,
    SUBSIDY_DEFEND_TO_DOMINATE,
    SUBSIDY_HARVEST_TO_DEFEND,
    SUBSIDY_HARVEST_TO_DOMINATE,
)


class TestIntegratedOutcome:
    def test_set_a_point(self):
        v = solve_integrated(SET_A)
        assert v.q1v == 6.25          # (1 + 1.5) * 5 / 2, exact in binary
        assert v.q2v == pytest.approx(14.0625, abs=1e-12)
        assert v.profit == pytest.approx(50.78125, abs=1e-12)
        assert v.consumer == pytest.approx(118.408203125, abs=1e-12)
        assert v.social == pytest.approx(169.189453125, abs=1e-12)
        assert v.eta1v == v.eta2v == 1.5

    def test_subsidy_is_internalized_away(self):
        assert solve_integrated(SET_B) == solve_integrated(replace(SET_B, s=0.0))

    def test_period1_effort_never_below_decentralized(self):
        for k in np.linspace(0.0, k_max(SET_A), 25):
            p = replace(SET_A, k=float(k))
            v = solve_integrated(p)
            eq = solve_baseline(p)
            assert v.q1v > eq.q1 - 1e-12
            assert v.q2v >= v.q1v - 1e-12

    def test_flywheel_off_equalizes_periods(self):
        v = solve_integrated(replace(SET_A, k=0.0))
        assert v.q1v == v.q2v


class TestIntegrationThresholds:
    def test_chain_threshold(self):
        th = integration_thresholds(SET_A)
        # merged profit is linear in k while the harvest chain is flat:
        # 31.25 + 97.65625 k = 43.359375 at exactly k = 0.124
        assert th.chain.status == "crossing"
        assert th.chain.value == pytest.approx(0.124, abs=1e-9)

    def test_consumer_threshold(self):
        th = integration_thresholds(SET_A)
        # 19.53125 (1 + y^2) = 103.759765625 with y = 1 + 6.25 k
        expect = (math.sqrt(4.3125) - 1.0) / 6.25
        assert th.consumer.value == pytest.approx(expect, abs=1e-9)

    def test_social_threshold(self):
        th = integration_thresholds(SET_A)
        # 19.53125 y^2 + 15.625 y + 35.15625 = 154.150390625, same y
        y = (-15.625 + math.sqrt(15.625 ** 2 + 4 * 19.53125 * 118.994140625)) \
            / (2 * 19.53125)
        assert th.social.value == pytest.approx((y - 1.0) / 6.25, abs=1e-9)

    def test_ordering(self):
        th = integration_thresholds(SET_A)
        assert th.chain.value < th.social.value
        assert th.consumer.value < th.social.value

    def test_plays_the_unsubsidized_twin(self):
        assert integration_thresholds(SET_B) == integration_thresholds(replace(SET_B, s=0.0))

    def test_scan_stays_inside_k_max(self):
        # The scan's last point must be k_max itself, not a rounding past it.
        th = integration_thresholds(INTEGRATION_SCAN_OVERSHOOT)
        assert (th.chain.status, th.consumer.status, th.social.status) == ("always",) * 3
        assert integration_comparison(INTEGRATION_SCAN_OVERSHOOT).region == "win_win"


class TestIntegrationComparison:
    @pytest.mark.parametrize(
        "k, region, chain_sign, consumer_sign",
        [(0.10, "lose_lose", -1, -1),
         (0.15, "mixed", 1, -1),
         (0.20, "win_win", 1, 1)],
    )
    def test_regions_match_signs(self, k, region, chain_sign, consumer_sign):
        cmp = integration_comparison(replace(SET_A, k=k))
        assert cmp.region == region
        base = cmp.baseline
        chain_delta = cmp.counterfactual.dev1 - (base.dev1 + base.deployer)
        assert math.copysign(1, chain_delta) == chain_sign
        assert math.copysign(1, cmp.delta.consumer) == consumer_sign

    def test_entrant_is_foreclosed(self):
        cmp = integration_comparison(replace(SET_A, k=0.1))
        assert cmp.counterfactual.dev2 == 0.0
        assert cmp.counterfactual.deployer == 0.0   # folded into the merged firm

    def test_subsidized_point_compared_at_s_zero(self):
        cmp = integration_comparison(SET_B)
        p0 = replace(SET_B, s=0.0)
        base0 = welfare_for_equilibrium(p0, solve_baseline(p0))
        assert cmp.baseline.social == pytest.approx(base0.social, rel=1e-12)


def _gains_at(p, k):
    # Whether the chain and the consumers gain at k by the signs of their
    # differences; the comparison's region must say the same.
    cmp = integration_comparison(replace(p, k=k))
    base = cmp.baseline
    chain = cmp.counterfactual.dev1 - (base.dev1 + base.deployer) > 0.0
    consumer = cmp.delta.consumer > 0.0
    assert cmp.region == ("lose_lose", "mixed", "win_win")[chain + consumer]
    return chain, consumer


def _route_points():
    rng = np.random.default_rng(20261018)
    return [SET_A, INTEGRATION_SCAN_OVERSHOOT] + [random_valid_params(rng) for _ in range(20)]


@pytest.mark.parametrize("params", _route_points())
def test_region_agrees_with_the_threshold_scan(params):
    # The signs of the differences at k flip at each crossing that
    # integration_thresholds locates and keep the side its status names
    # without one, and the comparison's region agrees with them throughout.
    th = integration_thresholds(params)
    km = k_max(params)
    for i, crossing in enumerate((th.chain, th.consumer)):
        if crossing.status == "crossing":
            h = 1e-6 * km
            lo, hi = max(0.0, crossing.value - h), min(km, crossing.value + h)
            assert _gains_at(params, lo)[i] != _gains_at(params, hi)[i]
        else:
            sides = {_gains_at(params, float(k))[i] for k in np.linspace(0.0, km, 5)}
            assert sides == {crossing.status == "always"}


class TestSubsidizedEquilibrium:
    def test_reduces_to_baseline_at_s_zero(self):
        p = replace(SET_B, s=0.0)
        sub = solve_subsidized(p)
        base = solve_baseline(p)
        assert sub.regime is base.regime
        assert (sub.w1, sub.eta1) == (base.w1, base.eta1)
        assert sub.incumbent_profit == base.incumbent_profit
        assert sub.subsidy_spend == 0.0

    def test_set_b_point(self):
        eq = solve_subsidized(SET_B)
        assert eq.regime is Regime.DOMINATE
        # subsidized margin 4.7 at the discounted fee, D = 2 - 0.2 * 4.7
        assert eq.eta1 == pytest.approx(0.94 / 1.06, abs=1e-12)
        assert eq.q1 == pytest.approx(4.7 / 1.06, abs=1e-12)
        assert eq.w1 - SET_B.s == pytest.approx(0.3, abs=1e-12)   # fee paid, 0.8 - 0.5
        assert eq.subsidy_spend == pytest.approx(7.759433962264151, abs=1e-9)

    def test_spend_tracks_engagement(self):
        eq = solve_subsidized(SET_B)
        total = eq.q1 + eq.q2
        assert eq.subsidy_spend == pytest.approx(SET_B.s * total, rel=1e-12)

    def test_shifted_thresholds(self):
        th = regime_thresholds(SET_B)
        th0 = regime_thresholds(replace(SET_B, s=0.0))
        assert th.k_bar_1 == pytest.approx(0.065777777777778, abs=1e-9)
        assert th.k_bar_2 == pytest.approx(44.0 / 235.0, abs=1e-9)
        assert th.k_bar_1 > th0.k_bar_1
        assert th.k_bar_2 > th0.k_bar_2

    def test_subsidized_retention_cap(self):
        assert eta_bar_high(SET_B) == pytest.approx(3.0 / 7.0, abs=1e-12)

    def test_limit_continuity(self):
        tiny = replace(SET_B, s=1e-8)
        sub = solve_subsidized(tiny)
        p0 = replace(SET_B, s=0.0)
        base = solve_baseline(p0)
        assert sub.regime is base.regime
        assert sub.eta1 == pytest.approx(base.eta1, abs=1e-6)
        assert sub.incumbent_profit == pytest.approx(base.incumbent_profit, abs=1e-6)
        ws = welfare_for_equilibrium(tiny, sub)
        wb = welfare_for_equilibrium(p0, base)
        assert ws.social == pytest.approx(wb.social, abs=1e-6)


class TestSubsidyComparison:
    def test_region_labels(self):
        H, D, X = Regime.HARVEST, Regime.DEFEND, Regime.DOMINATE
        for params, base_regime, sub_regime, region in (
            (replace(SET_B, k=0.03), H, H, "harvest_both"),
            (replace(SET_B, k=0.058), D, H, "subsidy_all_win"),
            (replace(SET_B, k=0.1836), X, D, "subsidy_capture"),
            (SET_B, X, X, "other"),
            (SUBSIDY_HARVEST_TO_DEFEND, H, D, "subsidy_defends"),
            (SUBSIDY_HARVEST_TO_DOMINATE, H, X, "subsidy_dominates"),
            (SUBSIDY_DEFEND_TO_DOMINATE, D, X, "subsidy_dominates"),
        ):
            cmp = subsidy_comparison(params)
            assert cmp.baseline_equilibrium.regime is base_regime, region
            assert solve_subsidized(params).regime is sub_regime, region
            assert cmp.region == region

    def test_all_win_interval(self):
        cmp = subsidy_comparison(replace(SET_B, k=0.058))
        for name in ("dev1", "dev2", "deployer", "consumer"):
            assert getattr(cmp.delta, name) > 1e-9, name

    def test_capture_interval(self):
        p = replace(SET_B, k=0.1836)
        cmp = subsidy_comparison(p)
        base = solve_baseline(replace(p, s=0.0))
        sub = solve_subsidized(p)
        assert sub.q1 < base.q1 - 1e-9
        assert sub.q2 < base.q2 - 1e-9
        assert cmp.delta.social < -1e-9

    def test_net_accounting(self):
        cmp = subsidy_comparison(SET_B)
        assert cmp.subsidy_spend > 0
        assert cmp.sw_net_of_spend == pytest.approx(
            cmp.counterfactual.social - cmp.subsidy_spend, rel=1e-12)

    def test_requires_positive_subsidy(self):
        with pytest.raises(InvalidParams):
            subsidy_comparison(replace(SET_B, s=0.0))
