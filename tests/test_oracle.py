"""Numeric utilities and the brute-force oracle.

The oracle must stay formula-blind: it imports parameter and outcome types
plus the generic numerics, nothing from the closed-form modules. The final
test here enforces that import discipline so a refactor cannot quietly
make the cross-check circular.
"""

import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fmgame import (
    OracleConfig,
    Regime,
    k_max,
    oracle_solve_game,
    oracle_solve_integrated,
    solve_baseline,
    solve_integrated,
    solve_subsidized,
)
from fmgame import numerics
from fmgame.numerics import (
    bisect_root,
    golden_max,
    golden_max_scalar,
    largest_true,
    sign_change_brackets,
)
from fmgame.oracle import (
    _effort_lanes,
    _fees,
    _k_free_grid,
    _lanes,
    _retention_boundary,
    _stay_gap,
    _stay_lanes,
    _surplus_at_best,
    _unit_efforts,
    oracle_best_effort,
)
from fmgame.params import deployer_surplus, stay_denominator
from fmgame.verify import compare_with_oracle, random_valid_params
from fmgame.welfare import ThresholdCrossing, _k_grid, _last_crossing

from conftest import HARVEST_TO_DOMINATE, SET_A, SET_B, child_env


class TestGoldenSection:
    def test_scalar_parabola(self):
        f = lambda x: -(x - 1.7) ** 2 + 3.0
        assert golden_max_scalar(f, 0.0, 5.0) == pytest.approx(1.7, abs=1e-9)

    def test_scalar_skewed_bracket(self):
        f = lambda x: 4.0 * x - x * x
        assert golden_max_scalar(f, 0.0, 100.0) == pytest.approx(2.0, abs=1e-8)

    def test_vectorized_matches_scalar(self):
        centers = np.array([0.3, 1.2, 2.9])
        f = lambda x: -(x - centers) ** 2
        xs = golden_max(f, np.zeros(3), np.full(3, 4.0))
        assert np.allclose(xs, centers, atol=1e-9)

    def test_degenerate_lane(self):
        f = lambda x: -(x - 1.0) ** 2
        xs = golden_max(f, np.array([0.0, 0.0]), np.array([3.0, 0.0]))
        assert xs[0] == pytest.approx(1.0, abs=1e-9)
        assert xs[1] == 0.0

    def test_scalar_makes_one_new_probe_per_step(self):
        # Each step keeps the surviving probe and its value, so f is called
        # once per step, plus twice for the first probes and four times for
        # the polish.
        calls = []

        def f(x):
            calls.append(x)
            return -(x - 3.3) ** 2

        steps = int(np.ceil(np.log(numerics._GOLDEN_TOL / 10.0) / np.log(numerics._INVPHI_F)))
        assert golden_max_scalar(f, 0.0, 10.0) == pytest.approx(3.3, abs=1e-9)
        assert len(calls) <= steps + 6


class TestRootFinding:
    def test_bisect_linear(self):
        assert bisect_root(lambda x: x - 0.3, 0.0, 1.0) == pytest.approx(0.3, abs=1e-12)

    def test_bisect_accepts_zero_endpoint(self):
        assert bisect_root(lambda x: x, 0.0, 1.0) == 0.0

    def test_bisect_rejects_same_sign(self):
        with pytest.raises(ValueError):
            bisect_root(lambda x: x + 1.0, 0.0, 1.0)

    def test_sign_change_brackets(self):
        grid = [0.0, 1.0, 2.0, 3.0]
        out = sign_change_brackets(lambda x: (x - 1.5) * (x - 2.5), grid)
        assert out == [(1.0, 2.0), (2.0, 3.0)]

    def test_exact_zero_becomes_degenerate_bracket(self):
        out = sign_change_brackets(lambda x: x - 1.0, [0.0, 1.0, 2.0])
        assert (1.0, 1.0) in out

    def test_last_crossing_without_sign_change(self):
        # No bracket: the sign at the left end names the status.
        assert _last_crossing(lambda k: k * k + 1.0, 0.0, 2.0) == ThresholdCrossing(
            value=None, status="always")
        assert _last_crossing(lambda k: -k * k - 1.0, 0.0, 2.0) == ThresholdCrossing(
            value=None, status="never")

    def test_last_crossing_exact_zero_on_grid(self):
        # _k_grid(0, 511) is exactly the integers 0 to 511: the root 7 is a
        # grid point, returned as it is.
        assert _k_grid(0.0, 511.0) == [float(i) for i in range(512)]
        assert _last_crossing(lambda k: k - 7.0, 0.0, 511.0) == ThresholdCrossing(
            value=7.0, status="crossing")

    def test_last_crossing_returns_last_root(self):
        def f(k):
            return (k - 1.5) * (k - 2.5)

        assert len(sign_change_brackets(f, _k_grid(0.0, 3.0))) == 2
        crossing = _last_crossing(f, 0.0, 3.0)
        assert crossing.status == "crossing"
        assert crossing.value == pytest.approx(2.5, abs=1e-12)

    def test_largest_true(self):
        edge = largest_true(lambda x: x <= 0.7321, 0.0, 1.0)
        assert edge == pytest.approx(0.7321, abs=1e-9)
        assert largest_true(lambda x: True, 0.0, 1.0) == 1.0

    @pytest.mark.parametrize("cell", [(0.73, 0.74), (0.74, 0.75), (0.72, 0.73),
                                      (0.0, 0.1), (0.9, 1.0)],
                             ids=["right", "too_high", "too_low", "lowest", "highest"])
    def test_largest_true_cell_takes_the_same_steps(self, cell):
        # A guessed cell changes which points pred is called at, never the
        # bisection's steps: right or wrong, the result is the same float.
        calls = []

        def pred(x):
            calls.append(x)
            return x <= 0.7321

        want = largest_true(lambda x: x <= 0.7321, 0.0, 1.0)
        assert largest_true(pred, 0.0, 1.0, cell) == want
        if cell == (0.73, 0.74):
            # A right guess calls pred only on the cell, its ends included.
            assert all(0.73 <= x <= 0.74 for x in calls)
            assert len(calls) < 40


class TestBestEffort:
    def test_scalar_matches_vertex(self):
        # argmax of m q - c q^2 / d is m d / (2c); the oracle must find it
        # without being told
        q = oracle_best_effort(2.5, 1.4, c=1.0)
        assert q == pytest.approx(2.5 * 1.4 / 2.0, abs=1e-9)

    def test_array_path(self):
        d = np.array([1.0, 2.0, 3.3])
        q = oracle_best_effort(1.7, d, c=0.7)
        assert np.allclose(q, 1.7 * d / 1.4, atol=1e-8)

    def test_nonpositive_margin(self):
        assert oracle_best_effort(0.0, 2.0) == 0.0
        assert oracle_best_effort(-1.0, 2.0) == 0.0

    def test_bad_denominator(self):
        with pytest.raises(ValueError):
            oracle_best_effort(1.0, 0.0)


@given(m=st.floats(1e-3, 1e3), d=st.floats(1e-3, 1e3), c=st.floats(1e-3, 1e3))
@settings(max_examples=200, deadline=None)
def test_best_effort_finds_the_vertex(m, d, c):
    # The searches evaluate the surplus factored as q (m - q c/d); both must
    # still land on the vertex m d / (2c), which only this test knows. The
    # bracket [0, m d / c] stays below 2**19, where golden_max_scalar's loop
    # never ends (ROADMAP item 1), and above 1e-5: below about 1e-6 the
    # searches stop at their absolute width of 1e-10, too wide for 1e-9
    # relative, before the polish can reach the vertex.
    assume(1e-5 <= m * d / c < 2.0**19)
    want = m * d / (2.0 * c)
    assert oracle_best_effort(m, d, c) == pytest.approx(want, rel=1e-9, abs=0.0)
    lanes = oracle_best_effort(np.full(3, m), np.array([d, d, 1.0]), c)
    assert lanes[0] == lanes[1] == pytest.approx(want, rel=1e-9, abs=0.0)


class TestOracleAgreement:
    @pytest.mark.parametrize("k", [0.0, 0.1, 0.2, 0.25, 4.0 / 15.0])
    def test_set_a_points(self, k):
        p = replace(SET_A, k=k)
        assert compare_with_oracle(p, OracleConfig()) is None

    def test_subsidized_point(self):
        assert compare_with_oracle(SET_B, OracleConfig()) is None

    def test_admissibility_boundary_is_quiet(self):
        # at k = k_max the premium-fee deviation exactly ties; the standing
        # check tolerates the tie and the incumbent keeps the deployer
        oracle_solve_game(replace(SET_A, k=k_max(SET_A)))

    def test_random_draws(self, rng):
        for _ in range(6):
            p = random_valid_params(rng)
            assert compare_with_oracle(p, OracleConfig()) is None, p
        for _ in range(3):
            p = random_valid_params(rng, with_subsidy=True)
            assert compare_with_oracle(p, OracleConfig()) is None, p

    def test_coarse_grid_stays_within_its_resolution(self):
        coarse = OracleConfig(eta_grid_points=2001)
        step = SET_A.eta_cap / 2000.0
        p = replace(SET_A, k=0.25)
        a = oracle_solve_game(p, coarse)
        b = solve_baseline(p)
        assert a.regime is b.regime
        assert abs(a.strategy.eta1 - b.strategy.eta1) <= step + 1e-9

    def test_speed_budget(self):
        t0 = time.perf_counter()
        oracle_solve_game(SET_A)
        assert time.perf_counter() - t0 < 2.0


class TestIntegratedOracle:
    def test_matches_closed_form(self):
        ov = oracle_solve_integrated(SET_A)
        v = solve_integrated(SET_A)
        assert ov.q1v == pytest.approx(v.q1v, abs=1e-3)
        assert ov.q2v == pytest.approx(v.q2v, abs=1e-3)
        assert ov.profit == pytest.approx(v.profit, rel=1e-5)

    def test_discovers_full_openness(self):
        ov = oracle_solve_integrated(SET_A)
        assert ov.eta1v == pytest.approx(SET_A.eta_cap, abs=1e-3)
        assert ov.eta2v == pytest.approx(SET_A.eta_cap, abs=1e-3)


def test_subsidized_oracle_agreement():
    p = replace(SET_B, k=0.1836)
    o = oracle_solve_game(p)
    e = solve_subsidized(p)
    assert o.regime is e.regime
    assert o.incumbent_profit == pytest.approx(e.incumbent_profit, rel=1e-5)


def test_premium_deviation_guard_raises(monkeypatch):
    # Past set_a's entry bound on k (28 / 28.125) a premium-fee incumbent
    # keeps the deployer in period 2 outright. validate() rejects such k, so
    # it is switched off here to reach the oracle's own guard.
    monkeypatch.setattr("fmgame.oracle.require_valid", lambda params: None)
    with pytest.raises(RuntimeError, match="premium-fee deviation won strictly"):
        oracle_solve_game(replace(SET_A, k=1.5 * 28 / 28.125))


@pytest.mark.parametrize("n", [1, 0, -1])
def test_config_rejects_a_grid_without_both_ends(n):
    # One point would miss the full-openness corner and leave no grid step.
    with pytest.raises(ValueError, match="eta_grid_points must be at least 2"):
        OracleConfig(eta_grid_points=n)


class TestKFreeReuse:
    """The k-free grid searches are computed once per parameter set."""

    @staticmethod
    def _points():
        points = [replace(base, k=float(k))
                  for base in (SET_A, SET_B)
                  for k in np.linspace(0.0, k_max(base), 10)]
        points += [HARVEST_TO_DOMINATE, replace(SET_A, w_low=2.5, k=0.0)]
        rng = np.random.default_rng(20261018)
        points += [random_valid_params(rng, with_subsidy=i % 3 == 2) for i in range(20)]
        return points

    def test_reuse_changes_no_bits(self):
        calls = [(p, OracleConfig()) for p in self._points()]
        # verify's oracle-grid-refinement order: the coarse grid, then the fine one.
        calls += [(SET_A, OracleConfig(eta_grid_points=5001)), (SET_A, OracleConfig())]
        _k_free_grid.cache_clear()
        warm = [repr(oracle_solve_game(p, config)) for p, config in calls]
        assert _k_free_grid.cache_info().hits > 0
        cold = []
        for p, config in calls:
            _k_free_grid.cache_clear()
            cold.append(repr(oracle_solve_game(p, config)))
        assert warm == cold

    def test_off_grid_optimum_is_a_retained_boundary(self):
        # An optimum off the grid is a bisected retention boundary, played
        # out in the bisection's own scalar arithmetic: the deployer stays
        # there with the same bits, and the incumbent defends or dominates.
        off_grid = 0
        for p in self._points():
            eq = oracle_solve_game(p)
            eta1 = eq.strategy.eta1
            if eta1 in np.linspace(p.eta_cap, 0.0, 10001):
                continue
            off_grid += 1
            assert _stay_gap(_lanes(p, _unit_efforts(p), eq.strategy.w1, eta1)) >= 0, p
            assert eq.regime in (Regime.DEFEND, Regime.DOMINATE), p
        assert off_grid > 0

    @staticmethod
    def _boundaries(p, stub=None):
        # For each fee: the retention boundary from the grid's stay gaps
        # (changed by stub when given), the full bisection of [0, eta_cap],
        # and the grid cell where the gaps turn from switch to stay.
        etas, switch = _k_free_grid(replace(p, k=0.0), 10001)
        units = _unit_efforts(p)
        out = []
        for w1 in _fees(p):
            gaps = _stay_gap(_lanes(p, units, w1, etas, switch))
            if stub is not None:
                gaps = stub(gaps.copy())
            full = largest_true(lambda e: _stay_gap(_lanes(p, units, w1, e)) >= 0,
                                0.0, p.eta_cap)
            j = int(np.argmax(gaps >= 0))
            out.append((_retention_boundary(p, units, w1, etas, gaps)[0], full, etas[j]))
        return out

    def test_grid_bracketed_boundary_matches_full_bisection(self):
        for p in self._points():
            for bracketed, full, _ in self._boundaries(p):
                assert abs(bracketed - full) <= 1e-12, p

    @pytest.mark.parametrize("too_high", [True, False], ids=["cell_too_high", "cell_too_low"])
    def test_wrong_grid_verdict_falls_back(self, too_high):
        # A grid gap of the wrong sign, as in the last-bit disagreement at
        # set_b with k = k_max: an extra stay just above the flip puts the
        # guessed cell one too high, a lost stay just below it one too low.
        # The guess's ends are tested with _stay_gap, and the bisection goes
        # on past the end that disagrees.
        def stub(gaps):
            j = int(np.argmax(gaps >= 0))   # the highest stay on the descending grid
            if too_high:
                gaps[j - 1] = abs(gaps[j - 1])
            else:
                gaps[j] = -abs(gaps[j])
            return gaps

        p = replace(SET_A, k=0.2)   # defend: both boundaries inside the grid
        step = p.eta_cap / 10000
        for bracketed, full, guess in self._boundaries(p, stub):
            assert abs(bracketed - full) <= 1e-12
            # The guessed cell [guess, guess + step] misses the boundary.
            assert full < guess if too_high else full > guess + 0.5 * step

    @pytest.mark.parametrize("too_high", [True, False],
                             ids=["estimate_too_high", "estimate_too_low"])
    def test_estimate_off_the_boundary_falls_back(self, too_high, monkeypatch):
        # A grid gap a million times too large at one end of the right cell
        # drags the regula-falsi estimate, and the window around it, to the
        # other end: wholly above or below the boundary. largest_true tests
        # the window's ends with _stay_gap and searches on past them.
        windows = []

        def spy(pred, lo, hi, cell=None):
            windows.append(cell)
            return largest_true(pred, lo, hi, cell)

        def stub(gaps):
            j = int(np.argmax(gaps >= 0))
            gaps[j if too_high else j - 1] *= 1e6
            return gaps

        monkeypatch.setattr(numerics, "largest_true", spy)
        boundaries = self._boundaries(replace(SET_A, k=0.2), stub)
        assert len(windows) == len(boundaries) == 2
        for (bracketed, full, _), (a, b) in zip(boundaries, windows):
            assert abs(bracketed - full) <= 1e-12
            assert full < a if too_high else full > b

    def test_narrowed_cell_changes_no_bits(self):
        # The window around the regula-falsi estimate gives the same boundary
        # as the whole grid cell it narrows, given as largest_true's guess, on
        # verify's k-points, k_max and seeded draws at k = 0, a random k and
        # k_max.
        points = []
        for base in (SET_A, SET_B):
            km = k_max(base)
            points += [replace(base, k=float(k)) for k in (np.arange(100) + 0.5) / 100 * km]
            points.append(replace(base, k=km))
        rng = np.random.default_rng(20261020)
        for i in range(40):
            p = random_valid_params(rng, with_subsidy=i % 3 == 2)
            km = k_max(p)
            points += [replace(p, k=k) for k in (0.0, float(rng.uniform(0.0, km)), km)]
        for p in points:
            etas, switch = _k_free_grid(replace(p, k=0.0), 10001)
            units = _unit_efforts(p)
            for w1 in _fees(p):
                gaps = _stay_gap(_lanes(p, units, w1, etas, switch))
                stays = gaps >= 0
                j = int(np.argmax(stays)) if stays.any() else len(etas) - 1
                cell = None if j == 0 else (float(etas[j]), float(etas[j - 1]))
                whole = largest_true(lambda e: _stay_gap(_lanes(p, units, w1, e)) >= 0,
                                     0.0, p.eta_cap, cell)
                assert _retention_boundary(p, units, w1, etas, gaps)[0] == whole, (p, w1)

    def test_bisection_probes_per_call(self, monkeypatch):
        # The window saves most of the grid cell's bisection steps: set_a's
        # verify k-points take about 25 _stay_gap probes per call, against
        # 60 with the whole grid cell as the guess.
        probes = 0

        def counted(params, units, w1, etas, switch=None):
            nonlocal probes
            probes += not isinstance(etas, np.ndarray)   # the grid's lanes are no probe
            return _lanes(params, units, w1, etas, switch)

        monkeypatch.setattr("fmgame.oracle._lanes", counted)
        ks = (np.arange(100) + 0.5) / 100 * k_max(SET_A)
        for k in ks:
            oracle_solve_game(replace(SET_A, k=float(k)))
        assert probes <= 30 * len(ks)

    def test_cached_arrays_are_read_only(self):
        etas, switch = _k_free_grid(replace(SET_A, k=0.0), 101)
        assert len(switch) == 2
        for a in (etas, *switch):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_cache_holds_at_most_two_entries(self):
        config = OracleConfig(eta_grid_points=101)
        for p in (SET_A, SET_B, replace(SET_A, theta=6.0)):
            oracle_solve_game(p, config)
        info = _k_free_grid.cache_info()
        assert info.maxsize == 2
        assert info.currsize == 2

    def test_params_differing_in_s_or_eta_cap_share_no_entry(self):
        config = OracleConfig(eta_grid_points=101)
        _k_free_grid.cache_clear()
        oracle_solve_game(SET_A, config)
        oracle_solve_game(replace(SET_A, k=0.1), config)
        assert _k_free_grid.cache_info()[:2] == (1, 1)   # (hits, misses)
        oracle_solve_game(replace(SET_A, s=0.3), config)
        assert _k_free_grid.cache_info()[:2] == (1, 2)
        oracle_solve_game(replace(SET_A, eta_cap=1.4), config)
        assert _k_free_grid.cache_info()[:2] == (1, 3)

    def test_golden_searches_per_call(self, monkeypatch):
        # Lane counts of the golden_max calls: only the cached switch lanes,
        # so a warm call runs none. The period-1 and stay lanes scale one unit
        # effort searched on a plain float per fee, and the boundaries are
        # searched on plain floats too, all by golden_max_scalar. So are both
        # stages of the integrated firm.
        sizes = Counter()

        def counting(f, lo, hi):
            sizes[np.size(lo)] += 1
            return golden_max(f, lo, hi)

        monkeypatch.setattr(numerics, "golden_max", counting)
        config = OracleConfig(eta_grid_points=101)
        expected = [
            (SET_A, {101: 1}),                          # cold
            (replace(SET_A, k=0.1), {}),                # warm
            (replace(SET_A, w_low=2.5, k=0.0), {101: 1}),  # equal fees
        ]
        _k_free_grid.cache_clear()
        for p, want in expected:
            sizes.clear()
            oracle_solve_game(p, config)
            assert sizes == want, p
        sizes.clear()
        oracle_solve_integrated(SET_A, config)
        assert sizes == {}

    def test_one_unit_search_per_fee_per_call(self, monkeypatch):
        # The period-1 and stay lanes, on the grid and at every step of the
        # retention bisection, share one search of the unit effort (cost
        # denominator 1.0) per fee. Nothing carries it from call to call, so
        # a cold call, a warm call and a repeat each make the same searches.
        margins = []

        def counting(margin, cost_denominator, c=1.0):
            if np.ndim(cost_denominator) == 0 and cost_denominator == 1.0:
                margins.append(margin)
            return oracle_best_effort(margin, cost_denominator, c)

        monkeypatch.setattr("fmgame.oracle.oracle_best_effort", counting)
        config = OracleConfig(eta_grid_points=101)
        equal_fees = replace(SET_A, w_low=2.5, k=0.0)
        expected = [
            (replace(SET_A, k=0.2), 2),   # cold
            (replace(SET_A, k=0.1), 2),   # warm
            (replace(SET_A, k=0.1), 2),   # repeat
            (equal_fees, 1),
            (equal_fees, 1),
        ]
        _k_free_grid.cache_clear()
        for p, fees in expected:
            margins.clear()
            oracle_solve_game(p, config)
            assert len(margins) == len(set(margins)) == fees, p

    def test_verify_grid_refinement_hits_the_cache(self):
        # verify sweeps k on the default grid, then solves k = params.k on a
        # coarse grid and on the default grid again; that last call is a hit.
        _k_free_grid.cache_clear()
        oracle_solve_game(replace(SET_A, k=0.1))
        oracle_solve_game(SET_A, OracleConfig(eta_grid_points=5001))
        hits, misses = _k_free_grid.cache_info()[:2]
        oracle_solve_game(SET_A)
        assert _k_free_grid.cache_info()[:2] == (hits + 1, misses)


def test_scaled_stay_lanes_match_the_per_lane_searches():
    # The period-1 and stay lanes search one unit effort per margin and
    # scale it by each lane's cost denominator D; the reference searches
    # every lane on its own. The scaled efforts must land on the vertex
    # m D / (2c), which only this test knows. Both stages of the integrated
    # firm scale one unit effort too, and must play what per-lane searches
    # play.
    rng = np.random.default_rng(7)
    for _ in range(40):
        p = random_valid_params(rng)
        etas = np.linspace(p.eta_cap, 0.0, 1001)
        units = _unit_efforts(p)
        for w1 in _fees(p):
            m1 = p.theta + p.s - w1
            q1 = _effort_lanes(units, w1, etas)
            np.testing.assert_allclose(deployer_surplus(m1, q1, p.c, 1.0 + etas),
                                       _surplus_at_best(m1, 1.0 + etas, p.c)[1],
                                       rtol=1e-12, atol=0.0, err_msg=repr(p))
            np.testing.assert_allclose(q1, m1 * (1.0 + etas) / (2.0 * p.c), rtol=1e-9, atol=0.0,
                                       err_msg=repr(p))
            d = (1.0 + p.k * q1) * (1.0 + p.eta_cap)
            for w2 in (p.w_high, p.w_low):
                m = p.theta + p.s - w2
                q, v = _stay_lanes(p, units, w2, q1)
                v_ref = _surplus_at_best(m, d, p.c)[1]
                np.testing.assert_allclose(v, v_ref, rtol=1e-12, atol=0.0, err_msg=repr(p))
                np.testing.assert_allclose(q, m * d / (2.0 * p.c), rtol=1e-9, atol=0.0,
                                           err_msg=repr(p))

        got = oracle_solve_integrated(p, OracleConfig(eta_grid_points=1001))
        grid = np.linspace(0.0, p.eta_cap, 1001)
        q1_ref, v1_ref = _surplus_at_best(p.theta, 1.0 + grid, p.c)
        i1 = int(np.argmax(v1_ref))
        q2_ref, v2_ref = _surplus_at_best(p.theta, stay_denominator(p.k, q1_ref[i1], grid), p.c)
        i2 = int(np.argmax(v2_ref))
        assert (got.eta1v, got.eta2v) == (grid[i1], grid[i2]), p
        assert got.q1v == pytest.approx(q1_ref[i1], rel=1e-12, abs=0.0), p
        assert got.q2v == pytest.approx(q2_ref[i2], rel=1e-12, abs=0.0), p
        assert got.profit == pytest.approx(v1_ref[i1] + v2_ref[i2], rel=1e-12, abs=0.0), p


def test_grid_lanes_and_scalar_candidates_share_period1_efforts():
    # A scalar candidate (the retention bisection, the played boundary)
    # scales the same unit effort as the grid, so at a grid openness both
    # play the same period-1 effort, to the bit.
    for p in (SET_A, SET_B):
        etas = _k_free_grid(replace(p, k=0.0), 10001)[0][::50]
        units = _unit_efforts(p)
        for w1 in _fees(p):
            lanes = _effort_lanes(units, w1, etas)
            scalars = np.array([_effort_lanes(units, w1, e) for e in etas.tolist()])
            assert np.array_equal(lanes.view(np.int64), scalars.view(np.int64)), (p, w1)


@pytest.mark.parametrize("script, out", [
    ("from fmgame.numerics import largest_true\n"
     "print(largest_true(lambda x: x <= 10000.5, 0.0, 20000.0))\n", "10000.5"),
    # The retention boundary of this admitted point sits near eta_cap = 1e4.
    ("from dataclasses import replace\n"
     "from fmgame import ModelParams, OracleConfig, k_max\n"
     "from fmgame.verify import compare_with_oracle\n"
     "p = ModelParams(theta=1e-4, c=1, w_high=5e-5, w_low=5e-6, eta_cap=1e4, k=0.0)\n"
     "print(compare_with_oracle(replace(p, k=k_max(p)), OracleConfig()))\n", "None"),
], ids=["repro", "admitted_point"])
def test_largest_true_ends_past_8192(script, out):
    # Above 8192 floats are more than 1e-12 apart, so a bisection that waits
    # for its bracket to shrink below 1e-12 would never end there.
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=30, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == out


def test_oracle_is_formula_blind():
    # The oracle reads the primitives of params, so params may not import
    # the closed forms, or the checks built on them, either.
    import fmgame.oracle
    import fmgame.params

    for mod in (fmgame.oracle, fmgame.params):
        src = open(mod.__file__).read()
        for banned in ("closed_form", "welfare", "extensions", "verify"):
            assert f"from .{banned}" not in src and f"fmgame.{banned}" not in src, mod.__name__
