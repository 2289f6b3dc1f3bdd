"""Numeric utilities and the brute-force oracle.

The oracle must stay formula-blind: it imports parameter and outcome types
plus the generic numerics, nothing from the closed-form modules. The final
test here enforces that import discipline so a refactor cannot quietly
make the cross-check circular.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from fmgame import (
    OracleConfig,
    k_max,
    oracle_solve_game,
    oracle_solve_integrated,
    solve_baseline,
    solve_integrated,
    solve_subsidized,
)
from fmgame.numerics import (
    bisect_root,
    golden_max,
    golden_max_scalar,
    largest_true,
    scan_and_bisect,
    sign_change_brackets,
)
from fmgame.oracle import oracle_best_effort
from fmgame.verify import compare_with_oracle, random_valid_params

from conftest import SET_A, SET_B


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

    def test_scan_and_bisect_without_sign_change(self):
        assert scan_and_bisect(lambda x: x * x + 1.0, [0.0, 1.0, 2.0]) == (None, 0)

    def test_scan_and_bisect_exact_zero_on_grid(self):
        assert scan_and_bisect(lambda x: x - 1.0, [0.0, 1.0, 2.0]) == (1.0, 1)

    def test_scan_and_bisect_returns_last_root(self):
        root, n = scan_and_bisect(lambda x: (x - 1.5) * (x - 2.5), [0.0, 1.0, 2.0, 3.0])
        assert n == 2
        assert root == pytest.approx(2.5, abs=1e-12)

    def test_largest_true(self):
        edge = largest_true(lambda x: x <= 0.7321, 0.0, 1.0)
        assert edge == pytest.approx(0.7321, abs=1e-9)
        assert largest_true(lambda x: True, 0.0, 1.0) == 1.0


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


def test_oracle_is_formula_blind():
    import fmgame.oracle as mod

    src = open(mod.__file__).read()
    for banned in ("closed_form", "welfare", "extensions"):
        assert f"from .{banned}" not in src and f"fmgame.{banned}" not in src
