"""Acceptance gate: the seven headline claims, each printed as PASS/FAIL.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion. Every tolerance here is a contract, not a convenience; do not
loosen one to make a run green.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from conftest import SET_A, SET_B
from fmgame import (
    OracleConfig,
    Regime,
    compare_with_oracle,
    eta_bar_high,
    eta_bar_low,
    integration_comparison,
    integration_thresholds,
    k_max,
    mandate_comparison,
    mandate_equilibrium,
    openness_trap_threshold,
    oracle_solve_integrated,
    random_valid_params,
    regime_thresholds,
    solve_baseline,
    solve_integrated,
    solve_subsidized,
    welfare_for_equilibrium,
)
from fmgame.verify import first_failure

A0 = replace(SET_A, k=0.0)
B0 = replace(SET_B, k=0.0, s=0.0)


@contextmanager
def criterion(n: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {n}: {desc}")
        raise
    print(f"PASS criterion {n}: {desc}")


def _regime_at(k: float) -> Regime:
    return solve_baseline(replace(SET_A, k=k)).regime


def _bisect_regime_change(lo: float, hi: float) -> float:
    """Locate the k where the equilibrium regime label flips in (lo, hi)."""
    r_lo = _regime_at(lo)
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if _regime_at(mid) == r_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_1_regime_reproduction():
    with criterion(1, "three ordered regimes, breakpoints to 1e-6, eta1 dip, <1s"):
        t0 = time.perf_counter()
        ks = np.linspace(0.0, 0.26, 200)
        eqs = [solve_baseline(replace(SET_A, k=float(k))) for k in ks]
        regimes = [eq.regime for eq in eqs]
        etas = [eq.eta1 for eq in eqs]

        # Exactly three regimes, in harvest -> defend -> dominate order.
        seen = [regimes[0]]
        for r in regimes[1:]:
            if r != seen[-1]:
                seen.append(r)
        assert seen == [Regime.HARVEST, Regime.DEFEND, Regime.DOMINATE]

        # Grid-bracketed regime changes refine to the closed-form thresholds.
        th = regime_thresholds(SET_A)
        flips = [i for i in range(199) if regimes[i] != regimes[i + 1]]
        assert len(flips) == 2
        located = [_bisect_regime_change(float(ks[i]), float(ks[i + 1])) for i in flips]
        assert abs(located[0] - th.k_bar_1) < 1e-6
        assert abs(located[1] - th.k_bar_2) < 1e-6

        # Openness starts at the cap, drops at the first breakpoint, then rises.
        i1, i2 = flips
        assert all(e == SET_A.eta_cap for e in etas[: i1 + 1])
        assert etas[i1 + 1] < SET_A.eta_cap - 0.5
        post_drop = etas[i1 + 1 :]
        assert all(b > a for a, b in zip(post_drop, post_drop[1:]))
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_oracle_equivalence():
    with criterion(2, "oracle agrees on sweep + 100 random sets, profit 1e-5, <60s"):
        t0 = time.perf_counter()
        config = OracleConfig()
        sweep = [replace(SET_A, k=float(k)) for k in np.linspace(0.0, 0.26, 200)]
        rng = np.random.default_rng(20240811)
        draws = [random_valid_params(rng, with_subsidy=(i % 10 < 3)) for i in range(100)]
        labels = [f"k={p.k}" for p in sweep] + [f"draw {i} ({p})" for i, p in enumerate(draws)]
        # One share per CPU, in this process and forked children, as fmgame
        # verify checks its k-points.
        found = first_failure(lambda p: compare_with_oracle(p, config), sweep + draws)
        assert found is None, f"{labels[found[0]]}: {found[1]}"
        assert time.perf_counter() - t0 < 60.0


def test_criterion_3_openness_trap():
    with criterion(3, "mandate SW crosses baseline in (k_bar_1, k_max], harms beyond"):
        trap = openness_trap_threshold(SET_A)
        assert trap is not None
        th = regime_thresholds(SET_A)
        km = k_max(SET_A)
        assert th.k_bar_1 < trap <= km

        at_root = replace(SET_A, k=trap)
        gap = (welfare_for_equilibrium(at_root, mandate_equilibrium(at_root)).social
               - welfare_for_equilibrium(at_root, solve_baseline(at_root)).social)
        assert abs(gap) < 1e-8

        for i in range(10):
            k = trap + (km - trap) * (i + 1) / 11.0
            d = mandate_comparison(replace(SET_A, k=k)).delta
            assert d.deployer < 0.0
            assert d.consumer < 0.0
            assert d.social < 0.0


def test_criterion_4_welfare_cross_validation():
    with criterion(4, "closed-form welfare rows equal effort rebuilds (1e-6, 1000 sets)"):
        rng = np.random.default_rng(7)
        for i in range(1000):
            p = random_valid_params(rng, with_subsidy=(i % 3 == 0))
            # welfare_for_equilibrium raises RuntimeError if any component's
            # table value drifts from its effort rebuild beyond 1e-6 relative.
            eq = solve_subsidized(p) if p.s > 0 else solve_baseline(p)
            welfare_for_equilibrium(p, eq)
            p0 = replace(p, s=0.0)
            welfare_for_equilibrium(p0, mandate_equilibrium(p0))
            v = solve_integrated(p0)
            cons = 0.5 * (v.q1v**2 + v.q2v**2)
            assert abs(v.consumer - cons) <= 1e-6 * max(1.0, cons)
            assert abs(v.social - (v.profit + v.consumer)) <= 1e-6 * max(1.0, v.social)


def test_criterion_5_vertical_integration():
    with criterion(5, "Q1v=6.25 exact, oracle matches integrated optimum, regions split"):
        v = solve_integrated(SET_A)
        assert v.q1v == 6.25

        vo = oracle_solve_integrated(SET_A, OracleConfig())
        assert vo.eta1v == SET_A.eta_cap and vo.eta2v == SET_A.eta_cap
        assert abs(vo.q1v - v.q1v) <= 1e-6 * max(1.0, v.q1v)
        assert abs(vo.q2v - v.q2v) <= 1e-6 * max(1.0, v.q2v)
        assert abs(vo.profit - v.profit) <= 1e-6 * max(1.0, v.profit)

        th = integration_thresholds(SET_A)
        k_dv, k_cv = th.chain.value, th.consumer.value
        km = k_max(SET_A)
        assert 0.0 < k_dv < k_cv < km

        def deltas(k: float) -> tuple[float, float]:
            p = replace(SET_A, k=k)
            w = welfare_for_equilibrium(p, solve_baseline(p))
            out = solve_integrated(p)
            return out.profit - (w.dev1 + w.deployer), out.consumer - w.consumer

        for lo, hi, chain_sign, cons_sign, region in (
            (0.0, k_dv, -1.0, -1.0, "lose_lose"),
            (k_dv, k_cv, +1.0, -1.0, "mixed"),
            (k_cv, km, +1.0, +1.0, "win_win"),
        ):
            for frac in (0.25, 0.5, 0.75):
                k = lo + (hi - lo) * frac
                d_chain, d_cons = deltas(k)
                assert chain_sign * d_chain > 0.0, (region, k)
                assert cons_sign * d_cons > 0.0, (region, k)
                assert integration_comparison(replace(SET_A, k=k)).region == region


def test_criterion_6_subsidy_regime_shift():
    with criterion(6, "set B thresholds shift out; win-win and capture bands strict"):
        th0 = regime_thresholds(replace(SET_B, s=0.0))
        th = regime_thresholds(SET_B)
        assert th.k_bar_1 > th0.k_bar_1
        assert th.k_bar_2 > th0.k_bar_2

        def pair(k: float):
            base = solve_baseline(replace(SET_B, k=k, s=0.0))
            subs = solve_subsidized(replace(SET_B, k=k))
            wb = welfare_for_equilibrium(replace(SET_B, k=k, s=0.0), base)
            ws = welfare_for_equilibrium(replace(SET_B, k=k), subs)
            return base, subs, wb, ws

        # Regime-delay band: every surplus component strictly improves.
        for i in range(5):
            k = th0.k_bar_1 + (th.k_bar_1 - th0.k_bar_1) * (i + 1) / 6.0
            _, _, wb, ws = pair(k)
            for name in ("dev1", "dev2", "deployer", "consumer"):
                assert getattr(ws, name) - getattr(wb, name) > 1e-9, (name, k)

        # Capture band: both efforts and social welfare strictly fall.
        for i in range(5):
            k = th0.k_bar_2 + (th.k_bar_2 - th0.k_bar_2) * (i + 1) / 6.0
            base, subs, wb, ws = pair(k)
            assert base.q1 - subs.q1 > 1e-9, k
            assert base.q2 - subs.q2 > 1e-9, k
            assert wb.social - ws.social > 1e-9, k


def test_criterion_7_limit_consistency():
    with criterion(7, "s->0 recovers baseline to 1e-6; k=0 kills retention and tilt"):
        base = solve_baseline(replace(SET_B, s=0.0))
        tiny = solve_subsidized(replace(SET_B, s=1e-8))
        assert tiny.regime == base.regime
        assert tiny.w1 == base.w1
        assert abs(tiny.eta1 - base.eta1) < 1e-6
        for got, want in (
            (tiny.q1, base.q1),
            (tiny.q2, base.q2),
            (tiny.incumbent_profit, base.incumbent_profit),
        ):
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want))

        for p0 in (A0, B0):
            assert eta_bar_high(p0) == 0.0
            assert eta_bar_low(p0) == 0.0
            v = solve_integrated(p0)
            assert v.q1v == v.q2v
