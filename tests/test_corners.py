"""Closed-form solves at the corners of the admissible parameter space.

theta, c and eta_cap each take five values from 1e-6 to 1e6; the fees sit
at equal, zero, wide and narrow gaps (as shares of theta); the subsidy is
zero or the whole follower fee; k is 0, k_max / 2 or k_max. Every case must
be admissible, solve to one of the two fees and an openness in [0, eta_cap],
pass the welfare cross-validation and give finite, sign-correct numbers. A
seeded fuzz then draws magnitudes across most of the float range and holds every point that
validate() admits to the same checks. The oracle is not run here.
"""

import inspect
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import fmgame
from fmgame import (
    InvalidParams,
    ModelParams,
    SweepSpec,
    k_max,
    mandate_equilibrium,
    regime_thresholds,
    run_sweep,
    solve_integrated,
    solve_subsidized,
    validate,
    welfare_for_equilibrium,
)
from fmgame.sweep import _SCENARIOS
from fmgame.welfare import _k_grid

from conftest import RETENTION

SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6)
FEE_SHARES = ((0.5, 0.5), (0.0, 0.0), (0.5, 0.2), (0.4, 0.1), (0.5, 0.0))


def _cases(fee_shares, subsidized):
    share_h, share_l = fee_shares
    for theta, c, eta_cap in itertools.product(SCALES, repeat=3):
        w_low = share_l * theta
        p = ModelParams(theta=theta, c=c, w_high=share_h * theta, w_low=w_low,
                        eta_cap=eta_cap, k=0.0, s=w_low if subsidized else 0.0)
        km = k_max(p)
        for k in (0.0, km / 2.0, km):
            yield replace(p, k=k)


def _problems(p):
    report = validate(p)
    if not report.ok:
        return list(report.violations)
    eq = solve_subsidized(p)
    w = welfare_for_equilibrium(p, eq)
    numbers = {
        "eta1": eq.eta1, "q1": eq.q1, "q2": eq.q2,
        "revenue": eq.incumbent_profit, "spend": eq.subsidy_spend,
        "dev1": w.dev1, "dev2": w.dev2, "deployer": w.deployer,
        "consumer": w.consumer, "social": w.social,
    }
    if p.s == 0.0:
        wm = welfare_for_equilibrium(p, mandate_equilibrium(p))
        v = solve_integrated(p)
        numbers.update(mandate_social=wm.social, q1v=v.q1v, q2v=v.q2v,
                       integrated_social=v.social)
    out = [f"{name}={x!r}" for name, x in numbers.items()
           if not (math.isfinite(x) and x >= 0.0)]
    if eq.w1 not in (p.w_high, p.w_low):
        out.append(f"w1={eq.w1!r} is neither fee")
    if not 0.0 <= eq.eta1 <= p.eta_cap:
        out.append(f"eta1={eq.eta1!r} outside [0, eta_cap]")
    if eq.incumbent_profit != w.dev1:
        out.append(f"revenue {eq.incumbent_profit!r} != dev1 {w.dev1!r}")
    return out


@pytest.mark.parametrize("subsidized", [False, True], ids=["s0", "s_w_low"])
@pytest.mark.parametrize("fee_shares", FEE_SHARES, ids=lambda f: "fees_%g_%g" % f)
def test_corner_cases_solve(fee_shares, subsidized):
    failures = []
    n = 0
    for p in _cases(fee_shares, subsidized):
        n += 1
        problems = _problems(p)
        if problems:
            failures.append(f"{p}: {'; '.join(problems)}")
    assert n == 375
    assert not failures, f"{len(failures)} of {n} cases fail:\n" + "\n".join(failures[:10])


@pytest.mark.parametrize("p", [
    # The fees are below half an ulp of theta, so theta - w_high rounds to
    # theta - w_low and defend's eta_bar_high rounds past eta_cap at k_max,
    # as the dominate row's eta_bar_low can.
    ModelParams(theta=9.761027269260147e+19, c=444658487143.2741, w_high=104.69278386909856,
                w_low=1.2791201220451475e-146, eta_cap=1.0625468147706904e-18,
                k=9.680752776150201e-27),
    # theta - w_low + s and (theta + s) - w_low round apart here; with the
    # first, _eta_bar found no positive 2c - k (theta - w_low + s) at a k
    # that validate() admits.
    ModelParams(theta=4.544839320431816e-70, c=5.791585943098816e+146,
                w_high=2.272419660215908e-70, w_low=1.2197855743849597e-70,
                eta_cap=1.4569920148198327e+77, k=3.3375227731849546e+216,
                s=1.455358718762481e-71),
], ids=["defend_eta1_rounds_past_cap", "margin_rounding_order"])
def test_rounding_corners_at_k_max_solve(p):
    assert p.k == k_max(p)
    assert _problems(p) == []


def _fuzz_cases(rng, draws):
    # Log-uniform magnitudes; fees at theta / 2, a uniform share of it or a
    # log-uniform one down to subnormal (and 0.0); w_low at 0, a tiny or a
    # uniform share of w_high, or equal to it; s = 0 or up to w_low.
    for _ in range(draws):
        theta = 10.0 ** rng.uniform(-120.0, 120.0)
        share = (0.5, rng.uniform(0.0, 0.5), 10.0 ** rng.uniform(-330.0, math.log10(0.5)))
        w_high = theta * share[rng.integers(3)]
        w_low = w_high * (0.0, 10.0 ** rng.uniform(-330.0, -1.0), rng.uniform(), 1.0)[rng.integers(4)]
        p = ModelParams(theta=theta, c=10.0 ** rng.uniform(-170.0, 170.0), w_high=w_high,
                        w_low=w_low, eta_cap=10.0 ** rng.uniform(-20.0, 80.0), k=0.0,
                        s=w_low * rng.uniform() if rng.integers(2) else 0.0)
        # Kept where only the retention margin fails: it is lost at k_max,
        # so the point is rejected at every k (counted below).
        if validate(p).violations in ((), (RETENTION,)):
            km = k_max(p)
            for k in (0.0, km / 2.0, km):
                yield replace(p, k=k)


def test_admitted_fuzz_points_solve():
    failures = []
    n = 0
    for p in _fuzz_cases(np.random.default_rng(20261018), 2000):
        if not validate(p).ok:
            continue
        n += 1
        try:
            problems = _problems(p)
            th = regime_thresholds(p)
            if math.isnan(th.k_bar_1) or math.isnan(th.k_bar_2):
                problems.append(f"k_bar_1={th.k_bar_1!r}, k_bar_2={th.k_bar_2!r}")
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            failures.append(f"{p}: {'; '.join(problems)}")
    assert n > 2000
    assert not failures, f"{len(failures)} of {n} admitted points fail:\n" + "\n".join(failures[:10])


def test_the_top_of_a_k_range_validates_all_of_it():
    # validate() checks the retention margin at k_max, so it admits a point
    # at every k up to k_max or at none. At s = 0, as the policy scans run,
    # every k of a coarse [0, k_max] grid gets the point's own report; where
    # the margin is lost at k_max, that is a rejection, even at a k where
    # the margin itself is positive (266 such points).
    disagree = []
    n = admitted = lost = 0
    for p in _fuzz_cases(np.random.default_rng(20261018), 2000):
        p = replace(p, s=0.0)
        km = k_max(p)
        if p.k > km:
            continue
        n += 1
        report = validate(p)
        admitted += report.ok
        lost += report.violations == (RETENTION,) and 2.0 * p.c - p.k * (p.theta - p.w_low) > 0.0
        grid = {validate(replace(p, k=k)) for k in _k_grid(0.0, km, 9)}
        if grid != {report}:
            disagree.append(f"{p}: own {report.violations}, grid {grid}")
    assert n > 2500 and admitted > 2200 and lost > 200
    assert not disagree, f"{len(disagree)} of {n} points disagree:\n" + "\n".join(disagree[:10])


# The oracle can loop forever at an admitted point (ROADMAP item 1), and
# run_verification calls it.
_ORACLE_CALLERS = {"compare_with_oracle", "oracle_solve_game", "oracle_solve_integrated",
                   "run_verification"}


def _public_calls() -> dict:
    # call(p) for every public function whose first parameter is a ModelParams,
    # with the further arguments it needs at p.
    calls = {}
    for name in fmgame.__all__:
        f = getattr(fmgame, name)
        if name in _ORACLE_CALLERS or not inspect.isfunction(f):
            continue
        first = next(iter(inspect.signature(f).parameters.values()), None)
        if first is not None and first.annotation in ("ModelParams", ModelParams):
            calls[name] = f
    calls["welfare_for_equilibrium"] = lambda p: welfare_for_equilibrium(p, solve_subsidized(p))
    # lo < hi even where k_max is 0.0; the rows past k_max are rejected, not raised.
    calls["run_sweep"] = lambda p: [run_sweep(p, SweepSpec("k", 0.0, k_max(p) or 1.0, 3, scenario))
                                    for scenario in _SCENARIOS]
    return calls


def test_public_functions_return_or_name_the_violation_at_admitted_points():
    # Every tenth admitted corner and fuzz point, in a fixed order (all 6060
    # take about 25 s). Among them are trap scans whose binding range is
    # narrower than the offset that opens it.
    calls = _public_calls()
    assert len(calls) == 18 and "openness_trap_threshold" in calls
    points = [p for fee_shares in FEE_SHARES for subsidized in (False, True)
              for p in _cases(fee_shares, subsidized)]
    points += _fuzz_cases(np.random.default_rng(20261018), 2000)
    points = [p for p in points if validate(p).ok][::10]
    raised = []
    for p in points:
        for name, call in calls.items():
            try:
                call(p)
            except InvalidParams:
                pass
            except Exception as exc:
                raised.append(f"{name}({p}): {type(exc).__name__}: {exc}")
    assert len(points) == 606
    assert not raised, f"{len(raised)} calls raise:\n" + "\n".join(raised[:10])
