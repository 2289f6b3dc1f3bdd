"""Closed-form solves at the corners of the admissible parameter space.

theta, c and eta_cap each take five values from 1e-6 to 1e6; the fees sit
at equal, zero, wide and narrow gaps (as shares of theta); the subsidy is
zero or the whole follower fee; k is 0, k_max / 2 or k_max. Every case must
be admissible, solve to a strategy that q1_star accepts, pass the welfare
cross-validation and give finite, sign-correct numbers. The oracle is not
run here.
"""

import itertools
import math
from dataclasses import replace

import pytest

from fmgame import (
    ModelParams,
    k_max,
    solve_integrated,
    solve_subsidized,
    validate,
    welfare_for_equilibrium,
    welfare_mandate,
)
from fmgame.closed_form import q1_star

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
        "eta1": eq.strategy.eta1, "q1": eq.period1.effort, "q2": eq.period2.effort,
        "q1_star": q1_star(p, eq.strategy),   # raises unless 0 <= eta1 <= eta_cap
        "revenue": eq.incumbent_profit, "spend": eq.subsidy_spend,
        "dev1": w.dev1, "dev2": w.dev2, "deployer": w.deployer,
        "consumer": w.consumer, "social": w.social,
    }
    if p.s == 0.0:
        wm = welfare_mandate(p)
        v = solve_integrated(p)
        numbers.update(mandate_social=wm.social, q1v=v.q1v, q2v=v.q2v,
                       integrated_social=v.social)
    out = [f"{name}={x!r}" for name, x in numbers.items()
           if not (math.isfinite(x) and x >= 0.0)]
    if eq.strategy.eta1 > p.eta_cap:
        out.append(f"eta1={eq.strategy.eta1!r} above eta_cap")
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
