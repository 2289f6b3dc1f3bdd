"""The closed forms on a grid of k or s against the per-point scalar path.

A sweep solves its admitted points in one array pass, and a threshold scan
evaluates its difference once on the whole grid. Both must carry, cell by
cell, the bits of the scalar solve at each point, which the per-point loops
below compute as the reference.
"""

from dataclasses import replace
from enum import Enum

import numpy as np
import pytest

from conftest import (
    INTEGRATION_SCAN_OVERSHOOT,
    MANDATE_SCAN_OVERSHOOT,
    SET_A,
    SET_B,
    TRAP_AT_JUMP,
)
from fmgame import (
    InvalidParams,
    Regime,
    SweepSpec,
    closed_form,
    k_max,
    mandate_equilibrium,
    random_valid_params,
    run_sweep,
    solve_integrated,
    solve_subsidized,
    validate,
    welfare_for_equilibrium,
)
from fmgame.closed_form import solve
from fmgame.extensions import _integration_gaps
from fmgame.numerics import sign_change_brackets
from fmgame.sweep import _fmt
from fmgame.welfare import _binding_range, _k_grid, _trap_gap


def _draws():
    rng = np.random.default_rng(20261018)
    return [random_valid_params(rng, with_subsidy=i % 2 == 1) for i in range(8)]


def _bits(x) -> str:
    return x.value if isinstance(x, Enum) else float(x).hex()


def _scalar_row(p, scenario: str) -> list[str]:
    # One sweep row the way the per-point loop built it.
    base_p = replace(p, s=0.0) if scenario == "subsidy" else p
    eq = solve(base_p)
    w = welfare_for_equilibrium(base_p, eq)
    cells = [p.k, p.s, eq.regime, eq.strategy.w1, eq.strategy.eta1,
             eq.period1.effort, eq.period2.effort, w.dev1, w.dev2, w.deployer,
             w.consumer, w.social]
    if scenario == "mandate":
        m = mandate_equilibrium(p)
        wm = welfare_for_equilibrium(p, m)
        cells += [m.period1.effort, m.period2.effort, wm.dev1, wm.dev2, wm.deployer,
                  wm.consumer, wm.social]
    elif scenario == "integration":
        v = solve_integrated(p)
        cells += [w.dev1 + w.deployer, v.q1v, v.q2v, v.profit, v.consumer, v.social]
    elif scenario == "subsidy":
        sub = solve_subsidized(p)
        ws = welfare_for_equilibrium(p, sub)
        cells += [sub.regime, sub.strategy.w1, sub.strategy.eta1, sub.period1.effort,
                  sub.period2.effort, ws.dev1, ws.dev2, ws.deployer, ws.consumer,
                  ws.social, sub.subsidy_spend]
    return [_fmt(c) for c in cells] + ["ok"]


def _specs(params):
    # k past k_max (so the status column shows) in every scenario, mandate
    # and integration at s = 0; s past w_low for the scenarios that take an
    # s-sweep.
    specs = [SweepSpec("k", 0.0, 1.2 * k_max(replace(params, k=0.0, s=s)), 23, scenario)
             for scenario, s in (("baseline", params.s), ("mandate", 0.0),
                                 ("integration", 0.0), ("subsidy", params.s))]
    return specs + [SweepSpec("s", 0.0, 1.2 * params.w_low, 17, scenario)
                    for scenario in ("baseline", "subsidy")]


@pytest.mark.parametrize("params", _draws() + [SET_A, SET_B])
def test_sweep_cells_equal_the_per_point_solve(params):
    for spec in _specs(params):
        cols, rows = run_sweep(params, spec)
        fixed = replace(params, s=0.0) if spec.scenario in ("mandate", "integration") else params
        ok = 0
        for value, row in zip(_k_grid(spec.lo, spec.hi, spec.steps), rows):
            p = replace(fixed, **{spec.parameter: value})
            admitted = validate(p).ok
            if spec.scenario == "subsidy":
                admitted = admitted and validate(replace(p, s=0.0)).ok
            if admitted:
                ok += 1
                assert row == _scalar_row(p, spec.scenario), (spec, value)
            else:
                assert row[-1] != "ok" and row[2:-1] == [""] * (len(cols) - 3)
        assert 0 < ok < spec.steps, spec


@pytest.mark.parametrize("params", _draws() + [SET_A, SET_B])
def test_array_solve_and_welfare_carry_the_scalar_bits(params):
    # Below the formatting: every field of every layer, as float bits. The
    # s grid runs at a k that is admissible at every s.
    s_values = np.linspace(0.0, params.w_low, 13)
    k_s = 0.9 * min(k_max(replace(params, k=0.0, s=s)) for s in s_values.tolist())
    grids = [("k", params, np.linspace(0.0, k_max(replace(params, k=0.0)), 29)),
             ("s", replace(params, k=k_s), s_values)]
    for name, fixed, values in grids:
        grid = replace(fixed, **{name: values})
        points = [replace(fixed, **{name: v}) for v in values.tolist()]
        layers = [
            (solve, lambda eq: (eq.regime, eq.strategy.w1, eq.strategy.eta1, eq.period1.effort,
                                eq.period1.fee_paid, eq.period2.effort, eq.winner2,
                                eq.incumbent_profit)),
            (lambda p: welfare_for_equilibrium(p, solve(p)),
             lambda w: (w.dev1, w.dev2, w.deployer, w.consumer, w.social)),
            (lambda p: solve_subsidized(p).subsidy_spend, lambda spend: (spend,)),
        ]
        if name == "k":   # the s = 0 analyses
            layers += [
                (lambda p: welfare_for_equilibrium(replace(p, s=0.0),
                                                   mandate_equilibrium(replace(p, s=0.0))),
                 lambda w: (w.dev1, w.dev2, w.deployer, w.consumer, w.social)),
                (lambda p: solve_integrated(replace(p, s=0.0)),
                 lambda v: (v.q1v, v.q2v, v.profit, v.consumer, v.social)),
            ]
        for layer, fields in layers:
            on_grid = fields(layer(grid))
            for i, point in enumerate(points):
                expected = [_bits(x) for x in fields(layer(point))]
                got = [_bits(x.tolist()[i] if isinstance(x, np.ndarray) else x) for x in on_grid]
                assert got == expected, (name, i)


def _bracket_loop(f, grid):
    # The scan evaluated point by point on floats.
    vals = [f(x) for x in grid]
    out = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            out.append((grid[i], grid[i]))
        elif (vals[i] > 0) != (vals[i + 1] > 0):
            out.append((grid[i], grid[i + 1]))
    if vals[-1] == 0.0:
        out.append((grid[-1], grid[-1]))
    return vals, out


_SCAN_POINTS = [SET_A, replace(SET_B, s=0.0), MANDATE_SCAN_OVERSHOOT, INTEGRATION_SCAN_OVERSHOOT,
                TRAP_AT_JUMP] + [replace(p, s=0.0) for p in _draws()[:4]]


@pytest.mark.parametrize("params", _SCAN_POINTS)
def test_scans_find_the_brackets_of_the_point_by_point_scan(params):
    binding = _binding_range(params)
    scans = [] if binding is None else [(_trap_gap(params), _k_grid(*binding))]
    gaps = _integration_gaps(params)
    grid = _k_grid(0.0, k_max(params))
    scans += [(lambda k, i=i: gaps(k)[i], grid) for i in range(3)]
    for f, grid in scans:
        vals, brackets = _bracket_loop(f, grid)
        assert f(np.array(grid)).tolist() == vals
        assert sign_change_brackets(f, grid) == brackets


def test_grid_validation_names_the_first_bad_point():
    km = k_max(SET_A)
    with pytest.raises(InvalidParams, match="k exceeds k_max"):
        solve(replace(SET_A, k=np.array([0.0, km, 2.0 * km])))


def _scaled(*mutations):
    # closed_form._row with fields of some regimes' rows scaled.
    original = closed_form._row

    def mutant(params, which):
        row = original(params, which)
        for regime, field, factor in mutations:
            if which is regime:
                row = row._replace(**{field: getattr(row, field) * factor})
        return row

    return mutant


@pytest.mark.parametrize("mutations", [
    [(Regime.DEFEND, "revenue", 0.9)],        # solve's argmax guard
    [(Regime.DOMINATE, "consumer", 1.01)],    # the welfare cross-validation
    # Defend fails on consumer, dominate (at larger k) on an earlier component.
    [(Regime.DEFEND, "consumer", 1.01), (Regime.DOMINATE, "deployer", 1.01)],
], ids=["argmax", "welfare", "welfare-first-point"])
def test_a_failing_grid_point_raises_the_scalar_message(monkeypatch, mutations):
    ks = np.linspace(0.0, k_max(SET_A), 40)
    regimes = {regime for regime, _, _ in mutations}
    first = next(k for k in ks.tolist() if solve(replace(SET_A, k=k)).regime in regimes)
    monkeypatch.setattr(closed_form, "_row", _scaled(*mutations))

    def message(p):
        with pytest.raises(RuntimeError) as info:
            welfare_for_equilibrium(p, solve(p))
        return str(info.value)

    assert message(replace(SET_A, k=ks)) == message(replace(SET_A, k=first))
