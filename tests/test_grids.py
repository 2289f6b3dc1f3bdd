"""The closed forms on a grid of parameters against the per-point scalar path.

A sweep solves its admitted points in one array pass, and a threshold scan
evaluates its difference once on the whole grid; the cores also solve a
corpus whose seven fields are all arrays. Each must carry, cell by cell,
the bits of the scalar solve at each point, which the per-point loops
below compute as the reference.
"""

import sys
from dataclasses import replace
from enum import Enum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    INTEGRATION_SCAN_OVERSHOOT,
    MANDATE_SCAN_OVERSHOOT,
    RETENTION,
    RETENTION_LOST_AT_K_MAX,
    SET_A,
    SET_B,
    TRAP_AT_JUMP,
)
from fmgame import (
    InvalidParams,
    ModelParams,
    Regime,
    SweepSpec,
    closed_form,
    integration_thresholds,
    k_max,
    mandate_equilibrium,
    openness_trap_threshold,
    random_valid_params,
    regime_thresholds,
    run_sweep,
    solve_integrated,
    solve_subsidized,
    validate,
    welfare_for_equilibrium,
)
from fmgame import sweep
from fmgame.closed_form import _solve, solve
from fmgame.extensions import _integrated, _integration_gaps
from fmgame.numerics import sign_change_brackets
from fmgame.params import _FIELDS
from fmgame.sweep import _fmt, _fmt_column
from fmgame.welfare import _binding_range, _k_grid, _mandate_equilibrium, _trap_gap
from test_corners import FEE_SHARES, _cases, _fuzz_cases


def _draws():
    rng = np.random.default_rng(20261018)
    return [random_valid_params(rng, with_subsidy=i % 2 == 1) for i in range(8)]


def _bits(x) -> str:
    return x.value if isinstance(x, Enum) else float(x).hex()


def _welfare_fields(w) -> tuple:
    return w.dev1, w.dev2, w.deployer, w.consumer, w.social


def _scalar_row(p, scenario: str) -> list[str]:
    # One sweep row the way the per-point loop built it.
    base_p = replace(p, s=0.0) if scenario == "subsidy" else p
    eq = solve(base_p)
    w = welfare_for_equilibrium(base_p, eq)
    cells = [p.k, p.s, eq.regime, eq.w1, eq.eta1,
             eq.q1, eq.q2, w.dev1, w.dev2, w.deployer,
             w.consumer, w.social]
    if scenario == "mandate":
        m = mandate_equilibrium(p)
        wm = welfare_for_equilibrium(p, m)
        cells += [m.q1, m.q2, wm.dev1, wm.dev2, wm.deployer,
                  wm.consumer, wm.social]
    elif scenario == "integration":
        v = solve_integrated(p)
        cells += [w.dev1 + w.deployer, v.q1v, v.q2v, v.profit, v.consumer, v.social]
    elif scenario == "subsidy":
        sub = solve_subsidized(p)
        ws = welfare_for_equilibrium(p, sub)
        cells += [sub.regime, sub.w1, sub.eta1, sub.q1,
                  sub.q2, ws.dev1, ws.dev2, ws.deployer, ws.consumer,
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


def _point_status(fixed, spec, value) -> str:
    # The status column of one point, from its own validate() calls.
    p = replace(fixed, **{spec.parameter: value})
    report = validate(replace(p, s=0.0)) if spec.scenario == "subsidy" else validate(p)
    if report.ok and spec.scenario == "subsidy":
        report = validate(p)
    return "; ".join(report.violations) if not report.ok else "ok"


# Ways to break a config: (field, the field it is scaled from, factor).
_BREAKS = (("w_low", "w_high", 1.1), ("c", "c", -1.0), ("s", "w_low", 1.5),
           ("s", "w_low", -0.5), ("w_high", "theta", 0.6), ("eta_cap", "eta_cap", -1.0),
           ("eta_cap", "eta_cap", float("inf")), ("theta", "theta", -1.0))


@st.composite
def _k_sweeps(draw):
    # Configs valid or broken in up to three ways, some with a subsidy (a
    # negative one puts its own k_max above the twin's) or with an eta_cap
    # of 1e12 to 1e17, where from 1e16 the retention margin is lost; k grids
    # that start below 0 and end up to 3 k_max.
    theta = draw(st.floats(2.0, 10.0))
    w_high = draw(st.floats(0.15, 0.5)) * theta
    w_low = draw(st.floats(0.1, 0.95)) * w_high
    eta_cap = draw(st.one_of(st.floats(0.3, 3.0), st.sampled_from([1e12, 1e15, 1e16, 1e17])))
    s = draw(st.sampled_from([0.0, 1.0])) * draw(st.floats(0.0, 1.0)) * w_low
    p = ModelParams(theta=theta, c=draw(st.floats(0.3, 3.0)), w_high=w_high, w_low=w_low,
                    eta_cap=eta_cap, k=0.0, s=s)
    breaks = draw(st.lists(st.sampled_from(_BREAKS), max_size=3, unique=True))
    for field, source, factor in breaks:
        p = replace(p, **{field: factor * getattr(p, source)})
    scenario = draw(st.sampled_from(["baseline", "mandate", "integration", "subsidy"]))
    top = 1.0 if breaks else k_max(replace(p, s=0.0))
    lo = draw(st.floats(-0.5, 1.0)) * top
    hi = lo + draw(st.floats(0.01, 3.0)) * top
    return p, SweepSpec("k", lo, min(hi, 3.0 * top), draw(st.integers(2, 60)), scenario)


@given(_k_sweeps())
@settings(max_examples=300, deadline=None)
def test_a_k_sweep_status_is_each_points_own_validation(sweep_input):
    params, spec = sweep_input
    fixed = replace(params, s=0.0) if spec.scenario in ("mandate", "integration") else params
    _, rows = run_sweep(params, spec)
    grid = _k_grid(spec.lo, spec.hi, spec.steps)
    assert [row[-1] for row in rows] == [_point_status(fixed, spec, v) for v in grid]
    assert [row[:2] for row in rows] == [[_fmt(v), _fmt(fixed.s)] for v in grid]


def _counting_validate(monkeypatch) -> list:
    calls = []

    def counting(p):
        calls.append(p)
        return validate(p)

    monkeypatch.setattr(sweep, "validate", counting)
    return calls


@pytest.mark.parametrize("scenario", ["baseline", "mandate", "integration", "subsidy"])
@pytest.mark.parametrize("params", [SET_A, SET_B], ids=["set_a", "set_b"])
def test_a_k_sweep_validates_once_per_run_of_equal_reports(monkeypatch, params, scenario):
    twin = params if scenario == "subsidy" else replace(params, s=0.0)
    calls = _counting_validate(monkeypatch)
    run_sweep(params, SweepSpec("k", 0.0, 1.2 * k_max(twin), 400, scenario))
    assert 0 < len(calls) <= 30


@pytest.mark.parametrize("scenario", ["baseline", "subsidy"])
@pytest.mark.parametrize("params", [SET_A, SET_B], ids=["set_a", "set_b"])
def test_an_s_sweep_validates_every_point(monkeypatch, params, scenario):
    # One call per point, and a first one on the s = 0 twin for the subsidy,
    # which admits the twin here.
    spec = SweepSpec("s", 0.0, 1.2 * params.w_low, 17, scenario)
    assert validate(replace(params, s=0.0)).ok
    calls = _counting_validate(monkeypatch)
    run_sweep(params, spec)
    assert len(calls) == spec.steps * (2 if scenario == "subsidy" else 1)


@pytest.mark.parametrize("col", [
    np.array([-0.0, 0.0, 5e-324, 1e300, 0.1 + 0.2, 1 / 3]),
    -np.array([-0.0, 0.0, 5e-324, 1e300, 0.1 + 0.2, 1 / 3]),
    np.array(list(Regime), dtype=object),
], ids=["floats", "negated", "regimes"])
def test_a_column_formats_as_its_cells_one_by_one(col):
    assert _fmt_column(col) == [_fmt(x) for x in col]


def _k_and_s_grids(params):
    # (grid, its points): k over [0, k_max], and s over [0, w_low] at a k
    # that is admissible at every s.
    s_values = np.linspace(0.0, params.w_low, 13)
    k_s = 0.9 * min(k_max(replace(params, k=0.0, s=s)) for s in s_values.tolist())
    for name, fixed, values in (("k", params, np.linspace(0.0, k_max(replace(params, k=0.0)), 29)),
                                ("s", replace(params, k=k_s), s_values)):
        yield (replace(fixed, **{name: values}),
               [replace(fixed, **{name: v}) for v in values.tolist()])


def _stacked(points) -> ModelParams:
    # One grid whose seven fields are arrays, a point per element.
    return ModelParams(**{name: np.array([getattr(p, name) for p in points]) for name in _FIELDS})


def _corpus():
    # [(grid, its points)] of seeded draws, every third subsidized; equal-fee
    # and zero-fee points at k = 0 (the only admissible k there); and every
    # admitted corner and fuzz point of test_corners.
    rng = np.random.default_rng(7)
    draws = [random_valid_params(rng, with_subsidy=i % 3 == 0) for i in range(2000)]
    points = (draws + [replace(p, w_low=p.w_high, k=0.0) for p in draws[:100]]
              + [replace(p, w_high=0.0, w_low=0.0, k=0.0, s=0.0) for p in draws[:100]]
              + [p for fees in FEE_SHARES for subsidized in (False, True)
                 for p in _cases(fees, subsidized)]
              + [p for p in _fuzz_cases(np.random.default_rng(20261018), 2000)
                 if validate(p).ok])
    return [(_stacked(points), points)]


@pytest.mark.parametrize("params", _draws() + [SET_A, SET_B, "corpus"])
def test_array_solve_and_welfare_carry_the_scalar_bits(params):
    # Below the formatting: every field of every layer, as float bits, from
    # the cores on the grid and from the public solvers at each point. The
    # s = 0 analyses run on the points whose s = 0 twin is admitted.
    for grid, points in _corpus() if params == "corpus" else _k_and_s_grids(params):
        twins = [replace(p, s=0.0) for p in points if validate(replace(p, s=0.0)).ok]
        twin_grid = replace(grid, s=0.0) if len(twins) == len(points) else _stacked(twins)
        # (core, public solver, fields, on the s = 0 twins)
        layers = [
            (_solve, solve,
             lambda eq: (eq.regime, eq.w1, eq.eta1, eq.q1,
                         eq.q2, eq.winner2,
                         eq.incumbent_profit, eq.dev2, eq.deployer, eq.consumer,
                         eq.subsidy_spend), False),
            (lambda p: welfare_for_equilibrium(p, _solve(p)),
             lambda p: welfare_for_equilibrium(p, solve(p)), _welfare_fields, False),
            (lambda p: _solve(p).subsidy_spend,
             lambda p: solve_subsidized(p).subsidy_spend, lambda spend: (spend,), False),
            (closed_form._thresholds, regime_thresholds, lambda th: tuple(vars(th).values()),
             False),
            (lambda p: welfare_for_equilibrium(p, _mandate_equilibrium(p)),
             lambda p: welfare_for_equilibrium(p, mandate_equilibrium(p)), _welfare_fields, True),
            (_integrated, solve_integrated,
             lambda v: (v.q1v, v.q2v, v.profit, v.consumer, v.social), True),
        ]
        for core, public, fields, on_twins in layers:
            # Where a quotient overflows to inf a Python float stays silent
            # and numpy warns (eta_prime at some fuzz points): ignore only that.
            with np.errstate(divide="raise", invalid="raise", over="ignore"):
                on_grid = fields(core(twin_grid if on_twins else grid))
            at = twins if on_twins else points
            columns = [x.tolist() if isinstance(x, np.ndarray) else [x] * len(at)
                       for x in on_grid]
            for i, point in enumerate(at):
                expected = [_bits(x) for x in fields(public(point))]
                assert [_bits(column[i]) for column in columns] == expected, (core, i)


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


@pytest.mark.parametrize("scan", [integration_thresholds, openness_trap_threshold])
def test_a_scan_validates_its_k_range_once(monkeypatch, scan):
    # Its grid and bisection points run on the cores, and validate() admits
    # the params at every k of the range: only the params and the scan's
    # fixed points are validated.
    calls = []

    def counting(p):
        calls.append(p)
        return validate(p)

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("fmgame") \
                and getattr(module, "validate", None) is validate:
            monkeypatch.setattr(module, "validate", counting)
    scan(SET_A)
    assert 0 < len(calls) <= 3


@pytest.mark.parametrize("scan", [integration_thresholds, openness_trap_threshold])
def test_a_scan_ending_at_a_rejected_k_max_raises_its_report(scan):
    assert validate(RETENTION_LOST_AT_K_MAX).violations == (RETENTION,)
    with pytest.raises(InvalidParams, match="retention threshold undefined"):
        scan(RETENTION_LOST_AT_K_MAX)


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

    def message(p, solver):
        with pytest.raises(RuntimeError) as info:
            welfare_for_equilibrium(p, solver(p))
        return str(info.value)

    assert message(replace(SET_A, k=ks), _solve) == message(replace(SET_A, k=first), solve)
