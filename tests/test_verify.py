"""The verify checks that can be run on their own, without the oracle, and their guard;
and the serial route of oracle-equivalence and the fork route, which shares its k-points
between this process and forked children."""

import itertools
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    HARVEST_TO_DOMINATE,
    SET_A,
    SET_B,
    SUBSIDY_DEFEND_TO_DOMINATE,
    SUBSIDY_HARVEST_TO_DEFEND,
    SUBSIDY_HARVEST_TO_DOMINATE,
    TRAP_AT_JUMP,
    TWIN_NOT_ADMITTED,
    child_env,
)
from test_corners import _fuzz_cases
from fmgame import (
    InvalidParams,
    ModelParams,
    OracleConfig,
    Regime,
    ThresholdCrossing,
    closed_form,
    integration_thresholds,
    k_max,
    oracle,
    solve_integrated,
    validate,
    verify,
    welfare,
)
from fmgame.cli import main
from fmgame.params import stay_denominator
from fmgame.closed_form import regime_thresholds, scenario_profits, solve
from fmgame.verify import (
    _check_integration_thresholds,
    _check_regime_argmax,
    _check_row_primitives,
    _check_subsidy_limit,
    _check_threshold_shift,
    _check_trap_root,
    first_failure,
    random_valid_params,
    run_verification,
)

REPO = Path(__file__).resolve().parents[1]

#: run_verification's default oracle tolerance, for the checks called alone.
TOL = 1e-5


class TestTrapRootCheck:
    def test_root_zeroes_the_gap(self):
        passed, detail = _check_trap_root(SET_A, TOL)
        assert passed
        assert detail.startswith("k_bar=0.2567300309246")

    def test_jump_at_k_bar_2_passes_as_a_jump(self):
        passed, detail = _check_trap_root(TRAP_AT_JUMP, TOL)
        assert passed
        assert detail == ("k_bar=0.0687114618176639, jump at k_bar_2=0.06871146181768284 "
                          "(SW gap -669 to +120)")

    def test_non_root_off_the_jump_fails(self, monkeypatch):
        # Beside k_bar_2 by more than the bisection width the gap is -669,
        # neither a root nor the jump.
        k = regime_thresholds(TRAP_AT_JUMP).k_bar_2 - 1e-9
        monkeypatch.setattr(verify, "openness_trap_threshold", lambda params: k)
        passed, detail = _check_trap_root(TRAP_AT_JUMP, TOL)
        assert not passed
        assert detail == f"k_bar={k!r}, |gap|=6.69e+02"

    def test_root_off_the_binding_range_fails(self, monkeypatch):
        # Below k_bar_1 the baseline harvests at full openness, so the SW gap
        # is exactly 0: a root, but not on the range where the mandate binds.
        k = regime_thresholds(SET_A).k_bar_1 / 2
        monkeypatch.setattr(verify, "openness_trap_threshold", lambda params: k)
        passed, detail = _check_trap_root(SET_A, TOL)
        assert not passed
        assert detail == "k_bar=0.096, |gap|=0.00e+00"

    def test_no_root_where_the_mandate_lowers_welfare_throughout(self):
        passed, detail = _check_trap_root(HARVEST_TO_DOMINATE, TOL)
        assert passed
        assert detail == ("mandate lowers social welfare on the whole binding "
                          "range (SW gap +5.86 to +9.42)")

    def test_no_root_where_the_mandate_raises_welfare_throughout(self):
        passed, detail = _check_trap_root(replace(SET_A, eta_cap=0.8, k=0.0), TOL)
        assert passed
        assert detail.startswith("mandate raises social welfare on the whole")

    def test_mandate_never_binds(self):
        # Equal fees: k_max = 0, so the binding range (k_bar_1, k_max] is empty.
        passed, detail = _check_trap_root(replace(SET_A, w_low=2.5, k=0.0), TOL)
        assert passed
        assert detail == "mandate never binds"

    def test_missing_root_across_a_sign_change_fails(self, monkeypatch):
        # SET_A's gap changes sign on the binding range; a scan that reports
        # no root there must not pass.
        monkeypatch.setattr(verify, "openness_trap_threshold", lambda params: None)
        passed, detail = _check_trap_root(SET_A, TOL)
        assert not passed
        assert detail == "no root found, but the SW gap changes sign (-98.9 to +14.7)"


@pytest.mark.parametrize("params", [SET_A, SET_B], ids=["set_a", "set_b"])
def test_row_primitive_consistency_fails_every_one_field_row_mutant(params, monkeypatch):
    # eta1, q1, q2 and revenue of each regime's _row, and _eta_bar, each
    # scaled by 1 + 1e-6 and by 1 + 1e-9: the played-row check must FAIL on
    # every mutant. So must a retention boundary moved with everything
    # rebuilt from the primitives to match it, which only k q1 = eta1 tells
    # apart. A mutant that changes no value it is handed would be
    # equivalent: it is skipped and counted (none are, on these configs).
    original_row, original_eta_bar = closed_form._row, closed_form._eta_bar
    assert _check_row_primitives(params, TOL)[0]
    sites = [(regime, field) for regime in Regime for field in ("eta1", "q1", "q2", "revenue")]
    sites += [(Regime.DEFEND, "boundary"), (Regime.DOMINATE, "boundary"), (None, "_eta_bar")]
    survivors, equivalent = [], 0
    for (regime, field), size in itertools.product(sites, (1e-6, 1e-9)):
        changed = []

        def scaled(value, size=size):
            mutated = value * (1.0 + size)
            changed.append(bool(np.any(mutated != value)))
            return mutated

        def row_mutant(p, r, regime=regime, field=field):
            row = original_row(p, r)
            if r is not regime:
                return row
            if field != "boundary":
                return row._replace(**{field: scaled(getattr(row, field))})
            eta1 = scaled(row.eta1)
            q1 = (1.0 + eta1) * (p.theta + p.s - row.w1) / (2.0 * p.c)
            q2 = stay_denominator(p.k, q1, p.eta_cap) * (p.theta + p.s - p.w_low) / (2.0 * p.c)
            return row._replace(eta1=eta1, q1=q1, q2=q2, revenue=row.w1 * q1 + p.w_low * q2)

        with monkeypatch.context() as m:
            if regime is None:
                m.setattr(closed_form, "_eta_bar", lambda p, w1: scaled(original_eta_bar(p, w1)))
            else:
                m.setattr(closed_form, "_row", row_mutant)
            passed, _ = _check_row_primitives(params, TOL)
        if not any(changed):
            equivalent += 1
        elif passed:
            survivors.append((regime and regime.value, field, size))
    assert survivors == []
    assert equivalent == 0


def _stub_oracle(monkeypatch, compare):
    # The oracle replaced by the closed forms, and compare_with_oracle by
    # compare, to keep a run_verification fast.
    monkeypatch.setattr(verify, "compare_with_oracle", compare)
    monkeypatch.setattr(verify, "oracle_solve_game", lambda params, config: solve(params))
    monkeypatch.setattr(verify, "oracle_solve_integrated",
                        lambda params, config: solve_integrated(params))


def test_solve_guard_failure_is_a_named_fail(monkeypatch):
    # solve raises where its threshold regime misses the revenue argmax by
    # more than _CONSISTENCY_TOL; a negative tolerance trips the real guard
    # at every k. The argmax check turns that into its own FAIL line, naming
    # the grid's first k, instead of aborting the run. The oracle is stubbed
    # out with the closed forms to keep this fast.
    revenue = scenario_profits(replace(SET_A, k=0.0)).pi_s0
    monkeypatch.setattr(closed_form, "_CONSISTENCY_TOL", -1.0)
    _stub_oracle(monkeypatch, lambda params, config, rel_tol: None)
    checks = {check.name: check for check in run_verification(SET_A)}
    argmax = checks["regime-argmax-consistency"]
    assert not argmax.passed
    assert argmax.detail == (f"k=0.0: internal inconsistency: threshold regime harvest has "
                             f"revenue {revenue!r} but scenario argmax is {revenue!r}")
    assert checks["oracle-equivalence"].passed


# validate() admits this point, but its k_max, 6.8e-322, is subnormal: 61 of
# the 201 points of np.linspace(0, k_max, 201) round past it.
SUBNORMAL_K_MAX = ModelParams(
    theta=2.8264063694579657e+65, c=7.99579596894477e+28, w_high=2.400772404072905e-220,
    w_low=6.976310620577582e-221, eta_cap=3309387243749041.0, k=0.0)


def test_no_regime_argmax_point_lies_above_a_subnormal_k_max(monkeypatch):
    km = k_max(SUBNORMAL_K_MAX)
    assert validate(SUBNORMAL_K_MAX).ok
    assert np.count_nonzero(np.linspace(0.0, km, 201) > km) == 61
    assert _check_regime_argmax(SUBNORMAL_K_MAX, TOL) == (True, "")
    solved, solve_core = [], closed_form._solve

    def spy(params):
        solved.append(params.k)
        return solve_core(params)

    monkeypatch.setattr(closed_form, "_solve", spy)
    assert _check_regime_argmax(SUBNORMAL_K_MAX, TOL) == (True, "")
    assert [np.size(k) for k in solved] == [201]
    assert np.all(solved[0] <= km)


#: The checks that run their k-points as one array through the closed-form cores.
ARRAY_CHECKS = ("row-primitive-consistency", "regime-argmax-consistency",
                "welfare-cross-validation", "integration-effort-dominance")


def test_the_array_checks_pass_on_a_thousand_draws():
    # Every third draw is subsidized.
    rng = np.random.default_rng(5)
    corpus = [random_valid_params(rng, with_subsidy=i % 3 == 2) for i in range(1000)]
    checks = dict(verify._CHECKS)
    failed = [(i, name, detail) for i, params in enumerate(corpus) for name in ARRAY_CHECKS
              for passed, detail in [checks[name](params, TOL)] if not passed]
    assert failed == []


# The admitted fuzz parameter sets of tests/test_corners.py (at k = 0) whose
# rows miss the primitives beyond row-primitive-consistency's bound: the 24
# admitted fuzz points of ROADMAP item 4. A fix shrinks this list.
ROW_PRIMITIVE_MISSES = [
    ModelParams(theta=93555.22095101872, c=6.089523893613023e-131, w_high=9.346564305064682e-184,
                w_low=0.0, eta_cap=3.716118459303998e-20, k=0.0),
    ModelParams(theta=5.935364708075213e-15, c=1.510227966732103e-133,
                w_high=7.203596586515856e-16, w_low=8.45379736e-315,
                eta_cap=0.13569226528599587, k=0.0),
    ModelParams(theta=1.3531492042556044e-12, c=9.636653594135648e-43,
                w_high=5.126406789067546e-302, w_low=0.0, eta_cap=1.780481677099316e+44, k=0.0),
    ModelParams(theta=3.4187557756742617e-84, c=1.6309261218626e-17, w_high=8.66959834746164e-85,
                w_low=5.22030403841089e-272, eta_cap=4.4133866747226405e+24, k=0.0,
                s=7.140742325387625e-273),
    ModelParams(theta=1.1598528198176529e-07, c=1.0870480625937568e-95,
                w_high=7.408070034690433e-186, w_low=4.4e-321, eta_cap=184560310338978.94, k=0.0,
                s=2.787e-321),
    ModelParams(theta=8.887489740192898e+59, c=9.220585538084152e+127,
                w_high=7.637998930431412e-241, w_low=5.684014508708687e-255,
                eta_cap=1.649972226229399e-17, k=0.0, s=9.21398426674686e-256),
    ModelParams(theta=8.227005400062747e-81, c=4.922808493628346e-130,
                w_high=4.1135027000313735e-81, w_low=1.24e-322, eta_cap=2150701204100.7288, k=0.0),
    ModelParams(theta=7.200162415136429e-61, c=5.374834941074959e-66, w_high=4.05723748990515e-97,
                w_low=4.83506905e-316, eta_cap=14750847180715.566, k=0.0),
]


def test_row_primitive_consistency_fails_only_at_the_known_fuzz_sets():
    # _fuzz_cases gives each parameter set at k = 0, k_max / 2 and k_max;
    # the check reads no params.k, so the first of the three stands for all.
    sets = [p for p in itertools.islice(_fuzz_cases(np.random.default_rng(20261018), 2000),
                                        0, None, 3) if validate(p).ok]
    assert len(sets) == 770
    assert [p for p in sets if not _check_row_primitives(p, TOL)[0]] == ROW_PRIMITIVE_MISSES


class TestIntegrationThresholdsCheck:
    def test_roots_zero_their_differences(self):
        passed, detail = _check_integration_thresholds(SET_A, TOL)
        assert passed
        assert detail.startswith("chain k_bar=0.1240000000000255, |diff|=")

    def test_jumps_at_k_bar_1_pass_as_jumps(self):
        # set_b's three crossings lie within 1e-13 of its k_bar_1 = 0.04992.
        passed, detail = _check_integration_thresholds(replace(SET_B, s=0.0), TOL)
        assert passed
        assert detail.count("jump at k_bar_1=0.049920000000000006") == 3

    def test_shifted_root_fails(self, monkeypatch):
        found = integration_thresholds(SET_A)
        shifted = replace(found.consumer, value=found.consumer.value + 1e-3)
        monkeypatch.setattr(verify, "integration_thresholds",
                            lambda params: replace(found, consumer=shifted))
        passed, detail = _check_integration_thresholds(SET_A, TOL)
        assert not passed
        assert f"consumer k_bar={shifted.value!r}, |diff|=" in detail

    def test_missing_root_across_a_sign_change_fails(self, monkeypatch):
        found = integration_thresholds(SET_A)
        always = ThresholdCrossing(value=None, status="always")
        monkeypatch.setattr(verify, "integration_thresholds",
                            lambda params: replace(found, social=always))
        passed, detail = _check_integration_thresholds(SET_A, TOL)
        assert not passed
        assert "social always, but (diff -" in detail


class TestSubsidyThresholdShift:
    @pytest.mark.parametrize("params", [
        SET_B, SUBSIDY_HARVEST_TO_DEFEND, SUBSIDY_HARVEST_TO_DOMINATE, SUBSIDY_DEFEND_TO_DOMINATE,
    ], ids=["set_b", "harvest_to_defend", "harvest_to_dominate", "defend_to_dominate"])
    def test_valid_configs_pass(self, params):
        passed, _ = _check_threshold_shift(params, TOL)
        assert passed

    def test_falling_thresholds_pass_where_their_slopes_are_negative(self):
        # Both pieces of each binding threshold fall on [theta, theta + s].
        _, detail = _check_threshold_shift(SUBSIDY_HARVEST_TO_DEFEND, TOL)
        assert detail == ("k_bar_1 0.03242346795895074->0.03194491276921109, "
                          "k_bar_2 0.1444145643818461->0.1424353174985358")

    def test_a_slope_changing_sign_is_checked_against_a_central_difference(self):
        # k_bar_12's slope changes sign on [theta, theta + s]; k_bar_23 binds.
        _, detail = _check_threshold_shift(SUBSIDY_HARVEST_TO_DOMINATE, TOL)
        assert detail.endswith("k_bar_2 slope -0.0282939 matches its central "
                               "difference -0.0282939")

    def test_a_threshold_moving_against_the_prediction_fails(self, monkeypatch):
        # set_b's k_bar_1 is predicted to rise; a patched one falls instead.
        real = regime_thresholds

        def lowered(params):
            th = real(params)
            return replace(th, k_bar_1=th.k_bar_1 - 0.02) if params.s > 0 else th

        monkeypatch.setattr(verify, "regime_thresholds", lowered)
        passed, detail = _check_threshold_shift(SET_B, TOL)
        assert dict(verify._SUBSIDY_CHECKS)["subsidy-threshold-shift"] is _check_threshold_shift
        assert not passed
        assert detail.endswith("; k_bar_1 against its predicted rise")

    def test_a_slope_off_its_central_difference_fails(self, monkeypatch):
        real = verify._thresholds
        monkeypatch.setattr(verify, "_thresholds",
                            lambda params: replace(real(params), k_bar_2=real(params).k_bar_2
                                                   * (1.0 + params.s)))
        passed, detail = _check_threshold_shift(SUBSIDY_HARVEST_TO_DOMINATE, TOL)
        assert not passed
        assert "k_bar_2 slope -0.0282939 differs from its central difference" in detail

    def test_an_underflowing_slope_denominator_is_a_named_fail(self):
        # An admitted point where all three slope denominators underflow to
        # 0.0; k_bar_2 takes the central-difference route there.
        p = ModelParams(theta=1.867215787532928e-100, c=6.526088774288573e+79,
                        w_high=4.4549618330144236e-101, w_low=2.3867126371162283e-101,
                        eta_cap=4.3447455484298015e+63, k=0.0, s=2.952433540371866e-102)
        assert validate(p).ok
        passed, detail = _check_threshold_shift(p, TOL)
        assert not passed
        assert detail.endswith("; k_bar_2 slope undefined: the denominator of k_bar_23's "
                               "slope underflows to 0.0")


def test_subsidy_limit_continuity_plays_an_s_no_larger_than_the_points_own():
    # s = 2e-9 is admitted, but the check's 1e-8 would exceed w_low = 5e-9.
    p = ModelParams(theta=5.0, c=1.0, w_high=1.0, w_low=5e-9, eta_cap=1.0, k=0.1, s=2e-9)
    assert validate(p).ok
    assert not validate(replace(p, s=1e-8)).ok
    passed, detail = _check_subsidy_limit(p, TOL)
    assert passed, detail


def test_the_checks_that_play_the_twin_name_a_twin_that_is_not_admitted():
    # Each takes the twin from baseline_twin before any oracle call.
    checks = dict(verify._CHECKS + verify._SUBSIDY_CHECKS)
    for name in ("welfare-cross-validation", "mandate-welfare-flat", "trap-root",
                 "integration-effort-dominance", "integration-thresholds",
                 "integrated-oracle-agreement", "subsidy-threshold-shift",
                 "subsidy-limit-continuity"):
        with pytest.raises(InvalidParams, match="^invalid parameters: s = 0 twin: retention "):
            checks[name](TWIN_NOT_ADMITTED, TOL)


def test_a_check_that_raises_is_its_own_named_fail(monkeypatch, capsys):
    # Harvest q2 scaled by 1 + 1e-6: the welfare cross-validation raises
    # inside several checks. Each becomes a FAIL line named for its check,
    # and the run goes on. The oracle is stubbed out to keep this fast.
    original = closed_form._row

    def mutant(params, regime):
        row = original(params, regime)
        return row._replace(q2=row.q2 * (1.0 + 1e-6)) if regime is Regime.HARVEST else row

    monkeypatch.setattr(closed_form, "_row", mutant)
    monkeypatch.setattr(welfare, "_row", mutant)
    _stub_oracle(monkeypatch, lambda params, config, rel_tol: None)
    assert main(["verify", "--config", str(REPO / "configs" / "set_a.cfg")]) == 1
    lines = capsys.readouterr().out.splitlines()
    for name in ("welfare-cross-validation", "mandate-welfare-flat"):
        assert (f"FAIL {name}: raised RuntimeError: welfare cross-validation failed "
                "for component 'consumer' in regime 'harvest'") in "\n".join(lines)
    assert "FAIL row-primitive-consistency: harvest q2 " in "\n".join(lines)
    assert lines[-1] == "8/13 checks passed"


def test_a_subsidy_check_that_raises_is_its_own_named_fail(monkeypatch, capsys):
    # The subsidy rows run through the same guard as the others.
    def raise_stub(params):
        raise RuntimeError("stub")

    monkeypatch.setattr(verify, "solve", raise_stub)
    _stub_oracle(monkeypatch, lambda params, config, rel_tol: None)
    assert main(["verify", "--config", str(REPO / "configs" / "set_b.cfg")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL subsidy-limit-continuity: raised RuntimeError: stub" in lines
    assert "FAIL subsidy-welfare-cross-validation: raised RuntimeError: stub" in lines
    assert lines[-1] == "14/16 checks passed"


def test_grid_refinement_names_both_plays_when_they_differ(monkeypatch):
    # The coarse grid's play moved to eta1 = 0, farther than one coarse grid
    # step from the fine grid's: the FAIL names both plays.
    fine_points = OracleConfig().eta_grid_points
    _stub_oracle(monkeypatch, lambda params, config, rel_tol: None)
    monkeypatch.setattr(verify, "oracle_solve_game", lambda params, config: (
        solve(params) if config.eta_grid_points == fine_points
        else replace(solve(params), eta1=0.0)))
    checks = {check.name: check for check in run_verification(SET_A)}
    refinement = checks["oracle-grid-refinement"]
    assert not refinement.passed
    assert refinement.detail == "w1=2.5, eta1=0.0 vs w1=2.5, eta1=0.3333333333333333"


# oracle-equivalence shared between this process and forked children (the
# fork route) and all in this process (the serial route, where one CPU may be
# used) must give the same results.

def _use_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def test_the_closed_form_checks_pass_on_a_seeded_corpus(monkeypatch):
    # 20 draws at s = 0 and 20 subsidized ones, in turn; the oracle is stubbed out
    # with the closed forms, so every other check runs as it does in verify.
    rng = np.random.default_rng(20261018)
    corpus = [random_valid_params(rng, with_subsidy=i % 2 == 1) for i in range(40)]
    _stub_oracle(monkeypatch, lambda params, config, rel_tol: None)
    _use_cpus(monkeypatch, 1)
    failed = [(i, check.name, check.detail) for i, params in enumerate(corpus)
              for check in run_verification(params) if not check.passed]
    assert failed == []


@pytest.fixture(params=[1, 2], ids=["serial", "fork"])
def route(request, monkeypatch):
    _use_cpus(monkeypatch, request.param)
    return request.param


def _oracle_ks(params):
    km = k_max(params)
    return [float(k) for k in (np.arange(verify._ORACLE_K_POINTS) + 0.5)
            / verify._ORACLE_K_POINTS * km]


def test_routes_check_in_this_process_or_in_workers(route):
    # Point 0 is checked in this process on both routes; point 1 here on the
    # serial route and in a forked child on the fork route.
    checked_here = []

    def check(point):
        checked_here.append(point)   # a child appends to its own copy
        return str(os.getpid()) if point == 1 else None

    found = first_failure(check, [0, 1])
    assert found[0] == 1
    assert (int(found[1]) == os.getpid()) == (route == 1)
    assert checked_here == ([0, 1] if route == 1 else [0])


@pytest.mark.parametrize("params", [SET_A, SET_B], ids=["set_a", "set_b"])
def test_both_routes_return_equal_checks(params, monkeypatch):
    _use_cpus(monkeypatch, 1)
    serial = run_verification(params)
    _use_cpus(monkeypatch, 2)
    assert run_verification(params) == serial
    assert multiprocessing.active_children() == []


def test_the_first_failing_k_point_is_named(route, monkeypatch):
    # The 81st k-point, in this process's share, fails at once; the 38th, in
    # a child's, only later. The lowest failing index is named, as in a
    # serial loop.
    ks = _oracle_ks(SET_A)

    def compare(params, config, rel_tol):
        if params.k == ks[37]:
            time.sleep(0.3)
            return "stub at the 38th"
        return "stub at the 81st" if params.k == ks[80] else None

    _stub_oracle(monkeypatch, compare)
    check = {c.name: c for c in run_verification(SET_A)}["oracle-equivalence"]
    assert not check.passed
    assert check.detail == f"k={ks[37]!r}: stub at the 38th"
    assert multiprocessing.active_children() == []


def test_an_earlier_failure_that_arrives_late_is_named(route, monkeypatch):
    # The mirror case: the 39th k-point, in this process's share, fails only
    # later; the 82nd, in a child's share, at once. The 39th is named.
    ks = _oracle_ks(SET_A)

    def compare(params, config, rel_tol):
        if params.k == ks[38]:
            time.sleep(0.3)
            return "stub at the 39th"
        return "stub at the 82nd" if params.k == ks[81] else None

    _stub_oracle(monkeypatch, compare)
    check = {c.name: c for c in run_verification(SET_A)}["oracle-equivalence"]
    assert not check.passed
    assert check.detail == f"k={ks[38]!r}: stub at the 39th"
    assert multiprocessing.active_children() == []


def test_a_child_that_dies_without_reporting_is_named(monkeypatch):
    # Point 1 is a child's on two CPUs; os._exit ends the child at once.
    _use_cpus(monkeypatch, 2)

    def check(point):
        if point == 1:
            os._exit(3)

    with pytest.raises(RuntimeError, match="exit code 3"):
        first_failure(check, [0, 1, 2, 3])
    assert multiprocessing.active_children() == []


class Odd(Exception):
    # Pickled as Odd(message) plus its attributes, so it cannot be rebuilt;
    # holding a lock, it cannot be pickled at all.
    def __init__(self, message, hold):
        super().__init__(message)
        self.hold = hold


@pytest.mark.parametrize("hold", [threading.Lock(), None], ids=["dumps", "loads"])
def test_a_childs_exception_that_does_not_pickle_is_named(monkeypatch, hold):
    # On two CPUs point 3 is a child's, point 2 this process's. The child
    # sends back the exception's text, never the exception itself.
    _use_cpus(monkeypatch, 2)

    def check(point):
        if point == 3:
            raise Odd("odd", hold)

    assert first_failure(check, list(range(6))) == (3, "raised Odd: odd")
    assert multiprocessing.active_children() == []
    assert first_failure(lambda point: "lower" if point == 2 else check(point),
                         list(range(6))) == (2, "lower")
    assert multiprocessing.active_children() == []


def test_grid_refinement_reuses_this_processs_k_free_grid(route):
    # oracle-equivalence checks some k-points in this process on both routes,
    # so the fine grid of oracle-grid-refinement is a hit, the coarse one a miss.
    oracle._k_free_grid.cache_clear()
    try:
        assert verify._check_oracle_equivalence(SET_A, 1e-5)[0]
        before = oracle._k_free_grid.cache_info()
        assert verify._check_grid_refinement(SET_A, 1e-5)[0]
        after = oracle._k_free_grid.cache_info()
    finally:
        oracle._k_free_grid.cache_clear()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 1)


@pytest.mark.parametrize("exc, line", [
    (RuntimeError("stub"), "raised RuntimeError: stub"),
    (InvalidParams(validate(replace(SET_A, c=-1.0))),
     "raised InvalidParams: invalid parameters: c must be positive"),
], ids=["RuntimeError", "InvalidParams"])
def test_an_exception_at_one_k_point_is_the_checks_fail(route, monkeypatch, exc, line):
    # The 51st k-point raises, in this process's share on both routes; the
    # FAIL line names it like any failed point.
    ks = _oracle_ks(SET_A)

    def compare(params, config, rel_tol):
        if params.k == ks[50]:
            raise exc

    _stub_oracle(monkeypatch, compare)
    check = {c.name: c for c in run_verification(SET_A)}["oracle-equivalence"]
    assert (check.passed, check.detail) == (False, f"k={ks[50]!r}: {line}")
    assert multiprocessing.active_children() == []


class _Deadline(BaseException):
    pass


def _raise_deadline(signum, frame):
    raise _Deadline()


def test_an_interrupt_inside_oracle_equivalence_leaves_no_worker(route, monkeypatch):
    # As a bench op is stopped at its deadline: SIGALRM raises a
    # BaseException, here 0.3 s into a 100-point check of 5 s of work.
    def arm_alarm(params, config):
        # integrated-oracle-agreement, the check just before oracle-equivalence
        signal.setitimer(signal.ITIMER_REAL, 0.3)
        return solve_integrated(params)

    def slow(params, config, rel_tol):
        time.sleep(0.05)

    _stub_oracle(monkeypatch, slow)
    monkeypatch.setattr(verify, "oracle_solve_integrated", arm_alarm)
    previous = signal.signal(signal.SIGALRM, _raise_deadline)
    try:
        with pytest.raises(_Deadline):
            run_verification(SET_A)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


def _running(pid: int) -> bool:
    # Neither gone nor a zombie (Linux /proc; elsewhere always False).
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def test_workers_end_when_their_parent_is_killed():
    # SIGKILL gives the parent no chance to kill its child; the two pids read
    # are the parent's (point 0) and the child's (point 1).
    script = ("import os, time\n"
              "os.sched_getaffinity = lambda pid: {0, 1}\n"
              "from fmgame.verify import first_failure\n"
              "def check(point):\n"
              "    os.write(1, b'%d\\n' % os.getpid())\n"
              "    time.sleep(60)\n"
              "first_failure(check, [0, 1])\n")
    proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
                            env=child_env())
    try:
        workers = [int(proc.stdout.readline()) for _ in range(2)]
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()
    deadline = time.monotonic() + 10.0
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, workers))
