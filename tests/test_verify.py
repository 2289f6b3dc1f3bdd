"""The verify checks that can be run on their own, without the oracle, and their guard."""

from dataclasses import replace
from pathlib import Path

import pytest

from conftest import (
    HARVEST_TO_DOMINATE,
    SET_A,
    SET_B,
    SUBSIDY_DEFEND_TO_DOMINATE,
    SUBSIDY_HARVEST_TO_DEFEND,
    SUBSIDY_HARVEST_TO_DOMINATE,
    TRAP_AT_JUMP,
)
from fmgame import (
    Regime,
    ThresholdCrossing,
    closed_form,
    integration_thresholds,
    k_max,
    solve_integrated,
    verify,
    welfare,
)
from fmgame.cli import main
from fmgame.closed_form import regime_thresholds, solve
from fmgame.verify import (
    _check_integration_thresholds,
    _check_threshold_shift,
    _check_trap_root,
    run_verification,
)

REPO = Path(__file__).resolve().parents[1]


class TestTrapRootCheck:
    def test_root_zeroes_the_gap(self):
        result = _check_trap_root(SET_A)
        assert result.passed
        assert result.detail.startswith("k_bar=0.2567300309246")

    def test_jump_at_k_bar_2_passes_as_a_jump(self):
        result = _check_trap_root(TRAP_AT_JUMP)
        assert result.passed
        assert result.detail == ("k_bar=0.0687114618176639, jump at k_bar_2=0.06871146181768284 "
                                 "(SW gap -669 to +120)")

    def test_non_root_off_the_jump_fails(self, monkeypatch):
        # Beside k_bar_2 by more than the bisection width the gap is -669,
        # neither a root nor the jump.
        k = regime_thresholds(TRAP_AT_JUMP).k_bar_2 - 1e-9
        monkeypatch.setattr(verify, "openness_trap_threshold", lambda params: k)
        result = _check_trap_root(TRAP_AT_JUMP)
        assert not result.passed
        assert result.detail == f"k_bar={k!r}, |gap|=6.69e+02"

    def test_no_root_where_the_mandate_lowers_welfare_throughout(self):
        result = _check_trap_root(HARVEST_TO_DOMINATE)
        assert result.passed
        assert result.detail == ("mandate lowers social welfare on the whole binding "
                                 "range (SW gap +5.86 to +9.42)")

    def test_no_root_where_the_mandate_raises_welfare_throughout(self):
        result = _check_trap_root(replace(SET_A, eta_cap=0.8, k=0.0))
        assert result.passed
        assert result.detail.startswith("mandate raises social welfare on the whole")

    def test_mandate_never_binds(self):
        # Equal fees: k_max = 0, so the binding range (k_bar_1, k_max] is empty.
        result = _check_trap_root(replace(SET_A, w_low=2.5, k=0.0))
        assert result.passed
        assert result.detail == "mandate never binds"

    def test_missing_root_across_a_sign_change_fails(self, monkeypatch):
        # SET_A's gap changes sign on the binding range; a scan that reports
        # no root there must not pass.
        monkeypatch.setattr(verify, "openness_trap_threshold", lambda params: None)
        result = _check_trap_root(SET_A)
        assert not result.passed
        assert result.detail == "no root found, but the SW gap changes sign (-98.9 to +14.7)"


def test_solve_guard_failure_is_a_named_fail(monkeypatch):
    # solve raises when its threshold regime misses the revenue argmax; the
    # argmax check turns that into its own FAIL line instead of aborting the
    # run. The oracle is stubbed out with the closed forms to keep this fast.
    km = k_max(SET_A)

    def solve_or_raise(params):
        if params.k == km:
            raise RuntimeError("internal inconsistency: stub")
        return solve(params)

    monkeypatch.setattr(verify, "solve", solve_or_raise)
    monkeypatch.setattr(verify, "compare_with_oracle", lambda params, config, rel_tol: None)
    monkeypatch.setattr(verify, "oracle_solve_game", lambda params, config: solve(params))
    monkeypatch.setattr(verify, "oracle_solve_integrated",
                        lambda params, config: solve_integrated(params))
    checks = {check.name: check for check in run_verification(SET_A)}
    argmax = checks["regime-argmax-consistency"]
    assert not argmax.passed
    assert argmax.detail == f"k={km!r}: internal inconsistency: stub"
    assert checks["oracle-equivalence"].passed


class TestIntegrationThresholdsCheck:
    def test_roots_zero_their_differences(self):
        result = _check_integration_thresholds(SET_A)
        assert result.passed
        assert result.detail.startswith("chain k_bar=0.1240000000000255, |diff|=")

    def test_jumps_at_k_bar_1_pass_as_jumps(self):
        # set_b's three crossings lie within 1e-13 of its k_bar_1 = 0.04992.
        result = _check_integration_thresholds(replace(SET_B, s=0.0))
        assert result.passed
        assert result.detail.count("jump at k_bar_1=0.049920000000000006") == 3

    def test_shifted_root_fails(self, monkeypatch):
        found = integration_thresholds(SET_A)
        shifted = replace(found.consumer, value=found.consumer.value + 1e-3)
        monkeypatch.setattr(verify, "integration_thresholds",
                            lambda params: replace(found, consumer=shifted))
        result = _check_integration_thresholds(SET_A)
        assert not result.passed
        assert f"consumer k_bar={shifted.value!r}, |diff|=" in result.detail

    def test_missing_root_across_a_sign_change_fails(self, monkeypatch):
        found = integration_thresholds(SET_A)
        always = ThresholdCrossing(value=None, status="always")
        monkeypatch.setattr(verify, "integration_thresholds",
                            lambda params: replace(found, social=always))
        result = _check_integration_thresholds(SET_A)
        assert not result.passed
        assert "social always, but (diff -" in result.detail


class TestSubsidyThresholdShift:
    @pytest.mark.parametrize("params", [
        SET_B, SUBSIDY_HARVEST_TO_DEFEND, SUBSIDY_HARVEST_TO_DOMINATE, SUBSIDY_DEFEND_TO_DOMINATE,
    ], ids=["set_b", "harvest_to_defend", "harvest_to_dominate", "defend_to_dominate"])
    def test_valid_configs_pass(self, params):
        assert _check_threshold_shift(params).passed

    def test_falling_thresholds_pass_where_their_slopes_are_negative(self):
        # Both pieces of each binding threshold fall on [theta, theta + s].
        result = _check_threshold_shift(SUBSIDY_HARVEST_TO_DEFEND)
        assert result.detail == ("k_bar_1 0.03242346795895074->0.03194491276921109, "
                                 "k_bar_2 0.1444145643818461->0.1424353174985358")

    def test_a_slope_changing_sign_is_checked_against_a_central_difference(self):
        # k_bar_12's slope changes sign on [theta, theta + s]; k_bar_23 binds.
        result = _check_threshold_shift(SUBSIDY_HARVEST_TO_DOMINATE)
        assert result.detail.endswith("k_bar_2 slope -0.0282939 matches its central "
                                      "difference -0.0282939")

    def test_a_threshold_moving_against_the_prediction_fails(self, monkeypatch):
        # set_b's k_bar_1 is predicted to rise; a patched one falls instead.
        real = regime_thresholds

        def lowered(params):
            th = real(params)
            return replace(th, k_bar_1=th.k_bar_1 - 0.02) if params.s > 0 else th

        monkeypatch.setattr(verify, "regime_thresholds", lowered)
        result = _check_threshold_shift(SET_B)
        assert result.name == "subsidy-threshold-shift" and not result.passed
        assert result.detail.endswith("; k_bar_1 against its predicted rise")

    def test_a_slope_off_its_central_difference_fails(self, monkeypatch):
        real = verify._thresholds
        monkeypatch.setattr(verify, "_thresholds",
                            lambda params: replace(real(params), k_bar_2=real(params).k_bar_2
                                                   * (1.0 + params.s)))
        result = _check_threshold_shift(SUBSIDY_HARVEST_TO_DOMINATE)
        assert not result.passed
        assert "k_bar_2 slope -0.0282939 differs from its central difference" in result.detail


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
    monkeypatch.setattr(verify, "compare_with_oracle", lambda params, config, rel_tol: None)
    monkeypatch.setattr(verify, "oracle_solve_game", lambda params, config: solve(params))
    monkeypatch.setattr(verify, "oracle_solve_integrated",
                        lambda params, config: solve_integrated(params))
    assert main(["verify", "--config", str(REPO / "configs" / "set_a.cfg")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert ("FAIL mandate-welfare-flat: raised RuntimeError: welfare cross-validation failed "
            "for component 'consumer' in regime 'harvest'") in "\n".join(lines)
    assert lines[-1] == "10/14 checks passed"
