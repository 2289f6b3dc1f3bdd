"""The verify checks that can be run on their own, without the oracle."""

from dataclasses import replace

from conftest import HARVEST_TO_DOMINATE, SET_A, TRAP_AT_JUMP
from fmgame import k_max, solve_integrated, verify
from fmgame.closed_form import regime_thresholds, solve
from fmgame.verify import _check_trap_root, run_verification


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
