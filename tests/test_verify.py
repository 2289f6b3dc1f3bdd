"""The verify checks that can be run on their own, without the oracle."""

from dataclasses import replace

from conftest import HARVEST_TO_DOMINATE, SET_A
from fmgame import verify
from fmgame.verify import _check_trap_root


class TestTrapRootCheck:
    def test_root_zeroes_the_gap(self):
        result = _check_trap_root(SET_A)
        assert result.passed
        assert result.detail.startswith("k_bar=0.2567300309246")

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
