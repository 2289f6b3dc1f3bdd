"""Parameter validation and the admissibility bound on the flywheel strength."""

import math
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmgame import InvalidParams, ModelParams, k_max, require_valid, validate
from fmgame.cli import main

from conftest import RETENTION, RETENTION_LOST_AT_K_MAX, SET_A, SET_B


def test_k_max_set_a():
    # min(3/11.25, 28/28.125) = 4/15, hand-evaluated from both arguments
    assert k_max(SET_A) == pytest.approx(4.0 / 15.0, rel=1e-12)


def test_k_max_set_b():
    assert k_max(replace(SET_B, s=0.0)) == pytest.approx(2.0 / 7.0, rel=1e-12)
    # the subsidy widens margins, tightening the bound: 12/47 at s = 0.5
    assert k_max(SET_B) == pytest.approx(12.0 / 47.0, rel=1e-12)


def test_valid_reference_sets():
    assert validate(SET_A).ok
    assert validate(SET_B).ok
    require_valid(SET_A)


@pytest.mark.parametrize(
    "kwargs, needle",
    [
        (dict(theta=0.0), "theta"),
        (dict(theta=-1.0), "theta"),
        (dict(c=0.0), "c"),
        (dict(eta_cap=0.0), "eta_cap"),
        (dict(k=-0.1), "k"),
        (dict(w_low=-0.2), "w_low"),
        (dict(w_low=3.0), "w_low"),          # above w_high
        (dict(w_high=2.6), "w_high"),        # above theta/2
        (dict(s=0.6), "s"),                  # above w_low
        (dict(s=-0.1), "s"),
        (dict(k=0.9), "k exceeds k_max"),
        (dict(theta=float("nan")), "finite"),
        (dict(c=float("inf")), "finite"),
    ],
)
def test_rejections(kwargs, needle):
    p = replace(SET_A, **kwargs)
    report = validate(p)
    assert not report.ok
    assert any(needle in v for v in report.violations), report.violations
    with pytest.raises(InvalidParams):
        require_valid(p)


OUT_OF_RANGE = "magnitudes overflow or underflow the closed forms"


@pytest.mark.parametrize("kwargs", [
    # k_bar_1 is inf - inf (NaN) and the incumbent's profit inf.
    dict(theta=1e160, c=1.0, w_high=4e159, w_low=1e159, eta_cap=1.0),
    # k_max underflows to 0.0.
    dict(theta=1e150, c=1.0, w_high=4e149, w_low=1e149, eta_cap=1.0),
    # c * c is 0.0: solve raised ZeroDivisionError.
    dict(theta=5.0, c=1e-200, w_high=2.5, w_low=0.5, eta_cap=1.5),
    # c * c is subnormal: the welfare consumer surplus was inf.
    dict(theta=5.0, c=1e-160, w_high=2.5, w_low=0.5, eta_cap=1.5),
    # three margins underflow to 0.0: k_max, and so validate, raised
    # ZeroDivisionError.
    dict(theta=1e-110, c=1.0, w_high=4e-111, w_low=1e-111, eta_cap=1.0),
    # k_bar_13's denominator (1 + eta_cap) t**2 w_high underflows to 0.0:
    # _thresholds raised ZeroDivisionError.
    dict(theta=1e-90, c=1.0, w_high=1e-300, w_low=0.0, eta_cap=1.0),
    # (1 + eta_cap) c / t overflows: the integrated social welfare was inf.
    dict(theta=6.474382102492079e-94, c=8.220683237502901e+144,
         w_high=6.364497305543015e-95, w_low=0.0, eta_cap=1.6427034853097896e+76),
    # (c / (1 + eta_cap))**2 underflows: at k_max the dominate row's d_l**2
    # was 0.0 and solve raised ZeroDivisionError.
    dict(theta=1e-31, c=1e-149, w_high=4e-32, w_low=1e-32, eta_cap=1e14),
], ids=["theta_1e160", "theta_1e150", "c_1e-200", "c_1e-160", "theta_1e-110",
        "w_high_1e-300", "eta_cap_1e76", "c_1e-149_eta_cap_1e14"])
def test_magnitudes_out_of_range_are_named(kwargs, tmp_path, capsys):
    p = ModelParams(k=0.0, s=0.0, **kwargs)
    assert validate(p).violations == (OUT_OF_RANGE,)
    _assert_solve_exits_3(p, OUT_OF_RANGE, tmp_path, capsys)


def _assert_solve_exits_3(p, violation, tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("".join(f"{name} = {value!r}\n" for name, value in vars(p).items()))
    assert main(["solve", "--config", str(cfg)]) == 3
    assert violation in capsys.readouterr().err


@pytest.mark.parametrize("kwargs", [
    # eta_cap / (1 + eta_cap) rounds to 1 in k_max's cap bound, so at k_max
    # the dominate row's 2c - k (theta - w_low + s) is 0.0 or below: solve
    # exited 3 from inside _eta_bar, or raised ZeroDivisionError.
    dict(theta=5.0, c=1.0, w_high=2.5, w_low=0.5, eta_cap=1e17, s=0.0),
    dict(theta=148.95361552369062, c=7.38689810400399e-71, w_high=70.09380343487865,
         w_low=19.35633321496728, eta_cap=2.488817755839764e+34, s=5.384300874737148),
], ids=["eta_cap_1e17", "eta_cap_2e34"])
def test_retention_margin_lost_to_rounding_is_named(kwargs, tmp_path, capsys):
    p = ModelParams(k=0.0, **kwargs)
    assert validate(p).violations == (RETENTION,)
    p = replace(p, k=k_max(p))
    assert validate(p).violations == (RETENTION,)
    _assert_solve_exits_3(p, RETENTION, tmp_path, capsys)


def test_a_margin_lost_at_k_max_is_named_at_the_points_own_k(tmp_path, capsys):
    # Its margin is positive at k = 0.1, but the policy scans reach k_max.
    p = RETENTION_LOST_AT_K_MAX
    assert 2.0 * p.c - p.k * (p.theta - p.w_low) > 0.0
    _assert_solve_exits_3(p, RETENTION, tmp_path, capsys)


def test_report_collects_multiple_violations():
    report = validate(replace(SET_A, theta=-1.0, c=-1.0))
    assert len(report.violations) >= 2


def test_invalid_params_carries_report():
    try:
        require_valid(replace(SET_A, k=5.0))
    except InvalidParams as exc:
        assert not exc.report.ok
    else:
        pytest.fail("expected InvalidParams")


def test_invalid_params_survives_pickling():
    # As an exception raised in a verify child process reaches its parent.
    exc = InvalidParams(validate(replace(SET_A, theta=-1.0, c=-1.0)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is InvalidParams
    assert str(back) == str(exc) and back.args == exc.args
    assert back.report == exc.report


def _build(theta, c, w_high, low_frac, eta_cap):
    return ModelParams(theta=theta, c=c, w_high=w_high, w_low=low_frac * w_high,
                       eta_cap=eta_cap, k=0.0, s=0.0)


params_strategy = st.builds(
    _build,
    theta=st.floats(2.0, 10.0),
    c=st.floats(0.3, 3.0),
    w_high=st.floats(0.3, 1.0),
    low_frac=st.floats(0.1, 0.95),
    eta_cap=st.floats(0.3, 3.0),
)


@given(params_strategy)
@settings(max_examples=200)
def test_k_max_positive_and_attainable(p):
    # w_high <= theta/2 holds by construction here
    km = k_max(p)
    assert km > 0 and math.isfinite(km)
    assert validate(replace(p, k=km)).ok
    assert not validate(replace(p, k=km * (1 + 1e-9) + 1e-12)).ok


@given(params_strategy, st.floats(0.0, 1.0))
@settings(max_examples=200)
def test_k_max_decreasing_in_subsidy(p, frac):
    # a subsidy widens both margins, so the admissible k range shrinks
    s = frac * p.w_low
    assert k_max(replace(p, s=s)) <= k_max(p) + 1e-12


def test_equal_fees_pin_k_to_zero():
    # With no fee premium there is no deviation margin to rule out, and the
    # bound degenerates: only k = 0 stays inside the model's assumptions.
    p = replace(SET_A, w_low=2.5, k=0.0)
    assert k_max(p) == 0.0
    assert validate(p).ok
    assert not validate(replace(p, k=1e-9)).ok


def test_strategy_is_frozen():
    with pytest.raises(Exception):
        SET_A.theta = 6.0
