"""Named invariant and oracle-equivalence checks.

Every property the closed forms promise is exercised here against the
brute-force oracle or against an independent numeric route (bisection on
profit differences, finite-difference monotonicity, rebuilds);
``regime-argmax-consistency`` runs solve's own argmax guard on a k grid.
The CLI ``verify`` command prints one PASS/FAIL line per property and
exits nonzero on any failure; a check that raises is a FAIL of that check.
Tests call :func:`run_verification` directly.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .closed_form import (
    _thresholds,
    eta_bar_high,
    eta_bar_low,
    period2_profit_entrant,
    period2_profit_incumbent,
    q1_star,
    regime_thresholds,
    scenario_profits,
    solve,
    solve_baseline,
)
from .extensions import (
    _integration_gaps,
    integration_thresholds,
    solve_integrated,
    solve_subsidized,
    welfare_subsidized,
)
from .oracle import OracleConfig, oracle_solve_game, oracle_solve_integrated
from .params import ModelParams, Strategy, k_max, validate
from .welfare import (
    _binding_range,
    _trap_gap,
    openness_trap_threshold,
    welfare_baseline,
    welfare_mandate,
)

#: k-points of the oracle-equivalence check.
_ORACLE_K_POINTS = 100

#: Largest step in s of subsidy-threshold-shift's central difference.
_SLOPE_STEP = 1e-7


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def random_valid_params(rng: np.random.Generator, with_subsidy: bool = False) -> ModelParams:
    """Draw a random parameter set satisfying every admissibility condition."""
    theta = float(rng.uniform(2.0, 10.0))
    c = float(rng.uniform(0.3, 3.0))
    w_high = float(rng.uniform(0.15, 0.5)) * theta
    w_low = float(rng.uniform(0.1, 0.95)) * w_high
    eta_cap = float(rng.uniform(0.3, 3.0))
    s = float(rng.uniform(0.05, 1.0)) * w_low if with_subsidy else 0.0
    probe = ModelParams(theta=theta, c=c, w_high=w_high, w_low=w_low,
                        eta_cap=eta_cap, k=0.0, s=s)
    km = k_max(probe)
    k = float(rng.uniform(0.0, km))
    return replace(probe, k=k)


def _at_regime_tie(params: ModelParams) -> bool:
    # Within this band of a threshold the two best strategy profiles pay the
    # same to float precision, so which label a numeric search lands on is a
    # coin flip and not evidence of a wrong formula.
    prof = scenario_profits(params)
    a, b, _ = sorted((prof.pi_s0, prof.pi_s1, prof.pi_s2), reverse=True)
    return (a - b) <= 1e-7 * max(1.0, abs(a))


def compare_with_oracle(params: ModelParams, config: OracleConfig,
                        rel_tol: float = 1e-5) -> str | None:
    """One-point oracle-vs-closed-form comparison; None if they agree.

    Strategy openness must match within one grid step (the oracle's
    bisection refinement usually does far better), fees, regime and winner
    exactly, incumbent revenue within rel_tol relative. Exactly at a regime
    threshold the tie-break convention is below the oracle's noise floor;
    there only revenue agreement is enforced.
    """
    closed = solve(params)
    numeric = oracle_solve_game(params, config)
    labels_differ = (closed.regime is not numeric.regime
                     or closed.winner2 is not numeric.winner2
                     or closed.strategy.w1 != numeric.strategy.w1)
    if labels_differ and not _at_regime_tie(params):
        if closed.regime is not numeric.regime:
            return f"regime {closed.regime.value} vs oracle {numeric.regime.value} (k={params.k!r})"
        if closed.winner2 is not numeric.winner2:
            return f"winner {closed.winner2.value} vs oracle {numeric.winner2.value}"
        return f"fee {closed.strategy.w1} vs oracle {numeric.strategy.w1}"
    if not labels_differ:
        eta_step = params.eta_cap / (config.eta_grid_points - 1)
        d_eta = abs(closed.strategy.eta1 - numeric.strategy.eta1)
        if d_eta > eta_step:
            return f"eta1 differs by {d_eta:.3e} (> grid step {eta_step:.3e})"
    a, b = closed.incumbent_profit, numeric.incumbent_profit
    if abs(a - b) > rel_tol * max(1.0, abs(a), abs(b)):
        return f"profit {a!r} vs oracle {b!r}"
    return None


def run_verification(params: ModelParams, oracle_rel_tol: float = 1e-5) -> list[CheckResult]:
    """Run the full invariant suite for one parameter set.

    Every check runs under one guard: a check that raises is reported as a
    FAIL of that check, with the exception in the detail, and the run goes
    on with the next one.
    """
    config = OracleConfig()
    checks: list[CheckResult] = []
    rng = np.random.default_rng(20240811)

    report = validate(params)
    checks.append(CheckResult("params-valid", report.ok, "; ".join(report.violations)))
    if not report.ok:
        return checks

    km = k_max(params)
    with _guard(checks, "kmax-positive"):
        checks.append(CheckResult("kmax-positive", km > 0 or params.w_high == params.w_low,
                                  f"k_max={km!r}"))

    # Deployer best response beats perturbations, both fees, random draws.
    with _guard(checks, "best-response-optimality"):
        bad = 0
        t = params.theta + params.s
        for _ in range(200):
            w1 = params.w_high if rng.random() < 0.5 else params.w_low
            eta1 = float(rng.uniform(0.0, params.eta_cap))
            q = q1_star(params, Strategy(w1=w1, eta1=eta1))
            margin = t - w1
            den = 1.0 + eta1

            def surplus(x):
                return margin * x - params.c * x * x / den

            for eps in (1e-4, 1e-2, 0.1):
                if surplus(q) < surplus(q + eps) or surplus(q) < surplus(max(q - eps, 0.0)):
                    bad += 1
        checks.append(CheckResult("best-response-optimality", bad == 0,
                                  f"{bad} perturbation wins" if bad else ""))

    # At the retention boundary the deployer is exactly indifferent.
    with _guard(checks, "retention-boundary-exact"):
        worst = 0.0
        for w1, eta_fn in ((params.w_high, eta_bar_high), (params.w_low, eta_bar_low)):
            try:
                boundary = eta_fn(params)
            except ValueError:
                continue
            if boundary > params.eta_cap:
                continue
            a1 = q1_star(params, Strategy(w1=w1, eta1=boundary))
            stay = period2_profit_incumbent(params, a1, params.w_low, params.eta_cap)
            switch = period2_profit_entrant(params, boundary, params.eta_cap, params.w_low)
            worst = max(worst, abs(stay - switch))
        checks.append(CheckResult("retention-boundary-exact", worst < 1e-9,
                                  f"max gap {worst:.2e}"))

    # Thresholds equal independent bisection roots of the profit differences.
    with _guard(checks, "threshold-bisection-match"):
        checks.append(_check_threshold_bisection(params, km))

    # Regime choice equals the scenario-revenue argmax on a dense k grid:
    # solve's own guard, which raises where the two disagree.
    with _guard(checks, "regime-argmax-consistency"):
        mismatch = None
        for k in np.linspace(0.0, km, 201).tolist():
            try:
                solve(replace(params, k=k))
            except RuntimeError as exc:
                mismatch = f"k={k!r}: {exc}"
                break
        checks.append(CheckResult("regime-argmax-consistency", mismatch is None,
                                  mismatch or ""))

    # Welfare tables agree with rebuilds in every regime reachable here.
    p0 = replace(params, s=0.0)
    km0 = k_max(p0)
    with _guard(checks, "welfare-cross-validation"):
        err = None
        try:
            for k in _regime_sample_ks(regime_thresholds(p0), km0):
                welfare_baseline(replace(p0, k=k))
        except RuntimeError as exc:
            err = str(exc)
        checks.append(CheckResult("welfare-cross-validation", err is None, err or ""))

    # Mandate welfare is flat in k.
    with _guard(checks, "mandate-welfare-flat"):
        wm_lo = welfare_mandate(replace(p0, k=0.0))
        wm_hi = welfare_mandate(replace(p0, k=km0))
        flat = abs(wm_lo.social - wm_hi.social) <= 1e-12 * max(1.0, abs(wm_lo.social))
        checks.append(CheckResult("mandate-welfare-flat", flat))

    with _guard(checks, "trap-root"):
        checks.append(_check_trap_root(p0))

    # Integrated efforts dominate decentralized period-1 effort.
    with _guard(checks, "integration-effort-dominance"):
        dom_fail = None
        for k in np.linspace(0.0, km0, 41).tolist():
            p = replace(p0, k=k)
            v = solve_integrated(p)
            q1_dec = solve_baseline(p).period1.effort
            if not (v.q1v > q1_dec and v.q2v >= v.q1v - 1e-12):
                dom_fail = f"k={k!r}: q1v={v.q1v!r}, q1={q1_dec!r}, q2v={v.q2v!r}"
                break
        checks.append(CheckResult("integration-effort-dominance", dom_fail is None,
                                  dom_fail or ""))

    with _guard(checks, "integration-thresholds"):
        checks.append(_check_integration_thresholds(p0))

    # Integrated oracle agrees with the closed form at this k.
    with _guard(checks, "integrated-oracle-agreement"):
        v = solve_integrated(p0)
        vo = oracle_solve_integrated(p0, config)
        eta_step = params.eta_cap / (config.eta_grid_points - 1)
        ok = (
            abs(vo.q1v - v.q1v) <= 1e-6 * max(1.0, v.q1v)
            and abs(vo.q2v - v.q2v) <= 2.0 * eta_step * max(1.0, v.q2v)
            and abs(vo.profit - v.profit) <= oracle_rel_tol * max(1.0, v.profit)
            and vo.eta1v == params.eta_cap and vo.eta2v == params.eta_cap
        )
        checks.append(CheckResult(
            "integrated-oracle-agreement", ok,
            "" if ok else f"closed {v} vs oracle {vo}",
        ))

    # The big one: full-game oracle equivalence across the admissible k range.
    # Cell midpoints rather than np.linspace endpoints: an evenly spaced
    # endpoint grid can land exactly on a regime threshold, where the label
    # is a pure tie-break convention rather than a checkable prediction.
    with _guard(checks, "oracle-equivalence"):
        fail = None
        for k in (np.arange(_ORACLE_K_POINTS) + 0.5) / _ORACLE_K_POINTS * km:
            p = replace(params, k=float(k))
            msg = compare_with_oracle(p, config, rel_tol=oracle_rel_tol)
            if msg is not None:
                fail = f"k={float(k)!r}: {msg}"
                break
        checks.append(CheckResult(
            "oracle-equivalence", fail is None,
            fail or f"{_ORACLE_K_POINTS} k-points at rel tol {oracle_rel_tol:g}",
        ))

    # Doubling the openness grid must not move the oracle argmax materially.
    with _guard(checks, "oracle-grid-refinement"):
        coarse = replace(config, eta_grid_points=(config.eta_grid_points // 2) | 1)
        e_coarse = oracle_solve_game(params, coarse)
        e_fine = oracle_solve_game(params, config)
        step = params.eta_cap / (coarse.eta_grid_points - 1)
        ok = (e_coarse.strategy.w1 == e_fine.strategy.w1
              and abs(e_coarse.strategy.eta1 - e_fine.strategy.eta1) <= step)
        checks.append(CheckResult("oracle-grid-refinement", ok,
                                  "" if ok else f"{e_coarse.strategy} vs {e_fine.strategy}"))

    if params.s > 0.0:
        _subsidy_checks(params, checks)

    return checks


@contextlib.contextmanager
def _guard(checks: list[CheckResult], name: str):
    # The one guard around every check: an exception raised inside the block
    # is appended as that check's FAIL, and the run goes on.
    try:
        yield
    except Exception as exc:   # reported, never swallowed: the run must go on
        checks.append(CheckResult(name, False, f"raised {type(exc).__name__}: {exc}"))


def _regime_sample_ks(th, km: float) -> list[float]:
    ks = []
    lo = max(th.k_bar_1, 0.0)
    hi = min(th.k_bar_2, km)
    if th.k_bar_1 > 0:
        ks.append(min(th.k_bar_1, km) * 0.5)
    if lo < hi:
        ks.append(0.5 * (lo + min(hi, km)))
    if th.k_bar_2 < km:
        ks.append(0.5 * (max(th.k_bar_2, 0.0) + km))
    return [k for k in ks if 0.0 <= k <= km] or [0.0]


def _check_threshold_bisection(params: ModelParams, km: float) -> CheckResult:
    th = regime_thresholds(params)
    worst = 0.0
    detail = []
    # Each crossing is a root of one scenario-revenue difference.
    for which, target, plus, minus in (("13", th.k_bar_13, "pi_s1", "pi_s0"),
                                       ("23", th.k_bar_23, "pi_s2", "pi_s0"),
                                       ("12", th.k_bar_12, "pi_s1", "pi_s2")):
        if not (0.0 < target < km):
            continue   # crossing not interior, nothing to bisect against

        def f(k: float, plus=plus, minus=minus) -> float:
            prof = scenario_profits(replace(params, k=k))
            return getattr(prof, plus) - getattr(prof, minus)

        lo, hi = 0.0, km
        if (f(lo) > 0) == (f(hi) > 0):
            detail.append(f"k_bar_{which}: no sign change despite interior value {target!r}")
            continue
        root = numerics.bisect_root(f, lo, hi, xtol=1e-12)
        worst = max(worst, abs(root - target))
    ok = not detail and worst < 1e-9
    return CheckResult("threshold-bisection-match", ok,
                       "; ".join(detail) or f"max |root - formula| = {worst:.2e}")


def _check_trap_root(p0: ModelParams) -> CheckResult:
    # A trap root must zero the SW gap (baseline minus mandate), or else be
    # the jump in the gap where defend gives way to dominate. Without one the
    # gap must keep one sign on the binding range; the detail names it.
    gap = _trap_gap(p0)
    trap = openness_trap_threshold(p0)
    if trap is not None:
        th = regime_thresholds(p0)
        km = k_max(p0)
        err = abs(gap(trap))
        detail = f"k_bar={trap!r}, |gap|={err:.2e}"
        ok = th.k_bar_1 < trap <= km
        if err < 1e-8:
            return CheckResult("trap-root", ok, detail)
        # Not a root: it must be the jump where defend gives way to dominate.
        jump = _jump_at(gap, trap, [("k_bar_2", th.k_bar_2)], km)
        if jump is None:
            return CheckResult("trap-root", False, detail)
        _, k2, below, above = jump
        return CheckResult("trap-root", ok, f"k_bar={trap!r}, jump at k_bar_2={k2!r} "
                                            f"(SW gap {below:+.3g} to {above:+.3g})")
    binding = _binding_range(p0)
    if binding is None:
        return CheckResult("trap-root", True, "mandate never binds")
    lo, hi = (gap(k) for k in binding)
    ends = f"{lo:+.3g} to {hi:+.3g}"
    if (lo > 0) != (hi > 0):
        return CheckResult("trap-root", False,
                           f"no root found, but the SW gap changes sign ({ends})")
    effect = "lowers" if lo > 0 else "raises"
    return CheckResult("trap-root", True, f"mandate {effect} social welfare on the "
                                          f"whole binding range (SW gap {ends})")


def _jump_at(f, root: float, jumps, km: float):
    # (label, k, f at k, f one ulp above k) for the listed jump (label, k)
    # that the scan bisected to root, to within bisect_root's stopping width,
    # with f strictly of opposite signs across it; None when there is none.
    for label, k in jumps:
        if abs(root - k) <= 1e-13 and 0.0 <= k < km:
            below, above = f(k), f(float(np.nextafter(k, np.inf)))
            if below < 0.0 < above or above < 0.0 < below:
                return label, k, below, above
    return None


def _check_integration_thresholds(p0: ModelParams) -> CheckResult:
    # trap-root's rule for each of integration_thresholds' three scans: a
    # crossing zeroes its difference (evaluated on a float) or is the jump
    # at k_bar_1 or k_bar_2; without one the difference keeps the sign its
    # status names on [0, k_max].
    gaps = _integration_gaps(p0)
    found = integration_thresholds(p0)
    th = regime_thresholds(p0)
    km = k_max(p0)
    ok, parts = True, []
    for i, name in enumerate(("chain", "consumer", "social")):
        crossing = getattr(found, name)

        def diff(k, _i=i):
            return gaps(k)[_i]

        if crossing.status != "crossing":
            lo, hi = diff(0.0), diff(km)
            holds = (lo > 0) == (hi > 0) == (crossing.status == "always")
            ok = ok and holds
            parts.append(f"{name} {crossing.status}{'' if holds else ', but'} "
                         f"(diff {lo:+.3g} to {hi:+.3g})")
            continue
        root = crossing.value
        err = abs(diff(root))
        jump = None if err < 1e-8 else _jump_at(
            diff, root, [("k_bar_1", th.k_bar_1), ("k_bar_2", th.k_bar_2)], km)
        if jump is None:
            ok = ok and err < 1e-8 and 0.0 <= root <= km
            parts.append(f"{name} k_bar={root!r}, |diff|={err:.2e}")
        else:
            label, k, below, above = jump
            parts.append(f"{name} k_bar={root!r}, jump at {label}={k!r} "
                         f"(diff {below:+.3g} to {above:+.3g})")
    return CheckResult("integration-thresholds", ok, "; ".join(parts))


# Which pairwise thresholds make up each binding one: k_bar_1 is the min of
# its pair, k_bar_2 the max.
_BINDING_PIECES = {"k_bar_1": ("k_bar_13", "k_bar_23"), "k_bar_2": ("k_bar_12", "k_bar_23")}


def _threshold_slopes(params: ModelParams, t: float) -> dict[str, tuple[float, float]]:
    # (numerator, denominator) of the derivative in s of each pairwise
    # threshold at theta + s = t. Every denominator is positive, so the
    # numerator carries the sign (ROADMAP item 2): linear in t for k_bar_13,
    # quadratic for k_bar_23 and k_bar_12.
    c2, eta, w_h, w_l = 2.0 * params.c, params.eta_cap, params.w_high, params.w_low
    one = 1.0 + eta
    m_h, m_l, u = t - w_h, t - w_l, t - w_h - w_l
    d_12 = m_l * (m_h + one * w_l)
    return {
        "k_bar_13": (one * w_l * (2.0 * m_l - m_h) - eta * w_h * m_h, one * w_h * m_h ** 3 / c2),
        "k_bar_23": ((2.0 + eta) * w_l * m_l * m_l - one * w_h * m_h * m_h,
                     one * w_h * m_h * m_h * m_l * m_l / c2),
        "k_bar_12": ((2.0 + eta) * w_h * w_l - u * u, d_12 * d_12 / c2),
    }


def _slope_sign_on(params: ModelParams, piece: str, lo: float, hi: float) -> int:
    # +1 or -1 when the piece's slope numerator keeps that strict sign on
    # [lo, hi] of t, else 0: a polynomial of degree at most 2 keeps its sign
    # if it does at both ends and at its extremum, where that lies inside.
    eta, w_h, w_l = params.eta_cap, params.w_high, params.w_low
    lead = (2.0 + eta) * w_l - (1.0 + eta) * w_h
    vertex = {"k_bar_13": None, "k_bar_12": w_h + w_l,
              "k_bar_23": ((2.0 + eta) * w_l * w_l - (1.0 + eta) * w_h * w_h) / lead
              if lead != 0.0 else None}[piece]
    ts = [lo, hi] + ([vertex] if vertex is not None and lo < vertex < hi else [])
    values = [_threshold_slopes(params, t)[piece][0] for t in ts]
    return 1 if min(values) > 0.0 else -1 if max(values) < 0.0 else 0


def _check_threshold_shift(params: ModelParams) -> CheckResult:
    # Where both pieces of a binding threshold keep one sign of slope on
    # [theta, theta + s], the threshold moves that way from s = 0 to s (a
    # min or max of two increasing functions increases). Elsewhere the slope
    # formula of the piece that binds at s must match a central difference
    # of the threshold in s.
    p0 = replace(params, s=0.0)
    th0, th = regime_thresholds(p0), regime_thresholds(params)
    detail = f"k_bar_1 {th0.k_bar_1!r}->{th.k_bar_1!r}, k_bar_2 {th0.k_bar_2!r}->{th.k_bar_2!r}"
    ok, notes = True, []
    for name, pieces in _BINDING_PIECES.items():
        before, after = getattr(th0, name), getattr(th, name)
        if math.isinf(before) and after == before:
            continue   # identical fees: k_bar_2 never binds at any s
        signs = {_slope_sign_on(params, piece, params.theta, params.theta + params.s)
                 for piece in pieces}
        if signs in ({1}, {-1}):
            sign = signs.pop()
            if not sign * (after - before) > 0.0:
                ok = False
                notes.append(f"{name} against its predicted {'rise' if sign > 0 else 'fall'}")
            continue
        piece = next(piece for piece in pieces if getattr(th, piece) == after)
        num, den = _threshold_slopes(params, params.theta + params.s)[piece]
        h = min(_SLOPE_STEP, params.s / 2.0)
        central = (getattr(_thresholds(replace(params, s=params.s + h)), name)
                   - getattr(_thresholds(replace(params, s=params.s - h)), name)) / (2.0 * h)
        slope = num / den
        match = abs(central - slope) <= 1e-6 * max(1.0, abs(slope))
        ok = ok and match
        notes.append(f"{name} slope {slope:.6g} {'matches' if match else 'differs from'} "
                     f"its central difference {central:.6g}")
    return CheckResult("subsidy-threshold-shift", ok, "; ".join([detail] + notes))


def _subsidy_checks(params: ModelParams, checks: list[CheckResult]) -> None:
    with _guard(checks, "subsidy-threshold-shift"):
        checks.append(_check_threshold_shift(params))

    with _guard(checks, "subsidy-limit-continuity"):
        tiny = solve_subsidized(replace(params, s=1e-8))
        base = solve_baseline(replace(params, s=0.0))
        rel = max(
            abs(tiny.strategy.eta1 - base.strategy.eta1),
            abs(tiny.period1.effort - base.period1.effort) / max(1.0, base.period1.effort),
            abs(tiny.period2.effort - base.period2.effort) / max(1.0, base.period2.effort),
            abs(tiny.incumbent_profit - base.incumbent_profit) / max(1.0, base.incumbent_profit),
        )
        checks.append(CheckResult("subsidy-limit-continuity",
                                  tiny.strategy.w1 == base.strategy.w1 and rel < 1e-6,
                                  f"max rel drift {rel:.2e}"))

    with _guard(checks, "subsidy-welfare-cross-validation"):
        err = None
        try:
            welfare_subsidized(params)
        except RuntimeError as exc:
            err = str(exc)
        checks.append(CheckResult("subsidy-welfare-cross-validation", err is None, err or ""))
