"""Named invariant and oracle-equivalence checks.

Every property the closed forms promise is exercised here against the
brute-force oracle or against an independent numeric route (the model's
primitives, bisection on profit differences, finite-difference
monotonicity, rebuilds); ``regime-argmax-consistency`` runs solve's own
argmax guard on a k grid. The closed-form checks validate once and run each k
grid, clipped at k_max (np.linspace rounds past a subnormal one), in one array
pass through the cores: validate() admits a point at every k <= k_max or none.
The checks are one table of (name, check) rows, one PASS/FAIL line each in
the CLI ``verify`` command's order: ``_CHECKS``, then ``_SUBSIDY_CHECKS``
where s > 0. One loop runs every row under one guard, so a check that raises
is a FAIL of that check; any FAIL exits nonzero. Tests call run_verification.

``oracle-equivalence``, nearly all of a run's time, splits its k-points
into one interleaved share per CPU this process may use
(:func:`first_failure`): this process checks the first share, forked child
processes the others. Where fork cannot be used or only one CPU may be, all
are checked serially in this process. Both routes print the same lines.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from . import closed_form, extensions, numerics
from .closed_form import _thresholds, regime_thresholds, scenario_profits, solve, solve_baseline
from .extensions import _integration_gaps, integration_thresholds, solve_integrated
from .oracle import OracleConfig, oracle_solve_game, oracle_solve_integrated
from .params import (ModelParams, Regime, Winner, baseline_twin, k_max, stay_denominator,
                     switch_denominator, validate)
from .welfare import (
    _binding_range,
    _trap_gap,
    mandate_equilibrium,
    openness_trap_threshold,
    welfare_for_equilibrium,
)

#: k-points of the oracle-equivalence check.
_ORACLE_K_POINTS = 100

#: Largest step in s of subsidy-threshold-shift's central difference.
_SLOPE_STEP = 1e-7

#: row-primitive-consistency's relative bound, per unit of a row's condition.
_ROW_TOL = 64.0 * math.ulp(1.0)


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
    return replace(probe, k=float(rng.uniform(0.0, k_max(probe))))


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

    Period-1 openness eta1 must match within one grid step (the oracle's
    bisection refinement usually does far better), fees, regime and winner
    exactly, incumbent revenue within rel_tol relative. Exactly at a regime
    threshold the tie-break convention is below the oracle's noise floor;
    there only revenue agreement is enforced.
    """
    closed = solve(params)
    numeric = oracle_solve_game(params, config)
    labels_differ = (closed.regime is not numeric.regime
                     or closed.winner2 is not numeric.winner2
                     or closed.w1 != numeric.w1)
    if labels_differ and not _at_regime_tie(params):
        if closed.regime is not numeric.regime:
            return f"regime {closed.regime.value} vs oracle {numeric.regime.value} (k={params.k!r})"
        if closed.winner2 is not numeric.winner2:
            return f"winner {closed.winner2.value} vs oracle {numeric.winner2.value}"
        return f"fee {closed.w1} vs oracle {numeric.w1}"
    if not labels_differ:
        eta_step = params.eta_cap / (config.eta_grid_points - 1)
        d_eta = abs(closed.eta1 - numeric.eta1)
        if d_eta > eta_step:
            return f"eta1 differs by {d_eta:.3e} (> grid step {eta_step:.3e})"
    a, b = closed.incumbent_profit, numeric.incumbent_profit
    if abs(a - b) > rel_tol * max(1.0, abs(a), abs(b)):
        return f"profit {a!r} vs oracle {b!r}"
    return None


def run_verification(params: ModelParams, oracle_rel_tol: float = 1e-5) -> list[CheckResult]:
    """Run the full invariant suite for one parameter set.

    After ``params-valid`` every row of the check table runs under one guard:
    a check that raises is reported as a FAIL of that check, with the
    exception in the detail, and the run goes on with the next one. A
    tolerance that is not finite or is below 0 raises ValueError first.
    """
    if not (math.isfinite(oracle_rel_tol) and oracle_rel_tol >= 0.0):
        raise ValueError(f"oracle tolerance must be finite and at least 0, got {oracle_rel_tol!r}")
    report = validate(params)
    checks = [CheckResult("params-valid", report.ok, "; ".join(report.violations))]
    if not report.ok:
        return checks
    for name, check in _CHECKS + (_SUBSIDY_CHECKS if params.s > 0.0 else ()):
        try:
            passed, detail = check(params, oracle_rel_tol)
        except Exception as exc:   # reported, never swallowed: the run must go on
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        checks.append(CheckResult(name, passed, detail))
    return checks


def first_failure(check, points) -> tuple[int, str] | None:
    """(index, message) of the first point where check returns a message or
    raises (message "raised <type>: <message>"); None if there is none.

    With w CPUs this process may use (at most one per point), this process
    checks the share of points range(0, n, w) and w - 1 forked children the
    shares range(j, n, w), each up to its first message, which a child sends
    back over a pipe; the lowest index wins, as in a serial loop. A child
    that ends without reporting raises RuntimeError with its exit code, and
    no child outlives the call. Where fork or os.sched_getaffinity is
    missing, w is 1: every point is checked in this process. check need not
    pickle: the children inherit it, and any monkeypatch in force, from this
    process.
    """
    import multiprocessing

    n = len(points)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    w = max(1, min(cpus, n)) if "fork" in multiprocessing.get_all_start_methods() else 1
    children = []
    try:
        for j in range(1, w):
            ctx = multiprocessing.get_context("fork")
            reader, writer = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_report_share,
                                args=(check, points, range(j, n, w), writer, os.getpid()))
            child.start()
            children.append((child, reader))
            writer.close()   # so that the reader sees EOF once the child is gone
        events = [_first_event(check, points, range(0, n, w))]
        for child, reader in children:
            try:
                events.append(reader.recv())
            except EOFError:
                child.join()
                raise RuntimeError(f"a child checking points ended with exit code "
                                   f"{child.exitcode} before it reported") from None
        return min(filter(None, events), default=None, key=lambda event: event[0])
    finally:
        for child, reader in children:
            child.kill()
            child.join()
            reader.close()


def _first_event(check, points, share):
    # The first (index, message) of check over share, in order; None if
    # check returns None at every point of it.
    for i in share:
        try:
            message = check(points[i])
        except Exception as exc:   # the point's own message: a lower index may still win
            message = f"raised {type(exc).__name__}: {exc}"
        if message is not None:
            return i, message
    return None


def _report_share(check, points, share, writer, parent: int) -> None:
    # A forked child's work. It also ends once its parent is gone: a parent
    # killed by a signal it cannot handle kills no child. The watchdog thread
    # starts after the fork, so the parent forks while it runs no thread.
    threading.Thread(target=_exit_without, args=(parent,), daemon=True).start()
    writer.send(_first_event(check, points, share))


def _exit_without(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(0.2)
    os._exit(1)


def _check_kmax_positive(params: ModelParams, oracle_rel_tol: float) -> tuple[bool, str]:
    km = k_max(params)
    return km > 0 or params.w_high == params.w_low, f"k_max={km!r}"


def _k_points(km: float, n: int) -> np.ndarray:
    return np.minimum(np.linspace(0.0, km, n), km)   # see the module docstring


def _regime_sample_ks(th, km: float) -> list[float]:
    ks = []
    lo, hi = max(th.k_bar_1, 0.0), min(th.k_bar_2, km)
    if th.k_bar_1 > 0:
        ks.append(min(th.k_bar_1, km) * 0.5)
    if lo < hi:
        ks.append(0.5 * (lo + hi))
    if th.k_bar_2 < km:
        ks.append(0.5 * (max(th.k_bar_2, 0.0) + km))
    return [k for k in ks if 0.0 <= k <= km] or [0.0]


def _check_row_primitives(params: ModelParams, oracle_rel_tol: float) -> tuple[bool, str]:
    # Every regime's _row, played or not and read through closed_form as
    # solve reads it, against the primitives at the regime sample ks and on a
    # 41-point grid of [0, k_max], with t = theta + s:
    # - q1 = (1 + eta1)(t - w1) / (2c), the deployer's best response;
    # - q2 = D2 (t - w_low) / (2c), D2 the winner's cost denominator;
    # - revenue = w1 q1, plus w_low q2 where the incumbent wins;
    # - k q1 = eta1 where the incumbent retains below the cap: the stay and
    #   switch surpluses share the margin t - w_low, so the deployer is
    #   indifferent where the two denominators are equal.
    # Each within _ROW_TOL times max(1, 2c/d) relative, d = 2c - k (t - w1) the
    # row's own retention margin (2c in harvest): the rows lose about eps 2c/d.
    km = k_max(params)
    k = np.array(_regime_sample_ks(regime_thresholds(params), km) + _k_points(km, 41).tolist())
    p = replace(params, k=k)
    t, c2, eta_cap, w_l = params.theta + params.s, 2.0 * params.c, params.eta_cap, params.w_low
    labels, cells = [], []   # cells: (value, ref, limit), each over k
    for regime in Regime:
        row = closed_form._row(p, regime)
        if row.winner is Winner.INCUMBENT:
            d = c2 - k * (t - row.w1)
            d2 = stay_denominator(k, row.q1, eta_cap)
            revenue = row.w1 * row.q1 + w_l * row.q2
            kq1 = k * row.q1   # at the cap its ref is itself: checked only below
            retention = [("retention k q1", kq1, np.where(row.eta1 < eta_cap, row.eta1, kq1))]
        else:
            d, d2, revenue = c2, switch_denominator(row.eta1, eta_cap), row.w1 * row.q1
            retention = []
        bound = _ROW_TOL * numerics.larger(1.0, c2 / d)
        for name, value, ref in [("q1", row.q1, (1.0 + row.eta1) * (t - row.w1) / c2),
                                 ("q2", row.q2, d2 * (t - w_l) / c2),
                                 ("revenue", row.revenue, revenue)] + retention:
            labels.append(f"{regime.value} {name}")
            cells.append(np.broadcast_arrays(value, ref, bound * abs(ref), k)[:3])
    value, ref, limit = map(np.array, zip(*cells))
    err = abs(value - ref)
    bad = (err > limit).T   # k-major, so argmax finds the first failing k, then its first check
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), len(labels))
        return False, "%s %r vs %r at k=%r" % (labels[j], value[j, i].item(), ref[j, i].item(),
                                               k[i].item())
    worst = np.max(np.divide(err, limit, out=np.zeros_like(err), where=err > 0.0), initial=0.0)
    return True, f"{len(k)} k-points, worst residual {worst:.3f} of the bound"


def _check_threshold_bisection(params: ModelParams, oracle_rel_tol: float) -> tuple[bool, str]:
    # Thresholds equal independent bisection roots of the profit differences.
    th = regime_thresholds(params)
    km = k_max(params)
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
    return ok, "; ".join(detail) or f"max |root - formula| = {worst:.2e}"


def _check_regime_argmax(params: ModelParams, oracle_rel_tol: float) -> tuple[bool, str]:
    # Regime choice equals the scenario-revenue argmax on a dense k grid:
    # solve's own guard, which raises naming the first k where the two disagree.
    try:
        closed_form._solve(replace(params, k=_k_points(k_max(params), 201)))
    except RuntimeError as exc:
        return False, str(exc)
    return True, ""


def _check_baseline_welfare(params: ModelParams, oracle_rel_tol: float) -> tuple[bool, str]:
    # Welfare tables agree with rebuilds in every regime reachable at s = 0.
    p0 = baseline_twin(params)
    p = replace(p0, k=np.array(_regime_sample_ks(regime_thresholds(p0), k_max(p0))))
    welfare_for_equilibrium(p, closed_form._solve(p))
    return True, ""


def _check_mandate_flat(params: ModelParams, oracle_rel_tol: float) -> tuple[bool, str]:
    # Mandate welfare is flat in k.
    p0 = baseline_twin(params)
    wm_lo, wm_hi = (welfare_for_equilibrium(p, mandate_equilibrium(p))
                    for p in (replace(p0, k=0.0), replace(p0, k=k_max(p0))))
    return abs(wm_lo.social - wm_hi.social) <= 1e-12 * max(1.0, abs(wm_lo.social)), ""


def _check_trap_root(params: ModelParams, oracle_rel_tol: float) -> tuple[bool, str]:
    # A trap root must hold on the binding range by _root_holds' rule, the
    # jump being where defend gives way to dominate. Without one the SW gap
    # (baseline minus mandate) must keep one sign there; the detail names it.
    p0 = baseline_twin(params)
    binding = _binding_range(p0)
    if binding is None:
        return True, "mandate never binds"
    gap = _trap_gap(p0)
    trap = openness_trap_threshold(p0)
    if trap is not None:
        jumps = [("k_bar_2", regime_thresholds(p0).k_bar_2)]
        return _root_holds(gap, trap, binding, jumps, "gap", "SW gap")
    lo, hi = (gap(k) for k in binding)
    ends = f"{lo:+.3g} to {hi:+.3g}"
    if (lo > 0) != (hi > 0):
        return False, f"no root found, but the SW gap changes sign ({ends})"
    effect = "lowers" if lo > 0 else "raises"
    return True, f"mandate {effect} social welfare on the whole binding range (SW gap {ends})"


def _root_holds(f, root: float, span: tuple[float, float], jumps, noun: str,
                sign_noun: str) -> tuple[bool, str]:
    # The rule for a root that a threshold scan reports: it lies in span =
    # (lo, hi), lo <= root <= hi, and zeroes f, |f(root)| < 1e-8; or else it
    # is a listed jump (label, k), lo <= k < hi, that the scan bisected to
    # root, to within bisect_root's stopping width, with f strictly of
    # opposite signs at k and one ulp above it. The detail calls |f| |noun|
    # and f sign_noun.
    lo, hi = span
    in_span = lo <= root <= hi
    err = abs(f(root))
    detail = f"k_bar={root!r}, |{noun}|={err:.2e}"
    if err < 1e-8:
        return in_span, detail
    for label, k in jumps:
        if abs(root - k) <= 1e-13 and lo <= k < hi:
            below, above = f(k), f(float(np.nextafter(k, np.inf)))
            if below < 0.0 < above or above < 0.0 < below:
                return in_span, (f"k_bar={root!r}, jump at {label}={k!r} "
                                 f"({sign_noun} {below:+.3g} to {above:+.3g})")
    return False, detail


def _check_effort_dominance(params: ModelParams, oracle_rel_tol: float) -> tuple[bool, str]:
    # Integrated efforts dominate decentralized period-1 effort.
    p0 = baseline_twin(params)
    p = replace(p0, k=_k_points(k_max(p0), 41))
    v, q1 = extensions._integrated(p), closed_form._solve(p).q1
    bad = ~((v.q1v > q1) & (v.q2v >= v.q1v - 1e-12))
    if bad.any():
        return False, ("k=%r: q1v=%r, q1=%r, q2v=%r"
                       % numerics.first_where(bad, p.k, v.q1v, q1, v.q2v))
    return True, ""


def _check_integration_thresholds(params: ModelParams, oracle_rel_tol: float) -> tuple[bool, str]:
    # trap-root's rule for each of integration_thresholds' three scans: a
    # crossing holds on [0, k_max] by _root_holds, with the jumps at k_bar_1
    # and k_bar_2; without one the difference keeps the sign its status
    # names there.
    p0 = baseline_twin(params)
    gaps = _integration_gaps(p0)
    found = integration_thresholds(p0)
    th = regime_thresholds(p0)
    km = k_max(p0)
    jumps = [("k_bar_1", th.k_bar_1), ("k_bar_2", th.k_bar_2)]
    ok, parts = True, []
    for i, name in enumerate(("chain", "consumer", "social")):
        crossing = getattr(found, name)

        def diff(k, _i=i):
            return gaps(k)[_i]

        if crossing.status == "crossing":
            holds, detail = _root_holds(diff, crossing.value, (0.0, km), jumps, "diff", "diff")
        else:
            lo, hi = diff(0.0), diff(km)
            holds = (lo > 0) == (hi > 0) == (crossing.status == "always")
            detail = (f"{crossing.status}{'' if holds else ', but'} "
                      f"(diff {lo:+.3g} to {hi:+.3g})")
        ok = ok and holds
        parts.append(f"{name} {detail}")
    return ok, "; ".join(parts)


def _check_integrated_oracle(params: ModelParams, oracle_rel_tol: float) -> tuple[bool, str]:
    # Integrated oracle agrees with the closed form at this k.
    p0 = baseline_twin(params)
    config = OracleConfig()
    v = solve_integrated(p0)
    vo = oracle_solve_integrated(p0, config)
    eta_step = params.eta_cap / (config.eta_grid_points - 1)
    ok = (
        abs(vo.q1v - v.q1v) <= 1e-6 * max(1.0, v.q1v)
        and abs(vo.q2v - v.q2v) <= 2.0 * eta_step * max(1.0, v.q2v)
        and abs(vo.profit - v.profit) <= oracle_rel_tol * max(1.0, v.profit)
        and vo.eta1v == params.eta_cap and vo.eta2v == params.eta_cap
    )
    return ok, "" if ok else f"closed {v} vs oracle {vo}"


def _check_oracle_equivalence(params: ModelParams, oracle_rel_tol: float) -> tuple[bool, str]:
    # The big one: full-game oracle equivalence across the admissible k range.
    # Cell midpoints rather than np.linspace endpoints: an evenly spaced
    # endpoint grid can land exactly on a regime threshold, where the label
    # is a pure tie-break convention rather than a checkable prediction.
    config = OracleConfig()
    points = [replace(params, k=float(k))
              for k in (np.arange(_ORACLE_K_POINTS) + 0.5) / _ORACLE_K_POINTS * k_max(params)]
    found = first_failure(lambda p: compare_with_oracle(p, config, rel_tol=oracle_rel_tol),
                          points)
    if found is None:
        return True, f"{_ORACLE_K_POINTS} k-points at rel tol {oracle_rel_tol:g}"
    return False, f"k={points[found[0]].k!r}: {found[1]}"


def _check_grid_refinement(params: ModelParams, oracle_rel_tol: float) -> tuple[bool, str]:
    # Doubling the openness grid must not move the oracle argmax materially.
    config = OracleConfig()
    coarse = replace(config, eta_grid_points=(config.eta_grid_points // 2) | 1)
    e_coarse = oracle_solve_game(params, coarse)
    e_fine = oracle_solve_game(params, config)
    step = params.eta_cap / (coarse.eta_grid_points - 1)
    ok = e_coarse.w1 == e_fine.w1 and abs(e_coarse.eta1 - e_fine.eta1) <= step
    return ok, "" if ok else (f"w1={e_coarse.w1!r}, eta1={e_coarse.eta1!r} "
                              f"vs w1={e_fine.w1!r}, eta1={e_fine.eta1!r}")


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


def _check_threshold_shift(params: ModelParams, oracle_rel_tol: float) -> tuple[bool, str]:
    # Where both pieces of a binding threshold keep one sign of slope on
    # [theta, theta + s], the threshold moves that way from s = 0 to s (a
    # min or max of two increasing functions increases). Elsewhere the slope
    # formula of the piece that binds at s must match a central difference
    # of the threshold in s.
    p0 = baseline_twin(params)
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
        if den == 0.0:
            ok = False
            notes.append(f"{name} slope undefined: the denominator of {piece}'s slope "
                         f"underflows to 0.0")
            continue
        h = min(_SLOPE_STEP, params.s / 2.0)
        central = (getattr(_thresholds(replace(params, s=params.s + h)), name)
                   - getattr(_thresholds(replace(params, s=params.s - h)), name)) / (2.0 * h)
        slope = num / den
        match = abs(central - slope) <= 1e-6 * max(1.0, abs(slope))
        ok = ok and match
        notes.append(f"{name} slope {slope:.6g} {'matches' if match else 'differs from'} "
                     f"its central difference {central:.6g}")
    return ok, "; ".join([detail] + notes)


def _check_subsidy_limit(params: ModelParams, oracle_rel_tol: float) -> tuple[bool, str]:
    # As s falls to 0 the subsidized equilibrium meets the baseline one. The
    # small s is at most params.s, so it stays within validate()'s s <= w_low.
    tiny = solve(replace(params, s=min(1e-8, params.s)))
    base = solve_baseline(baseline_twin(params))
    rel = max(
        abs(tiny.eta1 - base.eta1),
        abs(tiny.q1 - base.q1) / max(1.0, base.q1),
        abs(tiny.q2 - base.q2) / max(1.0, base.q2),
        abs(tiny.incumbent_profit - base.incumbent_profit) / max(1.0, base.incumbent_profit),
    )
    return tiny.w1 == base.w1 and rel < 1e-6, f"max rel drift {rel:.2e}"


def _check_subsidy_welfare(params: ModelParams, oracle_rel_tol: float) -> tuple[bool, str]:
    # The subsidized welfare table agrees with its rebuild.
    welfare_for_equilibrium(params, solve(params))
    return True, ""


#: The checks run_verification runs after params-valid, as (name, check)
#: rows in the order it prints them; check(params, oracle_rel_tol) returns
#: (passed, detail).
_CHECKS = (
    ("kmax-positive", _check_kmax_positive),
    ("row-primitive-consistency", _check_row_primitives),
    ("threshold-bisection-match", _check_threshold_bisection),
    ("regime-argmax-consistency", _check_regime_argmax),
    ("welfare-cross-validation", _check_baseline_welfare),
    ("mandate-welfare-flat", _check_mandate_flat),
    ("trap-root", _check_trap_root),
    ("integration-effort-dominance", _check_effort_dominance),
    ("integration-thresholds", _check_integration_thresholds),
    ("integrated-oracle-agreement", _check_integrated_oracle),
    ("oracle-equivalence", _check_oracle_equivalence),
    ("oracle-grid-refinement", _check_grid_refinement),
)

#: The rows run after _CHECKS where s > 0.
_SUBSIDY_CHECKS = (
    ("subsidy-threshold-shift", _check_threshold_shift),
    ("subsidy-limit-continuity", _check_subsidy_limit),
    ("subsidy-welfare-cross-validation", _check_subsidy_welfare),
)
