"""Command-line front end.

Subcommands:

- ``solve``: equilibrium report (regime, thresholds, strategies, welfare)
- ``sweep``: CSV over a k or s grid, optional counterfactual columns
- ``policy``: baseline vs one intervention of extensions._POLICIES at one point
- ``verify``: run every invariant and oracle-equivalence check

Exit codes: 0 success, 1 verification failure, 2 I/O error, 3 invalid
parameters or malformed config/sweep.
"""

from __future__ import annotations

import argparse
import functools
import io
import sys

from .closed_form import eta_bar_high, eta_bar_low, regime_thresholds, scenario_profits, solve
from .extensions import _POLICIES
from .params import _FIELDS, InvalidParams, k_max, require_valid
from .sweep import _SCENARIOS, SweepSpec, read_config, run_sweep, write_csv
from .verify import run_verification
from .welfare import welfare_for_equilibrium


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _solve_report(params) -> str:
    lines = []
    lines.append("parameters: " + ", ".join(
        f"{name}={_fmt(getattr(params, name))}" for name in _FIELDS))
    lines.append(f"k_max: {_fmt(k_max(params))}")
    th = regime_thresholds(params)
    lines.append(
        "thresholds: k_bar_1=%s k_bar_2=%s (k_bar_12=%s k_bar_13=%s k_bar_23=%s eta_prime=%s)"
        % tuple(_fmt(v) for v in (th.k_bar_1, th.k_bar_2, th.k_bar_12,
                                  th.k_bar_13, th.k_bar_23, th.eta_prime)))
    lines.append(f"retention caps: eta_bar_high={_fmt(eta_bar_high(params))} "
                 f"eta_bar_low={_fmt(eta_bar_low(params))}")
    prof = scenario_profits(params)
    lines.append(f"scenario revenues: harvest={_fmt(prof.pi_s0)} "
                 f"defend={_fmt(prof.pi_s1)} dominate={_fmt(prof.pi_s2)}")

    eq = solve(params)   # reduces to the baseline game at s=0
    lines.append(f"regime: {eq.regime.value}")
    lines.append(f"strategy: w1={_fmt(eq.w1)} eta1={_fmt(eq.eta1)}")
    lines.append(f"period 1: effort={_fmt(eq.q1)} "
                 f"fee_paid={_fmt(eq.w1 - params.s)}")
    lines.append(f"period 2: winner={eq.winner2.value} w2={_fmt(eq.w2)} "
                 f"effort={_fmt(eq.q2)} openness={_fmt(eq.eta2)}")
    lines.append(f"incumbent revenue: {_fmt(eq.incumbent_profit)}")
    w = welfare_for_equilibrium(params, eq)
    lines.append(f"welfare: dev1={_fmt(w.dev1)} dev2={_fmt(w.dev2)} "
                 f"deployer={_fmt(w.deployer)} consumer={_fmt(w.consumer)} "
                 f"social={_fmt(w.social)}")
    if params.s > 0:
        lines.append(f"subsidy spend: {_fmt(eq.subsidy_spend)} "
                     f"(social net of spend: {_fmt(w.social - eq.subsidy_spend)})")
    return "\n".join(lines) + "\n"


def _policy_report(params, which: str) -> str:
    policy = _POLICIES[which]
    cmp = policy.compare(params)
    lines = [
        f"policy: {cmp.intervention}",
        f"region: {cmp.region}",
        f"baseline regime: {cmp.baseline_equilibrium.regime.value}",
        "component        baseline     counterfactual   delta",
    ]
    for name in ("dev1", "dev2", "deployer", "consumer", "social"):
        b = getattr(cmp.baseline, name)
        a = getattr(cmp.counterfactual, name)
        d = getattr(cmp.delta, name)
        lines.append(f"{name:<16} {_fmt(b):<12} {_fmt(a):<16} {_fmt(d)}")
    lines += [f"{label}: {_fmt(getattr(cmp, field))}" for label, field in policy.report]
    return "\n".join(lines) + "\n"


def _verify_lines(params, tolerance: float):
    checks = run_verification(params, oracle_rel_tol=tolerance)
    out = [f"{'PASS' if c.passed else 'FAIL'} {c.name}" + (f": {c.detail}" if c.detail else "")
           for c in checks]
    failed = sum(1 for c in checks if not c.passed)
    out.append(f"{len(checks) - failed}/{len(checks)} checks passed")
    return out, failed


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Every call of main shares this parser, so nothing may change it (parse_args does not).
    ap = argparse.ArgumentParser(
        prog="fmgame",
        description="Two-period foundation-model value-chain game solver",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="key=value parameter file")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    common(sub.add_parser("solve", help="equilibrium report at the config point"))

    p_sweep = sub.add_parser("sweep", help="CSV over a parameter grid")
    common(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=["k", "s"])
    p_sweep.add_argument("--lo", required=True, type=float)
    p_sweep.add_argument("--hi", required=True, type=float)
    p_sweep.add_argument("--steps", required=True, type=int)
    p_sweep.add_argument("--scenario", default="baseline", choices=tuple(_SCENARIOS))

    p_pol = sub.add_parser("policy", help="baseline vs counterfactual at the config point")
    p_pol.add_argument("which", choices=tuple(_POLICIES))
    common(p_pol)

    p_ver = sub.add_parser("verify", help="run the invariant and oracle suite")
    common(p_ver)
    p_ver.add_argument("--tolerance", type=float, default=1e-5,
                       help="relative tolerance for oracle-vs-closed-form revenue")
    return ap


def _write_out(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        params = read_config(args.config)
        if args.command == "sweep":
            spec = SweepSpec(parameter=args.param, lo=args.lo, hi=args.hi,
                             steps=args.steps, scenario=args.scenario)
            buf = io.StringIO()
            write_csv(*run_sweep(params, spec), buf)
            _write_out(buf.getvalue(), args.out)
            return 0
        require_valid(params)
        if args.command == "solve":
            _write_out(_solve_report(params), args.out)
            return 0
        if args.command == "policy":
            _write_out(_policy_report(params, args.which), args.out)
            return 0
        # verify
        lines, failed = _verify_lines(params, args.tolerance)
        _write_out("\n".join(lines) + "\n", args.out)
        return 1 if failed else 0
    except OSError as exc:
        target = getattr(exc, "filename", None) or args.config
        print(f"error: cannot access {target}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except InvalidParams as exc:
        msg = str(exc)
        if "k exceeds k_max" in msg:
            msg += f" (k_max = {_fmt(k_max(params))})"
        print(f"error: {msg}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
