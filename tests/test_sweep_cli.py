"""Config parsing, sweep/CSV output, and command-line behavior."""

from __future__ import annotations

import argparse
import ast
import subprocess
import sys
from dataclasses import replace
from io import StringIO
from pathlib import Path

import pytest

from conftest import (
    INTEGRATION_SCAN_OVERSHOOT,
    MANDATE_SCAN_OVERSHOOT,
    RETENTION_LOST_AT_K_MAX,
    SET_A,
    SET_B,
    child_env,
)
import fmgame
from fmgame import (
    ConfigError,
    SweepSpec,
    read_config,
    run_sweep,
    solve_baseline,
    sweep_columns,
    welfare_for_equilibrium,
    write_csv,
)
from fmgame.cli import _build_parser, main
from fmgame.extensions import _POLICIES

REPO = Path(__file__).resolve().parents[1]
CFG_A = str(REPO / "configs" / "set_a.cfg")
CFG_B = str(REPO / "configs" / "set_b.cfg")


def _write_cfg(tmp_path: Path, text: str) -> str:
    path = tmp_path / "params.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _params_cfg(tmp_path: Path, params) -> str:
    return _write_cfg(tmp_path, "".join(
        f"{name}={getattr(params, name)!r}\n"
        for name in ("theta", "c", "w_high", "w_low", "eta_cap", "k", "s")))


GOOD_CFG = "theta=5\nc=1\nw_high=2.5\nw_low=0.5\neta_cap=1.5\nk=0.2\ns=0\n"


class TestReadConfig:
    def test_set_a_round_trip(self):
        assert read_config(CFG_A) == SET_A

    def test_set_b_round_trip(self):
        assert read_config(CFG_B) == SET_B

    def test_comments_and_blanks_ignored(self, tmp_path):
        text = "# experiment one\n\ntheta = 5 # wide market\n" + GOOD_CFG.split("\n", 1)[1]
        assert read_config(_write_cfg(tmp_path, text)) == SET_A

    def test_missing_key_named(self, tmp_path):
        text = GOOD_CFG.replace("eta_cap=1.5\n", "")
        with pytest.raises(ConfigError, match="missing required keys: eta_cap"):
            read_config(_write_cfg(tmp_path, text))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key 'gamma'"):
            read_config(_write_cfg(tmp_path, GOOD_CFG + "gamma=2\n"))

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate key 'k'"):
            read_config(_write_cfg(tmp_path, GOOD_CFG + "k=0.1\n"))

    def test_non_numeric_value_rejected(self, tmp_path):
        text = GOOD_CFG.replace("k=0.2", "k=high")
        with pytest.raises(ConfigError, match="k is not a number"):
            read_config(_write_cfg(tmp_path, text))

    def test_line_without_equals_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="expected key=value"):
            read_config(_write_cfg(tmp_path, GOOD_CFG + "verbose\n"))

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_config(str(tmp_path / "nope.cfg"))


class TestSweepSpec:
    @pytest.mark.parametrize(
        "spec,needle",
        [
            (SweepSpec("theta", 0.0, 1.0, 5), "parameter must be k or s"),
            (SweepSpec("k", 0.3, 0.1, 5), "lo < hi"),
            (SweepSpec("k", 0.0, 0.2, 1), "steps >= 2"),
            (SweepSpec("k", 0.0, 0.2, 5, scenario="tax"), "unknown scenario"),
            (SweepSpec("s", 0.0, 0.4, 3, scenario="mandate"),
             "mandate scenario is solved at s = 0"),
            (SweepSpec("s", 0.0, 0.4, 3, scenario="integration"),
             "integration scenario is solved at s = 0"),
            (SweepSpec("k", 0.0, float("inf"), 3), "bounds must be finite"),
            (SweepSpec("k", float("-inf"), 0.2, 3), "bounds must be finite"),
            (SweepSpec("k", float("nan"), 0.2, 3), "bounds must be finite"),
            (SweepSpec("k", 0.0, 1e308, 4), "grid overflows"),
            (SweepSpec("s", -1e308, 1e308, 2), "grid overflows"),
            # Too large a step count for a float: the product cannot be formed.
            (SweepSpec("k", 0.0, 1.0, 10 ** 400), "grid overflows"),
        ],
    )
    def test_bad_specs_rejected(self, spec, needle):
        with pytest.raises(ConfigError, match=needle):
            spec.check()

    def test_columns_end_with_status(self):
        for scenario in ("baseline", "mandate", "integration", "subsidy"):
            cols = sweep_columns(scenario)
            assert cols[-1] == "status"
            assert cols[0] == "k" and cols[1] == "s"
        assert "subsidy_spend" in sweep_columns("subsidy")
        assert "chain_profit" in sweep_columns("integration")


def _component_groups(cols: tuple[str, ...]) -> list[tuple[int, ...]]:
    """Index groups (dev1, dev2, deployer, consumer, social) per scenario block."""
    groups = []
    for suffix in ("", "_mandate", "_subsidized"):
        names = [f"pi_dev1{suffix}", f"pi_dev2{suffix}", f"profit_deployer{suffix}",
                 f"consumer_surplus{suffix}", f"social_welfare{suffix}"]
        if all(n in cols for n in names):
            groups.append(tuple(cols.index(n) for n in names))
    return groups


class TestRunSweep:
    def test_baseline_rows_and_grid(self, set_a):
        cols, rows = run_sweep(set_a, SweepSpec("k", 0.0, 0.26, 27))
        assert cols == sweep_columns("baseline")
        assert len(rows) == 27
        ks = [float(r[0]) for r in rows]
        assert ks[0] == 0.0 and abs(ks[-1] - 0.26) < 1e-15
        assert all(r[-1] == "ok" for r in rows)
        assert all(len(r) == len(cols) for r in rows)

    def test_regime_changes_at_most_twice_and_ordered(self, set_a):
        cols, rows = run_sweep(set_a, SweepSpec("k", 0.0, 0.26, 200))
        regimes = [r[cols.index("regime")] for r in rows]
        changes = [(a, b) for a, b in zip(regimes, regimes[1:]) if a != b]
        assert len(changes) <= 2
        order = {"harvest": 0, "defend": 1, "dominate": 2}
        assert all(order[a] < order[b] for a, b in changes)

    def test_social_is_component_sum_every_row(self, set_a, set_b):
        runs = [
            (set_a, SweepSpec("k", 0.0, 0.26, 40)),
            (set_a, SweepSpec("k", 0.0, 0.26, 15, scenario="mandate")),
            (set_a, SweepSpec("k", 0.0, 0.26, 15, scenario="integration")),
            (set_b, SweepSpec("s", 0.0, 0.6, 15, scenario="subsidy")),
        ]
        for params, spec in runs:
            cols, rows = run_sweep(params, spec)
            groups = _component_groups(cols)
            assert groups, spec.scenario
            for row in rows:
                if row[-1] != "ok":
                    continue
                for idx in groups:
                    dev1, dev2, depl, cons, social = (float(row[i]) for i in idx)
                    assert abs(social - (dev1 + dev2 + depl + cons)) < 1e-9

    def test_integrated_social_is_profit_plus_consumer(self, set_a):
        cols, rows = run_sweep(set_a, SweepSpec("k", 0.0, 0.26, 12, scenario="integration"))
        i_p = cols.index("profit_integrated")
        i_c = cols.index("consumer_surplus_integrated")
        i_s = cols.index("social_welfare_integrated")
        for row in rows:
            assert abs(float(row[i_s]) - float(row[i_p]) - float(row[i_c])) < 1e-9

    def test_inadmissible_points_kept_with_status(self, set_a):
        cols, rows = run_sweep(set_a, SweepSpec("k", 0.0, 0.30, 16))
        bad = [r for r in rows if r[-1] != "ok"]
        assert bad, "grid should cross k_max = 4/15"
        for row in bad:
            assert "k exceeds k_max" in row[-1]
            assert row[2:-1] == [""] * (len(cols) - 3)   # padded, not dropped
        # admissible prefix is intact
        assert rows[0][-1] == "ok"
        assert len(rows) == 16

    def test_mandate_sweep_forces_s_zero(self, set_b):
        cols, rows = run_sweep(set_b, SweepSpec("k", 0.0, 0.2, 8, scenario="mandate"))
        assert all(r[cols.index("s")] == "0" for r in rows)

    def test_subsidy_sweep_reports_swept_s_against_s0_baseline(self, set_b):
        cols, rows = run_sweep(set_b, SweepSpec("s", 0.0, 0.5, 11, scenario="subsidy"))
        assert [float(r[1]) for r in rows] == pytest.approx([0.05 * i for i in range(11)])
        # baseline block is the s=0 game, identical on every row
        base_block = [r[2 : cols.index("regime_subsidized")] for r in rows]
        assert all(b == base_block[0] for b in base_block)
        spend = [float(r[cols.index("subsidy_spend")]) for r in rows]
        assert spend[0] == 0.0
        assert all(b >= a - 1e-12 for a, b in zip(spend, spend[1:]))

    def test_csv_bytes_deterministic(self, set_a, tmp_path):
        spec = SweepSpec("k", 0.0, 0.26, 60)
        outs = []
        for _ in range(2):
            cols, rows = run_sweep(set_a, spec)
            buf = StringIO()
            write_csv(cols, rows, buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]
        assert "\r" not in outs[0]
        header, *lines = outs[0].splitlines()
        assert header == ",".join(sweep_columns("baseline"))
        assert len(lines) == 60


class TestPolicyTable:
    """Each intervention is named once, in its row of extensions._POLICIES."""

    @staticmethod
    def _choices(command: str, dest: str) -> tuple[str, ...]:
        commands = next(action for action in _build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        return tuple(next(action for action in commands.choices[command]._actions
                          if action.dest == dest).choices)

    def test_cli_choices_come_from_the_table(self):
        assert self._choices("policy", "which") == tuple(_POLICIES)
        assert self._choices("sweep", "scenario") == ("baseline", *_POLICIES)

    def test_sweep_columns_come_from_each_rows_cells(self, set_b):
        twin = replace(set_b, s=0.0)
        w = welfare_for_equilibrium(twin, solve_baseline(twin))
        for name, row in _POLICIES.items():
            cells = row.cells(set_b if row.own_s else twin, w)
            assert sweep_columns(name) == (sweep_columns("baseline")[:-1]
                                           + tuple(column for column, _ in cells) + ("status",))

    def test_each_comparison_names_its_row(self, set_b):
        for name, row in _POLICIES.items():
            assert row.compare(set_b).intervention == name

    @pytest.mark.parametrize("module", ["cli.py", "sweep.py"])
    def test_cli_and_sweep_spell_out_no_policy(self, module):
        source = (Path(fmgame.__file__).parent / module).read_text(encoding="utf-8")
        named = sorted(node.value for node in ast.walk(ast.parse(source))
                       if isinstance(node, ast.Constant) and node.value in _POLICIES)
        assert not named, f"{module} spells out {named}"


class TestCliCommands:
    def test_solve_report(self, capsys):
        assert main(["solve", "--config", CFG_A]) == 0
        out = capsys.readouterr().out
        assert "regime: defend" in out
        assert "k_max: 0.2666666667" in out
        assert "retention caps:" in out
        assert "scenario revenues:" in out

    def test_solve_subsidized_reports_spend(self, capsys):
        assert main(["solve", "--config", CFG_B]) == 0
        out = capsys.readouterr().out
        assert "subsidy spend: 7.759433962" in out
        assert "social net of spend:" in out

    def test_solve_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.txt"
        assert main(["solve", "--config", CFG_A, "--out", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        assert "regime: defend" in out_path.read_text(encoding="utf-8")

    def test_policy_mandate_region(self, capsys):
        assert main(["policy", "mandate", "--config", CFG_A]) == 0
        out = capsys.readouterr().out
        assert "policy: mandate" in out
        assert "region: mandate_binding" in out

    def test_policy_mandate_on_a_subsidized_config_plays_its_twin(self, tmp_path, capsys):
        assert main(["policy", "mandate", "--config", CFG_B]) == 0
        out = capsys.readouterr().out
        twin = _params_cfg(tmp_path, replace(SET_B, s=0.0))
        assert main(["policy", "mandate", "--config", twin]) == 0
        assert capsys.readouterr().out == out

    def test_policy_integration_region(self, capsys):
        assert main(["policy", "integration", "--config", CFG_A]) == 0
        out = capsys.readouterr().out
        assert "region: win_win" in out
        for name in ("dev1", "dev2", "deployer", "consumer", "social"):
            assert name in out

    @pytest.mark.parametrize("which, params", [
        ("mandate", MANDATE_SCAN_OVERSHOOT),
        ("integration", INTEGRATION_SCAN_OVERSHOOT),
    ], ids=["mandate", "integration"])
    def test_policy_exits_0_where_the_scan_reached_k_max(self, tmp_path, capsys, which, params):
        cfg = _params_cfg(tmp_path, params)
        assert main(["policy", which, "--config", cfg]) == 0
        assert f"policy: {which}" in capsys.readouterr().out

    def test_policy_integration_exits_3_where_k_max_loses_the_retention_margin(
            self, tmp_path, capsys):
        cfg = _params_cfg(tmp_path, RETENTION_LOST_AT_K_MAX)
        assert main(["policy", "integration", "--config", cfg]) == 3
        assert capsys.readouterr().err == (
            "error: invalid parameters: retention threshold undefined: "
            "2c - k (theta - w_low + s) <= 0\n")

    def test_policy_subsidy_accounting(self, capsys):
        assert main(["policy", "subsidy", "--config", CFG_B]) == 0
        out = capsys.readouterr().out
        assert "policy: subsidy" in out
        assert "subsidy spend: 7.759433962" in out
        assert "social net of spend:" in out

    def test_sweep_stdout_and_file_identical(self, tmp_path, capsys):
        args = ["sweep", "--config", CFG_A, "--param", "k",
                "--lo", "0", "--hi", "0.26", "--steps", "50"]
        assert main(args) == 0
        stdout_csv = capsys.readouterr().out
        out_path = tmp_path / "sweep.csv"
        assert main(args + ["--out", str(out_path)]) == 0
        data = out_path.read_bytes()
        assert data.decode("utf-8") == stdout_csv
        assert b"\r" not in data
        # byte-identical on re-run
        again = tmp_path / "sweep2.csv"
        assert main(args + ["--out", str(again)]) == 0
        assert again.read_bytes() == data

    def test_sweep_ends_exactly_at_hi(self, capsys):
        # --hi is k_max of set_a; lo + (hi - lo) * 9 / 9 rounds past it.
        args = ["sweep", "--config", CFG_A, "--param", "k",
                "--lo", "0.02", "--hi", "0.26666666666666666", "--steps", "10"]
        assert main(args) == 0
        last = capsys.readouterr().out.splitlines()[-1].split(",")
        assert last[0] == "0.266666666667"
        assert last[-1] == "ok"

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "absent.cfg")])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot access" in err and "absent.cfg" in err

    def test_malformed_config_exits_3(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, GOOD_CFG + "gamma=1\n")
        assert main(["solve", "--config", cfg]) == 3
        assert "unknown key" in capsys.readouterr().err

    def test_excessive_k_exits_3_and_names_bound(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, GOOD_CFG.replace("k=0.2", "k=0.5"))
        assert main(["solve", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "k exceeds k_max" in err
        assert "k_max = 0.2666666667" in err

    def test_bad_sweep_bounds_exit_3(self, capsys):
        code = main(["sweep", "--config", CFG_A, "--param", "k",
                     "--lo", "0.3", "--hi", "0.1", "--steps", "10"])
        assert code == 3
        assert "lo < hi" in capsys.readouterr().err

    def test_infinite_sweep_bound_exits_3(self, capsys):
        # 0 + inf*0/2 would make the first k NaN though --lo is 0.
        code = main(["sweep", "--config", CFG_A, "--param", "k",
                     "--lo", "0", "--hi", "inf", "--steps", "3"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sweep bounds must be finite" in captured.err

    def test_overflowing_sweep_grid_exits_3(self, capsys):
        # (hi - lo) * 2 overflows: the grid's third k would be inf.
        code = main(["sweep", "--config", CFG_A, "--param", "k",
                     "--lo", "0", "--hi", "1e308", "--steps", "4"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sweep grid overflows" in captured.err

    def test_step_count_beyond_the_float_range_exits_3(self, capsys):
        # A count the check rejects: one that passed would build its whole grid.
        code = main(["sweep", "--config", CFG_A, "--param", "k",
                     "--lo", "0", "--hi", "1", "--steps", "1" + "0" * 400])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: sweep grid overflows: "
                                "(hi - lo) * (steps - 2) is not finite\n")

    def test_parser_is_built_once_and_reused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve"])
        assert exc.value.code == 2
        assert "usage: fmgame solve" in capsys.readouterr().err
        want = _run_module("solve", "--config", CFG_A).stdout
        for _ in range(2):
            assert main(["solve", "--config", CFG_A]) == 0
            assert capsys.readouterr().out == want
        assert _build_parser() is _build_parser()

    def test_module_entry_point(self):
        proc = _run_module("solve", "--config", CFG_A)
        assert proc.returncode == 0
        assert "regime: defend" in proc.stdout


def _run_module(*args: str, python_flags: tuple[str, ...] = ()):
    return subprocess.run([sys.executable, *python_flags, "-m", "fmgame.cli", *args],
                          capture_output=True, text=True, timeout=120, env=child_env())


# The full verify report on each config. Its details come from float
# arithmetic and seeded PCG64 draws, so a change to a closed form, the oracle
# or a check shows here.
VERIFY_SET_A = (
    "PASS params-valid\n"
    "PASS kmax-positive: k_max=0.26666666666666666\n"
    "PASS row-primitive-consistency: 44 k-points, worst residual 0.013 of the bound\n"
    "PASS threshold-bisection-match: max |root - formula| = 2.00e-13\n"
    "PASS regime-argmax-consistency\n"
    "PASS welfare-cross-validation\n"
    "PASS mandate-welfare-flat\n"
    "PASS trap-root: k_bar=0.25673003092465707, |gap|=3.34e-11\n"
    "PASS integration-effort-dominance\n"
    "PASS integration-thresholds: chain k_bar=0.1240000000000255, |diff|=2.49e-12; "
    "consumer k_bar=0.17226495451672974, |diff|=3.41e-12; "
    "social k_bar=0.17607999200159924, |diff|=2.27e-13\n"
    "PASS integrated-oracle-agreement\n"
    "PASS oracle-equivalence: 100 k-points at rel tol 1e-05\n"
    "PASS oracle-grid-refinement\n"
    "13/13 checks passed\n"
)

VERIFY_SET_B = (
    "PASS params-valid\n"
    "PASS kmax-positive: k_max=0.2553191489361702\n"
    "PASS row-primitive-consistency: 44 k-points, worst residual 0.017 of the bound\n"
    "PASS threshold-bisection-match: max |root - formula| = 4.02e-13\n"
    "PASS regime-argmax-consistency\n"
    "PASS welfare-cross-validation\n"
    "PASS mandate-welfare-flat\n"
    "PASS trap-root: k_bar=0.27569035902715777, |gap|=2.16e-11\n"
    "PASS integration-effort-dominance\n"
    "PASS integration-thresholds: "
    "chain k_bar=0.049920000000021045, jump at k_bar_1=0.049920000000000006 (diff -3.16 to +14.9); "
    "consumer k_bar=0.049920000000021045, jump at k_bar_1=0.049920000000000006 "
    "(diff -37.9 to +36.6); "
    "social k_bar=0.049920000000021045, jump at k_bar_1=0.049920000000000006 (diff -51.5 to +51.5)\n"
    "PASS integrated-oracle-agreement\n"
    "PASS oracle-equivalence: 100 k-points at rel tol 1e-05\n"
    "PASS oracle-grid-refinement\n"
    "PASS subsidy-threshold-shift: k_bar_1 0.049920000000000006->0.06577777777777778, "
    "k_bar_2 0.17989417989417988->0.1872340425531915\n"
    "PASS subsidy-limit-continuity: max rel drift 4.11e-09\n"
    "PASS subsidy-welfare-cross-validation\n"
    "16/16 checks passed\n"
)


class TestCliVerify:
    def test_set_a_all_checks_pass(self, capsys):
        assert main(["verify", "--config", CFG_A]) == 0
        assert capsys.readouterr().out == VERIFY_SET_A

    def test_forked_workers_raise_no_deprecation_warning(self):
        # Python 3.12+ warns when it forks a process that runs threads. The
        # parent starts no thread: each child starts its watchdog after the
        # fork. OpenBLAS stops its threads at each fork.
        proc = _run_module("verify", "--config", CFG_A,
                           python_flags=("-W", "error::DeprecationWarning"))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == VERIFY_SET_A

    def test_set_b_includes_subsidy_checks(self, capsys):
        assert main(["verify", "--config", CFG_B]) == 0
        assert capsys.readouterr().out == VERIFY_SET_B

    def test_corrupted_tolerance_fails_named_check(self, capsys):
        code = main(["verify", "--config", CFG_A, "--tolerance", "1e-15"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL oracle-equivalence" in out
        last = out.splitlines()[-1]
        assert last.endswith("checks passed") and not last.startswith("13/")

    @pytest.mark.parametrize("tolerance, shown", [("nan", "nan"), ("inf", "inf"), ("-1", "-1.0")])
    def test_tolerance_must_be_finite_and_at_least_0(self, capsys, tolerance, shown):
        # nan and inf would pass both oracle checks without comparing anything.
        code = main(["verify", "--config", CFG_A, "--tolerance", tolerance])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            f"error: oracle tolerance must be finite and at least 0, got {shown}\n")
