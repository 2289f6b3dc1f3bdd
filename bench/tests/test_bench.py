"""Tests of the benchmark itself: inputs, deadlines, checks and tracing.

Run from the repository root with ``python3 -m pytest -q bench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import run
import tracing
import workloads

fm = run.import_fmgame()


def _fmgame_bindings():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if module is not None and (name == "fmgame" or name.startswith("fmgame."))
            for attr, value in vars(module).items()}


def _corner(name: str, deadline_s: float | None = None) -> workloads.Op:
    config = fm.OracleConfig()
    for corner, params, defect in workloads.corner_params(fm):
        if corner == name:
            return workloads.Op(corner, lambda p=params: fm.compare_with_oracle(p, config),
                                workloads.check_none, deadline_s or 2.0, defect)
    raise KeyError(name)


def _far() -> float:
    return time.monotonic() + 60.0


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_oracle_corpus_inputs_repeat_for_a_seed_and_are_valid(seed):
    first = workloads.oracle_corpus_params(fm, seed, 30)
    assert first == workloads.oracle_corpus_params(fm, seed, 30)
    assert first != workloads.oracle_corpus_params(fm, seed + 1, 30)
    names = [name for name, _, _ in first]
    assert {name for name, *_ in workloads.CORNERS} <= set(names)
    assert sum(1 for _, p, _ in first if p.s > 0) >= 9   # 3 in 10 draws, plus corners
    for name, params, _ in first:
        assert fm.validate(params).ok, (name, fm.validate(params).violations)


@pytest.mark.parametrize("seed", [0, 7])
def test_closed_form_plan_repeats_for_a_seed_and_every_input_is_valid(seed, tmp_path):
    plan = workloads.closed_form_plan(seed, 3)
    assert plan == workloads.closed_form_plan(seed, 3)
    assert set(plan) <= set(workloads.closed_form_universe())
    workloads.write_cfgs(plan, run.ROOT, tmp_path)
    digests = workloads.load_digests(run.ROOT)
    for kind, config, value in plan:
        name, argv = workloads.closed_form_argv(kind, config, value, tmp_path, run.ROOT)
        assert name in digests
        params = fm.ModelParams(**workloads.read_cfg(Path(argv[argv.index("--config") + 1])))
        if kind.startswith("sweep-"):
            # Sweeps run past k_max, so the status column is exercised.
            assert float(argv[argv.index("--hi") + 1]) > fm.k_max(params)
        else:
            assert fm.validate(params).ok, (name, fm.validate(params).violations)


def test_every_closed_form_op_has_a_recorded_digest():
    digests = workloads.load_digests(run.ROOT)
    names = [workloads.closed_form_argv(*entry, run.OUT, run.ROOT)[0]
             for entry in workloads.closed_form_universe()]
    assert sorted(names) == sorted(digests)


def test_a_digest_mismatch_is_a_failed_op():
    check = workloads.digest_check("0" * 64)
    assert "sha256" in check((0, "some output\n"))
    assert "exit code 3" in check((3, "error: bad\n"))


def test_verify_check_needs_every_line_pass():
    good = "PASS a\nPASS b: detail\n2/2 checks passed\n"
    assert workloads.check_verify((0, good)) is None
    assert "not PASS" in workloads.check_verify((0, "PASS a\nFAIL b: x\n1/2 checks passed\n"))
    assert "exit code 1" in workloads.check_verify((1, good))


def test_short_deadline_turns_the_eta_cap_1e6_hang_into_a_named_failed_op():
    hang = _corner("set_a-eta_cap-1e6", deadline_s=0.3)
    start = time.perf_counter()
    records, _ = run.run_ops([hang, _corner("zero-fees")], _far())
    assert time.perf_counter() - start < 5.0
    (op, seconds, error, ended), (_, _, next_error, next_ended) = records
    assert op.name == "set_a-eta_cap-1e6" and not ended
    assert error.startswith("deadline of 0.3 s passed") and seconds >= 0.3
    assert next_error is None and next_ended    # the loop carries on
    attempted, failed, correct, lines = run.summarize(records)
    assert (attempted, failed) == (2, 1)
    assert correct      # a known seed-commit defect still counts as failed
    assert lines[0].startswith("failed set_a-eta_cap-1e6: deadline")


def test_an_unknown_failure_makes_the_run_incorrect():
    broken = replace(_corner("zero-fees"), check=lambda result: "wrong on purpose")
    records, _ = run.run_ops([broken], _far())
    assert run.summarize(records)[1:3] == (1, False)


def test_a_raising_op_is_a_failed_op():
    def boom():
        raise ValueError("no")
    records, _ = run.run_ops([workloads.Op("boom", boom, workloads.check_none, 1.0)], _far())
    assert records[0][2] == "raised ValueError: no"


def _traced(ops):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        records, _ = run.run_ops(ops, _far(), tracer)
    finally:
        tracer.restore()
    return records, tracer


def test_traced_run_wraps_every_binding_and_restores_every_attribute():
    before = _fmgame_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        import fmgame.oracle
        import fmgame.verify

        assert fmgame.verify.oracle_solve_game is not before[("fmgame.verify", "oracle_solve_game")]
        assert fmgame.oracle.oracle_solve_game is fmgame.verify.oracle_solve_game
        assert fm.oracle_solve_game is fmgame.verify.oracle_solve_game
    finally:
        tracer.restore()
    assert _fmgame_bindings() == before


def test_traced_run_restores_attributes_after_an_op_passes_its_deadline():
    before = _fmgame_bindings()
    records, tracer = _traced([_corner("set_b-eta_cap-1e6", deadline_s=0.2)])
    assert not records[0][3]
    assert _fmgame_bindings() == before
    # The stopped op's partial work is left out of the per-layer numbers.
    assert tracer.layer_metrics()["oracle.oracle_solve_game.calls"] == 0
    assert tracer.spans      # but its spans are kept


def test_counts_repeat_exactly_across_two_traced_runs(tmp_path):
    ops = workloads.build("oracle-corpus", 3, 0.3, fm, run.ROOT, tmp_path)
    ops = [replace(op, deadline_s=0.3) if op.known_defect else op for op in ops]
    cfg = str(run.ROOT / "configs" / "set_a.cfg")
    ops.append(workloads.Op("policy-integration", lambda: workloads.run_cli(
        fm.cli, ["policy", "integration", "--config", cfg]), workloads.check_rc0, 5.0))
    counts = []
    for _ in range(2):
        _, tracer = _traced(ops)
        metrics = tracer.layer_metrics()
        counts.append({k: v for k, v in metrics.items()
                       if not k.endswith(("_ms", "_s", "_share"))})
    assert counts[0] == counts[1]
    first = counts[0]
    assert first["numerics.golden_max.lane_evals"] > 0
    assert first["numerics.golden_max_scalar.evals"] > 0
    assert first["numerics.largest_true.pred_evals"] > 0
    assert first["numerics.sign_change_brackets.evals"] > 0
    assert first["oracle.oracle_solve_game.calls"] == len(ops) - 3   # 2 hangs, 1 policy op
    assert first["oracle.oracle_solve_game.param_reuse_ratio"] == 0.0


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.spans[:] = [(0, -1, 0, "cli.main", 0.0, 1.0), (1, 0, 0, "sweep.run_sweep", 0.2, 0.7)]
    tracer.begin_op(0)
    tracer.end_op(keep=True)
    metrics = tracer.layer_metrics()
    assert metrics["cli.main.total_ms"] == pytest.approx(1000.0)
    assert metrics["cli.main.self_ms"] == pytest.approx(500.0)
    assert metrics["sweep.run_sweep.self_ms"] == pytest.approx(500.0)


def test_bench_fails_without_the_program(tmp_path):
    """In a directory holding only the bench, it exits non-zero and prints no result."""
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "closed-form",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "src/fmgame/__init__.py not found" in proc.stderr
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
