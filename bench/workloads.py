"""Seeded inputs and checked operations for the three benchmark workloads.

Every input comes from the workload seed through ``random.Random``; nothing
here calls the package's own random-draw helpers. Each operation is one
call into a public entry point (``fmgame.cli.main`` or
``compare_with_oracle``) plus a check of what it returned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

WORKLOADS = ("verify", "oracle-corpus", "closed-form")
CONFIGS = ("set_a", "set_b")

# Per-op deadlines. A normal op takes about 11 s (verify), 0.1 s (one oracle
# comparison) or 0.2 s at most (closed forms), so each limit is a wide margin
# over that; past it the op is stopped and counted as failed.
DEADLINE_S = {"verify": 60.0, "oracle-corpus": 2.0, "closed-form": 5.0}

# Work per second of --seconds at the seed commit on a 2-core Xeon, used to
# size a run's fixed op list so that it takes about --seconds there. A
# verify cycle is set_a then set_b, about 22 s.
VERIFY_CYCLES_PER_S = 1.0 / 22.0
ORACLE_DRAWS_PER_S = 7.0
CLOSED_FORM_PASSES_PER_S = 1.5

# k_max of set_a and set_b rounded down at 10 digits, so that every chosen k
# is admissible and the inputs do not depend on the program's arithmetic.
KMAX = {"set_a": 0.2666666666, "set_b": 0.2553191489}
K_GRID = 32                     # closed-form k values are KMAX * (j + 0.5) / K_GRID
SWEEP_HI = 1.2                  # sweeps run from k = 0 to SWEEP_HI * KMAX
SWEEP_STEPS = (100, 150, 200, 250, 300, 350, 400)
SCENARIOS = ("baseline", "mandate", "integration", "subsidy")

# One closed-form pass: (command, config, ranges of the k index j, one op
# drawn from each range), plus one sweep per scenario and config with a
# drawn step count. Every pass has the same mix. Solve, the subsidy policy
# and the slack mandate policy (about 2 ms) are 68% of ops and hold
# op_ms_p50. op_ms_p90 falls among the sweeps (10 to 60 ms, spread evenly
# by the step count) and the binding mandate policy, whose openness-trap
# scan takes about 40 ms. The host's speed swings shift a spread-out band
# smoothly, where a band of one op kind would jump between two values. The
# integration policy (threshold scans, about 120 ms) is the top 5%. The
# mandate ops fall twice where the mandate is slack (k <= k_bar_1 = 0.192 on
# set_a, j <= 22) and twice where it binds.
_EIGHTHS = tuple((4 * i, 4 * i + 4) for i in range(8))
CLOSED_FORM_PASS = (
    ("solve", "set_a", _EIGHTHS),
    ("solve", "set_b", _EIGHTHS),
    ("subsidy", "set_b", _EIGHTHS),
    ("mandate", "set_a", ((0, 11), (11, 23), (23, 28), (28, 32))),
    ("integration", "set_a", ((0, 32),)),
    ("integration", "set_b", ((0, 32),)),
)


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: a call and the check of its result.

    ``check`` returns None when the output is right, else what is wrong.
    ``known_defect`` names the defect an op is known to hit at the seed
    commit; such an op still counts as failed when it fails.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]
    deadline_s: float
    known_defect: str = ""


def read_cfg(path: Path) -> dict[str, float]:
    """Parse a flat key=value config (the repository's configs/ format)."""
    out = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            out[key.strip()] = float(value)
    return out


def cfg_with_k(path: Path, k: float) -> str:
    """The config text at ``path`` with its k line replaced by ``k``."""
    lines = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        if raw.split("#", 1)[0].partition("=")[0].strip() == "k":
            raw = f"k = {k!r}"
        lines.append(raw)
    return "\n".join(lines) + "\n"


def k_value(config: str, j: int) -> float:
    return round(KMAX[config] * (j + 0.5) / K_GRID, 10)


def sweep_hi(config: str) -> float:
    return round(KMAX[config] * SWEEP_HI, 10)


def closed_form_argv(kind: str, config: str, value, cfg_dir: Path, root: Path) -> tuple[str, list[str]]:
    """(op name, cli argv) for one closed-form op.

    ``value`` is the k index j for solve and policy ops, and the step count
    for sweeps, where ``kind`` is ``sweep-<scenario>``.
    """
    if kind.startswith("sweep-"):
        name = f"{kind}:{config}:steps={value}"
        argv = ["sweep", "--config", str(root / "configs" / f"{config}.cfg"),
                "--param", "k", "--lo", "0", "--hi", repr(sweep_hi(config)),
                "--steps", str(value), "--scenario", kind[len("sweep-"):]]
        return name, argv
    k = k_value(config, value)
    name = f"{kind}:{config}:k={k!r}"
    path = str(cfg_dir / f"{config}-j{value}.cfg")
    if kind == "solve":
        return name, ["solve", "--config", path]
    return name, ["policy", kind, "--config", path]


def closed_form_universe() -> list[tuple[str, str, object]]:
    """Every (kind, config, value) a closed-form run can draw from."""
    out = []
    for kind, config in dict.fromkeys((kind, config) for kind, config, _ in CLOSED_FORM_PASS):
        out += [(kind, config, j) for j in range(K_GRID)]
    for scenario in SCENARIOS:
        for config in CONFIGS:
            out += [(f"sweep-{scenario}", config, n) for n in SWEEP_STEPS]
    return out


def closed_form_plan(seed: int, passes: int) -> list[tuple[str, str, object]]:
    """The seeded op list: ``passes`` passes of the same mix, each shuffled."""
    plan = []
    for p in range(passes):
        rng = random.Random(f"closed-form:{seed}:{p}")
        one = [(kind, config, rng.randrange(lo, hi))
               for kind, config, ranges in CLOSED_FORM_PASS for lo, hi in ranges]
        one += [(f"sweep-{scenario}", config, rng.choice(SWEEP_STEPS))
                for scenario in SCENARIOS for config in CONFIGS]
        rng.shuffle(one)
        plan += one
    return plan


def write_cfgs(plan, root: Path, cfg_dir: Path) -> None:
    """Write the per-k config files the solve and policy ops read."""
    cfg_dir.mkdir(parents=True, exist_ok=True)
    for config, j in sorted({(config, value) for kind, config, value in plan
                             if not kind.startswith("sweep-")}):
        text = cfg_with_k(root / "configs" / f"{config}.cfg", k_value(config, j))
        (cfg_dir / f"{config}-j{j}.cfg").write_text(text, encoding="utf-8")


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Run ``fmgame.cli.main`` with its standard streams captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue() or err.getvalue()


# Fixed corners of the admissible region, as (name, params, known defect).
# k is a share of k_max; -1 means k = k_max exactly.
_A = dict(theta=5.0, c=1.0, w_high=2.5, w_low=0.5, eta_cap=1.5, s=0.0)
_B = dict(theta=5.0, c=1.0, w_high=2.5, w_low=0.8, eta_cap=1.5, s=0.5)
_HANG = "ROADMAP item 2: golden_max_scalar never returns on wide brackets"
CORNERS = (
    ("equal-fee-k0", dict(_A, w_low=2.5), 0.0,
     "ROADMAP item 2: closed form and oracle disagree on equal fees at k = 0"),
    ("w_low-zero", dict(_A, w_low=0.0), 0.5, ""),
    ("zero-fees", dict(_A, w_high=0.0, w_low=0.0), 0.0, ""),
    ("w_high-half-theta-s-eq-w_low", dict(_B, s=0.8), 0.5, ""),
    ("set_a-k-max", _A, -1, ""),
    ("set_b-k-max", _B, -1, ""),
    ("theta-1e-3", dict(_A, theta=1e-3, w_high=5e-4, w_low=1e-4), 0.5, ""),
    ("theta-1e3", dict(_A, theta=1e3, w_high=500.0, w_low=100.0), 0.5, ""),
    ("c-1e-3", dict(_A, c=1e-3), 0.5, ""),
    ("c-1e3", dict(_A, c=1e3), 0.5, ""),
    ("eta_cap-1e-3", dict(_A, eta_cap=1e-3), 0.5, ""),
    ("set_a-eta_cap-1e6", dict(_A, eta_cap=1e6), 0.0, _HANG),
    ("set_b-eta_cap-1e6", dict(_B, eta_cap=1e6), 0.0, _HANG),
)


def corner_params(fm) -> list[tuple[str, object, str]]:
    out = []
    for name, values, share, defect in CORNERS:
        probe = fm.ModelParams(k=0.0, **values)
        km = fm.k_max(probe)
        out.append((name, replace(probe, k=km if share < 0 else share * km), defect))
    return out


def random_draw(fm, rng: random.Random, subsidized: bool):
    """One valid parameter set; a subsidy in (0.05, 1] * w_low when asked."""
    theta = rng.uniform(2.0, 10.0)
    c = rng.uniform(0.3, 3.0)
    w_high = rng.uniform(0.15, 0.5) * theta
    w_low = rng.uniform(0.1, 0.95) * w_high
    eta_cap = rng.uniform(0.3, 3.0)
    s = rng.uniform(0.05, 1.0) * w_low if subsidized else 0.0
    probe = fm.ModelParams(theta=theta, c=c, w_high=w_high, w_low=w_low,
                           eta_cap=eta_cap, k=0.0, s=s)
    return replace(probe, k=rng.random() * fm.k_max(probe))


def oracle_corpus_params(fm, seed: int, draws: int) -> list[tuple[str, object, str]]:
    """Corners plus ``draws`` seeded draws (3 in 10 subsidized), shuffled."""
    rng = random.Random(f"oracle-corpus:{seed}")
    items = corner_params(fm)
    items += [(f"draw-{i}", random_draw(fm, rng, i % 10 in (1, 4, 7)), "")
              for i in range(draws)]
    rng.shuffle(items)
    return items


def build(workload: str, seed: int, seconds: float, fm, root: Path, work: Path) -> list[Op]:
    """The run's fixed, seeded op list, sized from ``seconds``."""
    deadline = DEADLINE_S[workload]
    cli = fm.cli
    if workload == "verify":
        ops = []
        for i in range(2 * max(1, round(seconds * VERIFY_CYCLES_PER_S))):
            config = CONFIGS[i % 2]
            argv = ["verify", "--config", str(root / "configs" / f"{config}.cfg")]
            ops.append(Op(f"verify:{config}", lambda a=argv: run_cli(cli, a),
                          check_verify, deadline))
        return ops
    if workload == "oracle-corpus":
        config = fm.OracleConfig()
        draws = max(1, round(seconds * ORACLE_DRAWS_PER_S))
        return [Op(name, lambda p=p: fm.compare_with_oracle(p, config), check_none,
                   deadline, defect)
                for name, p, defect in oracle_corpus_params(fm, seed, draws)]
    if workload == "closed-form":
        digests = load_digests(root)
        plan = closed_form_plan(seed, max(1, round(seconds * CLOSED_FORM_PASSES_PER_S)))
        cfg_dir = work / "cfg"
        write_cfgs(plan, root, cfg_dir)
        ops = []
        for kind, config, value in plan:
            name, argv = closed_form_argv(kind, config, value, cfg_dir, root)
            ops.append(Op(name, lambda a=argv: run_cli(cli, a),
                          digest_check(digests.get(name)), deadline))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(workload: str, fm, root: Path) -> str | None:
    """One untimed op before the loop; returns what is wrong, or None."""
    if workload == "closed-form":
        return check_rc0(run_cli(fm.cli, ["solve", "--config", str(root / "configs" / "set_a.cfg")]))
    params = fm.ModelParams(**read_cfg(root / "configs" / "set_a.cfg"))
    return fm.compare_with_oracle(params, fm.OracleConfig())


def check_none(result) -> str | None:
    return None if result is None else str(result)


def check_rc0(result) -> str | None:
    rc, text = result
    return None if rc == 0 else f"exit code {rc}: {text.strip()[:200]}"


def check_verify(result) -> str | None:
    """Exit code 0, every check line PASS, and the summary counts them all."""
    err = check_rc0(result)
    if err:
        return err
    lines = result[1].splitlines()
    if not lines:
        return "no output"
    checks, summary = lines[:-1], lines[-1]
    bad = [line for line in checks if not line.startswith("PASS ")]
    if bad:
        return "not PASS: " + "; ".join(bad)
    if summary != f"{len(checks)}/{len(checks)} checks passed":
        return f"summary {summary!r} for {len(checks)} PASS lines"
    return None


def digest_check(expected: str | None):
    def check(result) -> str | None:
        err = check_rc0(result)
        if err:
            return err
        if expected is None:
            return "no recorded sha256 for this op"
        got = hashlib.sha256(result[1].encode("utf-8")).hexdigest()
        return None if got == expected else f"sha256 {got} != recorded {expected}"
    return check


def load_digests(root: Path) -> dict[str, str]:
    with open(root / "bench" / "digests.json", encoding="utf-8") as fh:
        return json.load(fh)["sha256"]
