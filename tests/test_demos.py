"""Each demo script runs to completion and prints the same bytes as before.

The demos run closed forms only, no oracle search, so their stdout is pinned
by sha256 like the golden CLI outputs. The README's library quick start runs
too, and prints what its comments say.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))

#: sha256 of each demo's stdout.
STDOUT_SHA256 = {
    "01_strategic_regimes": "4ab897dfbd6f944c8ada7468aaafd340762e4acd8603fcf86db56d9244bc6fb9",
    "02_openness_mandate": "590514aa735c7ffe97a60ac7d3a0c20b35c06f7e6da58b90df930da81f3a69fa",
    "03_vertical_integration": "02fa8f88fffa538af8d536efb5e43029a110abf90951d71adeaeaf652370cdb7",
    "04_adoption_subsidy": "7540b88a3ea23b895b9317f9099be6eab0a75f74170d9e6288cdd49fe3754c0c",
}


def test_all_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=REPO, capture_output=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.strip()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.stem]


def test_readme_quick_start_prints_what_its_comments_state():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    lines = out.getvalue().splitlines()
    regime, eta1, profit = lines[0].split()
    assert regime == "defend"
    assert eta1.startswith("0.3333")
    assert profit.startswith("7.9166")
    assert lines[-1] == "dominate"
