"""Every function the bench's traced run wraps still exists under its name.

The traced run looks up each ``<module>.<function>`` of ``TRACED`` in
``bench/tracing.py`` in the ``fmgame`` package; a renamed or removed
function would break every traced run. The bench file is only read here.
"""

import ast
import importlib
import inspect
from pathlib import Path

import fmgame.closed_form
import fmgame.extensions

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced_names() -> tuple[str, ...]:
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TRACED tuple")


def test_every_traced_name_is_a_package_function():
    names = _traced_names()
    assert names
    missing = []
    for name in names:
        module, _, func = name.rpartition(".")
        obj = getattr(importlib.import_module(f"fmgame.{module}"), func, None)
        if not inspect.isfunction(obj):
            missing.append(name)
    assert not missing, "traced names with no function behind them: " + ", ".join(missing)


def test_the_traced_subsidized_solve_is_the_validated_solve():
    # The traced name is a second binding of closed_form.solve, so the
    # tracer's wrapper counts every validated solve, s = 0 included.
    assert fmgame.extensions.solve_subsidized is fmgame.closed_form.solve
