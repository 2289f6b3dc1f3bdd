"""Every module-level function in the package is exported or used somewhere.

A function that is neither in ``fmgame.__all__`` nor named anywhere in the
source, tests, demos or bench outside its own ``def`` is dead code.
"""

import ast
import re
from pathlib import Path

import fmgame

REPO = Path(__file__).resolve().parents[1]
PACKAGE = Path(fmgame.__file__).resolve().parent


def test_no_dead_module_functions():
    texts = [path.read_text(encoding="utf-8")
             for folder in ("src", "tests", "demos", "bench")
             for path in sorted((REPO / folder).rglob("*.py"))]
    dead = []
    for module in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(module.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.FunctionDef) or node.name in fmgame.__all__:
                continue
            name = re.escape(node.name)
            uses = sum(len(re.findall(rf"\b{name}\b", t)) - len(re.findall(rf"\bdef {name}\b", t))
                       for t in texts)
            if uses == 0:
                dead.append(f"{module.name}:{node.name}")
    assert not dead, "unused module-level functions: " + ", ".join(dead)
