"""Every module-level function in the package is exported or used somewhere.

A function that is neither in ``fmgame.__all__`` nor named anywhere in the
source, tests, demos or bench outside its own ``def`` is dead code. So is a
function-local name that is assigned but never read.
"""

import ast
import re
import symtable
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


def _read_in_nested_scopes(table) -> set[str]:
    names = set()
    for child in table.get_children():
        names |= {sym.get_name() for sym in child.get_symbols()
                  if sym.is_free() and sym.is_referenced()}
        names |= _read_in_nested_scopes(child)
    return names


def _unread_locals(table) -> list[str]:
    out = []
    if table.get_type() == "function":
        read_nested = _read_in_nested_scopes(table)
        out += [f"{table.get_name()}: {sym.get_name()}" for sym in table.get_symbols()
                if sym.is_local() and sym.is_assigned() and not sym.is_referenced()
                and not sym.get_name().startswith("_")
                and sym.get_name() not in read_nested]
    for child in table.get_children():
        out += _unread_locals(child)
    return out


def test_no_unread_local_names():
    # A name read only by a nested function counts as read; "_"-prefixed
    # names are deliberate throwaways.
    unread = [f"{module.name}:{entry}"
              for module in sorted(PACKAGE.glob("*.py"))
              for entry in _unread_locals(symtable.symtable(
                  module.read_text(encoding="utf-8"), str(module), "exec"))]
    assert not unread, "local names assigned and never read: " + ", ".join(unread)
