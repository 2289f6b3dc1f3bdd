"""Every module-level function, class and constant in the package is used.

A function that is neither in ``fmgame.__all__`` nor named anywhere in the
source, tests, demos or bench outside its own ``def`` is dead code, and so
is such a class or module-level constant outside its own definition. So is
a function-local name that is assigned but never read, and a module-level
import that its module never reads.
"""

import ast
import re
import symtable
from pathlib import Path

import fmgame

REPO = Path(__file__).resolve().parents[1]
PACKAGE = Path(fmgame.__file__).resolve().parent


def _texts() -> list[str]:
    return [path.read_text(encoding="utf-8")
            for folder in ("src", "tests", "demos", "bench")
            for path in sorted((REPO / folder).rglob("*.py"))]


def test_no_dead_module_functions():
    texts = _texts()
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


def _module_names(tree) -> list[str]:
    # Classes and the names that module-level assignments bind, once per binding.
    names = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def test_no_dead_module_classes_or_constants():
    # A name counts as used when it appears anywhere beyond its bindings;
    # dunder names such as __all__ are read by Python itself.
    texts = _texts()
    dead = []
    for module in sorted(PACKAGE.glob("*.py")):
        names = _module_names(ast.parse(module.read_text(encoding="utf-8")))
        for name in sorted(set(names)):
            if name in fmgame.__all__ or (name.startswith("__") and name.endswith("__")):
                continue
            found = sum(len(re.findall(rf"\b{re.escape(name)}\b", t)) for t in texts)
            if found <= names.count(name):
                dead.append(f"{module.name}:{name}")
    assert not dead, "unused module-level classes or constants: " + ", ".join(dead)


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


def _unread_imports(tree) -> list[str]:
    # Names that module-level imports bind and no expression of the module
    # reads; "from __future__" imports are directives.
    bound = {(alias.asname or alias.name).split(".")[0]
             for node in tree.body
             if isinstance(node, ast.Import)
             or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
             for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def test_no_unread_module_imports():
    # __init__.py imports to re-export.
    unread = [f"{module.name}:{name}"
              for module in sorted(PACKAGE.glob("*.py")) if module.name != "__init__.py"
              for name in _unread_imports(ast.parse(module.read_text(encoding="utf-8")))]
    assert not unread, "module-level imports never read: " + ", ".join(unread)


def test_every_exported_name_exists():
    # The checks above exempt every name in __all__, so each must be real.
    missing = [name for name in fmgame.__all__ if not hasattr(fmgame, name)]
    assert not missing, "names in fmgame.__all__ that fmgame lacks: " + ", ".join(missing)
    namespace = {}
    exec("from fmgame import *", namespace)
    assert set(fmgame.__all__) <= set(namespace)
