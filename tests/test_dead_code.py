"""Dead code: every top-level name of the package has a reference.

The names are the top-level functions, classes and assigned names of each
module m of `src/moebius`.  A reference to the name n of m, in `src/` or
`perfbench/`, is one of:

- an import `from .m import n` (or `from moebius.m import n`);
- an attribute `m.n` (as in `linalg.rank` or `moebius.quotient.kernel`);
- a load of n inside m, outside n's own definition.

`moebius.__all__` exports count as references, and the interpreter reads
the dunder names of a module (`__getattr__`, `__all__`).  A word that only
looks like n (a local variable, a string) is no reference, and tests do not
count: a function only a test calls is dead.

The methods and properties of a top-level class are held to the same rule:
one is referenced when some attribute load `.name` exists in `src/` or
`perfbench/` outside its own definition.  The load may be on any object,
so a method shares its references with every attribute of its name: a
`speed.scale()` in `perfbench` would keep a `scale` method of the package
alive.  Dunders are exempt, and so is a method that overrides an inherited
one, whose callers are in the base class (`argparse.ArgumentParser.error`).

Every name a module of `src/moebius` imports is loaded in that module: an
import kept only to name a bound in a comment says it in the docstring
instead.
"""

import ast
import importlib
from pathlib import Path

import moebius

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "moebius").glob("*.py"))
READERS = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))


def _definitions(tree):
    """(name, node) for each top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _outside_references(tree):
    """(module, name) for each import of a package name and each attribute
    `module.name` in one file."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module if node.level else node.module.removeprefix("moebius.")
            yield from ((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            value = node.value
            if isinstance(value, ast.Name):
                yield (value.id, node.attr)
            elif isinstance(value, ast.Attribute):
                yield (value.attr, node.attr)


def unreferenced_names() -> list[str]:
    referenced = {ref for path in READERS for ref in _outside_references(ast.parse(path.read_text()))}
    unused = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text())
        loads = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]
        for name, node in _definitions(tree):
            if (name in moebius.__all__ or name.startswith("__")
                    or (path.stem, name) in referenced):
                continue
            if not any(n.id == name and not node.lineno <= n.lineno <= node.end_lineno for n in loads):
                unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def unreferenced_methods() -> list[str]:
    loads = [(path, node.lineno, node.attr) for path in READERS
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    unused = []
    for path in PACKAGE:
        module = importlib.import_module(f"moebius.{path.stem}")
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            bases = getattr(module, cls.name).__mro__[1:]
            for node in cls.body:
                if (not isinstance(node, ast.FunctionDef) or node.name.startswith("__")
                        or any(hasattr(base, node.name) for base in bases)):
                    continue
                if not any(attr == node.name and not (where == path and node.lineno <= line <= node.end_lineno)
                           for where, line, attr in loads):
                    unused.append(f"{path.name}:{node.lineno} {cls.name}.{node.name}")
    return unused


def test_every_top_level_definition_has_a_user():
    assert unreferenced_names() == []
    assert unreferenced_methods() == []


def unread_imports() -> list[str]:
    """`module:line name` for each name that a module of `src/moebius`
    imports and never loads; `from __future__` imports are compiler flags."""
    unread = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text())
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                 and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in loaded:
                        unread.append(f"{path.name}:{node.lineno} {name}")
    return unread


def test_every_import_is_read():
    assert unread_imports() == []


def words_built_past_new() -> list[str]:
    """`module:line` for each call in `src/moebius` that builds a `StringWord`
    without its `__new__`: `tuple.__new__(StringWord, ...)` or
    `StringWord._make(...)`.  A word is built by `StringWord(...)` or
    `strings.word`, so that its one constructor canonicalizes it; inside
    `StringWord.__new__` the tuple is built from `cls`."""
    found = []
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name):
                call, args = (node.func.value.id, node.func.attr), node.args
                if (call == ("tuple", "__new__") and args and isinstance(args[0], ast.Name)
                        and args[0].id == "StringWord") or call == ("StringWord", "_make"):
                    found.append(f"{path.name}:{node.lineno}")
    return found


def test_every_word_is_built_by_its_constructor():
    assert words_built_past_new() == []
