"""Dead code: every top-level function and class of the package has a user.

A definition is used when its name appears as a word anywhere in `src/` or
`perfbench/` outside the definition itself, or when `moebius.__all__`
exports it; the interpreter calls the dunder hooks of a module (`__getattr__`,
`__dir__`).  Tests do not count: a function only a test calls is dead.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import moebius

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "moebius").glob("*.py"))
READERS = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
WORD = re.compile(r"\w+")


def unused_definitions() -> list[str]:
    words = Counter(w for path in READERS for w in WORD.findall(path.read_text()))
    unused = []
    for path in PACKAGE:
        lines = path.read_text().splitlines()
        for node in ast.parse("\n".join(lines)).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in moebius.__all__
                    or node.name.startswith("__")):
                continue
            own = WORD.findall("\n".join(lines[node.lineno - 1:node.end_lineno]))
            if words[node.name] == own.count(node.name):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    return unused


def test_every_top_level_definition_has_a_user():
    assert unused_definitions() == []
