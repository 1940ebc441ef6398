"""Every function, class and method defined in the package is used somewhere.

A name counts as used when it appears as a word in ``src/``, ``tests/`` or
``bench/`` more often than the package defines it: each ``def`` or
``class`` statement accounts for one occurrence of its own name.  Dunder names
are called by Python itself and are skipped.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "anosov_lab"
SEARCHED = ("src", "tests", "bench")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _definitions():
    """The name of every def and class statement in the package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    out.append(node.name)
    return out


def unused_names():
    words = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            words.update(WORD.findall(path.read_text(encoding="utf-8")))
    defined = Counter(_definitions())
    return sorted(name for name, count in defined.items() if words[name] <= count)


def test_no_unused_definitions():
    assert unused_names() == []
