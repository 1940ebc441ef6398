"""Every function, class and method defined in the package is used somewhere,
every defaulted parameter is set by some call, and every import is used.

A name counts as used when it appears as a word in ``src/``, ``tests/`` or
``bench/`` more often than the package defines it: each ``def`` or
``class`` statement accounts for one occurrence of its own name.  Dunder names
are called by Python itself and are skipped.  A default that no call
overrides is a constant, not a setting (see ``unset_parameters``).  An
imported name must be used in the file that imports it (see
``unused_imports``).
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


def _package_functions():
    """(qualified name, FunctionDef) for every def of the package; methods
    are qualified by their class, and a class's ``__init__`` also answers
    to calls of the class name."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        item.owner = node.name
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = getattr(node, "owner", None)
                qual = f"{path.stem}.{owner}.{node.name}" if owner else f"{path.stem}.{node.name}"
                out.append((qual, node))
    return out


def _call_name(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def unset_parameters():
    """Defaulted parameters of package functions that no call sets.

    A call to a function or method of the same name (a class name counts
    as its ``__init__``) sets a parameter by passing it by keyword, by
    passing enough positional arguments (``self`` and ``cls`` not counted),
    or by any ``*`` or ``**`` unpacking.
    """
    calls = {}
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    calls.setdefault(_call_name(node), []).append(node)
    unset = []
    for qual, fn in _package_functions():
        positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
        if getattr(fn, "owner", None) and positional[:1] in (["self"], ["cls"]):
            positional = positional[1:]
        defaulted = positional[len(positional) - len(fn.args.defaults):]
        defaulted += [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
        if not defaulted:
            continue
        name = fn.owner if fn.name == "__init__" and getattr(fn, "owner", None) else fn.name
        set_here = set()
        for call in calls.get(name, []):
            if any(isinstance(a, ast.Starred) for a in call.args) or \
                    any(k.arg is None for k in call.keywords):
                set_here.update(defaulted)
                break
            set_here.update(positional[:len(call.args)])
            set_here.update(k.arg for k in call.keywords)
        unset += [f"{qual}({p})" for p in defaulted if p not in set_here]
    return sorted(unset)


def test_no_unset_parameters():
    assert unset_parameters() == []


def _string_annotation_names(annotation):
    """Names inside the string parts of an annotation, such as
    ``"FourierPerturbation"``; ``ast.walk`` already sees the others."""
    return {name.id
            for sub in ast.walk(annotation)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            for name in ast.walk(ast.parse(sub.value, mode="eval"))
            if isinstance(name, ast.Name)}


def unused_imports():
    """``path: name`` for every name an import in ``src/`` or ``tests/``
    binds and its own file never reads (``from __future__`` skipped)."""
    unused = []
    for top in ("src", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            bound, used = [], set()
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    bound += [a.asname or a.name.split(".")[0] for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    bound += [a.asname or a.name for a in node.names]
                elif isinstance(node, ast.Name):
                    used.add(node.id)
                # arguments and annotated assignments carry ``annotation``,
                # functions ``returns``
                for attr in ("annotation", "returns"):
                    if getattr(node, attr, None) is not None:
                        used |= _string_annotation_names(getattr(node, attr))
            rel = path.relative_to(ROOT).as_posix()
            unused += [f"{rel}: {name}" for name in bound if name not in used]
    return sorted(unused)


def test_no_unused_imports():
    assert unused_imports() == []
