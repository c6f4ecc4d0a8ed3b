"""Every function, class and public method of the library has a user.

A definition counts as used when its name occurs somewhere in ``src/`` or
``tests/`` outside its own body: as a plain name or an attribute.  An
imported name counts in ``src/`` (``from .repcat import Module``, say)
but not in ``tests/``: a test that only imports a function does not use
it.  Matching is
by bare name, so the check is coarse, but it is enough to stop dead API
from piling up again.  A method that overrides one of a base class outside
the package (``argparse.ArgumentParser.error``, say) is used by that base,
and the PEP 562 hooks ``__getattr__`` and ``__dir__`` of ``__init__.py`` are
used by Python itself: attribute access and ``dir()`` on the package.
"""

import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dctkit"
MODULE_HOOKS = {"__getattr__", "__dir__"}


def _parse(paths):
    return {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths}


def _module_hook(path, name):
    return path.name == "__init__.py" and name in MODULE_HOOKS


def _overrides(path, cls_name, name):
    cls = getattr(importlib.import_module(f"dctkit.{path.stem}"), cls_name)
    return any(hasattr(base, name) for base in cls.__mro__[1:])


def _definitions(trees):
    """(name, file, first line, last line) of each checked definition."""
    out = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _module_hook(
                path, node.name
            ):
                out.append((node.name, path, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (
                        isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")
                        and not _overrides(path, node.name, item.name)
                    ):
                        out.append((item.name, path, item.lineno, item.end_lineno))
    return out


def _references(trees):
    """name -> list of (file, line) where the name is used."""
    refs = {}
    for path, tree in trees.items():
        in_package = path.parent == PACKAGE
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias) and in_package:
                names = [node.name.split(".")[-1], node.asname]
            for name in names:
                if name:
                    refs.setdefault(name, []).append((path, node.lineno))
    return refs


def test_every_definition_is_referenced():
    sources = sorted(PACKAGE.glob("*.py"))
    tests = sorted((ROOT / "tests").glob("*.py"))
    trees = _parse(sources + tests)
    refs = _references(trees)
    unused = []
    for name, path, first, last in _definitions({p: trees[p] for p in sources}):
        outside = [
            (where, line)
            for where, line in refs.get(name, [])
            if not (where == path and first <= line <= last)
        ]
        if not outside:
            unused.append(f"{path.name}:{first} {name}")
    assert not unused, "defined but never used: " + ", ".join(unused)
