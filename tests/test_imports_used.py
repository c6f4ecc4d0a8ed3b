"""Every name a library module imports is used in that module.

An import binds a name (``import json`` binds ``json``, ``from .x import
y as z`` binds ``z``).  The check passes when that name occurs in the
same module as a plain name, which covers attribute chains such as
``json.dumps`` through their root.  ``__init__.py`` is exempt: its imports
are the package's re-exports.  ``from __future__`` imports bind nothing.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "dctkit"


def _unused_imports(tree):
    """(name, line) of each imported name that the module never uses."""
    bound = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [(name, line) for name, line in bound if name not in used]


def test_every_import_is_used():
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    assert paths, "no library module found: the check is not looking at the library"
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        unused += [f"{path.name}:{line} {name}" for name, line in _unused_imports(tree)]
    assert not unused, "imported but never used: " + ", ".join(unused)
