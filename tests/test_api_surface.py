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

A second, finer check follows calls: every top-level function and class
of ``src/`` must be reached from ``cli.main`` or a name in ``__all__``
through the ``src/`` call graph alone, so what only tests call lives in
``tests/``.
"""

import ast
import importlib
import pathlib

import dctkit

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


# -- reachability -------------------------------------------------------------

# Kept without a caller in src/, each for a use outside today's call graph.
UNREACHED_ALLOWED = {
    ("homological", "ext_space"): "test_ext_home.py pins Ext's Yoneda coordinates in homological",
    ("homological", "ext_map_post"): "knitting reads the socle of Ext^1 as a kernel of these maps",
    ("repcat", "injective_envelope"): "a computed domdim End(M) needs injective coresolutions",
    ("repcat", "cokernel"): "knitting builds the middle term of an almost-split sequence as one",
}


def _scopes(trees):
    """Per layer: plain name -> (layer, name) it denotes, and alias -> layer."""
    names, layers = {}, {}
    for path, tree in trees.items():
        layer = path.stem
        scope, aliases = {}, {}
        for node in tree.body:
            for name in _bound_names(node):
                scope[name] = (layer, name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        aliases[alias.asname or alias.name] = alias.name
                    else:
                        scope[alias.asname or alias.name] = (node.module, alias.name)
        names[layer], layers[layer] = scope, aliases
    return names, layers


def _bound_names(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    return []


def _home(names, key):
    """Follow re-imports to the layer that defines the name."""
    layer, name = key
    while layer in names and names[layer].get(name, (layer, name)) != (layer, name):
        layer, name = names[layer][name]
    return layer, name


def _call_graph(trees, exported):
    """(layer, name) -> the (layer, name) pairs its top-level definition references.

    A plain name resolves within its own layer and that layer's imports;
    `layer.name` within that layer only.  A class references what its
    body does, through every method of an exported class, and otherwise
    through its dunder methods and the methods whose names src/ uses as
    attributes.
    """
    names, layers = _scopes(trees)
    attributes = {
        node.attr for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    graph = {}
    for path, tree in trees.items():
        layer = path.stem
        for node in tree.body:
            parts = [node]
            if isinstance(node, ast.ClassDef) and (layer, node.name) not in exported:
                parts = [
                    item for item in node.body
                    if not isinstance(item, ast.FunctionDef)
                    or item.name.startswith("__") or item.name in attributes
                ] + node.bases + node.decorator_list
            refs = set()
            for sub in (n for part in parts for n in ast.walk(part)):
                if isinstance(sub, ast.Name) and sub.id in names[layer]:
                    refs.add(_home(names, names[layer][sub.id]))
                elif (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id in layers[layer]
                ):
                    refs.add(_home(names, (layers[layer][sub.value.id], sub.attr)))
            for name in _bound_names(node):
                graph[(layer, name)] = refs
    return graph


def test_every_definition_is_reached_from_the_cli_or_the_exports():
    """Each top-level function and class of src/ is reached from `cli.main` or `__all__`.

    Reached means through the src/ call graph, so a routine only tests
    call shows up here: it belongs in tests/, next to its test.
    """
    trees = _parse(p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py")
    exported = {(layer, name) for name, layer in dctkit._HOME.items()}
    graph = _call_graph(trees, exported)
    seen, todo = set(), [("cli", "main"), *exported]
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo.extend(graph.get(key, ()))
    defined = {
        (path.stem, node.name): f"{path.name}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    unreached = [where for key, where in defined.items() if key not in seen | set(UNREACHED_ALLOWED)]
    assert not unreached, "reached by neither cli.main nor __all__: " + ", ".join(unreached)
    stale = [key for key in UNREACHED_ALLOWED if key in seen or key not in defined]
    assert not stale, f"allowed as unreached, but reached or gone: {stale}"
