"""One home for kept facts: every memo of the library goes through ``repcat._kept``.

A fact kept on a module, a category or an algebra lives in the owner's
``_cache``.  Only ``_kept`` reads and writes it; the constructors
create it, and ``duality`` and ``AddCategory.dual`` write the reverse entry
on their twin.  A key holds the objects it is about, which hash by identity,
so the layers that keep facts never key anything by ``id``.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "dctkit"
CONSTRUCTORS = {
    "algebra.BoundQuiverAlgebra.__init__",
    "repcat.Module.__new__",
    "approx.AddCategory.__init__",
}
HOMES = CONSTRUCTORS | {"repcat._kept", "repcat.duality", "approx.AddCategory.dual"}
LAYERS = ("repcat", "homological", "approx", "artheory")


def _outermost(tree, prefix):
    """(qualified name of the outermost function or method around it, node) for every node."""

    def walk(node, owner, home):
        for child in ast.iter_child_nodes(node):
            if home is None and isinstance(child, ast.ClassDef):
                yield from walk(child, f"{owner}.{child.name}", None)
            elif home is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, owner, f"{owner}.{child.name}")
            else:
                yield home, child
                yield from walk(child, owner, home)

    return walk(tree, prefix, None)


def _cache_uses():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for home, node in _outermost(tree, path.stem):
            if isinstance(node, ast.Attribute) and node.attr == "_cache":
                yield home, node


def test_owner_caches_are_touched_only_by_the_memo_constructors_and_twins():
    uses = list(_cache_uses())
    assert {home for home, _ in uses} == HOMES, "the check is not looking at the library"
    for home, node in uses:
        if home in CONSTRUCTORS:
            assert isinstance(node.ctx, ast.Store), f"{home} reads _cache at line {node.lineno}"


def test_no_key_is_built_from_an_object_id():
    stray = [
        f"{layer}.py:{node.lineno}"
        for layer in LAYERS
        for node in ast.walk(ast.parse((PACKAGE / f"{layer}.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id"
    ]
    assert not stray, "id() in a layer that keeps facts: " + ", ".join(stray)
