"""One home for J = rad End(x): only ``repcat`` touches the End engine.

Every radical is ``repcat.rad_hom_basis`` and every splitting goes
through ``repcat.nontrivial_idempotent``; no other library module may
reach past them to ``_end_algebra``.  Sorting into isomorphism classes
reads no J: it asks ``repcat.summand_map``, which, of equal dimension
vectors, looks for an invertible map in the basis of Hom(x, y).
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "dctkit"
PRIVATE = {"_end_algebra"}


def _uses(tree, names=PRIVATE):
    """Line of each reference to one of names, by default the private End-engine names."""
    for node in ast.walk(tree):
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        if name in names:
            yield node.lineno, name


def test_the_end_engine_is_used_only_inside_repcat():
    inside = list(_uses(ast.parse((PACKAGE / "repcat.py").read_text(encoding="utf-8"))))
    assert {name for _, name in inside} == PRIVATE, "the check is not looking at the library"
    stray = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "repcat.py"
        for line, name in sorted(_uses(ast.parse(path.read_text(encoding="utf-8"))))
    ]
    assert not stray, "End engine used outside repcat: " + ", ".join(stray)
