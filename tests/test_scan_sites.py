"""p^k scans stay in the one subspace search that still needs them.

``artheory._scan_space`` budgets a walk over the vectors of a space over
F_p: it counts all p^dim of them, though the routine listed here tries
only one vector per line and none inside the sum it has accepted.  Library
code may use it only inside that routine, which searches subspaces by
design; splitting, isomorphism and radicals are linear algebra on End(x)
and must not enumerate.  The universe generates the least assignment of
each rescaling orbit, so no library code imports ``itertools.product``,
the walk over every p^k digit tuple that once fed a filter.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "dctkit"
SCANNERS = {"_scan_space", "_combination"}
ALLOWED = {"_largest_admissible_submodule"}


def _scanner_uses(tree):
    """(outermost enclosing function or None, line) of each use of a scanner."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if owner is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Name) and child.id in SCANNERS:
                out.append((owner, child.lineno))
            if isinstance(child, ast.Attribute) and child.attr in SCANNERS:
                out.append((owner, child.lineno))
            visit(child, inner)

    visit(tree, None)
    return out


def test_scans_stay_in_the_listed_routines():
    uses = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        uses += [(path.name, owner, line) for owner, line in _scanner_uses(tree)]
    assert uses, "no scanner use found: the check is not looking at the library"
    stray = [f"{name}:{line} in {owner}" for name, owner, line in uses if owner not in ALLOWED]
    assert not stray, "p^k scan outside the listed routines: " + ", ".join(stray)


def _product_uses(tree):
    """Lines that import itertools.product or read it off the itertools module."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            lines += [node.lineno for alias in node.names if alias.name in ("product", "*")]
        if isinstance(node, ast.Attribute) and node.attr == "product":
            if isinstance(node.value, ast.Name) and node.value.id == "itertools":
                lines.append(node.lineno)
    return lines


def test_no_library_code_walks_every_digit_tuple():
    assert _product_uses(ast.parse("from itertools import chain, product")) == [1]
    assert _product_uses(ast.parse("import itertools\nitertools.product(range(2))")) == [2]
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        stray += [f"{path.name}:{line}" for line in _product_uses(tree)]
    assert not stray, "itertools.product in library code: " + ", ".join(stray)
