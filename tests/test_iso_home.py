"""One isomorphism test: inside ``repcat`` only ``iso_classes`` compares indecomposables.

``are_isomorphic``, ``decompose``, the pool of an additive category and
the enumeration all sort summands with ``iso_classes``; none of them
builds an explicit isomorphism.  The one that does, ``find_isomorphism``,
is a test oracle in ``scan_oracles``.
"""

import ast

from test_end_home import PACKAGE, _uses


def test_only_iso_classes_reaches_the_pairwise_isomorphism():
    tree = ast.parse((PACKAGE / "repcat.py").read_text(encoding="utf-8"))
    callers = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and any(name == "_iso_between_indecomposables" for _, name in _uses(node))
    }
    assert callers == {"iso_classes"}
