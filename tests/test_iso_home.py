"""One isomorphism test: inside ``repcat`` only ``iso_classes`` compares indecomposables.

``are_isomorphic``, ``decompose``, the pool of an additive category and
the tau_d report all sort modules with ``iso_classes``, which asks
``summand_map`` for an invertible map in the basis of Hom(x, y) between
equal dimension vectors; none of them builds an explicit isomorphism.  The one that does,
``find_isomorphism``, is a test oracle in ``scan_oracles``.  In ``repcat``
only ``iso_classes`` calls ``summand_map``, and ``_end_algebra`` is read
only by the radical and the splitting.
"""

import ast

from test_end_home import PACKAGE, _uses


def _callers(name):
    tree = ast.parse((PACKAGE / "repcat.py").read_text(encoding="utf-8"))
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and any(_uses(node, {name}))
    }


def test_only_iso_classes_reaches_the_pairwise_isomorphism():
    assert _callers("summand_map") == {"iso_classes"}


def test_only_the_radical_and_the_splitting_read_the_end_algebra():
    assert _callers("_end_algebra") == {"rad_hom_basis", "nontrivial_idempotent"}
