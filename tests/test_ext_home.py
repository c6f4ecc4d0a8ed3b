"""Ext stays in Yoneda coordinates: Hom(P_v, y) is read as y e_v.

``ext_dim``, ``ext_space`` and ``ext_map_post``, and every function of
``homological`` they reach, may not fall back to the flat hom-space route,
which solves a hom basis out of each projective of the resolution.  The
transpose ``tr_d`` reads the same matrix, and may not glue maps between
opposite projectives (``proj_hom``) instead.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "dctkit"
EXT = {"ext_dim", "ext_space", "ext_map_post"}
FLAT = {"hom_space_matrix", "hom_composites", "hom_coimage", "morphism_from_vec", "hom_vec"}


def _names(node):
    """Line and name of each plain name or attribute under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.lineno, sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.lineno, sub.attr


def _definitions():
    tree = ast.parse((PACKAGE / "homological.py").read_text(encoding="utf-8"))
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def test_ext_stays_in_yoneda_coordinates():
    defs = _definitions()
    assert EXT <= set(defs), "the check is not looking at the library"
    reached, todo = set(), sorted(EXT)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo.extend(n for _, n in _names(defs[name]) if n in defs and n not in reached)
    stray = sorted(
        f"{name}:{line} {ref}"
        for name in reached
        for line, ref in _names(defs[name])
        if ref in FLAT
    )
    assert not stray, "Ext falls back to flat hom coordinates: " + ", ".join(stray)


def test_transpose_reads_the_yoneda_matrix():
    names = {name for _, name in _names(_definitions()["tr_d"])}
    assert "_hom_out" in names, "the check is not looking at the transpose"
    assert "proj_hom" not in names, "the transpose glues maps between projectives"
