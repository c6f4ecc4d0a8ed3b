"""Workspace files: one JSON document describing a whole computation setup.

A workspace holds a presentation of the algebra (field, quiver,
relations, nilpotency bound), named modules, named morphisms, named
additive subcategories, and the global size parameter d.  Parsing
validates everything eagerly and resolves names to live objects; the
canonical document (`serialize`, built when `Workspace.doc` is first read)
round-trips through parse bit-for-bit once canonicalized.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Dict, List, Optional

from .algebra import BoundQuiverAlgebra, Quiver, build_algebra
from .approx import AddCategory
from .errors import NotAdmissible, WorkspaceError
from .exactlin import Matrix, PrimeField
from .repcat import Module, Morphism


class Workspace:
    """Parsed workspace: live objects plus the canonical source document."""

    def __init__(self, algebra: BoundQuiverAlgebra, d: int, modules: Dict[str, Module],
                 categories: Dict[str, AddCategory], morphisms: Dict[str, Morphism], relations):
        self.algebra = algebra
        self.d = d
        self.modules = modules
        self.categories = categories
        self.morphisms = morphisms
        self._relations = relations

    # the canonical document (`serialize`), built the first time it is read
    doc = cached_property(lambda self: serialize(self, self._relations))

    def module(self, name: str) -> Module:
        try:
            return self.modules[name]
        except KeyError:
            raise WorkspaceError(f"unknown module {name!r}") from None

    def category(self, name: str) -> AddCategory:
        try:
            return self.categories[name]
        except KeyError:
            raise WorkspaceError(f"unknown category {name!r}") from None

    def morphism(self, name: str) -> Morphism:
        try:
            return self.morphisms[name]
        except KeyError:
            raise WorkspaceError(f"unknown morphism {name!r}") from None


def _require(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise WorkspaceError(f"{where}: missing required key {key!r}")
    value = doc[key]
    if kind is int and isinstance(value, bool):
        raise WorkspaceError(f"{where}: key {key!r} must be an integer")
    if not isinstance(value, kind):
        raise WorkspaceError(f"{where}: key {key!r} has the wrong type")
    return value


def _parse_matrix(field: PrimeField, data, rows: int, cols: int, where: str) -> Matrix:
    if not isinstance(data, list):
        raise WorkspaceError(f"{where}: matrix must be a list of rows")
    if len(data) != rows:
        raise WorkspaceError(f"{where}: expected {rows} rows, got {len(data)}")
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise WorkspaceError(f"{where}: row {i} must be a list of {cols} integers")
        for j, entry in enumerate(row):
            if isinstance(entry, bool) or not isinstance(entry, int):
                raise WorkspaceError(f"{where}: entry ({i},{j}) is not an integer")
    return Matrix(field, data, cols)


def _parse_blocks(field: PrimeField, doc: dict, key: str, labels, shapes, where: str,
                  kind: str) -> List[Matrix]:
    """The matrices doc[key] names by label, one per label with its (rows, cols); zero if absent."""
    blocks = doc.get(key, {})
    if not isinstance(blocks, dict):
        raise WorkspaceError(f"{where}: {key!r} must be an object")
    for label in blocks:
        if label not in labels:
            raise WorkspaceError(f"{where}: unknown {kind} {label!r} in {key}")
    return [
        _parse_matrix(field, blocks[label], r, c, f"{where}, {kind} {label!r}")
        if label in blocks else Matrix.zeros(field, r, c)
        for label, (r, c) in zip(labels, shapes)
    ]


def _blocks_doc(labels, mats) -> Dict[str, List[List[int]]]:
    """The nonempty matrices by label, each a list of rows."""
    return {
        label: [list(row) for row in m.entries]
        for label, m in zip(labels, mats) if m.rows * m.cols > 0
    }


def parse(doc: dict, field_override: Optional[int] = None,
          d_override: Optional[int] = None) -> Workspace:
    """Validate a workspace document and build all named objects."""
    if not isinstance(doc, dict):
        raise WorkspaceError("workspace document must be a JSON object")
    p = field_override if field_override is not None else _require(doc, "field", int, "workspace")
    bound = _require(doc, "bound", int, "workspace")
    d = d_override if d_override is not None else _require(doc, "d", int, "workspace")
    if d < 1:
        raise WorkspaceError("the size parameter d must be at least 1")
    try:
        field = PrimeField(p)
    except ValueError as e:
        raise WorkspaceError(str(e)) from None

    qdoc = _require(doc, "quiver", dict, "workspace")
    vertices = _require(qdoc, "vertices", list, "quiver")
    arrows_doc = qdoc.get("arrows", [])
    if not isinstance(arrows_doc, list):
        raise WorkspaceError("quiver: 'arrows' must be a list")
    arrows = []
    for i, arr in enumerate(arrows_doc):
        if not isinstance(arr, dict):
            raise WorkspaceError(f"quiver: arrow {i} must be an object")
        arrows.append(
            (
                _require(arr, "name", str, f"arrow {i}"),
                _require(arr, "source", str, f"arrow {i}"),
                _require(arr, "target", str, f"arrow {i}"),
            )
        )
    try:
        quiver = Quiver([str(v) for v in vertices], arrows)
    except ValueError as e:
        raise WorkspaceError(f"quiver: {e}") from None

    relations_doc = doc.get("relations", [])
    if not isinstance(relations_doc, list):
        raise WorkspaceError("'relations' must be a list")
    relations = []
    for ri, rel in enumerate(relations_doc):
        if not isinstance(rel, list) or not rel:
            raise WorkspaceError(f"relation {ri} must be a nonempty list of terms")
        terms = []
        for ti, term in enumerate(rel):
            if (
                not isinstance(term, list)
                or len(term) != 2
                or isinstance(term[0], bool)
                or not isinstance(term[0], int)
                or not isinstance(term[1], list)
            ):
                raise WorkspaceError(
                    f"relation {ri} term {ti} must be [coefficient, [arrow names]]"
                )
            terms.append((term[0] % p, [str(w) for w in term[1]]))
        relations.append(terms)

    try:
        algebra = build_algebra(quiver, relations, bound, field)
    except NotAdmissible:
        raise
    except ValueError as e:
        raise WorkspaceError(f"algebra presentation: {e}") from None

    modules_doc = doc.get("modules", {})
    if not isinstance(modules_doc, dict):
        raise WorkspaceError("'modules' must be an object")
    modules: Dict[str, Module] = {}
    arrow_names = [a.name for a in quiver.arrows]
    for name in modules_doc:
        mdoc = modules_doc[name]
        where = f"module {name!r}"
        if not isinstance(mdoc, dict):
            raise WorkspaceError(f"{where} must be an object")
        dims_doc = _require(mdoc, "dims", dict, where)
        dims = []
        for label in quiver.vertices:
            value = dims_doc.get(label, 0)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise WorkspaceError(f"{where}: dimension at vertex {label!r} invalid")
            dims.append(value)
        for label in dims_doc:
            if label not in quiver.vertices:
                raise WorkspaceError(f"{where}: unknown vertex {label!r} in dims")
        shapes = [(dims[a.target], dims[a.source]) for a in quiver.arrows]
        maps = _parse_blocks(field, mdoc, "maps", arrow_names, shapes, where, "arrow")
        modules[name] = Module(algebra, dims, maps)

    morphisms_doc = doc.get("morphisms", {})
    if not isinstance(morphisms_doc, dict):
        raise WorkspaceError("'morphisms' must be an object")
    morphisms: Dict[str, Morphism] = {}
    for name in morphisms_doc:
        fdoc = morphisms_doc[name]
        where = f"morphism {name!r}"
        if not isinstance(fdoc, dict):
            raise WorkspaceError(f"{where} must be an object")
        src = _require(fdoc, "from", str, where)
        dst = _require(fdoc, "to", str, where)
        if src not in modules or dst not in modules:
            raise WorkspaceError(f"{where}: unresolvable endpoint name")
        dom, cod = modules[src], modules[dst]
        shapes = list(zip(cod.dims, dom.dims))
        comps = _parse_blocks(field, fdoc, "comps", quiver.vertices, shapes, where, "vertex")
        morphisms[name] = Morphism(dom, cod, comps)

    categories_doc = doc.get("categories", {})
    if not isinstance(categories_doc, dict):
        raise WorkspaceError("'categories' must be an object")
    categories: Dict[str, AddCategory] = {}
    for name in categories_doc:
        cdoc = categories_doc[name]
        where = f"category {name!r}"
        if not isinstance(cdoc, dict):
            raise WorkspaceError(f"{where} must be an object")
        gens = []
        for gname in _require(cdoc, "generators", list, where):
            if gname not in modules:
                raise WorkspaceError(f"{where}: unknown module {gname!r}")
            gens.append(modules[gname])
        if all(g.is_zero() for g in gens):
            raise WorkspaceError(f"{where}: needs at least one nonzero generator")
        categories[name] = AddCategory(gens, d)

    return Workspace(
        algebra=algebra,
        d=d,
        modules=modules,
        categories=categories,
        morphisms=morphisms,
        relations=relations,
    )


def serialize(ws: Workspace, relations) -> dict:
    """Canonical document for a workspace (all sizes explicit, sorted names)."""
    quiver = ws.algebra.quiver
    rel_doc = [[[coeff, list(word)] for coeff, word in rel] for rel in relations]
    doc = {
        "field": ws.algebra.field.p,
        "bound": ws.algebra.bound,
        "d": ws.d,
        "quiver": {
            "vertices": list(quiver.vertices),
            "arrows": [
                {
                    "name": a.name,
                    "source": quiver.vertices[a.source],
                    "target": quiver.vertices[a.target],
                }
                for a in quiver.arrows
            ],
        },
        "relations": rel_doc,
        "modules": {},
        "morphisms": {},
        "categories": {},
    }
    for name in sorted(ws.modules):
        m = ws.modules[name]
        doc["modules"][name] = {
            "dims": {quiver.vertices[v]: int(m.dims[v]) for v in range(quiver.n_vertices)},
            "maps": _blocks_doc([a.name for a in quiver.arrows], m.maps),
        }
    module_names = {id(m): n for n, m in ws.modules.items()}
    for name in sorted(ws.morphisms):
        f = ws.morphisms[name]
        doc["morphisms"][name] = {
            "from": module_names[id(f.domain)],
            "to": module_names[id(f.codomain)],
            "comps": _blocks_doc(quiver.vertices, f.comps),
        }
    for name in sorted(ws.categories):
        cat = ws.categories[name]
        doc["categories"][name] = {
            "generators": [module_names[id(g)] for g in cat.generators]
        }
    return doc


def load(path: str, field_override: Optional[int] = None,
         d_override: Optional[int] = None) -> Workspace:
    """Read and parse a workspace file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise WorkspaceError(f"cannot read workspace: {e}") from None
    except json.JSONDecodeError as e:
        raise WorkspaceError(f"workspace is not valid JSON: {e}") from None
    return parse(doc, field_override, d_override)


def dumps(doc: dict) -> str:
    """The one canonical JSON rendering used everywhere."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
