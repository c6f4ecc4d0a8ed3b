"""Workspace files: one JSON document describing a whole computation setup.

A workspace holds a presentation of the algebra (field, quiver,
relations, nilpotency bound), named modules, named morphisms, named
additive subcategories, and the global size parameter d.  Its format is
stated once, in `workspace_schema.json`.  Parsing enforces that schema first,
through closures compiled from it on the first parse, naming the JSON path of
a violation, then checks what a schema cannot say
(the prime field, names, matrix shapes, relations, morphisms, nonzero
generators) and resolves names to live objects; the canonical document
(`serialize`, built when `Workspace.doc` is first read) round-trips through
parse bit-for-bit once canonicalized.
"""

from __future__ import annotations

import json
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional

from .algebra import BoundQuiverAlgebra, Quiver, build_algebra
from .approx import AddCategory
from .errors import NotAdmissible, WorkspaceError
from .exactlin import Matrix, PrimeField
from .repcat import Module, Morphism

# The one statement of the workspace format, enforced by `_check` before parsing.
_SCHEMA = json.loads((Path(__file__).parent / "workspace_schema.json").read_text(encoding="utf-8"))
_TYPES = {"object": dict, "array": list, "string": str, "integer": int}
_CHECKERS: Dict[int, tuple] = {}  # id(schema) -> (schema, its compiled check)


class Workspace:
    """Parsed workspace: live objects plus the canonical source document."""

    def __init__(self, algebra: BoundQuiverAlgebra, d: int, modules: Dict[str, Module],
                 categories: Dict[str, AddCategory], morphisms: Dict[str, Morphism], relations,
                 names):
        self.algebra = algebra
        self.d = d
        self.modules = modules
        self.categories = categories
        self.morphisms = morphisms
        self._relations = relations
        self._names = names  # the document's endpoint and generator names; two may name one module

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


def _check(value, schema: dict, where: str) -> None:
    """Raise WorkspaceError, naming the JSON path, where value breaks schema.

    Enforces the draft-07 keywords the workspace schema uses; a bool is
    neither an integer nor any other type.  Each schema is compiled once,
    and a path is formatted only for a violation.
    """
    _compile(schema)(value, (where,))


def _violation(path: tuple, message: str) -> WorkspaceError:
    return WorkspaceError("/".join(map(str, path)) + f": {message}")


def _compile(schema):
    """The closure checking a value at a JSON path against a typed schema; built once, kept."""
    if isinstance(schema, bool):
        return schema
    if _CHECKERS.get(id(schema), (None,))[0] is schema:
        return _CHECKERS[id(schema)][1]
    kind, low, high = schema["type"], schema.get("minimum"), schema.get("maximum")
    cls, required = _TYPES[kind], schema.get("required", ())
    props = {key: _compile(sub) for key, sub in schema.get("properties", {}).items()}
    extra = _compile(schema.get("additionalProperties", True))
    least, most, items = schema.get("minItems", 0), schema.get("maxItems"), schema.get("items", True)
    # items of one bare type are checked in one loop; a miss rechecks them one by one
    plain = isinstance(items, dict) and {"type"} == items.keys() and _TYPES[items["type"]]
    items = [_compile(sub) for sub in items] if isinstance(items, list) else _compile(items)

    def check(value, path) -> None:
        if value is True or value is False or not isinstance(value, cls):
            raise _violation(path, f"expected {kind}")
        if low is not None and value < low:
            raise _violation(path, f"must be at least {low}")
        if high is not None and value > high:
            raise _violation(path, f"must be at most {high}")
        if kind == "object":
            for key in required:
                if key not in value:
                    raise _violation(path, f"missing required key {key!r}")
            for key, item in value.items():
                sub = props.get(key, extra)
                if sub is False:
                    raise _violation(path, f"unknown key {key!r}")
                if sub is not True:
                    sub(item, path + (key,))
        elif kind == "array":
            if len(value) < least:
                raise _violation(path, f"needs at least {least} items")
            if most is not None and len(value) > most:
                raise _violation(path, f"allows at most {most} items")
            if plain and all([type(item) is plain for item in value]):
                return
            for i, item in enumerate(value):
                sub = (items[i] if i < len(items) else True) if isinstance(items, list) else items
                if sub is not True:
                    sub(item, path + (i,))

    _CHECKERS[id(schema)] = (schema, check)
    return check


def _parse_matrix(field: PrimeField, data: list, rows: int, cols: int, where: str) -> Matrix:
    if len(data) != rows:
        raise WorkspaceError(f"{where}: expected {rows} rows, got {len(data)}")
    for i, row in enumerate(data):
        if len(row) != cols:
            raise WorkspaceError(f"{where}: row {i} must be a list of {cols} integers")
    return Matrix(field, data, cols)


def _parse_blocks(field: PrimeField, doc: dict, key: str, labels, shapes, where: str,
                  kind: str) -> List[Matrix]:
    """The matrices doc[key] names by label, one per label with its (rows, cols); zero if absent."""
    blocks = doc.get(key, {})
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


def parse(doc, field_override: Optional[int] = None,
          d_override: Optional[int] = None) -> Workspace:
    """Check a workspace document against the schema, then build all named objects."""
    _check(doc, _SCHEMA, "workspace")
    p = doc["field"] if field_override is None else field_override
    d = doc["d"] if d_override is None else d_override
    if d < 1:
        raise WorkspaceError("the size parameter d must be at least 1")
    try:
        field = PrimeField(p)
    except ValueError as e:
        raise WorkspaceError(str(e)) from None

    qdoc = doc["quiver"]
    arrows = [(a["name"], a["source"], a["target"]) for a in qdoc.get("arrows", [])]
    try:
        quiver = Quiver(qdoc["vertices"], arrows)
    except ValueError as e:
        raise WorkspaceError(f"quiver: {e}") from None

    relations = [[(coeff % p, list(word)) for coeff, word in rel]
                 for rel in doc.get("relations", [])]
    try:
        algebra = build_algebra(quiver, relations, doc["bound"], field)
    except NotAdmissible:
        raise
    except ValueError as e:
        raise WorkspaceError(f"algebra presentation: {e}") from None

    modules: Dict[str, Module] = {}
    arrow_names = [a.name for a in quiver.arrows]
    for name, mdoc in doc.get("modules", {}).items():
        where = f"module {name!r}"
        for label in mdoc["dims"]:
            if label not in quiver.vertices:
                raise WorkspaceError(f"{where}: unknown vertex {label!r} in dims")
        dims = [mdoc["dims"].get(label, 0) for label in quiver.vertices]
        shapes = [(dims[a.target], dims[a.source]) for a in quiver.arrows]
        maps = _parse_blocks(field, mdoc, "maps", arrow_names, shapes, where, "arrow")
        modules[name] = Module(algebra, dims, maps)

    morphisms: Dict[str, Morphism] = {}
    names = {"morphisms": {}, "categories": {}}
    for name, fdoc in doc.get("morphisms", {}).items():
        where = f"morphism {name!r}"
        if fdoc["from"] not in modules or fdoc["to"] not in modules:
            raise WorkspaceError(f"{where}: unresolvable endpoint name")
        dom, cod = modules[fdoc["from"]], modules[fdoc["to"]]
        shapes = list(zip(cod.dims, dom.dims))
        comps = _parse_blocks(field, fdoc, "comps", quiver.vertices, shapes, where, "vertex")
        morphisms[name] = Morphism(dom, cod, comps)
        names["morphisms"][name] = fdoc["from"], fdoc["to"]

    categories: Dict[str, AddCategory] = {}
    for name, cdoc in doc.get("categories", {}).items():
        where = f"category {name!r}"
        gens = []
        for gname in cdoc["generators"]:
            if gname not in modules:
                raise WorkspaceError(f"{where}: unknown module {gname!r}")
            gens.append(modules[gname])
        if all(g.is_zero() for g in gens):
            raise WorkspaceError(f"{where}: needs at least one nonzero generator")
        categories[name] = AddCategory(gens, d)
        names["categories"][name] = list(cdoc["generators"])

    return Workspace(algebra, d, modules, categories, morphisms, relations, names)


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
    for name in sorted(ws.morphisms):
        source, target = ws._names["morphisms"][name]
        doc["morphisms"][name] = {
            "from": source,
            "to": target,
            "comps": _blocks_doc(quiver.vertices, ws.morphisms[name].comps),
        }
    for name in sorted(ws.categories):
        doc["categories"][name] = {"generators": list(ws._names["categories"][name])}
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
