import contextlib
import copy
import io
import json
import pathlib
import re

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctkit import NotAdmissible, WorkspaceError, cli, workspace
from dctkit.errors import DctError
from dctkit.workspace import dumps, load, parse

DATA = pathlib.Path(__file__).parent / "data"
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
FIXTURES = {name: json.loads((DATA / f"{name}.json").read_text()) for name in ("ka2", "ka3rad2")}
SCHEMA = workspace._SCHEMA
DIM_CEILING = SCHEMA["properties"]["modules"]["additionalProperties"]["properties"]["dims"][
    "additionalProperties"]["maximum"]
D_CEILING = SCHEMA["properties"]["d"]["maximum"]


def test_load_named_objects():
    ws = load(str(DATA / "ka3rad2.json"))
    assert ws.algebra.dim == 5
    assert ws.d == 2
    assert set(ws.modules) == {"S1", "S2", "S3", "P1", "P2"}
    assert tuple(ws.module("P2").dims) == (0, 1, 1)
    assert set(ws.categories) == {"M"}
    assert len(ws.category("M").generators) == 4
    assert ws.morphism("cover1").is_epi()


def test_canonical_form_is_a_fixed_point():
    ws = load(str(DATA / "ka3rad2.json"))
    again = parse(ws.doc)
    assert again.doc == ws.doc
    # canonical form spells out every vertex dimension
    assert ws.doc["modules"]["S1"]["dims"] == {"1": 1, "2": 0, "3": 0}
    # and omits empty matrices
    assert ws.doc["modules"]["S1"]["maps"] == {}


def test_the_round_trip_keeps_the_names_of_equal_modules():
    # A and B are one module object; the document's names for it are kept
    doc = {
        "field": 2,
        "bound": 2,
        "d": 1,
        "quiver": {"vertices": ["1", "2"], "arrows": [{"name": "a", "source": "1", "target": "2"}]},
        "modules": {"A": {"dims": {"1": 1}}, "B": {"dims": {"1": 1}}, "C": {"dims": {"1": 1}}},
        "morphisms": {"f": {"from": "B", "to": "A", "comps": {"1": [[1]]}}},
        "categories": {"M": {"generators": ["B", "A"]}},
    }
    ws = parse(doc)
    assert ws.module("A") is ws.module("B") is ws.module("C")
    again = parse(ws.doc).doc
    for canonical in (ws.doc, again):
        assert canonical["morphisms"]["f"]["from"] == "B" and canonical["morphisms"]["f"]["to"] == "A"
        assert canonical["categories"]["M"]["generators"] == ["B", "A"]
    assert again == ws.doc


def test_parse_serializes_only_when_the_document_is_read(monkeypatch):
    calls = []
    real = workspace.serialize

    def counting(ws, relations):
        calls.append(ws)
        return real(ws, relations)

    monkeypatch.setattr(workspace, "serialize", counting)
    ws = load(str(DATA / "ka3rad2.json"))
    assert calls == []
    assert ws.doc is ws.doc
    assert calls == [ws]


def test_dumps_is_deterministic():
    ws = load(str(DATA / "ka2.json"))
    assert dumps(ws.doc) == dumps(parse(ws.doc).doc)


def test_omitted_dims_and_maps_default_to_zero():
    doc = {
        "field": 2,
        "bound": 2,
        "d": 1,
        "quiver": {"vertices": ["1", "2"], "arrows": [{"name": "a", "source": "1", "target": "2"}]},
        "modules": {"X": {"dims": {"2": 1}}},
    }
    ws = parse(doc)
    assert tuple(ws.module("X").dims) == (0, 1)


def test_overrides_take_precedence():
    doc = json.loads((DATA / "ka2.json").read_text())
    ws = parse(doc, field_override=3, d_override=1)
    assert ws.algebra.field.p == 3


def test_unknown_names_rejected():
    base = json.loads((DATA / "ka2.json").read_text())
    bad = json.loads(json.dumps(base))
    bad["categories"]["M"]["generators"].append("NOPE")
    with pytest.raises(WorkspaceError):
        parse(bad)
    bad2 = json.loads(json.dumps(base))
    bad2["modules"]["S1"]["dims"]["9"] = 1
    with pytest.raises(WorkspaceError):
        parse(bad2)
    bad3 = json.loads(json.dumps(base))
    bad3["morphisms"]["incl"]["from"] = "NOPE"
    with pytest.raises(WorkspaceError):
        parse(bad3)


def test_matrix_shape_mismatch_rejected():
    base = json.loads((DATA / "ka2.json").read_text())
    base["modules"]["P1"]["maps"]["a"] = [[1, 0]]
    with pytest.raises(WorkspaceError):
        parse(base)


def test_non_prime_field_rejected():
    base = json.loads((DATA / "ka2.json").read_text())
    base["field"] = 4
    with pytest.raises(WorkspaceError):
        parse(base)


def test_inadmissible_presentation_propagates():
    doc = {
        "field": 2,
        "bound": 2,
        "d": 1,
        "quiver": {
            "vertices": ["1", "2", "3"],
            "arrows": [
                {"name": "a", "source": "1", "target": "2"},
                {"name": "b", "source": "2", "target": "3"},
            ],
        },
        "relations": [],
    }
    with pytest.raises(NotAdmissible):
        parse(doc)


def test_entries_reduce_mod_p():
    base = json.loads((DATA / "ka2.json").read_text())
    base["modules"]["P1"]["maps"]["a"] = [[3]]
    ws = parse(base)
    assert ws.module("P1").maps[0][0, 0] == 1


@pytest.mark.parametrize(
    "section, name, key, value, message",
    [
        ("modules", "P1", "maps", [], "workspace/modules/P1/maps: expected object"),
        ("modules", "P1", "maps", {"a": [[1]], "x": [[1]]},
         "module 'P1': unknown arrow 'x' in maps"),
        ("modules", "P1", "maps", {"a": [[1, 0]]},
         "module 'P1', arrow 'a': row 0 must be a list of 1 integers"),
        ("modules", "P1", "maps", {"a": 1},
         "workspace/modules/P1/maps/a: expected array"),
        ("modules", "P1", "maps", {"a": [[True]]},
         "workspace/modules/P1/maps/a/0/0: expected integer"),
        ("modules", "P1", "maps", {"a": [[1], [0]]},
         "module 'P1', arrow 'a': expected 1 rows, got 2"),
        ("morphisms", "cover1", "comps", "1", "workspace/morphisms/cover1/comps: expected object"),
        ("morphisms", "cover1", "comps", {"9": [[1]]},
         "morphism 'cover1': unknown vertex '9' in comps"),
        ("morphisms", "cover1", "comps", {"1": [[1, 1]]},
         "morphism 'cover1', vertex '1': row 0 must be a list of 1 integers"),
        ("morphisms", "cover1", "comps", {"1": [[1.5]]},
         "workspace/morphisms/cover1/comps/1/0/0: expected integer"),
    ],
)
def test_malformed_maps_and_comps_messages(section, name, key, value, message):
    doc = json.loads((DATA / "ka3rad2.json").read_text())
    doc[section][name][key] = value
    with pytest.raises(WorkspaceError) as exc:
        parse(doc)
    assert str(exc.value) == message


def _cli(argv, doc, path):
    """Run one dct command in-process on doc; its exit code and its one JSON document."""
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([argv[0], "--workspace", str(path), *argv[1:]])
    payload = json.loads(out.getvalue())
    assert out.getvalue() == dumps(payload)
    return code, payload


def _input_error(code, payload):
    assert code == 2 and payload["error"]["kind"] == "input", payload
    return payload["error"]["message"]


def test_a_generator_that_is_not_a_string_is_an_input_error(tmp_path):
    doc = copy.deepcopy(FIXTURES["ka2"])
    doc["categories"]["M"]["generators"] = [["S1"]]
    message = _input_error(*_cli(("hom", "--from", "S1", "--to", "P1"), doc, tmp_path / "w.json"))
    assert message == "workspace/categories/M/generators/0: expected string"


@pytest.mark.parametrize("dim", [DIM_CEILING + 1, 10**30])
def test_a_dimension_over_the_ceiling_is_an_input_error(dim, tmp_path):
    doc = copy.deepcopy(FIXTURES["ka2"])
    doc["modules"]["P1"]["dims"]["2"] = dim
    message = _input_error(*_cli(("hom", "--from", "P1", "--to", "S1"), doc, tmp_path / "w.json"))
    assert message == f"workspace/modules/P1/dims/2: must be at most {DIM_CEILING}"


def test_a_dimension_at_the_ceiling_is_accepted():
    doc = copy.deepcopy(FIXTURES["ka2"])
    doc["modules"]["BIG"] = {"dims": {"1": DIM_CEILING}}
    assert parse(doc).module("BIG").dims[0] == DIM_CEILING


@pytest.mark.parametrize("d, argv, message", [
    (D_CEILING + 1, (), f"workspace/d: must be at most {D_CEILING}"),
    (10**30, (), f"workspace/d: must be at most {D_CEILING}"),
    (0, (), "workspace/d: must be at least 1"),
    (1, ("--d", "0"), "the size parameter d must be at least 1"),
])
def test_d_outside_its_bounds_is_an_input_error(d, argv, message, tmp_path):
    doc = copy.deepcopy(FIXTURES["ka2"])
    doc["d"] = d
    argv = ("ct-check", "--category", "M", "--bound", "2") + argv
    assert _input_error(*_cli(argv, doc, tmp_path / "w.json")) == message


def test_a_large_prime_field_is_refused_by_its_bound():
    with pytest.raises(WorkspaceError, match="exceeds the supported bound"):
        parse(FIXTURES["ka2"], field_override=2**61 - 1)


def test_field_and_d_are_required_even_with_overrides():
    for key in ("field", "d"):
        doc = copy.deepcopy(FIXTURES["ka2"])
        del doc[key]
        with pytest.raises(WorkspaceError, match=f"workspace: missing required key '{key}'"):
            parse(doc, field_override=3, d_override=1)


@pytest.mark.parametrize("path, message", [
    (("quiver", "vertices", 0), "workspace/quiver/vertices/0: expected string"),
    (("relations",), "workspace/relations: expected array"),
    (("modules", "S1", "extra"), "workspace/modules/S1: unknown key 'extra'"),
    (("extra",), "workspace: unknown key 'extra'"),
])
def test_vertex_labels_must_be_strings_and_unknown_keys_are_refused(path, message):
    doc = copy.deepcopy(FIXTURES["ka2"])
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = 1
    with pytest.raises(WorkspaceError) as exc:
        parse(doc)
    assert str(exc.value) == message


# The draft-07 keywords `_check` enforces, and those that only annotate.
ENFORCED = {"type", "required", "properties", "additionalProperties", "items", "minItems",
            "maxItems", "minimum", "maximum"}
ANNOTATIONS = {"$schema", "title", "description"}


def _subschemas(schema):
    """schema and every schema nested in it, at the places draft-07 puts them."""
    yield schema
    nested = list(schema.get("properties", {}).values())
    for key in ("additionalProperties", "items"):
        value = schema.get(key)
        nested += value if isinstance(value, list) else [value] if isinstance(value, dict) else []
    for sub in nested:
        yield from _subschemas(sub)


def test_the_schema_uses_only_keywords_the_checker_enforces():
    subs = list(_subschemas(SCHEMA))
    used = {key for sub in subs for key in sub}
    assert used <= ENFORCED | ANNOTATIONS, sorted(used - ENFORCED - ANNOTATIONS)
    assert {sub["type"] for sub in subs if "type" in sub} <= set(workspace._TYPES)


def test_fixtures_the_readme_example_and_canonical_forms_meet_the_schema():
    section = README.read_text(encoding="utf-8").split("### Workspace format", 1)[1]
    example = re.search(r"^```json\n(.*?)^```", section, flags=re.M | re.S).group(1)
    docs = [*FIXTURES.values(), json.loads(example)]
    docs += [parse(doc).doc for doc in FIXTURES.values()]
    for doc in docs:
        workspace._check(doc, SCHEMA, "workspace")
        jsonschema.Draft7Validator(SCHEMA).validate(doc)


REFERENCE = jsonschema.Draft7Validator(SCHEMA)
_NAMES = ["", "1", "2", "a", "S1", "P1", "M", "x"]
_LEAVES = st.one_of(st.integers(-2, 4), st.sampled_from(_NAMES))
_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4), st.floats(-2, 4), st.sampled_from(_NAMES),
    st.lists(st.one_of(_LEAVES, st.lists(_LEAVES, max_size=2)), max_size=2),
    st.dictionaries(st.sampled_from(_NAMES), _LEAVES, max_size=2), st.just(10**30),
)
COMMANDS = [
    ("hom", "--from", "S1", "--to", "P1"),
    ("decompose", "--module", "P1"),
    ("dass", "--category", "M", "--target", "S1"),
    ("ct-check", "--category", "M", "--bound", "2"),
]


def _nodes(value, path=()):
    """(path, node) for value and every node below it."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(
        value, list) else ()
    for key, item in items:
        yield from _nodes(item, path + (key,))


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_one_node_mutations_parse_as_the_schema_says_and_every_command_answers_in_json(
        data, tmp_path_factory):
    doc = copy.deepcopy(FIXTURES[data.draw(st.sampled_from(sorted(FIXTURES)), label="fixture")])
    if data.draw(st.integers(0, 8), label="mutation") == 0:
        dicts = [node for _, node in _nodes(doc) if isinstance(node, dict)]
        data.draw(st.sampled_from(dicts), label="node")["unknown"] = 1
    else:
        path, _ = data.draw(st.sampled_from(list(_nodes(doc))), label="node")
        value = data.draw(_VALUES, label="value")
        if path:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        else:
            doc = value
    try:
        parse(doc)
    except WorkspaceError:
        pass
    except DctError:
        assert REFERENCE.is_valid(doc)
    else:
        assert REFERENCE.is_valid(doc)
    for argv in COMMANDS:
        code, _ = _cli(argv, doc, tmp_path_factory.getbasetemp() / "mutant.json")
        assert code in (0, 1, 2)


_DELETE = object()


@pytest.mark.parametrize("path, value, message", [
    (("quiver", "arrows", 1, "name"), 7, "workspace/quiver/arrows/1/name: expected string"),
    (("modules", "P2", "maps", "b", 0), "1", "workspace/modules/P2/maps/b/0: expected array"),
    (("quiver", "arrows", 0, "source"), _DELETE,
     "workspace/quiver/arrows/0: missing required key 'source'"),
    (("morphisms", "cover2", "from"), _DELETE,
     "workspace/morphisms/cover2: missing required key 'from'"),
    (("morphisms", "cover1", "extra"), 1, "workspace/morphisms/cover1: unknown key 'extra'"),
    (("quiver", "arrows", 0, "extra"), "a", "workspace/quiver/arrows/0: unknown key 'extra'"),
    (("relations", 0), [], "workspace/relations/0: needs at least 1 items"),
    (("categories", "M", "generators"), [],
     "workspace/categories/M/generators: needs at least 1 items"),
    (("relations", 0, 0), [1, ["a", "b"], 1], "workspace/relations/0/0: allows at most 2 items"),
    (("relations", 0, 0), [1], "workspace/relations/0/0: needs at least 2 items"),
    (("modules", "P1", "dims", "2"), -1, "workspace/modules/P1/dims/2: must be at least 0"),
    (("modules", "P1", "dims", "2"), 1025, "workspace/modules/P1/dims/2: must be at most 1024"),
    (("relations", 0, 0, 0), "1", "workspace/relations/0/0/0: expected integer"),
    (("relations", 0, 0, 1), "ab", "workspace/relations/0/0/1: expected array"),
    (("relations", 0, 0, 1, 1), False, "workspace/relations/0/0/1/1: expected string"),
    (("quiver", "vertices", 2), None, "workspace/quiver/vertices/2: expected string"),
    (("modules", "P1", "maps", "a", 0, 0), 1.5,
     "workspace/modules/P1/maps/a/0/0: expected integer"),
])
def test_schema_messages_name_the_keyword_and_the_nested_path(path, value, message):
    """One message per schema keyword, each met below the top level, pinned byte for byte."""
    doc = copy.deepcopy(FIXTURES["ka3rad2"])
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    assert not REFERENCE.is_valid(doc)
    with pytest.raises(WorkspaceError) as exc:
        parse(doc)
    assert str(exc.value) == message
    with pytest.raises(WorkspaceError) as exc:
        workspace._check(doc, SCHEMA, "workspace")
    assert str(exc.value) == message


def test_every_subschema_states_its_type():
    """The compiled check gives each schema the closure its type needs, so each names one."""
    assert all(sub.get("type") in workspace._TYPES for sub in _subschemas(SCHEMA))
