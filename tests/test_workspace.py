import json
import pathlib

import pytest

from dctkit import NotAdmissible, WorkspaceError, workspace
from dctkit.workspace import dumps, load, parse

DATA = pathlib.Path(__file__).parent / "data"


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
        ("modules", "P1", "maps", [], "module 'P1': 'maps' must be an object"),
        ("modules", "P1", "maps", {"a": [[1]], "x": [[1]]},
         "module 'P1': unknown arrow 'x' in maps"),
        ("modules", "P1", "maps", {"a": [[1, 0]]},
         "module 'P1', arrow 'a': row 0 must be a list of 1 integers"),
        ("modules", "P1", "maps", {"a": 1},
         "module 'P1', arrow 'a': matrix must be a list of rows"),
        ("modules", "P1", "maps", {"a": [[True]]},
         "module 'P1', arrow 'a': entry (0,0) is not an integer"),
        ("modules", "P1", "maps", {"a": [[1], [0]]},
         "module 'P1', arrow 'a': expected 1 rows, got 2"),
        ("morphisms", "cover1", "comps", "1", "morphism 'cover1': 'comps' must be an object"),
        ("morphisms", "cover1", "comps", {"9": [[1]]},
         "morphism 'cover1': unknown vertex '9' in comps"),
        ("morphisms", "cover1", "comps", {"1": [[1, 1]]},
         "morphism 'cover1', vertex '1': row 0 must be a list of 1 integers"),
        ("morphisms", "cover1", "comps", {"1": [[1.5]]},
         "morphism 'cover1', vertex '1': entry (0,0) is not an integer"),
    ],
)
def test_malformed_maps_and_comps_messages(section, name, key, value, message):
    doc = json.loads((DATA / "ka3rad2.json").read_text())
    doc[section][name][key] = value
    with pytest.raises(WorkspaceError) as exc:
        parse(doc)
    assert str(exc.value) == message
