"""End-to-end command line tests: golden outputs, exit codes, determinism."""

import json
import os
import pathlib
import subprocess
import sys

DATA = pathlib.Path(__file__).parent / "data"
KA2 = str(DATA / "ka2.json")
FLAG = str(DATA / "ka3rad2.json")


def run_cli(*args, threads=None, timeout=None):
    env = dict(os.environ)
    if threads is not None:
        env["DCT_THREADS"] = str(threads)
    return subprocess.run(
        [sys.executable, "-m", "dctkit.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def payload(result):
    assert result.stdout.endswith("\n")
    return json.loads(result.stdout)


def test_check_algebra_golden():
    r = run_cli("check-algebra", "--workspace", FLAG)
    assert r.returncode == 0
    doc = payload(r)
    assert doc == {
        "admissible": True,
        "dimension": 5,
        "n_vertices": 3,
        "path_basis": ["e_1", "e_2", "e_3", "a", "b"],
    }


def test_hom_and_ext():
    r = run_cli("hom", "--workspace", FLAG, "--from", "P1", "--to", "S1")
    assert payload(r)["dim"] == 1
    r = run_cli("ext", "--workspace", FLAG, "--from", "S2", "--to", "S3", "--degree", "1")
    assert payload(r)["dim"] == 1
    r = run_cli("ext", "--workspace", FLAG, "--from", "S1", "--to", "S3", "--degree", "2")
    assert payload(r)["dim"] == 1


def test_resolve_walks_to_zero():
    r = run_cli("resolve", "--workspace", FLAG, "--module", "S1", "--length", "5")
    terms = payload(r)["terms"]
    assert [t["vertices"] for t in terms] == [["1"], ["2"], ["3"], []]


def test_tau_commands():
    r = run_cli("tau-d", "--workspace", FLAG, "--module", "S1")
    doc = payload(r)
    assert doc["dims"] == [0, 0, 1]
    assert doc["isomorphic_to"] == "S3"
    r = run_cli("tau-d", "--workspace", FLAG, "--module", "S3", "--minus")
    assert payload(r)["isomorphic_to"] == "S1"


def test_decompose_names_summands():
    r = run_cli("decompose", "--workspace", FLAG, "--module", "P1")
    doc = payload(r)
    assert doc["summands"] == [
        {"dims": [1, 1, 0], "isomorphic_to": "P1", "multiplicity": 1}
    ]


def test_enumerate_with_bound():
    r = run_cli("enumerate", "--workspace", FLAG, "--bound", "2")
    doc = payload(r)
    assert doc["count"] == 5
    names = [c["isomorphic_to"] for c in doc["classes"]]
    assert sorted(n for n in names if n) == ["P1", "P2", "S1", "S2", "S3"]


def test_ct_check_example():
    r = run_cli("ct-check", "--workspace", FLAG, "--category", "M", "--bound", "2")
    assert r.returncode == 0
    doc = payload(r)
    assert doc["ok"] is True
    assert doc["universe_size"] == 5
    assert doc["generating"] and doc["cogenerating"]


def test_d_rigid_verdict_false_still_exits_zero(tmp_path):
    doc = json.loads(pathlib.Path(FLAG).read_text())
    doc["categories"]["BAD"] = {"generators": ["S2", "S3"]}
    p = tmp_path / "ws.json"
    p.write_text(json.dumps(doc))
    r = run_cli("d-rigid", "--workspace", str(p), "--category", "BAD")
    assert r.returncode == 0
    assert payload(r)["ok"] is False


def test_a_category_of_zero_generators_is_an_input_error(tmp_path):
    doc = json.loads(pathlib.Path(KA2).read_text())
    doc["modules"]["Z"] = {"dims": {}}
    doc["categories"]["E"] = {"generators": ["Z"]}
    p = tmp_path / "ws.json"
    p.write_text(json.dumps(doc))
    for command in ("gldim-end", "d-rigid"):
        r = run_cli(command, "--workspace", str(p), "--category", "E")
        assert r.returncode == 2 and "Traceback" not in r.stderr
        assert payload(r)["error"]["kind"] == "input"


def test_dass_golden_labels():
    r = run_cli("dass", "--workspace", FLAG, "--category", "M", "--target", "S1")
    assert r.returncode == 0
    doc = payload(r)
    assert [t["label"] for t in doc["terms"]] == ["S3", "P2", "P1", "S1"]
    assert [m["radical"] for m in doc["maps"]] == [True, True, True]
    assert doc["maps"][0]["mono"] and doc["maps"][-1]["epi"]


def test_dass_classical_labels():
    r = run_cli("dass", "--workspace", KA2, "--category", "M", "--target", "S1")
    doc = payload(r)
    assert [t["label"] for t in doc["terms"]] == ["S2", "P1", "S1"]


def test_dass_at_projective_is_an_input_error():
    r = run_cli("dass", "--workspace", FLAG, "--category", "M", "--target", "P1")
    assert r.returncode == 2
    assert payload(r)["error"]["code"] == 2


def test_build_d_exact_from_named_map():
    r = run_cli("build-d-exact", "--workspace", FLAG, "--category", "M", "--map", "cover1")
    doc = payload(r)
    assert [t["label"] for t in doc["terms"]] == ["S3", "P2", "P1", "S1"]


def test_defect_and_formula_commands():
    r = run_cli("defect", "--workspace", FLAG, "--category", "M",
                "--target", "S1", "--x", "S1")
    doc = payload(r)
    assert doc["contravariant"] == 1
    assert doc["covariant"] == 0
    r = run_cli("verify-defect-formula", "--workspace", FLAG, "--category", "M",
                "--target", "S1")
    assert r.returncode == 0
    assert payload(r)["ok"] is True
    r = run_cli("verify-ar-duality", "--workspace", FLAG, "--category", "M")
    assert r.returncode == 0
    assert payload(r)["ok"] is True


def test_both_comparison_commands_exit_one_when_the_comparison_fails(capsys):
    from dctkit import cli

    for command, extra in (("verify-defect-formula", ["--map", "cover1"]), ("verify-ar-duality", [])):
        code = cli.main([command, "--workspace", FLAG, "--category", "M", "--d", "3", *extra])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1 and doc["ok"] is False and doc["category"] == "M", command
        assert [row["x"] for row in doc["rows"] if not row["ok"]] == [3], command


def test_determined_command():
    r = run_cli("determined", "--workspace", FLAG, "--category", "M",
                "--x", "S1", "--target", "S1", "--submodule", "zero")
    assert r.returncode == 0
    doc = payload(r)
    assert doc["ok"] is True
    assert doc["image_dim"] == 0
    assert doc["domain"]["label"] == "P1"


def test_gldim_end_command():
    r = run_cli("gldim-end", "--workspace", FLAG, "--category", "M")
    doc = payload(r)
    assert doc["gldim_end"] == 3
    assert doc["domdim_end"] == 3
    assert doc["bounds_ok"] is True
    r = run_cli("gldim-end", "--workspace", KA2, "--category", "M")
    doc = payload(r)
    assert doc["gldim_end"] == 2
    assert doc["domdim_end"] == 2


def test_emit_dot_writes_file(tmp_path):
    out = tmp_path / "row.dot"
    r = run_cli("emit-dot", "--workspace", FLAG, "--category", "M",
                "--target", "S1", "--dot", str(out))
    assert r.returncode == 0
    text = payload(r)["dot"]
    assert out.read_text() == text
    assert text.splitlines()[0] == "digraph sequence {"
    assert 'n0 [label="S3 (0,0,1)"]' in text
    assert 'n2 -> n3 [label="epi,radical"]' in text


def test_emit_dot_escapes_quotes_and_backslashes_in_names(tmp_path):
    doc = json.loads(pathlib.Path(FLAG).read_text())
    renames = {"P2": 'P"2', "S3": "S\\3"}
    doc["modules"] = {renames.get(k, k): v for k, v in doc["modules"].items()}
    doc["morphisms"]["cover2"]["from"] = renames["P2"]
    doc["categories"]["M"]["generators"] = ["P1", renames["P2"], renames["S3"], "S1"]
    path = tmp_path / "quoted.json"
    path.write_text(json.dumps(doc))
    r = run_cli("emit-dot", "--workspace", str(path), "--category", "M", "--target", "S1")
    lines = payload(r)["dot"].splitlines()
    assert lines[2] == '  n0 [label="S\\\\3 (0,0,1)"];'
    assert lines[3] == '  n1 [label="P\\"2 (0,1,1)"];'
    r = run_cli("emit-dot", "--workspace", FLAG, "--category", "M", "--target", "S1")
    flagship = payload(r)["dot"].splitlines()
    assert lines[:2] + lines[4:] == flagship[:2] + flagship[4:]


def test_emit_dot_without_sequence_is_empty_digraph():
    r = run_cli("emit-dot", "--workspace", FLAG, "--category", "M")
    assert payload(r)["dot"] == "digraph sequence {\n}\n"


def test_unknown_name_exits_two():
    r = run_cli("hom", "--workspace", FLAG, "--from", "NOPE", "--to", "S1")
    assert r.returncode == 2
    assert payload(r)["error"]["code"] == 2


def test_missing_file_exits_two(tmp_path):
    r = run_cli("hom", "--workspace", str(tmp_path / "no.json"), "--from", "a", "--to", "b")
    assert r.returncode == 2


def test_malformed_json_exits_two(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    r = run_cli("check-algebra", "--workspace", str(p))
    assert r.returncode == 2


def test_every_command_is_byte_deterministic(tmp_path):
    dot1 = tmp_path / "a.dot"
    commands = [
        ("check-algebra", "--workspace", FLAG),
        ("hom", "--workspace", FLAG, "--from", "P2", "--to", "P1"),
        ("ext", "--workspace", FLAG, "--from", "S1", "--to", "S2", "--degree", "1"),
        ("resolve", "--workspace", FLAG, "--module", "S2", "--length", "3"),
        ("tau-d", "--workspace", FLAG, "--module", "S1"),
        ("decompose", "--workspace", FLAG, "--module", "P2"),
        ("enumerate", "--workspace", FLAG, "--bound", "2"),
        ("d-rigid", "--workspace", FLAG, "--category", "M"),
        ("ct-check", "--workspace", FLAG, "--category", "M", "--bound", "2"),
        ("build-d-exact", "--workspace", FLAG, "--category", "M", "--map", "cover1"),
        ("defect", "--workspace", FLAG, "--category", "M", "--target", "S1", "--x", "P1"),
        ("verify-defect-formula", "--workspace", FLAG, "--category", "M", "--target", "S1"),
        ("verify-ar-duality", "--workspace", FLAG, "--category", "M"),
        ("determined", "--workspace", FLAG, "--category", "M",
         "--x", "S1", "--target", "S1", "--submodule", "full"),
        ("dass", "--workspace", FLAG, "--category", "M", "--target", "S1"),
        ("gldim-end", "--workspace", FLAG, "--category", "M"),
        ("emit-dot", "--workspace", FLAG, "--category", "M", "--target", "S1"),
    ]
    for cmd in commands:
        first = run_cli(*cmd, threads=1)
        second = run_cli(*cmd, threads=16)
        assert first.returncode == second.returncode == 0, cmd
        assert first.stdout == second.stdout, cmd
    # the flagship answers over F_5 and F_7 with exactly the F_2 bytes
    for cmd in [
        ("dass", "--workspace", FLAG, "--category", "M", "--target", "S1"),
        ("gldim-end", "--workspace", FLAG, "--category", "M"),
        ("verify-defect-formula", "--workspace", FLAG, "--category", "M", "--target", "S1"),
    ]:
        over_f2 = run_cli(*cmd, "--field", "2")
        for p in ("5", "7"):
            over_p = run_cli(*cmd, "--field", p)
            assert over_f2.returncode == over_p.returncode == 0, (cmd, p)
            assert over_p.stdout == over_f2.stdout, (cmd, p)


def test_cap_below_one_is_an_input_error():
    for cap in ("-1", "0"):
        r = run_cli("dass", "--workspace", FLAG, "--category", "M", "--target", "S1",
                    "--cap", cap)
        assert r.returncode == 2
        error = payload(r)["error"]
        assert error["kind"] == "input"
        assert "--cap" in error["message"]
    # a cap of 1 is a budget, not an input error: it refuses the enumeration
    r = run_cli("enumerate", "--workspace", FLAG, "--cap", "1")
    assert r.returncode == 2
    assert payload(r)["error"]["kind"] == "cap"
    # splitting and isomorphism tests no longer scan, so dass answers at any cap
    r = run_cli("dass", "--workspace", FLAG, "--category", "M", "--target", "S1", "--cap", "1")
    assert r.returncode == 0


def test_cap_refusal_names_its_cause():
    r = run_cli("enumerate", "--workspace", FLAG, "--field", "7")
    assert r.returncode == 2
    assert payload(r)["error"] == {
        "code": 2,
        "kind": "cap",
        "message": "enumerate_indecomposables on dimension vector (0,2,3) needs 129589+ "
        "arrow-matrix assignments, over the cap 65536; raise --cap",
    }
    # the flagship's own enumeration answers at the default cap
    r = run_cli("enumerate", "--workspace", FLAG)
    assert r.returncode == 0
    assert [c["isomorphic_to"] for c in payload(r)["classes"]] == ["S3", "S2", "S1", "P2", "P1"]


def test_a_command_does_not_import_numpy():
    script = (
        "import sys, dctkit.cli\n"
        f"code = dctkit.cli.main(['dass', '--workspace', {FLAG!r}, '--category', 'M',"
        " '--target', 'S1'])\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "0 False"


def test_bound_below_one_is_an_input_error():
    for bound in ("0", "-3"):
        for cmd in (("ct-check", "--category", "M"), ("enumerate",)):
            r = run_cli(*cmd, "--workspace", FLAG, "--bound", bound)
            assert r.returncode == 2, (cmd, bound)
            assert payload(r)["error"] == {
                "code": 2,
                "kind": "input",
                "message": f"argument --bound: must be at least 1, got {bound}",
            }


def test_ext_far_past_the_resolution_answers():
    r = run_cli(
        "ext", "--workspace", FLAG, "--from", "S1", "--to", "S3", "--degree", "1000000000"
    )
    assert r.returncode == 0
    assert payload(r)["dim"] == 0


DUAL_NUMBERS = {
    "field": 2,
    "bound": 2,
    "d": 2,
    "quiver": {"vertices": ["1"], "arrows": [{"name": "x", "source": "1", "target": "1"}]},
    "relations": [[[1, ["x", "x"]]]],
    "modules": {"S": {"dims": {"1": 1}}},
}


def test_a_resolution_that_never_stops_is_refused_past_the_cap(tmp_path):
    # over k[x]/x^2 every syzygy of S is S again, so the resolution never stops
    p = tmp_path / "dual.json"
    p.write_text(json.dumps(DUAL_NUMBERS))
    ws = ["--workspace", str(p)]
    assert payload(run_cli("ext", *ws, "--from", "S", "--to", "S", "--degree", "32"))["dim"] == 1
    refusal = (
        "projective resolution to step {} on dimension vector (1) needs a resolution "
        "longer than 32, over the cap 32; raise config.RESOLUTION_CAP"
    )
    for args, step in [
        (["ext", "--from", "S", "--to", "S", "--degree", "1000000000"], 1000000000),
        (["resolve", "--module", "S", "--length", "1000000000"], 34),
        (["tau-d", "--module", "S", "--d", "1000000000"], 999999998),
    ]:
        r = run_cli(*args, *ws, timeout=5)
        assert r.returncode == 2
        assert payload(r)["error"] == {"code": 2, "kind": "cap", "message": refusal.format(step)}


def test_a_huge_bound_is_refused_before_any_scan():
    # the budget is summed over dimension vectors lazily, so the refusal
    # comes at the first vector over the cap, not after listing 10^27 of them
    r = run_cli("enumerate", "--workspace", FLAG, "--bound", "1000000000", timeout=5)
    assert r.returncode == 2
    assert payload(r)["error"] == {
        "code": 2,
        "kind": "cap",
        "message": "enumerate_indecomposables on dimension vector (0,3,5) needs 88723+ "
        "arrow-matrix assignments, over the cap 65536; raise --cap",
    }
