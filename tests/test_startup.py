"""A ``dct`` process imports only what its subcommand runs.

Each check starts a fresh interpreter, because the test process itself
has long since loaded every layer.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
FLAG = str(ROOT / "tests" / "data" / "ka3rad2.json")
HEAVY = {"dctkit.artheory", "dctkit.dexact", "dctkit.homological"}

# Runs each command line in one interpreter and prints, as JSON, the exit
# codes, the dctkit modules it loaded and whether dataclasses or inspect came in.
RUN_COMMANDS = """
import contextlib, io, json, sys
from dctkit import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({
    "codes": codes,
    "layers": sorted(m for m in sys.modules if m.startswith("dctkit.")),
    "dataclasses": "dataclasses" in sys.modules,
    "inspect": "inspect" in sys.modules,
}))
"""


def _python(code, *args):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    r = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=300
    )
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


def _loads(*argvs):
    out = _python(RUN_COMMANDS, json.dumps([list(a) for a in argvs]))
    assert out["codes"] == [0] * len(argvs), out["codes"]
    return out


def _layers(command, *args):
    return set(_loads((command, "--workspace", FLAG) + args)["layers"])


def test_importing_the_package_loads_no_layer():
    code = (
        "import json, sys, dctkit\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('dctkit'))))"
    )
    assert _python(code) == ["dctkit"]


def test_light_commands_leave_the_heavy_layers_unloaded():
    base = _layers("hom", "--from", "P1", "--to", "S1")
    assert not base & HEAVY
    assert _layers("check-algebra") == base
    assert _layers("decompose", "--module", "P1") == base
    assert _layers("ext", "--from", "S1", "--to", "S3", "--degree", "1") == base | {
        "dctkit.homological"
    }
    assert _layers("tau-d", "--module", "S1") == base | {"dctkit.homological"}


def test_no_command_imports_dataclasses_or_inspect():
    ws = ("--workspace", FLAG)
    cat = ws + ("--category", "M")
    out = _loads(
        ("check-algebra",) + ws,
        ("hom",) + ws + ("--from", "P1", "--to", "S1"),
        ("ext",) + ws + ("--from", "S1", "--to", "S3", "--degree", "1"),
        ("resolve",) + ws + ("--module", "S1", "--length", "2"),
        ("tau-d",) + ws + ("--module", "S1", "--minus"),
        ("decompose",) + ws + ("--module", "P1"),
        ("enumerate",) + ws + ("--bound", "2"),
        ("d-rigid",) + cat,
        ("ct-check",) + cat,
        ("build-d-exact",) + cat + ("--map", "cover1"),
        ("defect",) + cat + ("--target", "S1", "--x", "S3"),
        ("verify-defect-formula",) + cat + ("--target", "S1"),
        ("verify-ar-duality",) + cat,
        ("determined",) + cat + ("--x", "P1", "--target", "S1", "--submodule", "radical"),
        ("dass",) + cat + ("--target", "S1"),
        ("gldim-end",) + cat,
        ("emit-dot",) + cat + ("--target", "S1"),
    )
    assert HEAVY <= set(out["layers"])
    assert not out["dataclasses"] and not out["inspect"]


def test_every_exported_name_resolves_on_first_use():
    code = """
import json, dctkit
names = dctkit.__all__
resolved = all(getattr(dctkit, n) is not None for n in names)
star = {}
exec("from dctkit import *", star)
try:
    dctkit.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
missing_star = sorted(set(names) - set(star))
missing_dir = sorted(set(names) - set(dir(dctkit)))
print(json.dumps([resolved, missing_star, missing_dir, unknown]))
"""
    assert _python(code) == [True, [], [], "AttributeError"]
