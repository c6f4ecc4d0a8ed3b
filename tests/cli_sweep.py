"""A sweep of `dct` invocations over the two fixtures, run in-process.

`commands(fields)` lists every subcommand over `ka2.json` and
`ka3rad2.json`: every module, map and pair, `ext` degrees 0 to 3, every
target, x and submodule, `gldim-end` and `d-rigid` at `--d 3`,
`enumerate` at bounds 2 and 3, a bounded `ct-check`, plus a refused
`--cap 0` and an unknown name.
`digest(argv)` runs one of them through `cli.main` and hashes its exit
code and stdout.

    python tests/cli_sweep.py > tests/data/cli_golden.json

writes the golden that `test_cli_golden.py` compares against, at the
fields it checks (2, 3, 5 and 7); pass other fields as arguments to sweep them.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

from dctkit import cli

DATA = pathlib.Path(__file__).resolve().parent / "data"
FIXTURES = ("ka2.json", "ka3rad2.json")
GOLDEN_FIELDS = (2, 3, 5, 7)


def _fixture_commands(name):
    doc = json.loads((DATA / name).read_text())
    mods, maps, cats = sorted(doc["modules"]), sorted(doc["morphisms"]), sorted(doc["categories"])
    pairs = [(x, y) for x in mods for y in mods]
    out = [["check-algebra"]]
    out += [["hom", "--from", x, "--to", y] for x, y in pairs]
    out += [["ext", "--from", x, "--to", y, "--degree", str(k)] for x, y in pairs for k in range(4)]
    out += [["resolve", "--module", m, "--length", "3"] for m in mods]
    out += [["tau-d", "--module", m, *minus] for m in mods for minus in ([], ["--minus"])]
    out += [["decompose", "--module", m] for m in mods]
    out += [["enumerate", "--bound", "2"], ["enumerate", "--bound", "3"]]
    for c in cats:
        ends = [["--map", f] for f in maps] + [["--target", m] for m in mods]
        out += [["d-rigid", "--category", c], ["d-rigid", "--category", c, "--d", "3"]]
        out += [["ct-check", "--category", c, "--bound", "2"]]
        out += [["build-d-exact", "--category", c, "--map", f] for f in maps]
        out += [["defect", "--category", c, *e, "--x", x] for e in ends for x in mods]
        out += [["verify-defect-formula", "--category", c, *e] for e in ends]
        out += [["verify-ar-duality", "--category", c]]
        out += [["determined", "--category", c, "--x", x, "--target", y, "--submodule", s]
                for x, y in pairs for s in ("zero", "full", "radical")]
        out += [["dass", "--category", c, "--target", m] for m in mods]
        out += [["gldim-end", "--category", c], ["gldim-end", "--category", c, "--d", "3"]]
        out += [["emit-dot", "--category", c, *e] for e in [[]] + ends]
    out += [["dass", "--category", cats[0], "--target", mods[0], "--cap", "0"]]
    out += [["hom", "--from", "nowhere", "--to", mods[0]]]
    return out


def commands(fields=GOLDEN_FIELDS):
    """Each sweep invocation as an argv list, fixture by fixture, then field by field."""
    return [
        [cmd[0], "--workspace", str(DATA / name), "--field", str(p), *cmd[1:]]
        for name in FIXTURES
        for p in fields
        for cmd in _fixture_commands(name)
    ]


def key(argv):
    """The invocation with its workspace as a bare file name, as the golden keys it."""
    return " ".join(pathlib.Path(a).name if a.endswith(".json") else a for a in argv)


def digest(argv):
    """SHA-256 of the exit code and stdout of one in-process invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


if __name__ == "__main__":
    fields = tuple(int(p) for p in sys.argv[1:]) or GOLDEN_FIELDS
    sys.stdout.write(json.dumps({key(a): digest(a) for a in commands(fields)}, indent=1) + "\n")
