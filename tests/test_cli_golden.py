"""Every `dct` subcommand in the fixture sweep prints the bytes it printed before.

`tests/data/cli_golden.json` holds the SHA-256 of the exit code and stdout of
each invocation in `cli_sweep.commands()`, over both fixtures at `--field` 2,
3, 5 and 7; regenerate it with `python tests/cli_sweep.py` only for an intended
change of the command-line output.
"""

import json

from cli_sweep import DATA, commands, digest, key


def test_the_cli_sweep_matches_its_golden():
    golden = json.loads((DATA / "cli_golden.json").read_text())
    argvs = commands()
    assert sorted(key(a) for a in argvs) == sorted(golden)
    changed = [key(a) for a in argvs if digest(a) != golden[key(a)]]
    assert not changed, f"{len(changed)} invocations changed, first: {changed[:5]}"
