"""Rewrite the golden CLI reports from the current source tree.

    PYTHONPATH=src python tests/golden/regen.py

Runs every subcommand in `COMMANDS` of tests/test_cli.py on its fixture at
precision 128 and writes its standard output to `<command>.json` and all
exit codes to `exit_codes.json`, next to this script.  A change that alters
a report reruns this and names every changed field in CHANGES.md.
"""

import json
import pathlib
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from plectic.config import set_precision  # noqa: E402
from test_cli import COMMANDS, run, write_fixtures  # noqa: E402


def main():
    set_precision(128)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        fixtures = write_fixtures(pathlib.Path(tmp))
        for command, argv_fn in COMMANDS:
            codes[command], out = run(argv_fn(fixtures))
            (HERE / f"{command}.json").write_text(out)
    (HERE / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
