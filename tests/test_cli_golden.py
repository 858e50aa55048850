"""The README's eleven CLI commands, pinned: their output must stay byte-identical.

tests/data/cli_golden.json.gz holds, for each command of the README's CLI
section, its exit code, stdout, stderr and, for the command with --csv, the
CSV file it writes.  The commands run in-process through cli.main.

Rebuild the file (only when an output change is intended, and say so in
CHANGES.md) with

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import contextlib
import gzip
import io
import json
import os
import tempfile

import pytest

from nonicindex.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "cli_golden.json.gz")
COMMANDS = (
    "classify --a 7335 --b 24184",
    "classify --a 1392 --b 768 --json",
    "classify --a 183 --b 296 --prime 2",
    "polygon --a 16 --b 8 --p 2 --phi x",
    "polygon --a 183 --b 296 --p 2 --phi shifted",
    "verify --suite examples",
    "verify --suite dedekind --prime 3 --modulus 9 --lifts 10 --seed 1",
    "verify --suite agreement --prime 3 --modulus 243",
    "verify --suite agreement --prime 5 --modulus 5",
    "verify --suite tables",
    "verify --suite agreement --prime 2 --modulus 16 --csv rows.csv",
)


def run_command(command: str, workdir: str) -> dict:
    """{"command", "exit", "stdout", "stderr", "csv"} for one command; the
    --csv file is written into workdir and read back."""
    argv = command.split()
    csv_path = None
    if "--csv" in argv:
        i = argv.index("--csv") + 1
        csv_path = argv[i] = os.path.join(workdir, argv[i])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    csv_text = None
    if csv_path is not None:
        with open(csv_path, newline="") as fh:
            csv_text = fh.read()
    return {"command": command, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "csv": csv_text}


def _golden() -> dict:
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as fh:
        return {record["command"]: record for record in json.load(fh)}


def test_golden_covers_every_command():
    assert list(_golden()) == list(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_matches_golden(command, tmp_path):
    assert run_command(command, str(tmp_path)) == _golden()[command]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        records = [run_command(command, workdir) for command in COMMANDS]
    text = json.dumps(records, indent=1) + "\n"
    # mtime=0 keeps the file's bytes a function of its content alone
    with open(GOLDEN, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(text.encode("utf-8"))
    print(f"wrote {len(records)} commands to {GOLDEN}")
