"""Byte guard for the commands: each command below, run in-process through
``wva.cli.main`` in a fresh directory, must give the exit code and the
sha256 digests of stdout, stderr and each output file recorded in
``tests/data/command_digests.json``.

A refactor that keeps every printed byte passes unchanged.  A change that
means to alter an output regenerates the record, and says so, with

    PYTHONPATH=src python tests/test_command_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from wva.cli import main

RECORD = Path(__file__).parent / "data" / "command_digests.json"

AW_FIG = ["--aw-re", "1.7320508075688772", "--aw-im", "3.4641016151377544"]
GAUSSIAN_DUMP = ["dump", "--probe", "gaussian", "--g", "0.1", "--width", "1.0", "--aw-re", "2", "--output", "gaussian.csv"]
VECTORS_2 = ["--pre", "1,1", "--post", "1,-0.9", "--obs", "1,0;0,-1"]
VECTORS_3 = ["--pre", "1,1,1", "--post", "1,-0.8,0.5", "--obs", "1,0,0;0,-1,0;0,0,1"]

# name -> (commands run first to make input files, the command, its output files)
COMMANDS: dict[str, tuple[list[list[str]], list[str], list[str]]] = {
    "shift gaussian": ([], ["shift", "--aw-re", "2", "--aw-im", "0.5", "--output", "shift.csv"], ["shift.csv"]),
    "shift optimal": ([], ["shift", "--probe", "optimal", *AW_FIG], []),
    "shift smoothed": ([], ["shift", "--probe", "smoothed", "--smoothing", "30", "--aw-re", "2"], []),
    "shift file": ([GAUSSIAN_DUMP], ["shift", "--probe", "file", "--file", "gaussian.csv", "--aw-re", "2"], []),
    "shift vectors 2-level": ([], ["shift", "--probe", "optimal", *VECTORS_2], []),
    "shift vectors 3-level": ([], ["shift", *VECTORS_3], []),
    "shift mach-zehnder": ([], ["shift", "--probe", "optimal", "--chi", "0.7", "--varphi", "0.8"], []),
    "mach-zehnder": ([], ["mach-zehnder", "--chi", "0.7", "--varphi", "0.8"], []),
    "dump gaussian": ([], GAUSSIAN_DUMP, ["gaussian.csv"]),
    "dump optimal": ([], ["dump", "--probe", "optimal", *AW_FIG, "--n-points", "257", "--n-range", "8"], []),
    "dump smoothed": ([], ["dump", "--probe", "smoothed", "--smoothing", "30", "--aw-re", "2", "--n-range", "8"], []),
    "sweep postselection_angle": (
        [],
        ["sweep", "--axis", "postselection_angle", "--probe", "optimal", "--pre", "1,1", "--post", "1,0",
         "--obs", "1,0;0,-1", "--start", "2.3", "--stop", "2.36", "--count", "5"],
        [],
    ),
    "sweep coupling_g": ([], ["sweep", "--axis", "coupling_g", "--probe", "optimal", "--aw-re", "2",
                              "--aw-im", "1", "--values", "0.05,0.1,0.5"], []),
    "optimize A=2": (
        [],
        ["optimize", "--aw-re", "2", "--init", "random", "--seed", "3",
         "--output", "trace.csv", "--probe-output", "probe.csv"],
        ["trace.csv", "probe.csv"],
    ),
    "optimize A=-2+0.13i": ([], ["optimize", "--aw-re", "-2", "--aw-im", "0.13"], []),
    "missing config": ([], ["shift", "--config", "no-such.cfg"], []),
    "shift gaussian n_points": ([], ["shift", "--aw-re", "2", "--aw-im", "0.5", "--width", "2", "--n-points", "257"], []),
    "dump gaussian n_points": (
        [],
        ["dump", "--probe", "gaussian", "--g", "0.5", "--width", "0.5", "--aw-re", "2", "--n-points", "129",
         "--output", "gaussian_n.csv"],
        ["gaussian_n.csv"],
    ),
    "shift gaussian inf grid": ([], ["shift", "--aw-re", "2", "--g", "1e308"], []),
    "shift gaussian 4k+3": ([], ["shift", "--aw-re", "2", "--n-points", "259"], []),
    "sweep postselection_angle 3-level": (
        [],
        ["sweep", "--axis", "postselection_angle", "--probe", "optimal", "--pre", "1,1", "--post", "1,0",
         "--obs", "1,0,0;0,-1,0;0,0,1", "--values", "2.3,2.356194490192345"],
        [],
    ),
    "sweep postselection_angle unread key": (
        [],
        ["sweep", "--axis", "postselection_angle", "--probe", "optimal", "--pre", "1,1", "--post", "1,0",
         "--obs", "1,0;0,-1", "--width", "2", "--values", "2.3,2.356194490192345"],
        [],
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(argv: list[str]) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def digests(name: str) -> dict:
    """Run the named command in the current directory; its exit code and the
    digests of its stdout, stderr and output files."""
    setup, argv, files = COMMANDS[name]
    for command in setup:
        assert _run(command)[0] == 0, command
    code, stdout, stderr = _run(argv)
    return {
        "exit": code,
        "stdout": _sha256(stdout),
        "stderr": _sha256(stderr),
        "files": {path: _sha256(Path(path).read_text(encoding="utf-8")) for path in files},
    }


@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_output_is_unchanged(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    recorded = json.loads(RECORD.read_text())
    assert digests(name) == recorded[name], f"the output of `{name}` changed"


def test_record_covers_every_command():
    assert sorted(json.loads(RECORD.read_text())) == sorted(COMMANDS)


if __name__ == "__main__":
    record = {}
    for name in COMMANDS:
        with tempfile.TemporaryDirectory() as scratch:
            cwd = os.getcwd()
            os.chdir(scratch)
            try:
                record[name] = digests(name)
            finally:
                os.chdir(cwd)
    RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(record)} digests to {RECORD}", file=sys.stderr)
