"""The CLI's help and usage errors, byte for byte: stdout, stderr and exit
code of ``irkit.cli.main`` for argvs that print help or fail to parse, at a
terminal width of 80 columns.

The expectations in ``data/cli_surface.json`` were written by running this
file as a script (``PYTHONPATH=src python tests/test_cli_surface.py``).
argparse words its help and errors differently across Python versions, so
they are checked only under the version that wrote them.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from irkit.cli import main

EXPECTED = Path(__file__).parent / "data" / "cli_surface.json"
COMMANDS = ("transform", "invert", "prepare", "postprocess", "evaluate",
            "stats")
ARGVS = [
    [], ["--help"], ["-h", "transform"], ["bogus"], ["-x", "transform"],
    ["transform"], ["transform", "--bogus", "x"],
    # the leftover argument is reported against the top-level usage
    ["stats", "--formalism", "sql", "--in", "X", "--bogus", "1"],
    ["transform", "--ir", "rir", "--formalism", "sql", "--in", "X",
     "--out", "Y", "extra"],
    ["evaluate", "--formalism", "sql", "--in", "X", "--gold", "G",
     "--strict"],
    ["--ir", "bad"], ["prepare", "--stage", "3"],
    ["invert", "--formalism", "bogus"],
    *([command, "--help"] for command in COMMANDS),
]


def outcome(argv: list[str]) -> dict:
    """``main(argv)``'s exit code and output, with ``COLUMNS=80``."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", ARGVS,
                         ids=lambda argv: " ".join(argv) or "(none)")
def test_cli_surface_is_unchanged(argv):
    expected = _expected()
    if expected["python"] != list(sys.version_info[:2]):
        pytest.skip(f"expectations were written with Python "
                    f"{'.'.join(map(str, expected['python']))}")
    assert outcome(argv) == next(case for case in expected["cases"]
                                 if case["argv"] == argv)


if __name__ == "__main__":
    EXPECTED.write_text(json.dumps(
        {"python": list(sys.version_info[:2]),
         "cases": [outcome(argv) for argv in ARGVS]},
        indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
