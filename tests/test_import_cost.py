"""Importing the package generates no code and loads no unused module.

Each check runs in a fresh interpreter, records ``sys.modules``, imports,
and reads what the import added.  `dataclasses` pulls in `inspect`, `ast`,
`dis` and `tokenize` and builds every class body with `exec`; `textwrap`
and `json` are not needed to load the package or the CLI.  JSON output
imports `json` when a command asks for it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import torusquot

SRC = str(Path(torusquot.__file__).resolve().parent.parent)
UNWANTED = {"dataclasses", "inspect", "textwrap", "json"}


def modules_added_by(statement):
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            f"{statement}\n"
            "print(*set(sys.modules) - before)\n")
    path = os.pathsep.join([SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    return set(out.stdout.split())


@pytest.mark.parametrize("statement", ["import torusquot", "import torusquot.cli"])
def test_import_loads_no_unused_module(statement):
    added = modules_added_by(statement)
    assert "torusquot" in added
    assert not added & UNWANTED, sorted(added & UNWANTED)
