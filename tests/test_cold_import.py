"""`import balint` stays cheap: it loads no module that costs more than
balint's own sources, such as dataclasses, inspect or json, and the command
line loads the bench suite and its statistics and csv only for `balint bench`."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import balint


def test_import_loads_neither_dataclasses_nor_inspect():
    src = str(Path(balint.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import balint; first = set(sys.modules); import balint.cli; "
        "print([m in first for m in ('dataclasses', 'inspect', 'json')], "
        "[m in sys.modules for m in ('dataclasses', 'inspect', 'balint.bench', 'statistics', 'csv')])"
    )
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[False, False, False] [False, False, False, False, False]\n"
