"""`import balint` stays cheap: it loads no module that costs more than
balint's own sources, such as dataclasses, inspect or json, and the command
line loads the bench suite and its statistics and csv only for `balint bench`.
Neither loads the naive oracles until one of their names is used."""

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


def test_oracle_loads_on_first_use_only():
    src = str(Path(balint.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import balint; first = 'balint.oracle' in sys.modules; import balint.cli; "
        "print(first, 'balint.oracle' in sys.modules); "
        "from balint import BudgetError, OracleBudget, oracle_fbis; "
        "print('balint.oracle' in sys.modules, all(hasattr(balint, m) for m in balint.__all__))"
    )
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\nTrue True\n"
