"""The package's public surface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import relaymarket

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_exported_name_resolves_once():
    names = relaymarket.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(relaymarket, n)] == []


def test_import_loads_only_the_standard_library_and_numpy():
    # every module an import loads is paid for by each fresh process, so
    # the package imports nothing past the standard library and numpy
    probe = ("import json, sys\n"
             "before = set(sys.modules)\n"
             "import relaymarket\n"
             "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    loaded = json.loads(subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                                       capture_output=True, text=True).stdout)
    assert "relaymarket" in loaded
    allowed = sys.stdlib_module_names | {"numpy", "relaymarket"}
    assert [m for m in loaded if m not in allowed] == []
