"""The software serving path does not load the cycle simulator.

``repro-wfasic batch``, ``serve`` and ``submit`` run the software engine
only; the simulator packages load when a subcommand or backend that needs
them runs.  Each entry module is imported in a fresh interpreter, because
this test process has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

SIMULATOR_PACKAGES = ("repro.wfasic", "repro.soc", "repro.fleet", "repro.verify")


@pytest.mark.parametrize("module", ["repro.cli", "repro.engine", "repro.serve"])
def test_entry_module_does_not_load_the_simulator(module):
    probe = (
        f"import json, sys, {module}; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro.'))))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = json.loads(proc.stdout)
    leaked = [
        name
        for name in loaded
        if any(
            name == pkg or name.startswith(pkg + ".") for pkg in SIMULATOR_PACKAGES
        )
    ]
    assert leaked == [], f"import {module} loaded {leaked}"
