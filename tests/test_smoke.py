"""tools/smoke.py, the stdlib-only check for interpreters without pytest, passes here too."""

import importlib.util
import subprocess
import sys
from pathlib import Path

SMOKE = Path(__file__).resolve().parent.parent / "tools" / "smoke.py"


def _smoke_module():
    spec = importlib.util.spec_from_file_location("smoke", SMOKE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke_script_passes():
    proc = subprocess.run([sys.executable, str(SMOKE)], capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].endswith(" passed, 0 failed")


def test_importing_the_cli_loads_no_dataclasses_inspect_or_resources():
    # the smoke script's check on its own, so that a failure names it
    assert _smoke_module().check_lean_import() == ""
