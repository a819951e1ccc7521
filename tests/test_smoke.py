"""tools/smoke.py, the stdlib-only check for interpreters without pytest, passes here too."""

import subprocess
import sys
from pathlib import Path

SMOKE = Path(__file__).resolve().parent.parent / "tools" / "smoke.py"


def test_smoke_script_passes():
    # a failure prints the script's output, whose FAIL lines name the checks
    proc = subprocess.run([sys.executable, str(SMOKE)], capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].endswith(" passed, 0 failed")
