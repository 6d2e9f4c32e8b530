"""Every demo runs to completion as its docstring says to run it, and prints
what it exists to show."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Demo -> patterns its stdout must match. The engine never reads the PNS
# attacker's tally, so demo 01 is the only end-to-end check that the window
# sampler fills it, and that the attack adds no errors.
STDOUT_PATTERNS = {
    "01_link_physics.py": [r"bits learned by the attacker: [1-9]",
                           re.escape("induced QBER: 0.0000")],
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]
    for pattern in STDOUT_PATTERNS.get(demo.name, []):
        assert re.search(pattern, result.stdout), pattern
