"""Start-up cost: importing the CLI loads no scipy module a sweep never calls."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

HEAVY = ("scipy.stats", "scipy.integrate", "scipy.linalg")


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = ("import sys\n"
            "import hyperpam, hyperpam.cli, hyperpam.checks\n"
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
