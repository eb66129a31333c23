"""Start-up cost: importing the CLI loads no scipy module a sweep never calls,
and the statistical checks of ``validate`` never load ``scipy.stats``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

HEAVY = ("scipy.stats", "scipy.integrate", "scipy.linalg")


def _loaded_after(code, modules):
    """The modules of ``modules`` loaded after running ``code`` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = ("import sys\n" + code
            + f"print(' '.join(m for m in {modules!r} if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    assert _loaded_after("import hyperpam, hyperpam.cli, hyperpam.checks\n", HEAVY) == []


def test_statistical_checks_leave_scipy_stats_unloaded():
    code = ("import numpy as np\n"
            "from hyperpam import checks\n"
            "assert checks._check_sphere_direction_chi2(1.0, 5)['passed']\n"
            "x = np.random.default_rng(5).uniform(size=200)\n"
            "checks._ks_distance(x, lambda v: v)\n"
            "checks._ks_2samp_distance(x[:80], x[80:])\n")
    assert _loaded_after(code, ("scipy.stats",)) == []
