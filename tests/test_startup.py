"""Start-up cost: importing the CLI loads no scipy module, a truncated-power
sweep never loads one, a phi-alpha model loads ``scipy.special`` when it is
built, the statistical checks of ``validate`` never load ``scipy.stats``, and
neither the quadrature check nor the Dirichlet eigen-solver loads
``scipy.integrate``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _scipy_loaded_after(code):
    """The scipy modules loaded after running ``code`` in a fresh process
    (the last line of its output)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = ("import sys\n" + code
            + "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_cli_import_loads_no_scipy_module():
    assert _scipy_loaded_after("import hyperpam, hyperpam.cli, hyperpam.checks\n") == []


def test_truncated_power_sweep_loads_no_scipy_module(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text("[model]\nkind = truncated-power\nalpha = 2\n\n"
                      "[run]\nstep = 1e-2\nn_paths = 8\nseed = 5\n"
                      "estimators = fk, jensen, fk-euclidean\n\n"
                      "[sweep]\nbeta = 0.5\nt = 1, 2\n")
    code = ("from hyperpam.cli import main\n"
            f"assert main(['phase-sweep', '--config', {str(config)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}, '--workers', '1']) == 0\n")
    assert _scipy_loaded_after(code) == []
    assert (tmp_path / "out" / "rows.csv").is_file()


def test_phi_alpha_model_loads_scipy_special_when_built():
    tp = ("from hyperpam.covariance import CovarianceModel as M\n"
          "M('truncated-power', alpha=2)\n")
    assert _scipy_loaded_after(tp) == []
    assert "scipy.special" in _scipy_loaded_after(tp + "M('phi-alpha', alpha=0.5)\n")


def test_statistical_checks_leave_scipy_stats_unloaded():
    code = ("import numpy as np\n"
            "from hyperpam import checks\n"
            "assert checks._check_sphere_direction_chi2(1.0, 5)['passed']\n"
            "x = np.random.default_rng(5).uniform(size=200)\n"
            "checks._ks_distance(x, lambda v: v)\n"
            "checks._check_radial_law(1.0, 5)\n")
    assert "scipy.stats" not in _scipy_loaded_after(code)


def test_quadrature_check_and_eigen_solver_leave_scipy_integrate_unloaded():
    code = ("from hyperpam import checks, heatkernel\n"
            "assert checks._check_quadrature_consistency(1.0, 0)['passed']\n"
            "heatkernel.dirichlet_eigenvalue(2.0, 3)\n"
            "heatkernel.dirichlet_eigenfunction(2.0, 3, n_grid=50)\n")
    assert "scipy.integrate" not in _scipy_loaded_after(code)
