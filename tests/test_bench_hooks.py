"""The benchmark's hooks still attach.

``perfbench/`` wraps hyperpam functions by name from outside the package, so
a rename or a new signature of a traced function would otherwise break
``perfbench/run.py --trace 1`` without failing a test.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

SWEEP = """\
[model]
kind = truncated-power
alpha = 0.5

[run]
dim = 3
step = 1e-2
n_paths = 8
seed = 5
estimators = fk, fk-euclidean

[sweep]
beta = 0.5
t = 1, 2, 4
"""


def _probe(tmp_path, *opts, command=None, scheme="embedded-sde"):
    """Run ``command`` (default: a --workers 1 sweep under ``scheme``) through
    perfbench/probe.py.

    Returns (process, events file).
    """
    if command is None:
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP.replace("[run]\n", f"[run]\nscheme = {scheme}\n"))
        command = ["phase-sweep", "--config", str(cfg), "--workers", "1",
                   "--out", str(tmp_path / "out")]
    events = tmp_path / "events"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    cmd = [sys.executable, str(PERFBENCH / "probe.py"), "--events", str(events), *opts,
           "--", *command]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    return proc, events


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("scheme", ["embedded-sde", "geodesic-walk"])
def test_traced_sweep_counts_every_path_step(tmp_path, scheme):
    trace = tmp_path / "trace"
    trace.mkdir()
    proc, _ = _probe(tmp_path, "--trace", str(trace), scheme=scheme)
    assert proc.returncode == 0, proc.stderr
    tracing = _tracing()
    metrics = tracing.layer_metrics(*tracing.load(str(trace)))
    # one dt group: 8 pairs x 2 paths x 400 steps to t = 4, once per kernel,
    # with both kernels on one draw of 3 normals per path step from 16 streams
    assert metrics["brownian.path_steps." + scheme][0] == 6400
    assert metrics["moments.path_steps.flat"][0] == 6400
    assert metrics["brownian.rng_normals"][0] == 19_200
    assert metrics["brownian.streams"][0] == 16
    assert metrics["moments.cells"][0] == 2 * 3


def test_traced_validate_counts_the_exit_time_walkers(tmp_path):
    trace = tmp_path / "trace"
    trace.mkdir()
    proc, _ = _probe(tmp_path, "--trace", str(trace),
                     command=["validate", "--suite", "heatkernel"])
    assert proc.returncode == 0, proc.stderr
    tracing = _tracing()
    metrics = tracing.layer_metrics(*tracing.load(str(trace)))
    # the exit-tail check drives 3,000 walkers x 450 steps through exit_times,
    # 3 normals per step; the eigenvalue checks call dirichlet_eigenvalue 6 times
    assert metrics["brownian.path_steps.embedded-sde"][0] == 1_350_000
    assert metrics["brownian.rng_normals"][0] == 4_050_000
    assert metrics["heatkernel.eigen_calls"][0] == 6


def test_traced_lambda_counts_every_path_step(tmp_path):
    cfg = tmp_path / "lambda.cfg"
    cfg.write_text("[model]\nkind = truncated-power\nalpha = 2\n\n"
                   "[run]\ndim = 3\nstep = 0.1\nn_paths = 2\nseed = 5\n\n"
                   "[lambda]\nseparations = 0, 5, 10\n")
    trace = tmp_path / "trace"
    trace.mkdir()
    proc, _ = _probe(tmp_path, "--trace", str(trace),
                     command=["lambda", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert proc.returncode == 0, proc.stderr
    tracing = _tracing()
    metrics = tracing.layer_metrics(*tracing.load(str(trace)))
    # 3 start pairs x 2 pairs x 2 walkers x 500 steps to T_max = 50, each
    # walker on its own stream, 3 normals per step
    assert metrics["brownian.path_steps.embedded-sde"][0] == 6000
    assert metrics["brownian.rng_normals"][0] == 18_000
    assert metrics["brownian.streams"][0] == 12


def test_setup_only_probe_marks_one_start(tmp_path):
    proc, events = _probe(tmp_path, "--setup-only")
    assert proc.returncode == 0, proc.stderr
    assert [line.split()[0] for line in events.read_text().splitlines()] == ["start"]
