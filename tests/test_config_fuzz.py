"""Every config or flag that a command refuses exits 2 naming its key (ROADMAP item 22).

One key of a small valid config (``phase-sweep``, ``lambda``) or one flag of
a small valid command line (``sample-path``, ``eigenvalue``) takes one value
from a list of hostile ones, and :func:`cli.main` runs in-process.  Each
example holds that:

* the exit code is 0 or 2, and no exception escapes ``main`` (argparse's own
  ``SystemExit(2)`` counts as exit 2: it is how the CLI refuses a flag);
* with 2, stderr names the mutated key (``[section] key`` or ``--flag``);
  a joint limit names every key it depends on, so the mutated one too;
* with 0, every cell error in ``summary.json`` depends on the paths
  (``NonFiniteError``), and every growth fit has a finite R^2.

The explicit examples are the regressions this test was written with; a
few set other keys of the base config first (``also``).

pyproject's ``filterwarnings = ["error"]`` holds here too, so a numpy
warning reached on the way fails the example instead of passing unseen.
No valid example is left out for its cost: the largest does about 2e5 path
steps (200 paths), and the whole test runs in a few seconds.
"""

import atexit
import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from hyperpam import cli

SWEEP = {
    "model": {"kind": "truncated-power", "alpha": "0.5", "C": "1", "c": "1"},
    "run": {"dim": "3", "step": "0.05", "scheme": "embedded-sde", "seed": "5",
            "n_paths": "2", "estimators": "fk, jensen, fk-euclidean", "workers": "1"},
    "sweep": {"beta": "0.5", "t": "0.25, 0.5, 0.75, 1"},
}
LAMBDA = {
    "model": {"kind": "truncated-power", "alpha": "2", "C": "1", "c": "1"},
    "run": {"dim": "3", "step": "0.1", "scheme": "embedded-sde", "seed": "5"},
    "lambda": {"t_max": "50", "separations": "0, 5", "n_paths": "2"},
}
FLAGS = {
    "sample-path": {"t": "0.5", "n-paths": "2", "dim": "3", "step": "0.05",
                    "scheme": "embedded-sde", "seed": "0"},
    "eigenvalue": {"r": "1", "dim": "3", "mode": "hyperbolic"},
}
# Hypothesis caches the constants of the modules it sees under its home
# directory, .hypothesis/ in the working directory unless set, from test
# collection on: keep it out of the tree (database=None below keeps the example
# database out too)
_HOME = tempfile.mkdtemp(prefix="hyperpam-hypothesis-")
atexit.register(shutil.rmtree, _HOME, True)
set_hypothesis_home_dir(_HOME)

TARGETS = [("phase-sweep", section, key) for section in SWEEP for key in SWEEP[section]] \
    + [("lambda", section, key) for section in LAMBDA for key in LAMBDA[section]] \
    + [(command, None, flag) for command in FLAGS for flag in FLAGS[command]]
VALUES = ["nan", "inf", "-inf", "0", "-0", "-1", "1e-300", "5e-324", "1e308", "200", "1e9",
          "True", "abc", "constant", "phi-alpha", "geodesic-walk", "0.5, 0.5", "", "1, 2"]


class _SerialPool:
    """Stand-in for ProcessPoolExecutor: maps in this process, starts none."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    map = staticmethod(map)


def _config_text(base, changes):
    sections = {s: dict(keys) for s, keys in base.items()}
    for section, key, value in changes:
        sections[section][key] = value
    return "".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
                   for s, keys in sections.items())


def _run(command, section, key, value, also, tmp):
    """(argv, exit code, stderr) of the command with one key or flag set to ``value``,
    after the (section, key, value) changes ``also`` to the base config."""
    out = tmp / "out"
    if section is None:  # a flag
        flags = {**FLAGS[command], key: value}
        argv = [command, *(f"--{k}={v}" for k, v in flags.items())]
        if command == "sample-path":
            argv.append(f"--out={out / 'paths.csv'}")
    else:
        config = tmp / "exp.cfg"
        base = SWEEP if command == "phase-sweep" else LAMBDA
        config.write_text(_config_text(base, [*also, (section, key, value)]))
        argv = [command, "--config", str(config), "--out", str(out)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            mock.patch.object(cli, "ProcessPoolExecutor", _SerialPool):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse refuses a flag value
            rc = exc.code
    return argv, rc, err.getvalue()


def _check(command, section, key, value, also=()):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv, rc, err = _run(command, section, key, value, also, tmp)
        assert rc in (0, 2), (argv, rc, err)
        if rc == 2:
            named = f"--{key}" if section is None else f"[{section}] {key}"
            assert named in err, (argv, err)
        elif command == "phase-sweep":
            summary = json.loads((tmp / "out" / "summary.json").read_text())
            errors = summary["errors"]
            assert all(e["error"].startswith("NonFiniteError: ") for e in errors), errors
            fits = [f for f in summary["summaries"].values() if "r_squared" in f]
            assert all(math.isfinite(f["r_squared"]) and math.isfinite(f["r2_linear"])
                       for f in fits), fits


_PHI = (("model", "kind", "phi-alpha"),)
_FIT = (("run", "estimators", "fk"), ("sweep", "t", "1, 2, 3, 4"))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(target=st.sampled_from(TARGETS), value=st.sampled_from(VALUES), also=st.just(()))
# a subnormal horizon crashed in brownian._schedule: int(0.05 / dt) is int(inf)
@example(target=("phase-sweep", "sweep", "t"), value="5e-324, 0.5, 0.75, 1", also=())
@example(target=("sample-path", None, "t"), value="5e-324", also=())
# Gamma(200) overflowed in math.gamma, and (1 + rho)^1e9 with a RuntimeWarning
@example(target=("phase-sweep", "model", "alpha"), value="200", also=_PHI)
@example(target=("lambda", "model", "alpha"), value="200", also=_PHI)
@example(target=("phase-sweep", "model", "alpha"), value="1e9", also=())
# lambda: exit 2 naming no key, a numpy overflow, and Infinity written with exit 0;
# walkers past the overflow radius at d = 200 leaked numpy warnings
@example(target=("lambda", "model", "alpha"), value="1", also=())
@example(target=("lambda", "model", "kind"), value="constant", also=())
@example(target=("lambda", "lambda", "separations"), value="0, 800", also=())
@example(target=("lambda", "model", "C"), value="1e308", also=())
@example(target=("lambda", "run", "dim"), value="200", also=())
# the growth fit squared log moments near 1e199, and weights of 1e24
@example(target=("phase-sweep", "model", "C"), value="4e199", also=_FIT)
@example(target=("phase-sweep", "model", "c"), value="1e150",
         also=(*_FIT, ("model", "kind", "constant"), ("sweep", "beta", "1")))
# joint limits: a horizon with the step, beta^2 F(0) max t with its three keys
@example(target=("lambda", "run", "step"), value="1e-300", also=())
@example(target=("sample-path", None, "step"), value="1e-300", also=())
@example(target=("phase-sweep", "sweep", "t"), value="1e308", also=())
@example(target=("phase-sweep", "model", "C"), value="1e308", also=())
@example(target=("eigenvalue", None, "r"), value="1e-300", also=())
def test_one_bad_key_exits_2_naming_it(target, value, also):
    _check(*target, value, also)
