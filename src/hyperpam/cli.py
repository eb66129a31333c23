"""Batch experiment runner: sweeps, property-suite validation, and diagnostics.

Subcommands
-----------
phase-sweep   run the second-moment estimators over a (beta, t) grid and fit
              growth hypotheses per beta
validate      run the property-check suites, write a JSON report
lambda        estimate the uniform integral bound and the derived small-beta
              threshold
sample-path   dump Brownian trajectories as CSV
eigenvalue    principal Dirichlet eigenvalue of a geodesic ball

Exit codes: 0 success, 1 validation failure, 2 configuration error.  A count,
number or record the library refuses reaches the user through _checked, under
its config key or flag ("[run] workers: workers must be an integer >= 1, got 0").

Config files are flat INI-style key/value sections (diffable and hashable).
rows.csv has the config hash and master seed in a '#' header line; rows.json,
summary.json and lambda.json carry them as keys; the sample-path CSV header
and the validate report give the seed but no hash.  Reruns with the same
config or flags yield byte-identical files, except the validate report's
elapsed_s timings, at any worker count: phase-sweep shards its paths over
min(workers, available CPUs) processes, and validate runs its checks on up
to one process per available CPU (``taskset`` limits both).
"""

import argparse
import configparser
import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import brownian, checks, geometry, heatkernel, moments
from .checks import _available_cpus
from .covariance import CovarianceModel


# every key some command reads, by section
_KEYS = {
    "model": ("kind", "alpha", "C", "c"),
    "run": ("seed", "dim", "step", "scheme", "n_paths", "estimators", "workers"),
    "sweep": ("beta", "t"),
    "lambda": ("t_max", "separations", "n_paths"),
}


class ConfigError(Exception):
    """Invalid configuration; carries a human-readable, line-located message."""


def _line_of(text, section, key=None):
    """Best-effort line number of a section or key (ended by '=' or ':') in the config."""
    in_section = False
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            in_section = stripped == f"[{section}]"
            if key is None and in_section:
                return i
        elif key is not None and in_section \
                and re.split("[=:]", stripped, maxsplit=1)[0].strip() == key:
            return i
    return 0


class _Config:
    """Parsed experiment configuration."""

    def __init__(self, path):
        self.path = str(path)
        try:
            self.text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read config: {exc}") from exc
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.optionxform = str  # case-sensitive keys: [model] C and c differ
        try:
            parser.read_string(self.text)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        self.parser = parser
        self.hash = hashlib.sha256(self.text.encode()).hexdigest()[:16]
        # a key no command reads is most likely a typo: name it rather than run
        # without it; [DEFAULT] keys would reach every section, so it is unknown
        sections = parser.sections()
        if parser.defaults():
            sections.insert(0, parser.default_section)
        for section in sections:
            known = _KEYS.get(section)
            if known is None:
                self._fail(section, None, f"unknown section (known: {', '.join(_KEYS)})")
            for key in parser.options(section):
                if key not in known:
                    self._fail(section, key, f"unknown key (known: {', '.join(known)})")

    def _fail(self, section, key, message):
        line = _line_of(self.text, section, key)
        where = f"{self.path}:{line}" if line else self.path
        raise ConfigError(f"{where}: [{section}]{'' if key is None else ' ' + key}: {message}")

    def get(self, section, key, cast, default=None, required=False):
        if not self.parser.has_option(section, key):
            if required:
                self._fail(section, key, "missing required key")
            return default
        raw = self.parser.get(section, key)
        try:
            return cast(raw)
        except ValueError as exc:
            self._fail(section, key, f"cannot parse {raw!r}: {exc}")

    def count(self, section, key, default, high=None):
        """Integer key that must be at least 1 (and at most ``high``)."""
        return _checked(functools.partial(self._fail, section), geometry._count,
                        key, self.get(section, key, int, default=default), 1, high)

    def distinct(self, section, key, item, default=None):
        """Distinct values ``item(token)`` of a comma- or space-separated list;
        required without a default.  ``item`` raises ValueError on a bad token."""
        values = self.get(section, key,
                          lambda raw: [item(tok) for tok in raw.replace(",", " ").split()],
                          default, required=default is None)
        if not values:
            self._fail(section, key, "needs one or more values")
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            self._fail(section, key, f"lists {', '.join(map(str, repeated))} more than once")
        return values

    def floats(self, section, key, positive=False, default=None):
        """Distinct finite floats >= 0 (> 0 if ``positive``); required without a default."""
        values = self.distinct(section, key, float, default)
        for v in values:
            _checked(functools.partial(self._fail, section), geometry._positive,
                     key, v, low=None if positive else 0)
        return values

    def model(self):
        return _checked(functools.partial(self._fail, "model"), CovarianceModel,
                        kind=self.get("model", "kind", str, required=True),
                        alpha=self.get("model", "alpha", float),
                        C=self.get("model", "C", float, default=1.0),
                        c=self.get("model", "c", float, default=1.0))

    def sampler(self, seed_override=None):
        """The [run] SamplerConfig; a refused ``seed_override`` is named --seed."""
        def fail(key, message):
            if key == "seed" and seed_override is not None:
                _flag_error(key, message)
            self._fail("run", key, message)

        seed = seed_override if seed_override is not None \
            else self.get("run", "seed", int, required=True)
        return _checked(fail, brownian.SamplerConfig,
                        dim=self.get("run", "dim", int, default=3),
                        step=self.get("run", "step", float, default=1e-3),
                        scheme=self.get("run", "scheme", str, default="embedded-sde"),
                        seed=seed)


def _flag_error(key, message):
    """Raise the config error for command-line flag ``--key``."""
    raise ConfigError(f"--{key}: {message}")


def _checked(fail, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``; a geometry.ParameterError it raises goes to
    ``fail(name, message)``, which names the parameter's key or flag and raises.

    A record (SamplerConfig, CovarianceModel) checks its fields in order and
    names the first one it refuses, so it is built once.
    """
    try:
        return fn(*args, **kwargs)
    except geometry.ParameterError as exc:
        fail(*exc.args)


def _out_dir(path):
    """Create the directory ``path`` named by --out; a failure is a config error."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: cannot create directory {path}: {exc}") from exc
    return path


def _out_file(path):
    """Open the file ``path`` named by --out for writing; a failure is a config error."""
    _out_dir(path.parent)
    try:
        return open(path, "w")
    except OSError as exc:
        raise ConfigError(f"--out: cannot open {path}: {exc}") from exc


def _write_json(path, payload):
    """Write ``payload`` to the --out file ``path`` as indented JSON and a newline."""
    with _out_file(path) as fh:
        json.dump(payload, fh, indent=1, default=float)
        fh.write("\n")


_ESTIMATORS = {
    "fk": moments.fk_second_moment,
    "jensen": moments.jensen_lower,
    "fk-euclidean": moments.euclidean_second_moment,
}


def _run_cell(args):
    """One (estimator, beta, t) cell, read from the sweep's shared pair ensemble.

    Runs in the sweep's own process; the first cell of a dt group triggers
    that group's simulation, which the ensemble shards over the worker pool.
    Returns (kind, beta, t, row or None, error or None).  The error is that of
    a horizon that cannot be scheduled, a non-finite row or too many
    non-finite paths (a ValueError or an EstimatorError); any other exception
    is a fault of the program and propagates.
    """
    kind, beta, t, model, n_paths, sampler, ensemble = args
    try:
        est = _ESTIMATORS[kind](ensemble.x, t, beta, model, n_paths, sampler,
                                ensemble=ensemble)
        return kind, beta, t, moments.to_phase_row(est), None
    except (ValueError, moments.EstimatorError) as exc:  # keep the sweep alive
        return kind, beta, t, None, f"{type(exc).__name__}: {exc}"


def cmd_phase_sweep(args):
    cfg = _Config(args.config)
    model = cfg.model()
    sampler = cfg.sampler(args.seed)
    betas = cfg.floats("sweep", "beta")
    labels = [f"{beta:g}" for beta in betas]  # summary.json keys
    if len(set(labels)) < len(labels):
        cfg._fail("sweep", "beta", "values that agree to 6 significant digits share the "
                  f"summary key beta={next(k for k in labels if labels.count(k) > 1)}")
    ts = cfg.floats("sweep", "t", positive=True)
    n_paths = cfg.count("run", "n_paths", 1024, brownian.MAX_PATHS)
    estimators = cfg.distinct("run", "estimators", str, default=["fk"])
    for kind in estimators:
        if kind not in _ESTIMATORS:
            cfg._fail("run", "estimators",
                      f"unknown kind {kind!r} (choose from {sorted(_ESTIMATORS)})")
    # q <= F(0) t, so z = beta^2 q stays below beta^2 F(0) max t; jensen's
    # stderr squares z.  beta * beta overflows to inf where beta**2 raises
    f0 = model.sup_value()
    bound = f0 * max(ts)
    amplitude = "c" if model.kind == "constant" else "C"
    if not bound < math.inf:
        cfg._fail("model", amplitude, f"F(0) = {f0:g} times max t = {max(ts):g} overflows")
    # the limits on beta are joint: name the keys of F(0) and max t too
    of_key = "" if model.kind == "phi-alpha" else f" ([model] {amplitude})"
    joint = f"F(0) = {f0:g}{of_key} and max [sweep] t = {max(ts):g}"
    for beta in betas:
        z = beta * beta * bound
        if not z < math.inf:
            cfg._fail("sweep", "beta", f"{beta:g}: beta^2 F(0) max t overflows, at {joint}")
        if "jensen" in estimators and not z * z < math.inf:
            cfg._fail("sweep", "beta", f"{beta:g}: jensen squares beta^2 F(0) max t = {z:g}, "
                      f"which overflows, at {joint}")
    workers = cfg.count("run", "workers", 1) if args.workers is None \
        else _checked(_flag_error, geometry._count, "workers", args.workers, 1)
    problem = moments._euclidean_problem(model, sampler.dim)
    if "fk-euclidean" in estimators and problem:
        key, message = problem
        cfg._fail("run" if key == "dim" else "model", key, f"fk-euclidean: {message}")
    if model.kind == "constant":
        print("note: the constant profile has no spatial decay; it serves as "
              "an analytic oracle (log second moment = beta^2 c t)", file=sys.stderr)
    # the step budget grows with t: if the smallest horizon cannot be scheduled, none can
    try:
        brownian._schedule(min(ts), sampler.step)
    except ValueError as exc:
        cfg._fail("run", "step", f"{sampler.step:g} schedules no [sweep] t: {exc}")

    # workers shard the paths of each ensemble; the pool forks all its
    # workers up front: never more than can be used
    workers = min(workers, n_paths, _available_cpus())
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 \
            else contextlib.nullcontext() as pool:
        pmap = pool.map if pool else map
        kernels = {"flat" if kind == "fk-euclidean" else "hyperbolic" for kind in estimators}
        ensemble = moments.PairEnsemble(geometry.origin(sampler.dim), model, sampler,
                                        n_paths, ts, kernels=kernels, pmap=pmap,
                                        shards=workers)
        # simulation starts lazily, inside the first cell that needs it
        results = [_run_cell((kind, beta, t, model, n_paths, sampler, ensemble))
                   for kind in estimators for beta in betas for t in ts]
    results.sort(key=lambda r: (r[0], r[1], r[2]))

    rows = [r[3] for r in results if r[3] is not None]
    errors = [{"estimator": r[0], "beta": r[1], "t": r[2], "error": r[4]}
              for r in results if r[4] is not None]
    for err in errors:
        print(f"warning: cell {err['estimator']} beta={err['beta']} "
              f"t={err['t']} failed: {err['error']}", file=sys.stderr)

    out = _out_dir(Path(args.out))
    # workers deliberately not recorded: results are worker-count independent
    meta = {"config_hash": cfg.hash, "seed": sampler.seed, "model": model.label()}
    with _out_file(out / "rows.csv") as fh:
        moments.write_rows_csv(rows, fh, meta)
    with _out_file(out / "rows.json") as fh:
        moments.write_rows_json(rows, fh, meta)

    summaries = {}
    for kind in estimators:
        for beta in betas:
            sel = [r for r in rows
                   if r.estimator_kind == kind and r.beta == beta]
            key = f"{kind}:beta={beta:g}"
            if len({r.t for r in sel}) < 4:
                summaries[key] = {"note": "need >= 4 distinct t values"}
                continue
            alpha = model.alpha
            hyp = "power-t^{1-alpha}" if (alpha is not None and 0 < alpha < 1) \
                else "linear-in-t"
            fit = moments.growth_fit(sel, hyp)
            summaries[key] = {"hypothesis": hyp, **dataclasses.asdict(fit)}
    _write_json(out / "summary.json", {"meta": meta, "summaries": summaries, "errors": errors})
    print(f"wrote {out / 'rows.csv'}, rows={len(rows)}, errors={len(errors)}")
    return 0


def cmd_validate(args):
    # 0 is allowed and fails every check (the harness self-test)
    _checked(_flag_error, geometry._positive, "tolerance-scale", args.tolerance_scale, low=0)
    if args.seed is not None:  # the checks build SamplerConfigs from it
        _checked(_flag_error, geometry._count, "seed", args.seed, 0, brownian.MAX_SEED)
    report = checks.run_suite(args.suite, tolerance_scale=args.tolerance_scale, seed=args.seed)
    if args.out:
        _write_json(Path(args.out), report)
    for c in report["checks"]:
        status = "pass" if c["passed"] else "FAIL"
        print(f"[{status}] {c['suite']}/{c['name']}: observed={c['observed']:.3e} "
              f"limit={c['effective_limit']:.3e} ({c['elapsed_s']}s)")
    print(f"suite={report['suite']} all_passed={report['all_passed']} "
          f"elapsed={report['elapsed_s']}s")
    return 0 if report["all_passed"] else 1


def cmd_lambda(args):
    cfg = _Config(args.config)
    model = cfg.model()
    sampler = cfg.sampler(args.seed)
    t_max = cfg.get("lambda", "t_max", float, default=50.0)
    # this limit is t_max's own: the run's refusals below name the keys they rest on
    _checked(lambda _, message: cfg._fail("lambda", "t_max", message), geometry._positive,
             "T_max", t_max, low=moments.MIN_T_MAX)
    seps = cfg.floats("lambda", "separations", default=[0.0, 5.0, 10.0])
    if max(seps) > geometry.MAX_RADIUS:  # cosh overflows beyond a separation of about 710
        cfg._fail("lambda", "separations",
                  f"values must be at most {geometry.MAX_RADIUS:g}, got {seps}")
    # [lambda] n_paths overrides [run] n_paths
    n_paths = cfg.count("lambda" if cfg.parser.has_option("lambda", "n_paths")
                        else "run", "n_paths", 512, brownian.MAX_PATHS)
    # the slice means sum n_paths profile values, and the integral's terms add
    # up to F(0) T_max (t_max is finite by now)
    f0 = model.sup_value()
    if not f0 * max(n_paths, t_max) < math.inf:
        cfg._fail("model", "c" if model.kind == "constant" else "C",
                  f"F(0) = {f0:g} times n_paths = {n_paths} or t_max = {t_max:g} overflows")
    o = geometry.origin(sampler.dim)
    pairs = [(o, geometry.HPoint(y, sampler.dim))
             for y in geometry.points_from_polar(np.array(seps), np.eye(sampler.dim)[0])]
    try:
        result = moments.lambda_constant(model, pairs, t_max, n_paths, sampler)
    except geometry.ParameterError as exc:  # no tail fit: a joint limit of the fit's keys
        keys = f"[lambda] separations = {seps}, [model] alpha = {model.alpha:g}"
        if model.kind == "truncated-power":
            keys += f" and [model] C = {model.C:g}"
        cfg._fail("lambda", "t_max", f"{exc} (with {keys})")
    except (ValueError, moments.NonFiniteError) as exc:  # a horizon that cannot run
        cfg._fail("lambda", "t_max", f"{exc} (with [run] dim = {sampler.dim} and "
                  f"[run] step = {sampler.step:g})")
    except moments.EstimatorError as exc:  # a profile with no finite tail integral
        cfg._fail("model", "kind" if model.kind == "constant" else "alpha", str(exc))
    result["model"] = model.label()
    result["config_hash"] = cfg.hash
    out = _out_dir(Path(args.out))
    _write_json(out / "lambda.json", result)
    print(f"lambda_hat={result['lambda_hat']:.6f} "
          f"beta0_hat={result['beta0_hat']:.6f} -> {out / 'lambda.json'}")
    return 0


def cmd_sample_path(args):
    _checked(_flag_error, geometry._positive, "t", args.t)
    _checked(_flag_error, geometry._count, "n-paths", args.n_paths, 1, brownian.MAX_PATHS)
    sampler = _checked(_flag_error, brownian.SamplerConfig, dim=args.dim, step=args.step,
                       scheme=args.scheme, seed=args.seed)
    x0 = geometry.origin(args.dim)
    try:
        paths = [brownian.sample_path(x0, args.t, sampler, path_index=i)
                 for i in range(args.n_paths)]
    except ValueError as exc:  # a horizon that cannot be scheduled at this step
        raise ConfigError(f"--t: {exc} (with --step {args.step:g})") from exc
    out = Path(args.out)
    with _out_file(out) as fh:
        fh.write(f"# config_hash=- seed={sampler.seed} scheme={sampler.scheme} "
                 f"step={sampler.step!r}\n")
        brownian.dump_paths_csv(paths, fh)
    print(f"wrote {out} ({args.n_paths} paths, horizon t={args.t})")
    return 0


def cmd_eigenvalue(args):
    _checked(_flag_error, geometry._count, "dim", args.dim, 2, heatkernel.MAX_DIM)
    lam = _checked(_flag_error, heatkernel.dirichlet_eigenvalue, args.r, args.dim, args.mode)
    print(f"lambda({args.mode}, r={args.r:g}, d={args.dim}) = {lam!r}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="hyperpam", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("phase-sweep", help="run estimator sweeps over (beta, t)")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--seed", type=int, default=None, help="override [run] seed")
    sweep.add_argument("--workers", type=int, default=None)
    sweep.add_argument("--out", default="out")
    sweep.set_defaults(func=cmd_phase_sweep)

    val = sub.add_parser("validate", help="run the property-check suites")
    val.add_argument("--suite", default="all",
                     choices=[*checks.SUITES, "all"])
    val.add_argument("--tolerance-scale", type=float, default=1.0,
                     help="multiply every limit; 0 fails every check (harness self-test)")
    val.add_argument("--seed", type=int, default=None)
    val.add_argument("--out", default=None, help="write the JSON report here")
    val.set_defaults(func=cmd_validate)

    lam = sub.add_parser("lambda", help="integral bound and small-beta threshold")
    lam.add_argument("--config", required=True)
    lam.add_argument("--seed", type=int, default=None)
    lam.add_argument("--out", default="out")
    lam.set_defaults(func=cmd_lambda)

    sp = sub.add_parser("sample-path", help="dump Brownian trajectories as CSV")
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--n-paths", type=int, default=1)
    sp.add_argument("--dim", type=int, default=3)
    sp.add_argument("--step", type=float, default=1e-3)
    sp.add_argument("--scheme", default="embedded-sde", choices=brownian._SCHEMES)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default="paths.csv")
    sp.set_defaults(func=cmd_sample_path)

    eig = sub.add_parser("eigenvalue", help="principal Dirichlet eigenvalue")
    eig.add_argument("--r", type=float, required=True)
    eig.add_argument("--dim", type=int, default=3)
    eig.add_argument("--mode", default="hyperbolic",
                     choices=["hyperbolic", "euclidean"])
    eig.set_defaults(func=cmd_eigenvalue)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, moments.EstimatorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console():
    """Console entry point: :func:`main`, but a closed stdout (``hyperpam ... | head``)
    ends quietly with 141, as after SIGPIPE; the outputs are written by then."""
    try:
        rc = main()
        sys.stdout.flush()  # a closed pipe may fail only at this last flush
        return rc
    except BrokenPipeError:
        # so the interpreter's own flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(console())
