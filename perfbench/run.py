#!/usr/bin/env python3
"""The hyperpam benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Every execution of a workload is a fresh
process, ``python3 perfbench/probe.py -- <hyperpam CLI arguments>``, that
calls ``hyperpam.cli.main`` as the ``hyperpam`` command does.

``--trace 0`` measures the end-to-end metrics: a few set-up probes, then
executions of the workload until S seconds have passed (at least one).
``--trace 1`` makes one untraced and two traced executions and reports the
per-layer metrics.  Both check the outputs, print one line per check and per
metric, and print as the last line a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--record-reference FIRST-LAST`` instead runs a sweep workload once per seed
and stores its log_m2 values in ``perfbench/reference/<workload>.json``; the
output checks compare later runs against them.  perfbench/README.md explains
the workloads, the metrics and the checks.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference"
NPROC = len(os.sched_getaffinity(0))
RUN_LIMIT_S = 170.0  # every run ends within 180 s
SETUP_PROBES = 4
TARGET_SE = 0.01  # time_to_se_s projects the time until every cell has this stderr_log

# The BLAS/OpenMP pools stay at one thread: the program's BLAS calls are small
# (Gram matrices of <= 80 points, (P, 3) products), and the sweep pool already
# runs one worker per core.
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC), **{
    var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                         "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                         "NUMEXPR_NUM_THREADS")})

# Two estimators x two betas x four doubling horizons in each sweep; see README.md.
SWEEPS = {
    "sweep-phi": {"kind": "phi-alpha", "estimators": "fk,jensen", "n_paths": 1024,
                  "t": "1.25, 2.5, 5, 10", "workers": min(2, NPROC)},
    "sweep-tp-euclid": {"kind": "truncated-power", "estimators": "jensen,fk-euclidean",
                        "n_paths": 1024, "t": "5, 10, 20, 40", "workers": min(2, NPROC)},
}
WORKLOADS = (*SWEEPS, "validate-all")
CONFIG = """\
[model]
kind = {kind}
alpha = 0.5

[run]
dim = 3
step = 2e-3
n_paths = {n_paths}
seed = {seed}
estimators = {estimators}
workers = {workers}

[sweep]
beta = 0.2, 0.4
t = {t}
"""
SWEEP_FILES = ("rows.csv", "rows.json", "summary.json")
FIT_FIELDS = ("classification", "slope_linear", "r2_linear", "r2_power", "exponent_loglog")


@dataclasses.dataclass
class Execution:
    """One child process: its exit code, timings (s), peak memory and outputs."""

    rc: int
    setup_s: float | None
    wall_s: float | None
    rss_mb: float
    pool_start_s: float | None
    out: Path
    trace_dir: Path | None


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def execute(argv, rep_dir, deadline, setup_only=False, trace=False):
    """Run probe.py with the CLI arguments ``argv`` and measure it from outside."""
    rep_dir.mkdir(parents=True)
    events = rep_dir / "events"
    cmd = [sys.executable, str(HERE / "probe.py"), "--events", str(events)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--trace", str(rep_dir)]
    cmd += ["--", *argv]
    with open(rep_dir / "stdout", "w") as out, open(rep_dir / "stderr", "w") as err:
        begin = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV, stdout=out, stderr=err,
                                start_new_session=True)
        killer = threading.Timer(max(deadline - begin, 1.0), _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:  # killed at the deadline: make sure its workers are gone too
        _kill_group(proc.pid)
        _wait_group_gone(proc.pid)
    marks = {}
    if events.exists():
        for line in events.read_text().splitlines():
            label, _, stamp = line.split()
            marks.setdefault(label, []).append(float(stamp))
    start = min(marks["start"]) if "start" in marks else None
    return Execution(
        rc=proc.returncode,
        setup_s=None if start is None else start - begin,
        wall_s=None if start is None else end - start,
        rss_mb=usage.ru_maxrss / 1024.0,
        pool_start_s=start - min(marks["pool"]) if start and "pool" in marks else None,
        out=rep_dir / "out",
        trace_dir=rep_dir if trace else None)


def _wait_group_gone(pgid, limit_s=10.0):
    stop = time.monotonic() + limit_s
    while time.monotonic() < stop:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


# ------------------------------------------------------------------ workloads

class Workload:
    """The CLI arguments of one workload and the checks on its outputs."""

    def __init__(self, name, seed, run_dir):
        self.name = name
        self.seed = seed
        self.sweep = SWEEPS.get(name)
        if self.sweep is not None:
            self.config_text = CONFIG.format(seed=seed, **self.sweep)
            self.config = run_dir / "sweep.cfg"
            self.config.write_text(self.config_text)
        else:
            self.config_text = "validate --suite all"

    def argv(self, out):
        if self.sweep is not None:
            return ["phase-sweep", "--config", str(self.config), "--out", str(out)]
        return ["validate", "--suite", "all", "--out", str(out / "report.json")]

    def fingerprint(self, out):
        """Digest of the outputs that must repeat byte for byte (timings removed)."""
        h = hashlib.sha256()
        if self.sweep is not None:
            for name in SWEEP_FILES:
                h.update((out / name).read_bytes())
        else:
            report = json.loads((out / "report.json").read_text())
            report.pop("elapsed_s")
            for c in report["checks"]:
                c.pop("elapsed_s")
            h.update(json.dumps(report, sort_keys=True).encode())
        return h.hexdigest()

    def has_outputs(self, ex):
        names = SWEEP_FILES if self.sweep is not None else ("report.json",)
        return ex.rc in (0, 1) and all((ex.out / n).exists() for n in names)

    def check(self, ex):
        """Operations of one execution as (name, passed, detail) triples."""
        if self.sweep is None:
            return self._check_validate(ex)
        return self._check_sweep(ex)

    def _check_validate(self, ex):
        path = ex.out / "report.json"
        if ex.rc not in (0, 1) or not path.exists():
            return [("validate", False, f"exit code {ex.rc}, no report")]
        report = json.loads(path.read_text())
        ops = [(f"{c['suite']}/{c['name']}", c["passed"],
                f"observed={c['observed']:.3e} limit={c['effective_limit']:.3e}")
               for c in report["checks"]]
        ops.append(("all_passed", report["all_passed"] and ex.rc == 0, f"exit code {ex.rc}"))
        return ops

    def _check_sweep(self, ex):
        if ex.rc != 0 or not all((ex.out / f).exists() for f in SWEEP_FILES):
            return [("phase-sweep", False, f"exit code {ex.rc}")]
        rows = json.loads((ex.out / "rows.json").read_text())["rows"]
        summary = json.loads((ex.out / "summary.json").read_text())
        reference = load_reference(self.name)
        estimators = self.sweep["estimators"].split(",")
        betas = [0.2, 0.4]
        ts = [float(t) for t in self.sweep["t"].split(",")]
        ops = []
        for kind in estimators:
            for beta in betas:
                for t in ts:
                    key = cell_key(kind, beta, t)
                    row = [r for r in rows if cell_key(r["estimator_kind"], r["beta"], r["t"]) == key]
                    if len(row) != 1:
                        ops.append((key, False, "cell missing or failed"))
                        continue
                    ok, detail = window(reference, self.seed, key, row[0]["log_m2"])
                    ops.append((key, ok, detail))
        ops.append(("summary.errors", not summary["errors"], f"{len(summary['errors'])} errors"))
        ops.extend(self._check_fits(rows, summary["summaries"], estimators, betas))
        return ops

    @staticmethod
    def _check_fits(rows, summaries, estimators, betas):
        """Each <kind>:beta= fit must come from that estimator's rows alone."""
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from hyperpam import moments
        fields = {f.name for f in dataclasses.fields(moments.PhaseRow)}
        ops = []
        for kind in estimators:
            for beta in betas:
                key = f"{kind}:beta={beta:g}"
                own = [moments.PhaseRow(**{k: v for k, v in r.items() if k in fields})
                       for r in rows if r["estimator_kind"] == kind and r["beta"] == beta]
                want = dataclasses.asdict(moments.growth_fit(own, "linear-in-t"))
                got = summaries.get(key, {})
                bad = [f for f in FIT_FIELDS if not _same(got.get(f), want[f])]
                ops.append((f"summary {key}", not bad,
                            f"differs from the fit on its {len(own)} own rows in {bad}"
                            if bad else f"fit on its {len(own)} own rows"))
        return ops


def _same(a, b):
    if isinstance(b, float):
        return isinstance(a, float) and (a == b or (math.isnan(a) and math.isnan(b))
                                         or math.isclose(a, b, rel_tol=1e-12))
    return a == b


def cell_key(kind, beta, t):
    return f"{kind}|beta={float(beta):g}|t={float(t):g}"


def load_reference(name):
    path = REFERENCE / f"{name}.json"
    ref = json.loads(path.read_text())
    template = CONFIG.format(seed="{seed}", **SWEEPS[name])
    if ref["config"] != template:
        raise SystemExit(f"error: {path} was recorded for another {name} config")
    return ref


def window(reference, seed, key, log_m2):
    """Is log_m2 within the window around the seed commit's value at this seed?

    A seed recorded in the reference gets a quarter of that cell's stderr_log:
    a change of random streams or of the estimator fails, a quadrature change
    far below the Monte Carlo noise passes.  Another seed is compared with the
    mean over the recorded seeds, within five times their spread.
    """
    seeds = reference["seeds"]
    if str(seed) in seeds:
        value, stderr = seeds[str(seed)][key]
        tol = 0.25 * stderr
        return abs(log_m2 - value) <= tol, f"log_m2={log_m2!r} ref={value!r} tol={tol:.2e}"
    values = [cells[key][0] for cells in seeds.values()]
    mean = statistics.fmean(values)
    tol = 5.0 * statistics.stdev(values) * math.sqrt(1.0 + 1.0 / len(values))
    return (abs(log_m2 - mean) <= tol,
            f"log_m2={log_m2!r} mean over {len(values)} recorded seeds={mean!r} tol={tol:.2e}")


def time_to_se(workload, ex, wall_s):
    """wall_s * max over cells of (stderr_log / TARGET_SE)^2; wall_s for validate."""
    if workload.sweep is None or not (ex.out / "rows.json").exists():
        return wall_s
    rows = json.loads((ex.out / "rows.json").read_text())["rows"]
    return wall_s * max((r["stderr_log"] / TARGET_SE) ** 2 for r in rows)


def src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def rerun_check(workload, fingerprint):
    """Compare with the outputs an earlier run of this source and seed left, if any."""
    key = hashlib.sha256((src_digest() + workload.config_text).encode()).hexdigest()[:20]
    path = OUT / "digests" / f"{workload.name}-seed{workload.seed}-{key}"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(fingerprint)
        return []
    same = path.read_text() == fingerprint
    return [("outputs equal an earlier run's", same, "" if same else "outputs differ")]


# ----------------------------------------------------------------------- runs

def timed_run(workload, run_dir, seconds, deadline):
    """--trace 0: set-up probes, then executions for ``seconds``; end-to-end metrics."""
    ops = []
    setups = []
    for i in range(SETUP_PROBES):
        probe = execute(workload.argv(run_dir / f"probe{i}" / "out"), run_dir / f"probe{i}",
                        deadline, setup_only=True)
        ops.append((f"setup probe {i}", probe.setup_s is not None and probe.rc == 0,
                    f"exit code {probe.rc}"))
        if probe.setup_s is not None:
            setups.append(probe.setup_s)
    reps = []
    began = time.perf_counter()
    while not reps or time.perf_counter() - began < seconds:
        rep_dir = run_dir / f"rep{len(reps)}"
        ex = execute(workload.argv(rep_dir / "out"), rep_dir, deadline)
        reps.append(ex)
        ops.extend(workload.check(ex))
        if ex.wall_s is None:
            break
        setups.append(ex.setup_s)
        if len(reps) > 1 and workload.has_outputs(ex) and workload.has_outputs(reps[0]):
            same = workload.fingerprint(ex.out) == workload.fingerprint(reps[0].out)
            ops.append((f"rep{len(reps) - 1} outputs equal rep0's", same, ""))
        if time.perf_counter() + ex.setup_s + ex.wall_s > deadline:
            break
    good = [ex for ex in reps if ex.wall_s is not None]
    if workload.has_outputs(reps[0]):
        ops.extend(rerun_check(workload, workload.fingerprint(reps[0].out)))
    wall = statistics.median(ex.wall_s for ex in good) if good else 0.0
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "peak_rss_mb": (statistics.median(ex.rss_mb for ex in reps), "MB"),
        "time_to_se_s": (time_to_se(workload, reps[0], wall), "s"),
    }
    info = [f"executions={len(reps)} setup_probes={SETUP_PROBES} "
            f"walls_s={[round(ex.wall_s, 4) for ex in good]}"]
    return ops, metrics, info


def traced_run(workload, run_dir, deadline):
    """--trace 1: one untraced and two traced executions; per-layer metrics."""
    plain = execute(workload.argv(run_dir / "untraced" / "out"), run_dir / "untraced", deadline)
    ops = workload.check(plain)
    if plain.wall_s is None:
        return ops, {}, ["untraced execution failed"]
    reference = workload.fingerprint(plain.out) if workload.has_outputs(plain) else None
    traced, layers = [], []
    info = []
    for i in (1, 2):
        if time.perf_counter() + 1.25 * (plain.setup_s + plain.wall_s) > deadline:
            info.append(f"traced execution {i} skipped: it would end after the run limit")
            break
        ex = execute(workload.argv(run_dir / f"traced{i}" / "out"), run_dir / f"traced{i}",
                     deadline, trace=True)
        same = ex.rc == plain.rc and reference is not None \
            and workload.has_outputs(ex) and workload.fingerprint(ex.out) == reference
        ops.append((f"traced execution {i} outputs equal the untraced ones", same,
                    f"exit code {ex.rc}"))
        if ex.wall_s is None:
            break
        traced.append(ex)
        layers.append(tracing.layer_metrics(*tracing.load(ex.trace_dir)))
    if not layers:
        return ops, {}, info + ["no traced execution completed"]
    if len(layers) == 2:
        diff = [k for k in tracing.COUNTS if layers[0][k] != layers[1][k]]
        ops.append(("counts repeat exactly", not diff, f"differ: {diff}" if diff else ""))
    if reference is not None:
        ops.extend(rerun_check(workload, reference))
    metrics = {}
    for name, (value, unit) in layers[0].items():
        if name not in tracing.COUNTS:  # a timing or a ratio: the mean of the two
            value = statistics.fmean(m[name][0] for m in layers)
        metrics[name] = (value, unit)
    traced_wall = statistics.median(ex.wall_s for ex in traced)
    metrics["cli.pool_start_s"] = (plain.pool_start_s or 0.0, "s")
    metrics["cli.emit_bytes"] = (sum(p.stat().st_size for p in plain.out.iterdir()), "bytes")
    metrics["trace.wall_s_untraced"] = (plain.wall_s, "s")
    metrics["trace.wall_s_traced"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain.wall_s, "s")
    end_to_end = {
        "wall_s": (plain.wall_s, "s"), "setup_s": (plain.setup_s, "s"),
        "peak_rss_mb": (plain.rss_mb, "MB"),
        "time_to_se_s": (time_to_se(workload, plain, plain.wall_s), "s")}
    info.append(f"traced executions use workers={workload.sweep['workers']}"
                if workload.sweep else "traced executions run validate in one process")
    info += [f"end-to-end (untraced execution) {k} = {v!r} {u}"
             for k, (v, u) in end_to_end.items()]
    return ops, metrics, info


def record_reference(name, seeds):
    """Run a sweep once per seed and store (log_m2, stderr_log) of every cell."""
    path = REFERENCE / f"{name}.json"
    template = CONFIG.format(seed="{seed}", **SWEEPS[name])
    ref = json.loads(path.read_text()) if path.exists() else {"config": template, "seeds": {}}
    if ref["config"] != template:
        ref = {"config": template, "seeds": {}}
    for seed in seeds:
        run_dir = OUT / f"reference-{name}-seed{seed}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        workload = Workload(name, seed, run_dir)
        ex = execute(workload.argv(run_dir / "rep" / "out"), run_dir / "rep",
                     time.perf_counter() + 3600.0)
        if ex.rc != 0:
            raise SystemExit(f"error: {name} seed {seed} exited with {ex.rc}")
        rows = json.loads((run_dir / "rep" / "out" / "rows.json").read_text())["rows"]
        ref["seeds"][str(seed)] = {
            cell_key(r["estimator_kind"], r["beta"], r["t"]): [r["log_m2"], r["stderr_log"]]
            for r in rows}
        REFERENCE.mkdir(exist_ok=True)
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"recorded {name} seed {seed}", flush=True)


def environment():
    import numpy
    import scipy
    return {"nproc": NPROC, "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": CHILD_ENV["OMP_NUM_THREADS"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", metavar="FIRST-LAST", default=None)
    args = parser.parse_args()
    if not (SRC / "hyperpam" / "cli.py").is_file():
        print(f"error: {SRC / 'hyperpam'} not found; run from the root of a hyperpam "
              "checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.record_reference:
        if args.workload not in SWEEPS:
            parser.error("--record-reference needs a sweep workload")
        first, last = (int(s) for s in args.record_reference.split("-"))
        record_reference(args.workload, range(first, last + 1))
        return 0

    deadline = time.perf_counter() + RUN_LIMIT_S
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workload = Workload(args.workload, args.seed, run_dir)
    env = environment()
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    if args.trace:
        ops, metrics, info = traced_run(workload, run_dir, deadline)
    else:
        ops, metrics, info = timed_run(workload, run_dir, args.seconds, deadline)
    failed = sum(not ok for _, ok, _ in ops)
    if args.trace == 0:
        metrics["passed_frac"] = (1.0 - failed / len(ops), "ratio")
    for line in info:
        print(line)
    for name, ok, detail in ops:
        print(f"check {'PASS' if ok else 'FAIL'} {name} {detail}".rstrip())
    print(f"checks attempted={len(ops)} failed={failed} failed_frac={failed / len(ops):.6f}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    result = {"correct": failed == 0 and bool(metrics), "attempted": len(ops),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (run_dir / "result.json").write_text(json.dumps({"environment": env, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
