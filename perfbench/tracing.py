"""Span recording around hyperpam's layers, and the per-layer metrics built from it.

The recorder wraps module attributes from outside the package, so nothing
under ``src/`` changes.  A span is ``(id, parent id, name, tag, start, end)``
with times from ``time.perf_counter()``; the tag carries the scheme,
covariance kind or check a span belongs to.  Spans and exact counters stay in
memory and each process writes them once, when it ends, to
``<dir>/trace-<pid>.json``; the directory names the run.  Pool workers
started by ``fork`` drop the copy of their parent's spans and register their
own write with ``multiprocessing.util.Finalize``, which runs when a worker
exits normally.
"""

import functools
import inspect
import json
import multiprocessing.util
import os
import time
from collections import Counter

# Spans that step Brownian paths: their self time is stepping work.
WALKS = ("brownian.pair_profile_matrix", "brownian.endpoints", "brownian.exit_times")


def _n_steps(t, step):
    """Steps to horizon t; the same rule as brownian._schedule."""
    return max(1, int(round(t / step)))


def _key(point):
    return getattr(point, "coords", point).tobytes().hex()


class _Stream:
    """A per-path random stream whose standard_normal calls are timed and counted."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        out = self._tracer.call("brownian.rng", "", self._gen.standard_normal,
                                args, kwargs)
        self._tracer.counts["brownian.rng_normals"] += getattr(out, "size", 1)
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    """Spans and counters of one process."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self._adopt(register_exit=False)

    def _adopt(self, register_exit):
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.ensembles = {}
        if register_exit:
            multiprocessing.util.Finalize(None, self.write, exitpriority=10)

    def call(self, name, tag, fn, args, kwargs):
        if os.getpid() != self.pid:  # first span in a forked pool worker
            self._adopt(register_exit=True)
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = (sid, parent, name, tag, start, end)

    def wrap(self, fn, name, tag=None, count=None):
        """``fn`` recorded as span ``name``; ``tag``/``count`` see its bound arguments."""
        sig = inspect.signature(fn) if (tag or count) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = ""
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                arg = bound.arguments
                if count is not None:
                    count(self, arg)
                if tag is not None:
                    label = tag(arg)
            return self.call(name, label, fn, args, kwargs)
        return wrapper

    def ensemble(self, key, n_paths, t):
        """Record one simulated ensemble: n_paths pairs driven to horizon t."""
        self.counts["moments.pair_time_simulated"] += n_paths * t
        self.ensembles[key] = [n_paths, max(self.ensembles.get(key, [0, 0.0])[1], t)]

    def write(self):
        if os.getpid() != self.pid:
            return
        path = os.path.join(self.out_dir, f"trace-{self.pid}.json")
        with open(path, "w") as fh:
            json.dump({"run_id": self.out_dir, "pid": self.pid,
                       "spans": [s for s in self.spans if s],
                       "counts": dict(self.counts),
                       "ensembles": self.ensembles}, fh)


def _count_walk(pairs_per_path):
    def count(tracer, a):
        horizon = a["t_max"] if "t_max" in a else a["t"]
        steps = a["n_paths"] * pairs_per_path * _n_steps(horizon, a["cfg"].step)
        tracer.counts["brownian.path_steps." + a["cfg"].scheme] += steps
    return count


def _count_pairs(tracer, a):
    _count_walk(2)(tracer, a)
    cfg = a["cfg"]
    key = ("hyperbolic", _key(a["x0"]), _key(a["y0"]), cfg.dim, cfg.step,
           cfg.scheme, cfg.seed, a["first_index"], a["n_paths"])
    tracer.ensemble(repr(key), a["n_paths"], a["t"])


def _count_flat(tracer, a):
    cfg = a["cfg"]
    tracer.counts["moments.path_steps.flat"] += 2 * a["n_paths"] * _n_steps(a["t"], cfg.step)
    key = ("flat", cfg.dim, cfg.step, cfg.seed, a["first_index"], a["n_paths"])
    tracer.ensemble(repr(key), a["n_paths"], a["t"])


def _scheme(a):
    return a["cfg"].scheme


def install(tracer):
    """Wrap every traced attribute of the hyperpam modules."""
    from hyperpam import brownian, checks, cli, covariance, geometry, heatkernel, moments

    stream = brownian.path_stream

    def traced_stream(*args, **kwargs):
        tracer.counts["brownian.streams"] += 1
        return _Stream(tracer.call("brownian.stream", "", stream, args, kwargs), tracer)

    brownian.path_stream = moments.path_stream = traced_stream

    brownian.pair_profile_matrix = tracer.wrap(
        brownian.pair_profile_matrix, WALKS[0], _scheme, _count_pairs)
    brownian.endpoints = tracer.wrap(brownian.endpoints, WALKS[1], _scheme, _count_walk(1))
    brownian.exit_times = tracer.wrap(brownian.exit_times, WALKS[2], _scheme, _count_walk(1))
    moments._euclidean_pair_profile_matrix = tracer.wrap(
        moments._euclidean_pair_profile_matrix, "moments.flat_walk", count=_count_flat)

    profile = covariance.CovarianceModel.profile

    def traced_profile(model, rho):
        tracer.counts["covariance.profile_points." + model.kind] += getattr(rho, "size", 1)
        return tracer.call("covariance.profile", model.kind, profile, (model, rho), {})

    covariance.CovarianceModel.profile = functools.wraps(profile)(traced_profile)
    covariance.lower_incomplete_gamma = tracer.wrap(
        covariance.lower_incomplete_gamma, "covariance.incgamma")

    estimators = {}
    for attr, kind in (("fk_second_moment", "fk"), ("jensen_lower", "jensen"),
                       ("euclidean_second_moment", "fk-euclidean")):
        original = getattr(moments, attr)
        estimators[original] = tracer.wrap(original, "moments.estimate", lambda a, k=kind: k)
        setattr(moments, attr, estimators[original])
    for kind, fn in list(cli._ESTIMATORS.items()):
        cli._ESTIMATORS[kind] = estimators.get(fn, fn)
    moments.growth_fit = tracer.wrap(moments.growth_fit, "moments.fit")
    for attr in ("write_rows_csv", "write_rows_json"):
        setattr(moments, attr, tracer.wrap(getattr(moments, attr), "cli.emit", lambda a, n=attr: n))

    heatkernel.dirichlet_eigenvalue = tracer.wrap(
        heatkernel.dirichlet_eigenvalue, "heatkernel.dirichlet_eigenvalue")
    heatkernel.solve_ivp = tracer.wrap(heatkernel.solve_ivp, "heatkernel.solve_ivp")
    heatkernel.exit_tail_estimate = tracer.wrap(
        heatkernel.exit_tail_estimate, "heatkernel.exit_tail_estimate")

    for name, fn in list(vars(geometry).items()):
        if inspect.isfunction(fn) and fn.__module__ == geometry.__name__ \
                and not name.startswith("_"):
            setattr(geometry, name, tracer.wrap(fn, "geometry." + name))

    for method in ("__init__", "get", "floats", "model", "sampler"):
        setattr(cli._Config, method, tracer.wrap(getattr(cli._Config, method), "cli.config"))
    dump = tracer.wrap(cli.json.dump, "cli.emit", lambda a: "dump")

    class _Json:
        def __getattr__(self, name):
            return dump if name == "dump" else getattr(json, name)

    cli.json = _Json()
    cli._run_cell = tracer.wrap(cli._run_cell, "cli.cell")

    for suite, fns in checks.SUITES.items():
        fns[:] = [tracer.wrap(fn, "checks.check", lambda a, s=suite, n=fn.__name__: f"{s}/{n}")
                  for fn in fns]


# ----------------------------------------------------------------- analysis

def load(trace_dir):
    """Merged records of every process that wrote into ``trace_dir``: one run."""
    spans, counts, ensembles = [], Counter(), {}
    for name in sorted(os.listdir(trace_dir)):
        if not (name.startswith("trace-") and name.endswith(".json")):
            continue
        with open(os.path.join(trace_dir, name)) as fh:
            rec = json.load(fh)
        if rec["run_id"] != str(trace_dir):
            raise ValueError(f"{name} belongs to run {rec['run_id']}, not {trace_dir}")
        spans.extend([rec["pid"]] + s for s in rec["spans"])
        counts.update(rec["counts"])
        for key, (n_paths, t) in rec["ensembles"].items():
            ensembles[key] = [n_paths, max(ensembles.get(key, [0, 0.0])[1], t)]
    return spans, counts, ensembles


def layer_metrics(spans, counts, ensembles):
    """Per-layer metrics: name -> (value, unit)."""
    by_id = {(s[0], s[1]): s for s in spans}
    child = Counter()
    for pid, _, parent, _, _, start, end in spans:
        if parent >= 0:
            child[(pid, parent)] += end - start

    def parent_name(s):
        p = by_id.get((s[0], s[2]))
        return p[3] if p else ""

    def dur(s):
        return s[6] - s[5]

    def self_time(s):
        return dur(s) - child[(s[0], s[1])]

    def pick(name, tag=None, outermost=False):
        return [s for s in spans if s[3] == name and (tag is None or s[4] == tag)
                and not (outermost and parent_name(s) == name)]

    def total(sel):
        return sum(dur(s) for s in sel)

    def ns_per(seconds, n):
        return seconds / n * 1e9 if n else 0.0

    m = {}
    points = {k: counts.get("covariance.profile_points." + k, 0)
              for k in ("phi-alpha", "truncated-power", "constant")}
    m["covariance.profile_s"] = (total(pick("covariance.profile")), "s")
    m["covariance.incgamma_s"] = (total(pick("covariance.incgamma", outermost=True)), "s")
    m["covariance.profile_calls"] = (len(pick("covariance.profile")), "count")
    m["covariance.profile_points"] = (sum(points.values()), "count")
    for kind in ("phi-alpha", "truncated-power"):
        m["covariance.profile_points." + kind] = (points[kind], "count")
        m["covariance.ns_per_point." + kind] = (
            ns_per(total(pick("covariance.profile", kind)), points[kind]), "ns")

    walks = [s for s in spans if s[3] in WALKS]
    steps = {k: counts.get("brownian.path_steps." + k, 0)
             for k in ("embedded-sde", "geodesic-walk")}
    m["brownian.self_s"] = (sum(self_time(s) for s in walks), "s")
    m["brownian.path_steps"] = (sum(steps.values()), "count")
    for scheme, n in steps.items():
        m["brownian.path_steps." + scheme] = (n, "count")
        m["brownian.ns_per_path_step." + scheme] = (
            ns_per(sum(self_time(s) for s in walks if s[4] == scheme), n), "ns")
    normals = counts.get("brownian.rng_normals", 0)
    rng_s = total(pick("brownian.rng"))
    m["brownian.rng_normals"] = (normals, "count")
    m["brownian.rng_s"] = (rng_s, "s")
    m["brownian.rng_normals_per_s"] = (normals / rng_s if rng_s else 0.0, "1/s")
    m["brownian.streams"] = (counts.get("brownian.streams", 0), "count")
    m["brownian.stream_s"] = (total(pick("brownian.stream")), "s")

    flat_s = sum(self_time(s) for s in pick("moments.flat_walk"))
    flat_steps = counts.get("moments.path_steps.flat", 0)
    m["moments.flat_walk_s"] = (flat_s, "s")
    m["moments.path_steps.flat"] = (flat_steps, "count")
    m["moments.ns_per_path_step.flat"] = (ns_per(flat_s, flat_steps), "ns")
    simulated = counts.get("moments.pair_time_simulated", 0)
    needed = sum(n_paths * t for n_paths, t in ensembles.values())
    m["moments.pair_time_simulated"] = (simulated, "count")
    m["moments.pair_time_needed"] = (needed, "count")
    m["moments.sim_useful_ratio"] = (needed / simulated if simulated else 0.0, "ratio")
    m["moments.reduce_s"] = (sum(self_time(s) for s in pick("moments.estimate")), "s")
    m["moments.fit_s"] = (total(pick("moments.fit")), "s")
    m["moments.cells"] = (len(pick("moments.estimate")), "count")

    m["heatkernel.eigen_calls"] = (len(pick("heatkernel.dirichlet_eigenvalue")), "count")
    m["heatkernel.ivp_solves"] = (len(pick("heatkernel.solve_ivp")), "count")
    m["heatkernel.eigen_s"] = (total(pick("heatkernel.dirichlet_eigenvalue")), "s")
    m["heatkernel.exit_tail_s"] = (total(pick("heatkernel.exit_tail_estimate")), "s")

    geo = [s for s in spans if s[3].startswith("geometry.")]
    m["geometry.calls"] = (len(geo), "count")
    m["geometry.s"] = (sum(dur(s) for s in geo
                           if not parent_name(s).startswith("geometry.")), "s")

    m["cli.config_s"] = (total(pick("cli.config", outermost=True)), "s")
    m["cli.emit_s"] = (total(pick("cli.emit")), "s")
    for suite in ("geometry", "heatkernel", "brownian", "covariance"):
        m["checks.suite_s." + suite] = (
            sum(dur(s) for s in pick("checks.check") if s[4].startswith(suite + "/")), "s")
    return m


# Metrics that are exact counts; two traced runs of one commit must agree on them.
COUNTS = ("brownian.path_steps", "brownian.path_steps.embedded-sde",
                "brownian.path_steps.geodesic-walk", "brownian.rng_normals",
                "brownian.streams", "covariance.profile_calls", "covariance.profile_points",
                "covariance.profile_points.phi-alpha",
                "covariance.profile_points.truncated-power", "moments.path_steps.flat",
                "moments.pair_time_simulated", "moments.pair_time_needed", "moments.cells",
                "heatkernel.eigen_calls", "heatkernel.ivp_solves", "geometry.calls")
