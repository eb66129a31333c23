"""Run one hyperpam CLI command in this process, as a child of the benchmark.

    python3 perfbench/probe.py --events FILE [--setup-only] [--trace DIR] -- ARGS...

ARGS go to ``hyperpam.cli.main`` unchanged.  Before the call, this script
wraps a few module attributes from outside the package:

* the first sweep cell or validate suite to start in each process appends
  ``start <pid> <time>`` to FILE, and creating a process pool appends
  ``pool <pid> <time>``.  Times come from ``time.perf_counter()``, which on
  Linux reads the system-wide monotonic clock, so the parent process can
  subtract its own readings from them;
* ``--setup-only`` makes every cell and suite return at once without doing
  any work, so the process measures import, config parsing and pool start;
* ``--trace DIR`` installs the span recorder of ``tracing.py``; every process
  of the run writes its spans into DIR when it ends.
"""

import argparse
import functools
import os
import sys
import time


def _marking(fn, label, events, replacement=None):
    """``fn`` (or ``replacement``) that first appends a timestamp line to ``events``."""
    marked = set()

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        pid = os.getpid()
        if pid not in marked:
            now = time.perf_counter()
            marked.add(pid)
            with open(events, "a") as fh:
                fh.write(f"{label} {pid} {now!r}\n")
        return (replacement or fn)(*args, **kwargs)
    return wrapper


def _skip_cell(args):
    kind, beta, t = args[:3]
    return kind, beta, t, None, "skipped: setup-only probe"


def _skip_suite(suite, tolerance_scale=1.0, seed=0):
    return {"suite": suite, "tolerance_scale": tolerance_scale, "seed": seed,
            "checks": [], "all_passed": True, "elapsed_s": 0.0}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--events", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    from hyperpam import checks, cli

    tracer = None
    if opts.trace:
        import tracing
        tracer = tracing.Tracer(opts.trace)
        tracing.install(tracer)
    skip = opts.setup_only
    cli._run_cell = _marking(cli._run_cell, "start", opts.events,
                             _skip_cell if skip else None)
    checks.run_suite = _marking(checks.run_suite, "start", opts.events,
                                _skip_suite if skip else None)
    cli.ProcessPoolExecutor = _marking(cli.ProcessPoolExecutor, "pool", opts.events)
    try:
        return cli.main(argv)
    finally:
        if tracer is not None:
            tracer.write()


if __name__ == "__main__":
    sys.exit(main())
