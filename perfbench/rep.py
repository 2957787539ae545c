"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N --rep I --trace 0|1
        --spawned-ns T [--smoke]

``T`` is the parent's ``time.monotonic_ns()`` just before it started
this interpreter, so ``setup_s`` covers interpreter start, imports and
the workload's input and temp-path setup, up to the timed call.  The
timed call is the user-facing entry point, ``repro.__main__.main``,
with its output captured; it ends when the verdict returns.

Prints one JSON line: the measurements ``run.py`` aggregates and
gates.  With ``--trace 1`` the layer entry points are wrapped first
(see :mod:`workloads`), and the spans are written to
``.perfbench_out/spans-<workload>.spans`` once the run has ended.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def _peak_rss_mb() -> float:
    """The larger of this process's peak RSS and its largest reaped
    child's (the process runtime's server and workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro.__main__ as cli
    from workloads import (
        WORKLOADS, Paths, Probe, install_tracing, layer_metrics,
        parse_check_table,
    )

    workload = WORKLOADS[args.workload]
    for module in workload.imports:
        importlib.import_module(module)
    ops = workload.smoke_ops if args.smoke else workload.ops
    tmp = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    stem = os.path.join(tmp, f"{os.getpid()}-{workload.name}")
    paths = Paths(record=stem + ".record.jsonl",
                  event_log=stem + ".events.jsonl")
    paths.clear()
    argv = workload.argv(args.seed, ops, paths)

    if workload.one_cpu and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    tracer = probe = None
    if args.trace:
        from spans import Tracer

        tracer, probe = Tracer(run_id=args.rep), Probe()
        install_tracing(tracer, probe)
        os.register_at_fork(after_in_child=tracer.uninstall)

    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        c0 = time.process_time_ns()
        w0 = time.perf_counter_ns()
        exit_code = cli.main(argv)
        w1 = time.perf_counter_ns()
        c1 = time.process_time_ns()
    if tracer is not None:
        tracer.uninstall()

    rep = {
        "workload": workload.name,
        "rep": args.rep,
        "traced": bool(args.trace),
        "argv": argv,
        "ops": ops,
        "exit_code": exit_code,
        "setup_s": setup_s,
        "wall_s": (w1 - w0) / 1e9,
        "cpu_s": (c1 - c0) / 1e9,
        "peak_rss_mb": _peak_rss_mb(),
        "record": None,
        "rows": [],
        "event_log_bytes": 0,
    }
    if workload.kind == "check":
        rep["rows"] = parse_check_table(captured.getvalue())
    elif os.path.exists(paths.record):
        with open(paths.record, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        rep["record"] = json.loads(lines[-1]) if lines else None
    if os.path.exists(paths.event_log):
        rep["event_log_bytes"] = os.path.getsize(paths.event_log)
    paths.clear()
    if exit_code != 0:
        rep["output"] = captured.getvalue()[-2000:]

    if tracer is not None:
        layers = tracer.layers()
        accounting = tracer.accounting(rep["cpu_s"], layers)
        rep["accounting"] = accounting
        rep["layers"] = layer_metrics(
            workload, rep, layers, probe, accounting["other_cpu_s"]
        )
        tracer.write(os.path.join(OUT_DIR, f"spans-{workload.name}.spans"))

    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
