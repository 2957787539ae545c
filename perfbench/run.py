"""The benchmark: one workload, repeated in fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (``src/`` must hold the program).
Each repetition is a fresh interpreter running ``perfbench/rep.py``, so
``setup_s`` and ``peak_rss_mb`` belong to that one workload run.
Repetitions go on until ``--seconds`` would be exceeded (at least
:data:`MIN_REPS` of each kind), and every one must pass the
fixed-work and verdict gate (:func:`workloads.gate`).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
each the median over the repetitions.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics
(lower medians over the traced ones) plus ``trace.overhead_frac``, the
median traced wall time over the median untraced one, minus 1; every
traced repetition must also pass the layer accounting check.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric by name with its unit, the environment
and ``failed_frac``.  The full record (environment, every repetition)
goes to ``.perfbench_out/result-<workload>-seed<N>-trace<T>.json``.
Exit code 0 when every repetition passed its checks, 1 when one did
not, 2 on a usage error or a checkout without the program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from spans import ACCOUNTING_SLACK_S, ACCOUNTING_TOLERANCE
from workloads import WORKLOADS, attempted, end_to_end, failed, gate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Fewest repetitions of each kind a run makes, whatever ``--seconds``.
MIN_REPS = {"untraced": 3}
MIN_TRACE_REPS = {"untraced": 2, "traced": 2}

#: A run stops starting repetitions after this many seconds, so that it
#: ends well within three minutes.
HARD_LIMIT_S = 150.0


def _commit() -> Optional[str]:
    """The checked-out commit, read from ``.git`` (None outside git)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """SHA-256 over every ``src/**/*.py`` path and content: names the
    measured code where no commit is available."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def environment(seed: int, argv: List[str]) -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "usable_cpus": (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None
        ),
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
        "workload_argv": argv,
    }


def run_rep(
    workload: str, seed: int, index: int, traced: bool, smoke: bool,
    timeout: float,
) -> Tuple[Dict[str, Any], float]:
    """One repetition in a fresh interpreter: (its record, seconds it
    took from spawn to exit)."""
    started = time.monotonic_ns()
    cmd = [
        sys.executable, os.path.join(HERE, "rep.py"),
        "--workload", workload, "--seed", str(seed), "--rep", str(index),
        "--trace", "1" if traced else "0", "--spawned-ns", str(started),
    ] + (["--smoke"] if smoke else [])
    # Its own session, so that a timeout also stops the process
    # runtime's server and workers.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    took = (time.monotonic_ns() - started) / 1e9
    if proc.returncode != 0:
        raise RuntimeError(
            f"repetition {index} of {workload} exited {proc.returncode}"
        )
    return json.loads(out.splitlines()[-1]), took


def run_reps(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
) -> List[Dict[str, Any]]:
    """Repeat until ``seconds`` would be exceeded; a traced run
    alternates untraced and traced repetitions."""
    minimum = MIN_TRACE_REPS if trace else MIN_REPS
    kinds = ["untraced", "traced"] if trace else ["untraced"]
    reps: List[Dict[str, Any]] = []
    last: Dict[str, float] = {}
    count = {kind: 0 for kind in kinds}
    start = time.monotonic()
    while True:
        kind = kinds[len(reps) % len(kinds)]
        elapsed = time.monotonic() - start
        short = any(count[k] < n for k, n in minimum.items())
        if not short and elapsed + last.get(kind, 0.0) > seconds:
            break
        if elapsed > HARD_LIMIT_S:
            raise RuntimeError(
                f"{workload}: only {count} repetitions in "
                f"{HARD_LIMIT_S:.0f}s"
            )
        rep, last[kind] = run_rep(
            workload, seed, len(reps), kind == "traced", smoke,
            timeout=HARD_LIMIT_S + 20 - elapsed,
        )
        count[kind] += 1
        reps.append(rep)
    return reps


def summarize(
    workload_name: str,
    reps: List[Dict[str, Any]],
    trace: bool,
    declared: Dict[str, Any],
) -> Tuple[Dict[str, Any], List[str]]:
    """The result object and the problems that make it incorrect."""
    workload = WORKLOADS[workload_name]
    problems = []
    for rep in reps:
        problems += [f"rep {rep['rep']}: {p}" for p in gate(workload, rep)]
        accounting = rep.get("accounting")
        if accounting is not None and not accounting["ok"]:
            problems.append(f"rep {rep['rep']}: layer accounting {accounting}")
    total = sum(attempted(workload, rep) for rep in reps)
    lost = sum(failed(workload, rep) for rep in reps)
    untraced = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    metrics = {}
    if not problems:
        values: Dict[str, float] = {}
        if trace:
            for name in traced[0]["layers"]:
                # median_low: a count stays a count that was measured.
                values[name] = statistics.median_low(
                    rep["layers"][name] for rep in traced
                )
            values["trace.overhead_frac"] = statistics.median(
                rep["wall_s"] for rep in traced
            ) / statistics.median(rep["wall_s"] for rep in untraced) - 1
        else:
            per_rep = [end_to_end(workload, rep) for rep in untraced]
            for name in per_rep[0]:
                values[name] = statistics.median(m[name] for m in per_rep)
        for spec in declared["per_layer" if trace else "end_to_end"]:
            if spec["name"] not in values:
                problems.append(f"metric {spec['name']} was not measured")
                continue
            metrics[spec["name"]] = {
                "value": values[spec["name"]], "unit": spec["unit"],
            }
    result = {
        "correct": not problems,
        "attempted": total,
        "failed": lost,
        "metrics": metrics,
    }
    return result, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one benchmark workload; see BENCHMARK.json.",
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small op budgets, for perfbench/selftest.py",
    )
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program under {ROOT}/src", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(choose from {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)

    try:
        reps = run_reps(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.smoke,
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result, problems = summarize(
        args.workload, reps, bool(args.trace), declared
    )
    env = environment(args.seed, reps[0]["argv"])
    os.makedirs(OUT_DIR, exist_ok=True)
    record_path = os.path.join(
        OUT_DIR,
        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
    )
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "result": result, "problems": problems,
                   "reps": reps}, fh, indent=1)

    traced = sum(rep["traced"] for rep in reps)
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(reps)} repetitions ({traced} traced), record {record_path}"
    )
    print("env " + json.dumps(env))
    for problem in problems:
        print(f"REJECTED {problem}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        print(
            "  layer accounting: per-layer self CPU + trace.other_cpu_s "
            f"must equal the traced call's CPU within "
            f"{ACCOUNTING_TOLERANCE:.0%} + {ACCOUNTING_SLACK_S * 1e3:.0f} ms "
            f"on each of the {traced} traced repetitions"
        )
    print(
        f"  failed_frac = {result['failed'] / result['attempted']:.6g} "
        f"ratio ({result['failed']} of {result['attempted']} attempted)"
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
