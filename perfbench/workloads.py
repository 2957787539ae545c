"""The benchmark's workloads: how each is run, gated and measured.

Every workload calls one entry point users run (``repro stress`` or
``repro check``) through ``repro.__main__.main``.  A repetition counts
only if :func:`gate` finds nothing: a clean verdict *and* exactly the
fixed amount of work, so a change that explores or verifies less cannot
read as faster.

The traced layer breakdown (:func:`install_tracing`,
:func:`layer_metrics`) wraps the public functions named in
``perfbench/layers.json`` from here; nothing under ``src/`` changes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Workers of each stress workload: one reader, one writer, one
#: auditor -- the fewest that make an audit find anything.
STRESS_WORKERS = 3

#: (executions, distinct states) of each E13 scenario under
#: ``repro check`` defaults (reduced exploration, serial).
E13_COUNTS: Dict[str, Tuple[int, int]] = {
    "alg1-w1-r1": (16, 102),
    "alg1-w1-a1": (9, 51),
    "alg1-w2": (44, 198),
    "alg1-r2-prewrite": (12, 46),
    "alg1-r1-a1-prewrite": (7, 40),
    "alg1-silent-read": (5, 39),
    "alg2-w1-r1": (16, 126),
    "alg2-w2": (354, 1716),
}

_STRESS_IMPORTS = (
    "repro.campaign", "repro.rt", "repro.analysis.fastlin",
    "repro.engine.engine",
)


@dataclass
class Paths:
    """Files one repetition writes, all under the checkout."""

    record: str  # the ``--out`` JSONL record of a stress run
    event_log: str

    def clear(self) -> None:
        for path in (self.record, self.event_log):
            if os.path.exists(path):
                os.unlink(path)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "stress" or "check"
    ops: Optional[int]  # per-worker op budget (stress)
    smoke_ops: Optional[int]
    argv: Callable[[int, Optional[int], Paths], List[str]]
    imports: Tuple[str, ...]  # modules to import before the timed call
    # op_p50_us from the run's latency samples; False where that median
    # is unusable and the mean closed-loop operation time stands in.
    sampled_p50: bool = True
    # Run the call, and every process it starts, on one CPU.
    one_cpu: bool = False


def _thread_audit_argv(seed: int, ops: int, paths: Paths) -> List[str]:
    return [
        "stress", "--object", "register", "--runtime", "thread",
        "--readers", "1", "--writers", "1", "--auditors", "1", "--online",
        "--seed", str(seed), "--ops", str(ops), "--out", paths.record,
    ]


def _process_chaos_argv(seed: int, ops: int, paths: Paths) -> List[str]:
    return [
        "stress", "--object", "register", "--runtime", "process",
        "--readers", "1", "--writers", "1", "--auditors", "1", "--online",
        "--event-log", paths.event_log, "--faults", "delay,partition",
        "--fault-rate", "50",
        "--seed", str(seed), "--ops", str(ops), "--out", paths.record,
    ]


def _check_argv(seed: int, ops: Optional[int], paths: Paths) -> List[str]:
    # ``repro check`` takes no seed: its E13 exploration is exhaustive.
    return ["check"]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "thread-audit", "stress", ops=4000, smoke_ops=200,
            argv=_thread_audit_argv, imports=_STRESS_IMPORTS,
            # Under the GIL the sampled median flips between about 120
            # and 500 us with the scheduling regime, for tens of seconds
            # at a time, whatever the run length.
            sampled_p50=False,
        ),
        Workload(
            "process-chaos", "stress", ops=1000, smoke_ops=100,
            argv=_process_chaos_argv, imports=_STRESS_IMPORTS,
            # Every primitive is a round trip between a worker and the
            # memory server.  Spread over two vCPUs each one needs a
            # cross-CPU wakeup, whose cost follows the host's load:
            # unpinned run medians moved between 616 and 1157 ops/s.
            one_cpu=True,
        ),
        Workload(
            "check-e13", "check", ops=None, smoke_ops=None, argv=_check_argv,
            imports=(
                "repro.campaign", "repro.harness.tables", "repro.mc",
                "repro.mc.parallel", "repro.mc.scenarios", "repro.analysis",
            ),
        ),
    )
}


# -- reading a repetition's outputs ---------------------------------------

def parse_check_table(text: str) -> List[Dict[str, Any]]:
    """The rows of the table ``repro check`` prints."""
    lines = text.splitlines()
    rows = []
    for i, line in enumerate(lines):
        if line.startswith("---"):
            for row in lines[i + 1:]:
                cells = row.split()
                if len(cells) != 5:
                    break
                rows.append({
                    "scenario": cells[0],
                    "explored": int(cells[1]),
                    "states": int(cells[2]),
                    "violations": int(cells[3]),
                    "verdict": cells[4],
                })
            break
    return rows


# -- the fixed-work and verdict gate --------------------------------------

def attempted(workload: Workload, rep: Dict[str, Any]) -> int:
    """Operations (executions, for check) a repetition attempts."""
    if workload.kind == "check":
        return sum(e for e, _ in E13_COUNTS.values())
    return rep["ops"] * STRESS_WORKERS


def gate(workload: Workload, rep: Dict[str, Any]) -> List[str]:
    """Why a repetition does not count; empty when it does."""
    problems = []
    if rep["exit_code"] != 0:
        problems.append(f"exit code {rep['exit_code']}")
    if workload.kind == "check":
        rows = {row["scenario"]: row for row in rep["rows"]}
        if set(rows) != set(E13_COUNTS):
            problems.append(f"scenarios {sorted(rows)} are not the E13 suite")
        for name, (execs, states) in E13_COUNTS.items():
            row = rows.get(name)
            if row is None:
                continue
            if row["verdict"] != "PASS" or row["violations"]:
                problems.append(f"{name}: verdict {row['verdict']}")
            if (row["explored"], row["states"]) != (execs, states):
                problems.append(
                    f"{name}: {row['explored']} executions / "
                    f"{row['states']} states, expected {execs} / {states}"
                )
        return problems
    record = rep["record"]
    if record is None:
        return problems + ["no stress record"]
    if record["lin_status"] != "ok":
        problems.append(f"lin_status {record['lin_status']}")
    if record["audit_ok"] is not True:
        problems.append(f"audit_ok {record['audit_ok']}")
    expected = attempted(workload, rep)
    if record["ops_completed"] != expected:
        problems.append(
            f"{record['ops_completed']} operations completed, "
            f"expected {expected}"
        )
    return problems


def failed(workload: Workload, rep: Dict[str, Any]) -> int:
    """Attempted operations (executions) of a repetition that did not
    complete or belong to a verdict that is not clean."""
    total = attempted(workload, rep)
    if workload.kind == "check":
        rows = {row["scenario"]: row for row in rep["rows"]}
        done = sum(
            min(rows[name]["explored"], execs)
            for name, (execs, _) in E13_COUNTS.items()
            if name in rows and rows[name]["verdict"] == "PASS"
        )
        return total - done
    record = rep["record"]
    if record is None or rep["exit_code"] != 0 or (
        record["lin_status"] != "ok" or record["audit_ok"] is not True
    ):
        return total
    return total - min(record["ops_completed"], total)


# -- end-to-end metrics of one untraced repetition ------------------------

def end_to_end(workload: Workload, rep: Dict[str, Any]) -> Dict[str, float]:
    """Values of the end-to-end metrics (see ``layers.json``)."""
    wall = rep["wall_s"]
    metrics = {"setup_s": rep["setup_s"], "peak_rss_mb": rep["peak_rss_mb"]}
    if workload.kind == "check":
        execs = sum(row["explored"] for row in rep["rows"])
        # An explored execution is this workload's unit of work.
        metrics["ops_per_s"] = execs / wall
        metrics["execs_per_s"] = execs / wall
        metrics["op_p50_us"] = wall / execs * 1e6
    else:
        record = rep["record"]
        # One stress run is one verified execution.
        metrics["ops_per_s"] = record["ops_completed"] / wall
        metrics["execs_per_s"] = 1.0 / wall
        if workload.sampled_p50:
            metrics["op_p50_us"] = record["latency"]["all"]["p50_us"]
        else:
            metrics["op_p50_us"] = (
                STRESS_WORKERS * wall / record["ops_completed"] * 1e6
            )
    return metrics


# -- the traced layer breakdown -------------------------------------------

@dataclass
class Probe:
    """Counts the wrappers collect beside their spans."""

    # (CPU ns, pairs) per audit driven on the thread runtime, in order.
    audits: List[Tuple[int, int]] = field(default_factory=list)
    replayed_audits: int = 0
    replayed_pairs: int = 0
    executions: int = 0
    distinct_states: int = 0


def install_tracing(tracer: Any, probe: Probe) -> None:
    """Wrap each layer's public entry point (see ``layers.json``)."""
    import repro.analysis
    import repro.mc
    import repro.mc.scenarios
    import repro.rt
    import repro.rt.stress
    import repro.rt.thread_runtime
    from repro.analysis.audit_checks import WindowedAuditOracle
    from repro.analysis.streamlin import StreamingLinChecker
    from repro.memory.base import BaseObject
    from repro.rt.process_runtime import ProcessRuntime
    from repro.sim.events import Response
    from repro.sim.history import History
    from repro.sim.runner import Simulation

    def on_drive_op(args, result, cpu_ns):
        if args[1].name == "audit":
            probe.audits.append((cpu_ns, len(result)))

    def on_event(item):
        kind, value = item
        if (kind == "event" and isinstance(value, Response)
                and value.op_name == "audit"):
            probe.replayed_audits += 1
            probe.replayed_pairs += len(value.result)

    def on_explore(args, report, cpu_ns):
        probe.executions += report.executions
        probe.distinct_states += report.distinct_states

    def span(owner, attr, name, after=None):
        original = owner.__dict__[attr]
        tracer.patch(owner, attr, tracer.wrap(name, original, after))

    span(repro.rt.thread_runtime, "drive_op", "rt.thread.drive_op",
         on_drive_op)
    span(BaseObject, "apply", "memory.apply")
    for attr in ("record_invocation", "record_response",
                 "record_primitive", "record_crash"):
        span(History, attr, "sim.history.record")
    span(StreamingLinChecker, "feed", "streamlin.feed")
    span(WindowedAuditOracle, "feed", "audit_oracle.feed")
    span(repro.rt, "run_stress", "rt.stress.run")
    span(ProcessRuntime, "run", "rt.process.run")
    tracer.patch(
        repro.rt.stress, "iter_event_log",
        tracer.wrap_iter(
            "sim.event_log.decode", repro.rt.stress.iter_event_log, on_event
        ),
    )
    span(repro.mc, "explore", "mc.explore", on_explore)
    span(Simulation, "step_process", "sim.step")
    span(repro.analysis, "fast_check_history", "fastlin.check")

    get_scenario = repro.mc.scenarios.get_scenario

    def traced_get_scenario(name):
        builder = get_scenario(name)

        def traced_builder():
            factory, check = builder()
            return factory, tracer.wrap("mc.check", check)

        return traced_builder

    tracer.patch(repro.mc.scenarios, "get_scenario", traced_get_scenario)


def _growth_ratio(audits: List[Tuple[int, int]]) -> float:
    """Mean CPU per audit over the last quarter of audits over the
    first quarter (0 with fewer than four audits)."""
    quarter = len(audits) // 4
    if quarter == 0:
        return 0.0
    first = sum(c for c, _ in audits[:quarter])
    last = sum(c for c, _ in audits[-quarter:])
    return last / first if first else 0.0


def layer_metrics(
    workload: Workload,
    rep: Dict[str, Any],
    layers: Dict[str, Dict[str, float]],
    probe: Probe,
    other_cpu_s: float,
) -> Dict[str, float]:
    """Per-layer metric values of one traced repetition.  A layer the
    workload never reaches reports 0."""

    def get(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    record = rep.get("record") or {}
    stream = record.get("stream") or {}
    ops_done = record.get("ops_completed", 0)
    drive_wall = get("rt.thread.drive_op", "wall_s")
    drive_cpu = get("rt.thread.drive_op", "cpu_s")
    oracle_self = get("audit_oracle.feed", "self_cpu_s")
    audits_checked = stream.get("audits_checked", 0)
    process_run = get("rt.process.run", "wall_s")
    primitives = record.get("primitives", 0) if process_run else 0
    log_bytes = rep.get("event_log_bytes", 0)
    if probe.audits:
        audit_calls = len(probe.audits)
        audit_pairs = sum(p for _, p in probe.audits)
    else:
        audit_calls, audit_pairs = probe.replayed_audits, probe.replayed_pairs
    replay_s = 0.0
    if process_run:
        replay_s = (
            get("rt.stress.run", "last_end_ns")
            - get("rt.process.run", "last_end_ns")
        ) / 1e9
    return {
        "rt.thread.op_wall_s": drive_wall,
        "rt.thread.op_cpu_s": drive_cpu,
        "rt.thread.wait_frac": 1 - drive_cpu / drive_wall if drive_wall else 0,
        "memory.apply.calls": get("memory.apply", "calls"),
        "memory.apply.self_s": get("memory.apply", "self_cpu_s"),
        "core.op.self_cpu_s": get("rt.thread.drive_op", "self_cpu_s"),
        "core.audit.calls": audit_calls,
        "core.audit.pairs_returned": audit_pairs,
        "core.audit.growth_ratio": _growth_ratio(probe.audits),
        "sim.history.records": get("sim.history.record", "calls"),
        "sim.history.self_s": get("sim.history.record", "self_cpu_s"),
        "streamlin.feed.calls": get("streamlin.feed", "calls"),
        "streamlin.feed.self_s": get("streamlin.feed", "self_cpu_s"),
        "streamlin.windows": stream.get("windows", 0),
        "streamlin.peak_resident_ops": stream.get("peak_resident_ops", 0),
        "audit_oracle.feed.self_s": oracle_self,
        "audit_oracle.audits_checked": audits_checked,
        "audit_oracle.us_per_audit": (
            oracle_self / audits_checked * 1e6 if audits_checked else 0
        ),
        "rt.process.run_s": process_run,
        "rt.process.primitives": primitives,
        "rt.process.us_per_primitive": (
            process_run / primitives * 1e6 if primitives else 0
        ),
        "sim.event_log.bytes": log_bytes,
        "sim.event_log.bytes_per_op": log_bytes / ops_done if ops_done else 0,
        "sim.event_log.decode_s": get("sim.event_log.decode", "self_cpu_s"),
        "verify.replay_s": replay_s,
        "mc.executions": probe.executions,
        "mc.distinct_states": probe.distinct_states,
        "mc.explore.self_s": get("mc.explore", "self_cpu_s"),
        "mc.check.self_s": get("mc.check", "self_cpu_s"),
        "sim.step.calls": get("sim.step", "calls"),
        "sim.step.self_s": get("sim.step", "self_cpu_s"),
        "fastlin.check.calls": get("fastlin.check", "calls"),
        "fastlin.check.self_s": get("fastlin.check", "self_cpu_s"),
        "trace.other_cpu_s": other_cpu_s,
    }
