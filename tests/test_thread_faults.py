"""Fault injection on the thread runtime.

The thread runtime runs every primitive arrival through
:class:`~repro.faults.FaultState`, the interpreter the memory server
runs, under a dedicated lock, so fault plans see the same
totally-ordered view the single-threaded memory server provides and
every family means the same thing on both backends: a crashed thread
awaits a recover or dead verdict, an omitted operation is abandoned,
held (delayed or partitioned) threads wait, and a duplicate is
re-applied under its object lock.

The safety claim mirrors the process runtime's: whatever the faults do,
the surviving history must still pass linearizability and audit
exactness -- crashes lose operations, never soundness.
"""

import pytest

from repro.analysis import (
    auditable_register_spec,
    check_audit_exactness,
    check_history,
    tag_reads,
)
from repro.core.auditable_register import AuditableRegister
from repro.faults import FAULT_FAMILIES, ScriptedFaultPlan, chaos_plan
from repro.rt import ThreadRuntime, make_runtime, run_stress
from repro.rt.process_runtime import PidRef
from repro.sim.history import CrashEvent
from repro.sim.scheduler import (
    CrashDecision,
    DelayDecision,
    DuplicateDecision,
)
from repro.workloads.generators import (
    RegisterWorkload,
    build_register_system,
)


def run_workload(plan, seed=0):
    """A small Algorithm 1 register workload on a fault-armed
    ThreadRuntime; returns (runtime, built system, history)."""
    workload = RegisterWorkload(
        num_readers=2, num_writers=2, num_auditors=1,
        reads_per_reader=4, writes_per_writer=3, audits_per_auditor=2,
        seed=seed,
    )
    runtime = ThreadRuntime(record_latency=False, faults=plan)
    built = build_register_system(workload, runtime=runtime)
    history = built.run()
    return runtime, built, history, workload


def surviving_history_is_safe(built, history, workload):
    spec = auditable_register_spec(workload.initial, built.reader_index)
    assert check_history(tag_reads(history.operations()), spec).ok
    assert not check_audit_exactness(history, built.register)


class TestFamilyVocabulary:
    def test_per_runtime_families(self):
        # Both runtimes interpret every family with the same machine.
        spec = ",".join(FAULT_FAMILIES)
        for runtime in ("thread", "process"):
            report = run_stress(
                "register", threads=2, ops=2, runtime=runtime,
                faults=spec, fault_rate=0, record_latency=False,
            )
            assert report.faults == f"{spec}@0/10k"
            assert report.ok

    def test_unknown_runtime_rejected(self):
        with pytest.raises(ValueError, match="unknown stress runtime"):
            run_stress("register", threads=2, ops=2, runtime="fiber")


class TestScriptedCrash:
    def test_crashing_the_requester_loses_only_its_ops(self):
        plan = ScriptedFaultPlan(
            match=[(("r0", None, None), CrashDecision("r0"))]
        )
        runtime, built, history, workload = run_workload(plan)
        assert runtime.crashed == ("r0",)
        pending = history.pending_operations()
        assert {op.pid for op in pending} == {"r0"}
        # The crash itself is a recorded event, replayable downstream.
        crashes = [e for e in history.events
                   if isinstance(e, CrashEvent)]
        assert [e.pid for e in crashes] == ["r0"]
        surviving_history_is_safe(built, history, workload)

    def test_crash_naming_another_pid_dooms_it(self):
        # Whoever arrives first dooms w0; w0 falls at its own next
        # arrival -- the process runtime's `doomed` semantics.
        plan = ScriptedFaultPlan(
            match=[((None, None, None), CrashDecision("w0"))]
        )
        runtime, built, history, workload = run_workload(plan)
        assert runtime.crashed == ("w0",)
        assert {op.pid for op in history.pending_operations()} <= {"w0"}
        surviving_history_is_safe(built, history, workload)

    def test_crashed_thread_stops_scheduling_work(self):
        plan = ScriptedFaultPlan(
            match=[(("w1", None, None), CrashDecision("w1"))]
        )
        runtime, built, history, workload = run_workload(plan)
        # operations() includes pending records; the crashed writer
        # must never have completed anything.
        mine = [op for op in history.operations() if op.pid == "w1"]
        assert all(op.response_index is None for op in mine)


class TestMakeRuntime:
    def test_make_runtime_arms_the_thread_runtime(self):
        plan = ScriptedFaultPlan({1: CrashDecision("w0")})
        runtime = make_runtime("thread", faults=plan)
        workload = RegisterWorkload(
            num_readers=1, num_writers=1, num_auditors=0,
            reads_per_reader=1, writes_per_writer=2, seed=0,
        )
        build_register_system(workload, runtime=runtime).run()
        assert runtime.crashed == ("w0",)


class TestScriptedDelay:
    def test_delay_widens_but_never_loses_ops(self):
        plan = ScriptedFaultPlan({1: DelayDecision("r0", steps=3),
                                  4: DelayDecision("r0", steps=1)})
        runtime, built, history, workload = run_workload(plan)
        assert runtime.crashed == ()
        assert not history.pending_operations()
        surviving_history_is_safe(built, history, workload)


class TestScriptedDuplicate:
    def test_duplicated_announce_breaks_audit_exactness(self):
        # The crack the alg1-dup-audit fuzz target pins: re-applying a
        # reader's announcing fetch&xor flips its bit back (XOR is an
        # involution), so a later audit misses a completed read.
        reg = AuditableRegister(2, initial="v0")
        ref = PidRef("p")
        plan = ScriptedFaultPlan(
            match=[(("p", None, "compare_and_swap"), DuplicateDecision("p"))]
        )
        runtime = ThreadRuntime(record_latency=False, faults=plan)
        runtime.add_program(
            "p", [reg.reader(ref, 0).read_op(), reg.auditor(ref).audit_op()]
        )
        history = runtime.run()
        fetch_xors = [
            e for e in history.primitive_events(pid="p")
            if e.primitive == "fetch_xor"
        ]
        assert len(fetch_xors) == 2
        assert {e.op_id for e in fetch_xors} == {0}
        assert check_audit_exactness(history, reg)


class TestChaosOnThreads:
    @pytest.mark.parametrize("seed", range(4))
    def test_chaos_crash_delay_runs_stay_safe(self, seed):
        report = run_stress(
            "register", threads=4, ops=6, seed=seed,
            runtime="thread", faults="crash,delay", fault_rate=2000,
            validate=True, record_latency=False,
        )
        assert report.lin_ok and report.audit_ok
        assert report.faults == "crash,delay@2000/10k"

    @pytest.mark.parametrize("seed", range(4))
    def test_chaos_without_dup_stays_safe(self, seed):
        # Every family but dup keeps the history linearizable.  Audit
        # exactness is asserted for the crash-stop and postponement
        # families only: omit and recover let a reader abandon a read
        # after its announcing fetch&xor and then announce again for
        # the same write, which flips its bit back off exactly like a
        # duplicate -- on the memory server as much as here.
        report = run_stress(
            "register", threads=4, ops=6, seed=seed, runtime="thread",
            faults="crash,delay,partition,omit,recover", fault_rate=2000,
            validate=True, record_latency=False,
        )
        assert report.lin_ok
        assert report.faults == "crash,delay,partition,omit,recover@2000/10k"
        report = run_stress(
            "register", threads=4, ops=6, seed=seed, runtime="thread",
            faults="crash,delay,partition", fault_rate=2000,
            validate=True, record_latency=False,
        )
        assert report.lin_ok and report.audit_ok

    def test_chaos_actually_crashes_somebody(self):
        # Statistical but deterministic: at 20% fault rate over eight
        # seeded runs, at least one plan fires a crash.
        pids = []
        for seed in range(8):
            plan = chaos_plan(
                ("crash",), 2000, seed,
                pids=["r0", "r1", "w0", "a0"],
            )
            runtime = ThreadRuntime(record_latency=False, faults=plan)
            workload = RegisterWorkload(
                num_readers=2, num_writers=1, num_auditors=1,
                reads_per_reader=4, writes_per_writer=4,
                audits_per_auditor=2, seed=seed,
            )
            built = build_register_system(workload, runtime=runtime)
            built.run()
            pids.extend(runtime.crashed)
        assert pids
