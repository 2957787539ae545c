"""Cross-backend equivalence: SimRuntime vs ThreadRuntime vs ProcessRuntime.

The runtime seam promises that algorithm code observes the same
primitive-memory interface on every backend.  For a *single-threaded*
program (one process) all backends execute the same sequential
computation, so the recorded histories must coincide event-for-event —
indices, arguments and results included — and every oracle must return
the same verdict.  Property tests drive random primitive sequences
through ``fetch&xor`` / ``CAS`` / ``swap`` on all backends and compare
results exactly.

Fault-injection regressions ride along: with a single process, a
scripted crash at the memory server must truncate the history at
exactly the same event the fault names (everything before it identical
to the fault-free run), and a scripted delay must be a pure no-op (the
server's flush-on-idle releases a held request the moment no other
message can overtake it).  The thread runtime and the memory server run
the same fault machine (:class:`repro.faults.FaultState`), so with one
worker each fault family leaves the same history on all three
backends, the simulator taking the decision through
``Simulation.inject``.

Builders and program factories are module-level so the process backend
can ship them across the fork/spawn boundary by name; the sim and
thread backends call the very same functions in-process.
"""

from __future__ import annotations

import random

import pytest

from repro._seeding import stable_hash
from repro.analysis import (
    auditable_register_spec,
    check_audit_exactness,
    check_history,
    tag_reads,
)
from repro.core.auditable_register import AuditableRegister
from repro.crypto.pad import OneTimePadSequence
from repro.memory.main_register import MainRegister
from repro.memory.register import CasRegister, SwapRegister
from repro.memory.rword import RWord
from repro.rt import (
    PidRef,
    ProcessRuntime,
    ScriptedFaultPlan,
    SimRuntime,
    ThreadRuntime,
    make_runtime,
)
from repro.sim.events import CrashEvent
from repro.sim.process import Op
from repro.sim.runner import Simulation
from repro.sim.scheduler import (
    CrashDecision,
    DelayDecision,
    DuplicateDecision,
    OmitDecision,
    PartitionDecision,
)
from tests.conftest import crash_then_recover_plan


def _eq_build(seed=0):
    """The shared object of the single-process program (deterministic)."""
    pad = OneTimePadSequence(2, seed=stable_hash("eq-pad", seed))
    return AuditableRegister(2, initial="v0", pad=pad)


def _eq_program_factory(reg, pid, seed=0):
    """One process exercising all three roles of Algorithm 1."""
    ref = PidRef(pid)
    reader = reg.reader(ref, 0)
    writer = reg.writer(ref)
    auditor = reg.auditor(ref)
    ops = []
    for k in range(4):
        ops.append(writer.write_op(f"v{k + 1}"))
        ops.append(reader.read_op())
        ops.append(auditor.audit_op())
    return ops


def _run_backend(kind, seed=0, faults=None):
    if kind == "process":
        runtime = ProcessRuntime(_eq_build, (seed,), faults=faults)
        runtime.add_program_factory("p", _eq_program_factory, args=(seed,))
        reg = _eq_build(seed)  # parent-side replica for the oracles
        history = runtime.run()
        return runtime, reg, {"p": 0}, history
    runtime = make_runtime(kind, seed=seed)
    reg = _eq_build(seed)
    runtime.spawn("p")
    runtime.add_program("p", _eq_program_factory(reg, "p", seed))
    history = runtime.run()
    return runtime, reg, {"p": 0}, history


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_single_process_histories_identical(seed):
    """Same program, all backends: event-for-event equal histories."""
    _, _, _, sim_history = _run_backend("sim", seed)
    _, _, _, thread_history = _run_backend("thread", seed)
    assert list(sim_history) == list(thread_history)


@pytest.mark.parametrize("seed", [0, 7])
def test_single_process_history_identical_on_process_backend(seed):
    """One worker process: server arrival order is program order, so the
    message-passing history equals the simulator's exactly."""
    _, _, _, sim_history = _run_backend("sim", seed)
    _, _, _, proc_history = _run_backend("process", seed)
    assert list(sim_history) == list(proc_history)


@pytest.mark.parametrize("seed", [0, 3])
def test_single_process_oracle_verdicts_identical(seed):
    """Lin + audit-exactness verdicts coincide across backends."""
    verdicts = {}
    for kind in ("sim", "thread", "process"):
        _, reg, reader_index, history = _run_backend(kind, seed)
        spec = auditable_register_spec("v0", reader_index)
        lin = check_history(tag_reads(history.operations()), spec).ok
        audit = not check_audit_exactness(history, reg)
        verdicts[kind] = (lin, audit)
    assert verdicts["sim"] == verdicts["thread"] == verdicts["process"]
    assert verdicts["sim"] == (True, True)


# -- fault-injection regressions (the schedule-decision seam) -----------------


def test_scripted_crash_truncates_history_at_the_named_primitive():
    """Crash at the k-th primitive arrival: the history is the fault-free
    prefix up to (excluding) that primitive, then a crash event, and the
    operation in flight stays pending."""
    crash_at = 5
    _, _, _, clean = _run_backend("process", seed=0)
    rt, _, _, crashed = _run_backend(
        "process", seed=0,
        faults=ScriptedFaultPlan({crash_at: CrashDecision("p")}),
    )
    events = list(crashed)
    assert isinstance(events[-1], CrashEvent)
    assert events[-1].pid == "p"
    assert rt.crashed == ("p",)
    assert [op.op_id for op in crashed.pending_operations()] != []
    # Everything before the crash matches the fault-free run exactly.
    assert events[:-1] == list(clean)[: len(events) - 1]
    # Exactly crash_at - 1 primitives were applied before the crash.
    assert len(crashed.primitive_events()) == crash_at - 1


def test_scripted_delay_is_a_no_op_for_a_single_process():
    """With one process there is no later message to reorder past, so a
    held request must be flushed on idle and the history is unchanged."""
    _, _, _, clean = _run_backend("process", seed=1)
    _, _, _, delayed = _run_backend(
        "process", seed=1,
        faults=ScriptedFaultPlan({3: DelayDecision("p", steps=50)}),
    )
    assert list(clean) == list(delayed)


#: One decision per family, taken at the k-th primitive arrival.
_FAULT_AT = 5
_FAMILY_DECISIONS = {
    "crash": CrashDecision("p"),
    "delay": DelayDecision("p", steps=50),
    "partition": PartitionDecision(("p",), steps=50),
    "dup": DuplicateDecision("p"),
    "omit": OmitDecision("p"),
}


def _sim_with_fault(decision, k, seed=0):
    """The simulator's single-process run with ``decision`` injected
    just before the step that applies the k-th primitive."""
    sim = Simulation()
    sim.add_program("p", _eq_program_factory(_eq_build(seed), "p", seed))
    process = sim.processes["p"]
    while not (
        len(sim.history.primitive_events()) == k - 1
        and process.pending is not None
    ):
        assert sim.step()
    sim.inject(decision)
    return sim.run()


@pytest.mark.parametrize("family", sorted(_FAMILY_DECISIONS))
def test_single_worker_fault_histories_identical(family):
    """One worker, one fault at the k-th primitive arrival: sim, thread
    and process histories coincide event for event."""
    decision = _FAMILY_DECISIONS[family]
    sim_history = _sim_with_fault(decision, _FAULT_AT)
    plan = ScriptedFaultPlan({_FAULT_AT: decision})
    _, _, _, proc_history = _run_backend("process", faults=plan)
    thread = ThreadRuntime(faults=ScriptedFaultPlan({_FAULT_AT: decision}))
    thread.add_program("p", _eq_program_factory(_eq_build(), "p"))
    thread_history = thread.run()
    assert list(sim_history) == list(thread_history) == list(proc_history)
    _, _, _, clean = _run_backend("sim")
    if family in ("delay", "partition"):
        assert list(sim_history) == list(clean)
    else:
        assert list(sim_history) != list(clean)


def _reads_build():
    return MainRegister("m", RWord(0, "init", 0))


def _reads_factory(main, pid, n):
    def read_gen():
        word = yield from main.read()
        return word.val

    return [Op("read", read_gen) for _ in range(n)]


def test_crash_then_recover_matches_on_thread_and_process():
    """Two workers, p crashed and later recovered by q's arrival: both
    real runtimes leave the same pending operation and the same
    completed op ids."""
    outcomes = {}
    for kind in ("thread", "process"):
        plan = crash_then_recover_plan()
        if kind == "process":
            rt = ProcessRuntime(_reads_build, faults=plan)
            for pid in ("p", "q"):
                rt.add_program_factory(pid, _reads_factory, args=(4,))
        else:
            rt = ThreadRuntime(faults=plan)
            main = _reads_build()
            for pid in ("p", "q"):
                rt.add_program(pid, _reads_factory(main, pid, 4))
        history = rt.run()
        outcomes[kind] = (
            rt.crashed,
            sorted((op.pid, op.op_id) for op in history.pending_operations()),
            sorted((op.pid, op.op_id) for op in history.complete_operations()),
        )
    assert outcomes["thread"] == outcomes["process"]
    assert outcomes["thread"][:2] == (("p",), [("p", 0)])


# -- primitive-level property tests ------------------------------------------


def _trace_objects():
    """Three objects mixing all primitive families (picklable builder)."""
    return {
        "m": MainRegister("m", RWord(0, "init", 0)),
        "c": CasRegister("c", 0),
        "s": SwapRegister("s", "a"),
    }


def _trace_program(objects, seed):
    """A seeded random sequence of fetch&xor / CAS / swap primitives.

    The operation returns its result list; the generator mixes all three
    primitive families on three objects so cross-object ordering is
    exercised too.
    """
    main, cas, swap = objects["m"], objects["c"], objects["s"]

    def program():
        rng = random.Random(stable_hash("rt-prop", seed))
        results = []
        last_word = None
        for step in range(30):
            choice = rng.randrange(5)
            if choice == 0:
                last_word = yield from main.read()
                results.append(("m.read", last_word))
            elif choice == 1:
                word = yield from main.fetch_xor(1 << rng.randrange(3))
                results.append(("m.fetch_xor", word))
            elif choice == 2 and last_word is not None:
                new = RWord(
                    last_word.seq + 1, f"v{step}", rng.getrandbits(3)
                )
                ok = yield from main.compare_and_swap(last_word, new)
                results.append(("m.cas", ok))
            elif choice == 3:
                ok = yield from cas.compare_and_swap(
                    rng.randrange(3), rng.randrange(10)
                )
                results.append(("c.cas", ok))
            else:
                old = yield from swap.swap(f"s{step}")
                results.append(("s.swap", old))
        return tuple(results)

    return [Op("trace", program)]


def _trace_factory(objects, pid, seed):
    """Process-backend program factory (module-level, hence picklable)."""
    return _trace_program(objects, seed)


def _trace_views(history):
    (op,) = history.complete_operations(name="trace")
    return op.result, [e.view() for e in history.primitive_events(pid="p")]


def _primitive_trace(runtime, seed):
    runtime.spawn("p")
    runtime.add_program("p", _trace_program(_trace_objects(), seed))
    return _trace_views(runtime.run())


def _primitive_trace_process(seed):
    rt = ProcessRuntime(_trace_objects)
    rt.add_program_factory("p", _trace_factory, args=(seed,))
    return _trace_views(rt.run())


@pytest.mark.parametrize("seed", range(8))
def test_primitive_results_match_across_backends(seed):
    """fetch&xor / CAS / swap return identical results on both backends."""
    sim_result, sim_views = _primitive_trace(SimRuntime(), seed)
    thread_result, thread_views = _primitive_trace(ThreadRuntime(), seed)
    assert sim_result == thread_result
    assert sim_views == thread_views


@pytest.mark.parametrize("seed", range(3))
def test_primitive_results_match_on_process_backend(seed):
    """The same traces replay identically over the message channel."""
    sim_result, sim_views = _primitive_trace(SimRuntime(), seed)
    proc_result, proc_views = _primitive_trace_process(seed)
    assert sim_result == proc_result
    assert sim_views == proc_views
