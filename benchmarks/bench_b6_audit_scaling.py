"""B6 -- audit cost vs history length, and the lsa low-water mark.

A fresh auditor pays (1 + m) primitives per archived epoch; an auditor
that audited before pays only for epochs written since (its ``lsa``
low-water mark makes auditing incremental).
"""

import pytest

from repro import AuditableRegister, Simulation


def build_epochs(epochs, m=2):
    sim = Simulation()
    reg = AuditableRegister(num_readers=m, initial=0)
    writer = reg.writer(sim.spawn("w"))
    reader = reg.reader(sim.spawn("r0"), 0)
    for k in range(epochs):
        sim.add_program("w", [writer.write_op(k)])
        sim.run_process("w")
        sim.add_program("r0", [reader.read_op()])
        sim.run_process("r0")
    return sim, reg


@pytest.mark.parametrize("epochs", [10, 50, 200])
def test_bench_cold_audit(benchmark, epochs):
    sim, reg = build_epochs(epochs)
    process = sim.spawn("cold")

    def once():
        # A fresh handle each round so lsa starts at 0 and A is empty.
        auditor = reg.auditor(process)
        sim.add_program("cold", [auditor.audit_op()])
        sim.run_process("cold")
        return sim.history.operations(pid="cold")[-1]

    op = benchmark(once)
    assert len(op.result) == epochs
    benchmark.extra_info["epochs"] = epochs
    benchmark.extra_info["primitives"] = len(op.primitives)


def test_incremental_audit_is_constant():
    sim, reg = build_epochs(100)
    auditor = reg.auditor(sim.spawn("a"))
    sim.add_program("a", [auditor.audit_op()])
    sim.run_process("a")
    cold = len(sim.history.operations(pid="a")[-1].primitives)
    sim.add_program("a", [auditor.audit_op()])
    sim.run_process("a")
    warm = len(sim.history.operations(pid="a")[-1].primitives)
    assert cold > 100  # pays for every archived epoch
    assert warm == 2  # R.read + SN CAS only

    # One more epoch: the warm auditor pays only for that epoch.
    writer = reg.writer(sim.spawn("w2"))
    sim.add_program("w2", [writer.write_op("fresh")])
    sim.run_process("w2")
    sim.add_program("a", [auditor.audit_op()])
    sim.run_process("a")
    delta = len(sim.history.operations(pid="a")[-1].primitives)
    assert delta == 2 + (1 + reg.num_readers)


def test_cold_audit_cost_linear():
    costs = {}
    for epochs in (20, 40):
        sim, reg = build_epochs(epochs)
        auditor = reg.auditor(sim.spawn("a"))
        sim.add_program("a", [auditor.audit_op()])
        sim.run_process("a")
        costs[epochs] = len(sim.history.operations(pid="a")[-1].primitives)
    # Exactly linear: 2 + epochs * (1 + m).
    assert costs[20] == 2 + 20 * 3
    assert costs[40] == 2 + 40 * 3
