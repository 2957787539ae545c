"""Shared helpers for the test suite."""

from __future__ import annotations

import pytest

from repro import (
    AuditableMaxRegister,
    AuditableRegister,
    RandomSchedule,
    Simulation,
)


@pytest.fixture
def sim():
    return Simulation()


@pytest.fixture(scope="session")
def e13_result():
    """One ``run("E13")`` shared by every test that inspects it: the
    exhaustive model check is the suite's most expensive call, and its
    result is a read-only report."""
    from repro.harness.experiment import run
    import repro.harness.experiments  # noqa: F401

    return run("E13")


def build_register(
    num_readers=2,
    num_writers=1,
    num_auditors=1,
    initial="v0",
    seed=None,
    register_cls=AuditableRegister,
    **register_kwargs,
):
    """A small system: register + handles + processes, no programs yet.

    Returns (sim, register, handles) where handles maps pid to the
    bound handle ("r0"... readers, "w0"... writers, "a0"... auditors).
    """
    schedule = RandomSchedule(seed) if seed is not None else None
    sim = Simulation(schedule=schedule) if schedule else Simulation()
    reg = register_cls(num_readers=num_readers, initial=initial,
                       **register_kwargs)
    handles = {}
    for j in range(num_readers):
        handles[f"r{j}"] = reg.reader(sim.spawn(f"r{j}"), j)
    for i in range(num_writers):
        handles[f"w{i}"] = reg.writer(sim.spawn(f"w{i}"))
    for a in range(num_auditors):
        handles[f"a{a}"] = reg.auditor(sim.spawn(f"a{a}"))
    return sim, reg, handles


def run_sequentially(sim, pid, ops):
    """Assign ops to pid and run that process alone to completion."""
    sim.add_program(pid, ops)
    sim.run_process(pid)
    return sim.history.operations(pid=pid)[-1].result
