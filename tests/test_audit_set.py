"""AuditSet, the value an Algorithm 1/2 audit returns as a shared
prefix view of the auditor's log: value semantics, every codec that
carries it, and the windowed oracle's incremental (delta) check
differentially against the batch oracle."""

import copy
import dataclasses
import json
import pickle

import pytest

from repro import AuditableMaxRegister, AuditableRegister, Simulation
from repro.analysis import (
    WindowedAuditOracle,
    check_audit_exactness,
    check_audit_exactness_streaming,
)
from repro.analysis.fastlin import decode_value, encode_value, op_to_payload
from repro.core import AuditSet
from repro.rt.process_runtime import ObjectRegistry
from repro.sim.checkpoint import StateVault
from repro.sim.event_log import (
    JsonlEventSink,
    decode_loose,
    encode_loose,
    strict_or_loose,
)
from repro.sim.events import CrashEvent, Invocation, PrimitiveEvent, Response
from repro.sim.history import History
from repro.sim.scheduler import RandomSchedule
from tests.conftest import build_register, run_sequentially

PAIRS = [(0, "a"), (1, "b"), (0, "c"), (1, ("t", 2))]


# ---------------------------------------------------------------------
# The value
# ---------------------------------------------------------------------

class TestAuditSetValue:
    def test_equals_and_hashes_like_its_frozenset(self):
        log = list(PAIRS)
        view, plain = AuditSet(log, 3), frozenset(PAIRS[:3])
        assert view == plain and plain == view
        assert not view != plain
        assert hash(view) == hash(plain)
        assert {plain: 1}[view] == 1
        assert len(view) == 3
        assert list(view) == list(plain)
        assert repr(view) == repr(plain)
        assert (1, "b") in view and (1, ("t", 2)) not in view

    def test_views_of_one_log(self):
        log = list(PAIRS)
        assert AuditSet(log, 2) == AuditSet(log, 2)
        assert AuditSet(log, 2) != AuditSet(log, 3)
        assert AuditSet(log, 2) < AuditSet(log, 3)
        assert AuditSet(log, 2) == AuditSet(list(PAIRS[:2]), 2)

    def test_prefix_is_stable_under_appends(self):
        log = list(PAIRS[:2])
        view = AuditSet(log, 2)
        log.append((5, "late"))
        assert view == frozenset(PAIRS[:2]) and len(view) == 2

    def test_algebra_yields_plain_frozensets(self):
        view = AuditSet(list(PAIRS), 2)
        union = view | {(9, "z")}
        assert type(union) is frozenset
        assert union == frozenset(PAIRS[:2]) | {(9, "z")}
        assert view - {(0, "a")} == frozenset({(1, "b")})
        assert set(PAIRS) - view == set(PAIRS[2:])
        assert view & frozenset(PAIRS[1:]) == frozenset({(1, "b")})

    def test_pickles_and_copies_as_plain_frozenset(self):
        view = AuditSet(list(PAIRS), 4)
        for clone in (pickle.loads(pickle.dumps(view)),
                      copy.copy(view), copy.deepcopy(view)):
            assert type(clone) is frozenset
            assert clone == frozenset(PAIRS)


class TestAuditorReturnsViews:
    def test_audits_share_one_log_and_append_only_new_pairs(self):
        sim, reg, h = build_register(num_readers=2)
        run_sequentially(sim, "w0", [h["w0"].write_op("x")])
        run_sequentially(sim, "r0", [h["r0"].read_op()])
        first = run_sequentially(sim, "a0", [h["a0"].audit_op()])
        run_sequentially(sim, "r1", [h["r1"].read_op()])
        run_sequentially(sim, "w0", [h["w0"].write_op("y")])
        run_sequentially(sim, "r0", [h["r0"].read_op()])
        second = run_sequentially(sim, "a0", [h["a0"].audit_op()])
        third = run_sequentially(sim, "a0", [h["a0"].audit_op()])
        assert isinstance(first, AuditSet)
        assert first.log is second.log is third.log
        assert first == {(0, "x")}
        assert second == {(0, "x"), (1, "x"), (0, "y")}
        assert third == second and len(third.log) == 3

    def test_max_register_auditor_inherits_the_view(self):
        sim = Simulation()
        reg = AuditableMaxRegister(num_readers=1, initial=0)
        writer = reg.writer(sim.spawn("w"))
        reader = reg.reader(sim.spawn("r"), 0)
        auditor = reg.auditor(sim.spawn("a"))
        run_sequentially(sim, "w", [writer.write_max_op(4)])
        run_sequentially(sim, "r", [reader.read_op()])
        result = run_sequentially(sim, "a", [auditor.audit_op()])
        assert isinstance(result, AuditSet)
        assert result == {(0, 4)}


# ---------------------------------------------------------------------
# Codecs and walkers treat an AuditSet exactly as its frozenset
# ---------------------------------------------------------------------

VALUES = [
    AuditSet(list(PAIRS), 4),
    AuditSet([], 0),
    (AuditSet(list(PAIRS), 2), [AuditSet(list(PAIRS), 1)]),
]


def _plain(value):
    if isinstance(value, AuditSet):
        return frozenset(value)
    if isinstance(value, tuple):
        return tuple(_plain(v) for v in value)
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


class TestCodecs:
    @pytest.mark.parametrize("value", VALUES)
    def test_strict_codec_round_trip(self, value):
        encoded = encode_value(value)
        assert encoded == encode_value(_plain(value))
        assert decode_value(json.loads(json.dumps(encoded))) == value

    @pytest.mark.parametrize("value", VALUES)
    def test_loose_codec_round_trip(self, value):
        for encode in (encode_loose, strict_or_loose):
            encoded = encode(value)
            assert encoded == encode(_plain(value))
            assert "rx" not in json.dumps(encoded)
            assert decode_loose(json.loads(json.dumps(encoded))) == value

    @pytest.mark.parametrize("value", VALUES)
    def test_checkpoint_canon(self, value):
        vault = StateVault(Simulation(), roots=[])
        assert vault.canon(value) == vault.canon(_plain(value))

    def test_process_registry_walks_into_views(self):
        reg = AuditableRegister(num_readers=1)
        # An object reachable only through a view's contents is found
        # exactly as through a frozenset's.
        found = ObjectRegistry(
            {"audit": AuditSet([(0, reg.SN)], 1)}
        ).resolve(reg.SN.name)
        assert found is reg.SN


def _random_run(seed, readers=2, auditors=2, rounds=4):
    """A random-schedule simulator run: one writer, readers and
    auditors each doing ``rounds`` operations."""
    sim, reg, h = build_register(
        num_readers=readers, num_auditors=auditors, seed=seed
    )
    sim.add_program("w0", [h["w0"].write_op(f"v{k}") for k in range(rounds)])
    for j in range(readers):
        sim.add_program(f"r{j}", [h[f"r{j}"].read_op()] * rounds)
    for a in range(auditors):
        sim.add_program(f"a{a}", [h[f"a{a}"].audit_op()] * rounds)
    sim.run()
    return sim, reg


def _rebuild(history, results):
    """A copy of ``history`` with each audit result replaced by
    ``results[(pid, op_id)]`` (others kept)."""
    out = History()
    for event in history.events:
        if isinstance(event, Invocation):
            out.record_invocation(
                event.pid, event.op_id, event.op_name, event.args
            )
        elif isinstance(event, PrimitiveEvent):
            out.record_primitive(
                event.pid, event.op_id, event.obj_name, event.primitive,
                event.args, event.result,
            )
        elif isinstance(event, Response):
            out.record_response(
                event.pid, event.op_id, event.op_name,
                results.get((event.pid, event.op_id), event.result),
            )
        elif isinstance(event, CrashEvent):
            out.record_crash(event.pid, event.op_id)
    return out


def _audit_results(history):
    return {
        (op.pid, op.op_id): op.result
        for op in history.complete_operations(name="audit")
    }


def _event_log_bytes(history, tmp_path, name):
    path = tmp_path / name
    sink = JsonlEventSink(str(path), meta={"object": "register"})
    for event in history.events:
        sink(event)
    sink.close()
    return path.read_bytes()


class TestWireIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_event_log_and_lin_payload_match_frozenset_results(
        self, seed, tmp_path
    ):
        sim, _ = _random_run(seed)
        results = _audit_results(sim.history)
        assert results and all(
            isinstance(r, AuditSet) for r in results.values()
        )
        plain = _rebuild(
            sim.history, {k: frozenset(r) for k, r in results.items()}
        )
        assert _event_log_bytes(sim.history, tmp_path, "views.jsonl") == (
            _event_log_bytes(plain, tmp_path, "plain.jsonl")
        )

        def lin_payload(history):
            return json.dumps(
                [op_to_payload(op) for op in history.operations()],
                sort_keys=True, separators=(",", ":"),
            ).encode()

        assert lin_payload(sim.history) == lin_payload(plain)


# ---------------------------------------------------------------------
# The oracle's fast path, differentially against the batch oracle
# ---------------------------------------------------------------------

def _key(violations):
    return sorted(
        (v.audit_pid, v.audit_op_id, v.missing, v.extra)
        for v in violations
    )


def _agree(history, reg, window=8):
    batch = check_audit_exactness(history, reg)
    for w in (window, 1024):
        assert _key(check_audit_exactness_streaming(
            history, reg, window=w
        )) == _key(batch)
    return batch


def _per_auditor(history):
    """{pid: [(op_id, result), ...]} of completed audits, in order."""
    out = {}
    for op in history.complete_operations(name="audit"):
        out.setdefault(op.pid, []).append((op.op_id, op.result))
    return out


def _forge(history, make):
    """Re-express each auditor's results over a fresh log: ``make``
    maps (pid, k, previous pairs, honest delta) to the delta to append
    (or to a finished result, returned as-is)."""
    results = {}
    for pid, audits in _per_auditor(history).items():
        log, seen = [], set()
        for k, (op_id, honest) in enumerate(audits):
            delta = [p for p in sorted(honest, key=repr) if p not in seen]
            out = make(pid, k, log, delta)
            if isinstance(out, list):
                log.extend(out)
                seen.update(out)
                out = AuditSet(log, len(log))
            results[(pid, op_id)] = out
    return _rebuild(history, results)


SEEDS = range(12)


class TestFastPathDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_honest_views_agree_and_are_clean(self, seed):
        sim, reg = _random_run(seed)
        assert _agree(sim.history, reg) == []

    @pytest.mark.parametrize("seed", SEEDS)
    def test_delta_missing_a_pair(self, seed):
        sim, reg = _random_run(seed)
        held, forged = {}, set()

        def make(pid, k, log, delta):
            late = held.pop(pid, [])
            if k == 1 and delta:
                # Report the pair one audit late: only audit 1 misses it.
                held[pid] = delta[-1:]
                forged.add(pid)
                return late + delta[:-1]
            return late + delta

        violations = _agree(_forge(sim.history, make), reg)
        assert {v.audit_pid for v in violations} == forged

    @pytest.mark.parametrize("seed", SEEDS)
    def test_delta_with_an_extra_pair(self, seed):
        sim, reg = _random_run(seed)

        def make(pid, k, log, delta):
            return delta + [(0, f"forged-{pid}-{k}")] if k == 1 else delta

        violations = _agree(_forge(sim.history, make), reg)
        assert violations

    @pytest.mark.parametrize("seed", SEEDS)
    def test_delta_repeating_a_verified_pair(self, seed):
        sim, reg = _random_run(seed)

        def make(pid, k, log, delta):
            return delta + log[:1] if k >= 1 else delta

        # The value is still exact, so neither oracle reports anything.
        assert _agree(_forge(sim.history, make), reg) == []

    @pytest.mark.parametrize("seed", SEEDS)
    def test_two_auditors_sharing_one_log(self, seed):
        sim, reg = _random_run(seed)
        shared, seen, results = [], set(), {}
        audits = sorted(
            sim.history.complete_operations(name="audit"),
            key=lambda op: op.response_index,
        )
        for op in audits:
            for pair in sorted(op.result, key=repr):
                if pair not in seen:
                    seen.add(pair)
                    shared.append(pair)
            results[(op.pid, op.op_id)] = AuditSet(shared, len(shared))
        _agree(_rebuild(sim.history, results), reg)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_foreign_log_with_a_forged_prefix(self, seed):
        sim, reg = _random_run(seed)

        def make(pid, k, log, delta):
            if k == 2:
                # Same length as the verified prefix, honest delta, but
                # a different list whose first pair is forged.
                foreign = [(0, f"forged-{pid}")] + log[1:] + delta
                log.extend(delta)
                return AuditSet(foreign, len(foreign))
            return delta

        violations = _agree(_forge(sim.history, make), reg)
        assert {v.audit_pid for v in violations} == {"a0", "a1"}

    @pytest.mark.parametrize("seed", SEEDS)
    def test_n_shrinking(self, seed):
        sim, reg = _random_run(seed)

        def make(pid, k, log, delta):
            if k == 2 and log:
                return AuditSet(log, len(log) - 1)
            return delta

        _agree(_forge(sim.history, make), reg)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_plain_frozenset_in_between(self, seed):
        sim, reg = _random_run(seed)

        def make(pid, k, log, delta):
            if k == 1:
                log.extend(delta)
                return frozenset(log)
            return delta

        assert _agree(_forge(sim.history, make), reg) == []

    def test_next_honest_audit_after_a_violation_is_checked_in_full(self):
        sim, reg = _random_run(3, auditors=1, rounds=6)
        held = []

        def make(pid, k, log, delta):
            if k == 2:
                held.extend(delta)
                return []  # report nothing new: a violation if delta
            late = list(held)
            held.clear()
            return late + delta

        forged = _forge(sim.history, make)
        violations = _agree(forged, reg)
        assert [v.audit_op_id for v in violations] == [2]

        full_cuts = []

        class Spy(WindowedAuditOracle):
            def expected(self, before_index):
                full_cuts.append(before_index)
                return super().expected(before_index)

        oracle = Spy(reg.R.name, decode=reg._decode_value)
        for event in forged.events:
            oracle.feed(event)
        audits = forged.complete_operations(name="audit")
        cuts = [
            next(e.index for e in op.primitives
                 if e.obj_name == reg.R.name and e.primitive == "read")
            for op in audits
        ]
        # First audit: no verified entry yet; third: the violation;
        # fourth: the resync after it.  Every other audit is a delta.
        assert full_cuts == [cuts[0], cuts[2], cuts[3]]

    def test_dup_audit_violation_is_still_reported_by_both_oracles(self):
        from repro.fuzz import get_target, run_one, sampler_from_name
        from repro.fuzz.targets import alg1_crash_scenario

        seen = []

        def builder():
            factory, check = alg1_crash_scenario()

            def both(sim, reg):
                verdict = check(sim, reg)
                seen.append((
                    verdict,
                    _key(check_audit_exactness(sim.history, reg)),
                    _key(check_audit_exactness_streaming(sim.history, reg)),
                ))
                return verdict

            return factory, both

        target = dataclasses.replace(
            get_target("alg1-dup-audit"), builder=builder
        )
        found = any(
            run_one(target, seed, sampler_from_name("fault")).violating
            for seed in range(64)
        )
        assert found
        verdict, batch, streaming = seen[-1]
        assert verdict is not None and batch
        assert streaming == batch


# ---------------------------------------------------------------------
# Growth rate: the oracle's work is linear in the run, not quadratic
# ---------------------------------------------------------------------

def _pairs_compared(rounds, seed=5):
    sim = Simulation(schedule=RandomSchedule(seed))
    reg = AuditableRegister(num_readers=1, initial="v0")
    writer = reg.writer(sim.spawn("w0"))
    reader = reg.reader(sim.spawn("r0"), 0)
    auditor = reg.auditor(sim.spawn("a0"))
    sim.add_program("w0", [writer.write_op(k) for k in range(rounds)])
    sim.add_program("r0", [reader.read_op()] * rounds)
    sim.add_program("a0", [auditor.audit_op()] * rounds)
    sim.run()
    oracle = WindowedAuditOracle(reg.R.name)
    for event in sim.history.events:
        oracle.feed(event)
    assert not oracle.violations
    assert oracle.audits_checked == rounds
    return oracle.pairs_compared


def test_oracle_work_grows_linearly_with_run_length():
    small, large = _pairs_compared(100), _pairs_compared(400)
    assert small > 0
    # Linear work gives ~4x; a full comparison per audit gives ~16x.
    assert large <= 5 * small, (small, large)
