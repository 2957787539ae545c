"""The event log's wire format, pinned byte for byte.

``tests/golden/event_log.jsonl`` is the log :func:`write_log` writes: one
random-schedule simulator run over an Algorithm 1 register whose initial
value is ``⊥``, an Algorithm 2 max register, a snapshot and the naive
baseline.  Between them their events carry every value tag the log uses:
``t`` tuples, ``s`` sets, ``rw`` words of ``R``, ``btm``, ``ns``
dataclasses and ``rx`` repr capsules.  Rewrite the file with

    PYTHONPATH=src python tests/test_event_log_golden.py

and only when the wire format changes on purpose.
"""

import json
from pathlib import Path

from repro import (
    BOTTOM,
    AuditableMaxRegister,
    AuditableRegister,
    AuditableSnapshot,
    RandomSchedule,
    Simulation,
)
from repro.baselines.naive_auditable import NaiveAuditableRegister
from repro.sim.event_log import JsonlEventSink, event_to_payload, parse_line

GOLDEN = Path(__file__).parent / "golden" / "event_log.jsonl"


def write_log(path, seed=7):
    """Run the fixed system under ``RandomSchedule(seed)``, streaming
    its events to ``path``."""
    sim = Simulation(schedule=RandomSchedule(seed))
    reg = AuditableRegister(num_readers=2, initial=BOTTOM, name="reg")
    mx = AuditableMaxRegister(num_readers=1, name="max")
    snap = AuditableSnapshot(components=2, num_scanners=1, name="snap")
    naive = NaiveAuditableRegister(num_readers=1, name="naive")

    def add(pid, handle, ops):
        h = handle(sim.spawn(pid))
        sim.add_program(pid, [make(h) for make in ops])

    add("reg.w", reg.writer,
        [lambda h: h.write_op("a"), lambda h: h.write_op(("b", 1))])
    add("reg.r0", lambda p: reg.reader(p, 0), [lambda h: h.read_op()] * 2)
    add("reg.r1", lambda p: reg.reader(p, 1), [lambda h: h.read_op()])
    add("reg.a", reg.auditor, [lambda h: h.audit_op()] * 2)
    add("max.w", mx.writer,
        [lambda h: h.write_max_op(5), lambda h: h.write_max_op(9)])
    add("max.r", lambda p: mx.reader(p, 0), [lambda h: h.read_op()])
    add("max.a", mx.auditor, [lambda h: h.audit_op()])
    add("snap.u", lambda p: snap.updater(p, 0), [lambda h: h.update_op(7)])
    add("snap.s", lambda p: snap.scanner(p, 0), [lambda h: h.scan_op()])
    add("snap.a", snap.auditor, [lambda h: h.audit_op()])
    add("naive.w", naive.writer, [lambda h: h.write_op("x")])
    add("naive.r", lambda p: naive.reader(p, 0), [lambda h: h.read_op()])
    add("naive.a", naive.auditor, [lambda h: h.audit_op()])

    sink = JsonlEventSink(str(path), meta={"source": "golden"})
    sim.history.stream_to(sink)
    sim.run()
    sink.close()


def _tags(encoded, found):
    if isinstance(encoded, dict):
        for tag, items in encoded.items():
            found.add(tag)
            _tags(items, found)
    elif isinstance(encoded, list):
        for item in encoded:
            _tags(item, found)
    return found


def _golden_lines():
    return GOLDEN.read_text(encoding="utf-8").splitlines()


def test_golden_covers_every_value_tag():
    found = set()
    for line in _golden_lines():
        payload = json.loads(line)
        for key in ("a", "r"):
            if key in payload:
                _tags(payload[key], found)
    assert {"t", "s", "rw", "btm", "ns", "rx"} <= found


def test_simulator_run_writes_the_golden_bytes(tmp_path):
    path = tmp_path / "events.jsonl"
    write_log(path)
    assert path.read_bytes() == GOLDEN.read_bytes()


def test_decode_then_encode_is_byte_identical():
    lines = _golden_lines()
    assert parse_line(lines[0])[0] == "hello"
    assert parse_line(lines[-1]) == ("end", len(lines) - 2)
    for line in lines[1:-1]:
        kind, event = parse_line(line)
        assert kind == "event"
        again = json.dumps(
            event_to_payload(event), sort_keys=True, separators=(",", ":")
        )
        assert again == line


if __name__ == "__main__":
    write_log(GOLDEN)
