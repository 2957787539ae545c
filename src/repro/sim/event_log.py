"""History events as tagged-JSON lines: the streaming wire format.

The online verdict paths move history events across process and
machine boundaries — the thread/process runtimes stream them into
``python -m repro serve``, and ``stress --online --event-log`` spools
them to disk.  This module defines the line protocol.

Values go through the repo's one value codec, :mod:`repro.codec`, with
its ``repr`` leaf fallback: the event log is the only writer that
accepts a value no tag covers, as a capsule that compares by its text.

Line protocol (one JSON object per line)::

    {"k": "hello", "v": 1, ...meta}     stream header
    {"k": "inv", ...} / {"k": "res", ...} / {"k": "prim", ...}
    {"k": "crash", ...}                 history events, index order
    {"k": "end", "events": N}           clean end-of-stream marker

A stream that stops without its ``end`` marker was truncated — the
consumer must report a PARTIAL verdict, never OK.  A ``hello`` line
naming any other version is rejected with
:class:`ProtocolVersionError`: a reader must never judge a format it
does not know.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional, TextIO, Tuple

from repro.codec import decode_value, encode_value, repr_leaf
from repro.sim.events import CrashEvent, Invocation, PrimitiveEvent, Response

#: Wire-format version (the ``hello`` line carries it).
PROTOCOL_VERSION = 1


class ProtocolVersionError(ValueError):
    """A ``hello`` line names a wire-format version this reader does
    not speak.  Unlike a corrupt line it is never read as truncation."""


# ---------------------------------------------------------------------
# Event <-> payload
# ---------------------------------------------------------------------

def event_to_payload(event: Any) -> Dict[str, Any]:
    if isinstance(event, Invocation):
        return {
            "k": "inv",
            "i": event.index,
            "p": event.pid,
            "o": event.op_id,
            "n": event.op_name,
            "a": encode_value(tuple(event.args), repr_leaf),
        }
    if isinstance(event, Response):
        return {
            "k": "res",
            "i": event.index,
            "p": event.pid,
            "o": event.op_id,
            "n": event.op_name,
            "r": encode_value(event.result, repr_leaf),
        }
    if isinstance(event, PrimitiveEvent):
        return {
            "k": "prim",
            "i": event.index,
            "p": event.pid,
            "o": event.op_id,
            "obj": event.obj_name,
            "prim": event.primitive,
            "a": encode_value(tuple(event.args), repr_leaf),
            "r": encode_value(event.result, repr_leaf),
        }
    if isinstance(event, CrashEvent):
        return {
            "k": "crash",
            "i": event.index,
            "p": event.pid,
            "o": event.op_id,
        }
    raise TypeError(f"cannot encode event {event!r}")


def event_from_payload(payload: Dict[str, Any]) -> Any:
    kind = payload["k"]
    if kind == "inv":
        return Invocation(
            payload["i"], payload["p"], payload["o"], payload["n"],
            decode_value(payload["a"]),
        )
    if kind == "res":
        return Response(
            payload["i"], payload["p"], payload["o"], payload["n"],
            decode_value(payload["r"]),
        )
    if kind == "prim":
        return PrimitiveEvent(
            payload["i"], payload["p"], payload["o"], payload["obj"],
            payload["prim"], decode_value(payload["a"]),
            decode_value(payload["r"]),
        )
    if kind == "crash":
        return CrashEvent(payload["i"], payload["p"], payload["o"])
    raise ValueError(f"unknown event kind {kind!r}")


# ---------------------------------------------------------------------
# The JSONL sink (History.stream_to target)
# ---------------------------------------------------------------------

class JsonlEventSink:
    """Writes one tagged-JSON line per history event.

    Construct it with a path and attach via
    ``history.stream_to(sink)``; the file opens lazily at the first
    event (so the sink pickles cleanly into the memory-server process
    of :class:`~repro.rt.process_runtime.ProcessRuntime`) and a
    ``hello`` header is written first.  Call :meth:`close` after a
    clean run to append the ``end`` marker — a log without it reads as
    truncated (PARTIAL), which is exactly right for a crashed run.
    """

    def __init__(
        self, path: str, meta: Optional[Dict[str, Any]] = None
    ) -> None:
        self.path = path
        self.meta = dict(meta or {})
        self._fh: Optional[TextIO] = None
        self.events_written = 0

    def _open(self) -> TextIO:
        if self._fh is None:
            self._fh = open(self.path, "w", encoding="utf-8")
            header = {"k": "hello", "v": PROTOCOL_VERSION}
            header.update(self.meta)
            self._fh.write(
                json.dumps(header, sort_keys=True, separators=(",", ":"))
                + "\n"
            )
        return self._fh

    def __call__(self, event: Any) -> None:
        fh = self._open()
        fh.write(
            json.dumps(
                event_to_payload(event),
                sort_keys=True,
                separators=(",", ":"),
            )
            + "\n"
        )
        self.events_written += 1

    def close(self, end: bool = True) -> None:
        fh = self._open()  # even an empty run gets a well-formed log
        if end:
            fh.write(
                json.dumps(
                    {"k": "end", "events": self.events_written},
                    sort_keys=True,
                    separators=(",", ":"),
                )
                + "\n"
            )
        fh.close()
        self._fh = None

    # Lazy-open keeps the sink picklable until first use.
    def __getstate__(self) -> Dict[str, Any]:
        if self._fh is not None:
            raise TypeError("cannot pickle an open JsonlEventSink")
        return {
            "path": self.path,
            "meta": self.meta,
            "events_written": self.events_written,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.path = state["path"]
        self.meta = state["meta"]
        self.events_written = state["events_written"]
        self._fh = None


# ---------------------------------------------------------------------
# Reading streams back
# ---------------------------------------------------------------------

def parse_line(line: str) -> Tuple[str, Any]:
    """Parse one protocol line into ``(kind, value)``.

    ``kind`` is ``"hello"`` (value: meta dict), ``"event"`` (value: a
    decoded event) or ``"end"`` (value: the declared event count, or
    ``None``).
    """
    payload = json.loads(line)
    kind = payload.get("k")
    if kind == "hello":
        if payload.get("v") != PROTOCOL_VERSION:
            raise ProtocolVersionError(
                f"event log protocol version {payload.get('v')!r} is not "
                f"{PROTOCOL_VERSION}"
            )
        return "hello", payload
    if kind == "end":
        return "end", payload.get("events")
    return "event", event_from_payload(payload)


def iter_event_log(path: str) -> Iterator[Tuple[str, Any]]:
    """Yield ``(kind, value)`` per :func:`parse_line` for each line.

    Torn trailing lines (a writer killed mid-write) are swallowed —
    the stream simply ends without its ``end`` marker, which consumers
    already treat as truncation.  An unknown protocol version raises
    :class:`ProtocolVersionError`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                parsed = parse_line(line)
            except ProtocolVersionError:
                raise
            except (ValueError, KeyError):
                return
            yield parsed


def load_event_log(
    path: str,
) -> Tuple[List[Any], bool, Dict[str, Any]]:
    """Read a whole log: ``(events, clean_end, meta)``."""
    events: List[Any] = []
    clean = False
    meta: Dict[str, Any] = {}
    for kind, value in iter_event_log(path):
        if kind == "hello":
            meta = value
        elif kind == "end":
            clean = True
        else:
            events.append(value)
    return events, clean, meta
