"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions of the program from outside: it
replaces a module or class attribute with a wrapper that records one
span per call and calls the original.  Nothing under ``src/`` changes.

Each span records its name, its parent span (the innermost span open on
the same thread when it started), its ``perf_counter_ns`` start and end
and its ``thread_time_ns`` CPU time; the workload run id is the
tracer's.  Spans are kept in per-thread ``array`` columns, so recording
takes no lock and a span costs 48 bytes, and they are written out only
when the run ends (:meth:`Tracer.write`).

A layer's *self* time is its spans' time minus the part their direct
children cover.  Summed over all layers, self CPU equals the CPU of the
root spans; :meth:`Tracer.accounting` checks that against the process
CPU time the caller measured around the traced call.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The fields of a span, in the order each span's row stores them.
COLUMNS = ("id", "name", "parent", "start_ns", "end_ns", "cpu_ns")
_WIDTH = len(COLUMNS)

#: Allowed gap between (sum of per-layer self CPU + CPU outside spans)
#: and the process CPU time of the traced call: this share of the total
#: plus :data:`ACCOUNTING_SLACK_S`.
ACCOUNTING_TOLERANCE = 0.01
ACCOUNTING_SLACK_S = 0.005


class _Buffer:
    """The spans one thread recorded: one row of :data:`COLUMNS` per
    span, appended when the span closes (children before parents).
    Span ids count up per thread from 0 in opening order."""

    __slots__ = ("thread", "stack", "count", "rows")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.stack: List[int] = []
        self.count = 0
        self.rows = array("q")


class Tracer:
    """Records spans for one workload run (``run_id``)."""

    def __init__(self, run_id: int) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._buffers: List[_Buffer] = []
        self._buffers_lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _buffer(self) -> _Buffer:
        buf = _Buffer(threading.current_thread().name)
        with self._buffers_lock:
            self._buffers.append(buf)
        self._local.buf = buf
        return buf

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[[tuple, Any, int], None]] = None,
    ) -> Callable:
        """``fn`` recording a ``name`` span per call.

        ``after(args, result, cpu_ns)`` runs once the span has closed,
        for counts that need the call's arguments or result.
        """
        name_id = self._name_id(name)
        local, new_buffer = self._local, self._buffer
        perf, cpu = time.perf_counter_ns, time.thread_time_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                buf = local.buf
            except AttributeError:
                buf = new_buffer()
            stack = buf.stack
            parent = stack[-1] if stack else -1
            ident = buf.count
            buf.count = ident + 1
            stack.append(ident)
            c0 = cpu()
            w0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                w1 = perf()
                c1 = cpu()
                stack.pop()
                buf.rows.extend((ident, name_id, parent, w0, w1, c1 - c0))
            if after is not None:
                after(args, result, c1 - c0)
            return result

        return traced

    def wrap_iter(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[[Any], None]] = None,
    ) -> Callable:
        """``fn`` (a generator function) recording a ``name`` span per
        item it produces; the consumer's work between items is not in
        the span.  ``after(item)`` runs outside the span."""
        next_item = self.wrap(name, next)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                try:
                    item = next_item(items)
                except StopIteration:
                    return
                if after is not None:
                    after(item)
                yield item

        return traced

    def patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        """Replace ``owner.attr`` with ``wrapper`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute (also run in forked children,
        whose spans could never be reported)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, wall and CPU seconds, self CPU seconds
        and the wall end of the last span (``last_end_ns``)."""
        acc = {name: [0, 0, 0, 0, 0] for name in self.names}
        for buf in self._buffers:
            rows = buf.rows
            child_cpu = [0] * buf.count
            for r in range(0, len(rows), _WIDTH):
                if rows[r + 2] >= 0:
                    child_cpu[rows[r + 2]] += rows[r + 5]
            for r in range(0, len(rows), _WIDTH):
                entry = acc[self.names[rows[r + 1]]]
                entry[0] += 1
                entry[1] += rows[r + 4] - rows[r + 3]
                entry[2] += rows[r + 5]
                entry[3] += rows[r + 5] - child_cpu[rows[r]]
                entry[4] = max(entry[4], rows[r + 4])
        return {
            name: {"calls": calls, "wall_s": wall / 1e9, "cpu_s": cpu / 1e9,
                   "self_cpu_s": self_cpu / 1e9, "last_end_ns": last_end}
            for name, (calls, wall, cpu, self_cpu, last_end) in acc.items()
        }

    def root_cpu_s(self) -> float:
        """CPU seconds inside outermost spans, over all threads."""
        return sum(
            buf.rows[r + 5]
            for buf in self._buffers
            for r in range(0, len(buf.rows), _WIDTH)
            if buf.rows[r + 2] < 0
        ) / 1e9

    def accounting(
        self, total_cpu_s: float, layers: Dict[str, Dict[str, float]]
    ) -> Dict[str, Any]:
        """Check that per-layer self CPU (``layers``, from
        :meth:`layers`) plus the CPU outside every span equals
        ``total_cpu_s``, the process CPU time of the traced call.

        Fails when spans claim more CPU than the process spent or when
        self times do not add up to their roots (a span attributed to
        the wrong parent)."""
        self_sum = sum(e["self_cpu_s"] for e in layers.values())
        other = total_cpu_s - self.root_cpu_s()
        allowed = ACCOUNTING_TOLERANCE * total_cpu_s + ACCOUNTING_SLACK_S
        gap = abs(self_sum + other - total_cpu_s)
        return {
            "total_cpu_s": total_cpu_s,
            "self_cpu_sum_s": self_sum,
            "other_cpu_s": other,
            "gap_s": gap,
            "allowed_s": allowed,
            "ok": gap <= allowed and other >= -allowed,
        }

    def write(self, path: str) -> None:
        """Write every span: one JSON header line, then per thread its
        rows of :data:`COLUMNS` as native-endian int64 (see
        :func:`read_spans`)."""
        header = {
            "run_id": self.run_id,
            "names": self.names,
            "columns": list(COLUMNS),
            "threads": [
                [b.thread, len(b.rows) // _WIDTH] for b in self._buffers
            ],
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for buf in self._buffers:
                buf.rows.tofile(fh)


def read_spans(path: str) -> Tuple[Dict[str, Any], List[Dict[str, array]]]:
    """Load a file written by :meth:`Tracer.write`: the header and, per
    thread, one array per column."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        threads = []
        for _thread, count in header["threads"]:
            rows = array("q")
            rows.fromfile(fh, count * _WIDTH)
            threads.append({
                column: rows[i::_WIDTH]
                for i, column in enumerate(header["columns"])
            })
    return header, threads
