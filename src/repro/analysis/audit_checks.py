"""Audit exactness: the paper's central auditability guarantee.

Theorem 8 (and Theorem 40): an audit reports ``(j, v)`` *iff* ``p_j``
has a ``v``-effective read linearized before the audit.  Because a
direct read is linearized at its ``fetch&xor`` on ``R``, an audit at its
``read`` of ``R``, and silent reads only duplicate the pair of an
earlier direct read by the same reader, the expected audit set has a
purely syntactic oracle:

    expected(audit) = { (j, decode(w.val)) :
                        some reader applied fetch&xor(2^j) to R,
                        returning triple w,
                        before the audit's read of R }

This module computes that oracle from the trace and compares it with
every completed audit's response.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.audit_set import AuditSet
from repro.sim.events import CrashEvent, PrimitiveEvent, Response
from repro.sim.history import History, OperationRecord


@dataclass(frozen=True)
class AuditViolation:
    audit_pid: str
    audit_op_id: int
    missing: frozenset  # effective reads the audit failed to report
    extra: frozenset  # reported pairs with no matching effective read

    def __str__(self) -> str:
        return (
            f"audit by {self.audit_pid} (op {self.audit_op_id}): "
            f"missing={set(self.missing)} extra={set(self.extra)}"
        )


def _audit_linearization_index(
    op: OperationRecord, r_name: str
) -> Optional[int]:
    """The audit's linearization point: its read of ``R`` (Alg.1 l.17)."""
    for event in op.primitives:
        if event.obj_name == r_name and event.primitive == "read":
            return event.index
    return None


class AuditOracle:
    """The syntactic audit oracle of one history, precomputed once.

    The history is scanned a single time for ``fetch&xor`` events on
    ``R`` (decoding each announced value once); every subsequent
    ``expected(before_index)`` query is a binary search plus a prefix
    materialisation.  This removes the O(audits x events) rescan the
    per-call :func:`expected_audit_set` used to pay -- the same
    quadratic-precompute bug class the linearizability rewrite fixed.
    """

    def __init__(self, history: History, register) -> None:
        self._r_name: str = register.R.name
        self._indices: List[int] = []
        self._pairs: List[Tuple[int, Any]] = []
        for event in history.primitive_events(
            obj_name=self._r_name, primitive="fetch_xor"
        ):
            j = event.args[0].bit_length() - 1
            self._indices.append(event.index)
            self._pairs.append((j, register._decode_value(event.result.val)))

    def expected(self, before_index: int) -> Set[Tuple[int, Any]]:
        """Pairs of effective reads linearized before ``before_index``."""
        count = bisect_left(self._indices, before_index)
        return set(self._pairs[:count])

    def linearization_index(self, op: OperationRecord) -> Optional[int]:
        """The audit's linearization point (its read of ``R``), or
        ``None`` for an audit of a different object."""
        return _audit_linearization_index(op, self._r_name)


def audit_oracle(history: History, register) -> AuditOracle:
    """Precompute the audit oracle for repeated queries."""
    return AuditOracle(history, register)


def expected_audit_set(
    history: History, register, before_index: int
) -> Set[Tuple[int, Any]]:
    """Pairs of effective reads linearized before ``before_index``.

    One-shot convenience; for several queries against the same history
    build an :func:`audit_oracle` once and reuse it.
    """
    return AuditOracle(history, register).expected(before_index)


def check_audit_exactness(
    history: History, register
) -> List[AuditViolation]:
    """Compare each completed audit against the syntactic oracle."""
    violations: List[AuditViolation] = []
    r_name = register.R.name
    oracle = AuditOracle(history, register)
    for op in history.complete_operations(name="audit"):
        lin = _audit_linearization_index(op, r_name)
        if lin is None:
            continue  # audit of a different object
        expected = oracle.expected(lin)
        reported = set(op.result)
        if expected != reported:
            violations.append(
                AuditViolation(
                    audit_pid=op.pid,
                    audit_op_id=op.op_id,
                    missing=frozenset(expected - reported),
                    extra=frozenset(reported - expected),
                )
            )
    return violations


class WindowedAuditOracle:
    """The syntactic audit oracle over a *stream* of events.

    :class:`AuditOracle` scans a fully buffered history; this variant
    consumes events as they arrive and checks each audit at its
    response, holding only **carried state**: the first-occurrence
    timeline of distinct announced pairs plus read-of-``R`` markers for
    in-flight operations.  Every ``window`` events the timeline is
    compacted — entries no outstanding audit can still cut through are
    folded into a frozen base set — so resident state is bounded by the
    answer size (distinct pairs) plus the window, never by the stream
    length.  The companion of :class:`~repro.analysis.streamlin.
    StreamingLinChecker` on the ``repro serve`` / ``stress --online``
    paths.

    **Incremental checks.**  An audit's value is cumulative, so
    comparing it whole costs O(|A|) per audit.  The oracle remembers,
    per auditor, the ``(log, n, cut)`` of its last verified
    :class:`~repro.core.audit_set.AuditSet`.  A new result that is a
    view of the same log with ``n' >= n`` and a cut ``cut' >= cut`` is
    checked by its delta: ``log[n:n']`` must hold exactly the pairs
    first seen in ``[cut, cut')``, in O(delta).  That is sound because the
    log is append-only (its verified prefix still equals the expected
    set at ``cut``) and the expected set only grows by first-seen
    pairs.  Every other shape — a plain frozenset, a foreign log, a
    shrinking ``n``, a delta that differs — takes the full comparison,
    which alone decides violations, so the fast path can never invent
    one.  A violation drops the auditor's entry, so its next audit is
    compared in full (the oracle resyncs).  ``pairs_compared`` counts
    the pairs both paths touch; it is a progress counter, never part of
    a checkpoint record.

    ``decode`` mirrors ``register._decode_value`` (identity for the
    plain register, version-stripping for the max register); ``lift``
    post-processes each pair before comparison, e.g.
    ``lambda j, v: (j, v[1])`` for objects built on an auditable max
    register whose audits strip the version component (the streaming
    form of :func:`repro.engine.tasks.lifted_audit_violations`).
    """

    def __init__(
        self,
        r_name: str,
        *,
        decode: Optional[Callable[[Any], Any]] = None,
        lift: Optional[Callable[[int, Any], Tuple[int, Any]]] = None,
        window: int = 1024,
    ) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        self._r_name = r_name
        self._decode = decode or (lambda value: value)
        self._lift = lift
        self._window = window
        # Carried state: pairs already safe to freeze ...
        self._base: Set[Tuple[int, Any]] = set()
        self._compacted_to = 0  # every cut >= this is still answerable
        # ... plus the recent first-occurrence timeline (index-sorted).
        self._recent_indices: List[int] = []
        self._recent_pairs: List[Tuple[int, Any]] = []
        self._first_seen: Dict[Tuple[int, Any], int] = {}
        # First read-of-R index per in-flight operation.
        self._read_marks: Dict[Tuple[str, int], int] = {}
        # Per auditor: (log, n, cut) of its last verified AuditSet.
        self._verified: Dict[str, Tuple[List[Any], int, int]] = {}
        self.violations: List[AuditViolation] = []
        self.events = 0
        self.audits_checked = 0
        self.pairs_compared = 0
        self.windows = 0
        self.peak_recent = 0

    # -- event intake ------------------------------------------------------

    def feed(self, event: Any) -> Optional[AuditViolation]:
        """Consume one history event (in index order); returns the
        violation if the event completed a non-exact audit."""
        self.events += 1
        violation: Optional[AuditViolation] = None
        if isinstance(event, PrimitiveEvent):
            if event.obj_name == self._r_name:
                if event.primitive == "fetch_xor":
                    j = event.args[0].bit_length() - 1
                    pair = (j, self._decode(event.result.val))
                    if self._lift is not None:
                        pair = self._lift(*pair)
                    if pair not in self._first_seen:
                        self._first_seen[pair] = event.index
                        self._recent_indices.append(event.index)
                        self._recent_pairs.append(pair)
                        if len(self._recent_pairs) > self.peak_recent:
                            self.peak_recent = len(self._recent_pairs)
                elif event.primitive == "read":
                    self._read_marks.setdefault(
                        (event.pid, event.op_id), event.index
                    )
        elif isinstance(event, Response):
            mark = self._read_marks.pop((event.pid, event.op_id), None)
            if event.op_name == "audit" and mark is not None:
                violation = self._check_audit(
                    event.pid, event.op_id, mark, event.result
                )
        elif isinstance(event, CrashEvent):
            # A crashed op never responds; free its marker so the
            # compaction safe-point keeps advancing.
            self._read_marks.pop((event.pid, event.op_id), None)
        if self.events % self._window == 0:
            self._roll()
        return violation

    def _check_audit(
        self, pid: str, op_id: int, lin: int, reported: Any
    ) -> Optional[AuditViolation]:
        self.audits_checked += 1
        is_view = isinstance(reported, AuditSet)
        if is_view and self._check_delta(pid, lin, reported):
            return None
        expected = self.expected(lin)
        reported_set = set(reported)
        self.pairs_compared += len(expected) + len(reported_set)
        if expected == reported_set:
            if is_view:
                self._verified[pid] = (reported.log, len(reported), lin)
            else:
                self._verified.pop(pid, None)
            return None
        self._verified.pop(pid, None)
        violation = AuditViolation(
            audit_pid=pid,
            audit_op_id=op_id,
            missing=frozenset(expected - reported_set),
            extra=frozenset(reported_set - expected),
        )
        self.violations.append(violation)
        return violation

    def _check_delta(self, pid: str, lin: int, reported: AuditSet) -> bool:
        """The O(delta) inductive check; ``False`` means "undecided
        here", never "violation"."""
        prev = self._verified.get(pid)
        if prev is None:
            return False
        log, n = reported.log, len(reported)
        prev_log, prev_n, prev_cut = prev
        if log is not prev_log or n < prev_n or lin < prev_cut:
            return False
        delta = log[prev_n:n]
        fresh = self._recent_pairs[
            bisect_left(self._recent_indices, prev_cut):
            bisect_left(self._recent_indices, lin)
        ]
        self.pairs_compared += len(delta) + len(fresh)
        if set(delta) != set(fresh):
            return False
        self._verified[pid] = (log, n, lin)
        return True

    # -- the sliding window ------------------------------------------------

    def _roll(self) -> None:
        """Fold timeline entries that no outstanding operation — and no
        auditor's verified cut — can still cut through into the frozen
        base set."""
        self.windows += 1
        cuts = [cut for _, _, cut in self._verified.values()]
        cuts.extend(self._read_marks.values())
        safe = min(cuts, default=None)
        horizon = len(self._recent_indices)
        if safe is not None:
            horizon = bisect_left(self._recent_indices, safe)
        if horizon == 0:
            return
        self._base.update(self._recent_pairs[:horizon])
        if safe is None and self._recent_indices:
            self._compacted_to = self._recent_indices[horizon - 1] + 1
        elif safe is not None:
            self._compacted_to = safe
        del self._recent_indices[:horizon]
        del self._recent_pairs[:horizon]

    # -- queries -----------------------------------------------------------

    def expected(self, before_index: int) -> Set[Tuple[int, Any]]:
        """Pairs of effective reads linearized before ``before_index``.

        Only answerable for cuts the window has not compacted past
        (every outstanding audit's cut, by construction).
        """
        if before_index < self._compacted_to:
            raise ValueError(
                f"cut {before_index} compacted away (window already "
                f"rolled to {self._compacted_to})"
            )
        count = bisect_left(self._recent_indices, before_index)
        return self._base | set(self._recent_pairs[:count])


def windowed_audit_oracle(
    register, *, lift=None, window: int = 1024
) -> WindowedAuditOracle:
    """Build a :class:`WindowedAuditOracle` for an auditable register
    (uses its ``R`` name and value decoding)."""
    return WindowedAuditOracle(
        register.R.name,
        decode=register._decode_value,
        lift=lift,
        window=window,
    )


def check_audit_exactness_streaming(
    history: History, register, *, lift=None, window: int = 1024
) -> List[AuditViolation]:
    """Stream a recorded history through :class:`WindowedAuditOracle`.

    Differential counterpart of :func:`check_audit_exactness` (or, with
    ``lift``, of :func:`repro.engine.tasks.lifted_audit_violations`):
    same violations, windowed carried state instead of a full-history
    scan.
    """
    oracle = windowed_audit_oracle(register, lift=lift, window=window)
    for event in history.events:
        oracle.feed(event)
    return oracle.violations


def check_audit_monotone(history: History) -> List[str]:
    """Per-auditor audit responses must be non-decreasing sets."""
    problems: List[str] = []
    latest: dict = {}
    for op in history.complete_operations(name="audit"):
        previous = latest.get(op.pid, frozenset())
        current = frozenset(op.result)
        if not previous <= current:
            problems.append(
                f"audit by {op.pid} shrank: lost {set(previous - current)}"
            )
        latest[op.pid] = current
    return problems
