"""Algorithm 1: the wait-free auditable multi-writer multi-reader register.

The register stores, in a single word ``R``, the current value, its
sequence number, and the set of its readers *encrypted with a one-time
pad* known only to writers and auditors.  Past values and their (now
plaintext) reader sets are archived in unbounded arrays ``V`` and ``B``
before each overwrite.

The two leaks of the naive design (Section 3.1) are closed as follows:

- *crash-simulating attack*: a read applies at most one primitive to
  ``R``, and that primitive -- ``fetch&xor(2^j)`` -- atomically returns
  the current value **and** inserts the reader into the encrypted reader
  set.  There is no window between learning the value and being logged:
  a read is auditable the instant it becomes effective.
- *partial auditing by curious readers*: the tracking bits a reader
  observes are one-time-pad ciphertext, uniformly distributed and
  independent of the actual reader set.  Only writers and auditors hold
  the masks.

The ``SN`` register publishes the sequence number of the *completed*
current write; readers short-circuit (a *silent* read) when ``SN`` has
not moved since their previous read, which guarantees each reader applies
at most one fetch&xor to ``R`` per sequence number -- both the
wait-freedom bound for writers (Lemma 2: at most m+1 loop iterations) and
the single-use discipline of the pad (Lemma 7) depend on this.

All methods are generator functions to be driven by a
:class:`~repro.sim.runner.Simulation`; see ``examples/quickstart.py``.
"""

from __future__ import annotations

from typing import Any, List, Optional, Set, Tuple

from repro.core.audit_set import AuditSet
from repro.crypto.pad import OneTimePadSequence
from repro.memory.array import BitMatrix, RegisterArray
from repro.memory.base import BOTTOM
from repro.memory.main_register import MainRegister
from repro.memory.register import CasRegister
from repro.memory.rword import RWord
from repro.sim.process import Op, ProcessRef


class AuditableRegister:
    """Shared state of Algorithm 1 plus handle factories.

    One instance is the shared object; per-process access goes through
    :meth:`reader`, :meth:`writer` and :meth:`auditor` handles, which
    carry the per-process local variables of the pseudo-code.

    ``num_readers`` is the paper's ``m``; reader indices are
    ``0..m-1``.  Writers and auditors are any other processes.
    """

    def __init__(
        self,
        num_readers: int,
        initial: Any = BOTTOM,
        pad: Optional[OneTimePadSequence] = None,
        name: str = "areg",
    ) -> None:
        if num_readers < 1:
            raise ValueError("need at least one reader")
        self.num_readers = num_readers
        self.name = name
        self.pad = pad or OneTimePadSequence(num_readers)
        if self.pad.num_readers != num_readers:
            raise ValueError("pad width must equal the number of readers")
        self.initial = initial
        # R: (sequence number, value, m-bit string), initially
        # (0, v0, rand_0) -- the empty reader set encrypted with mask 0.
        self.R = MainRegister(
            f"{name}.R", RWord(0, initial, self.pad.empty_cipher(0))
        )
        self.SN = CasRegister(f"{name}.SN", 0)
        self.V = RegisterArray(f"{name}.V", default=BOTTOM)
        self.B = BitMatrix(f"{name}.B", width=num_readers)
        self._reader_indices: Set[int] = set()

    # -- handle factories --------------------------------------------------

    def reader(self, process: ProcessRef, index: int) -> "RegisterReader":
        """Handle for reader ``p_index`` (0 <= index < m)."""
        if not 0 <= index < self.num_readers:
            raise IndexError(
                f"reader index {index} out of range (m={self.num_readers})"
            )
        if index in self._reader_indices:
            raise ValueError(f"reader index {index} already taken")
        self._reader_indices.add(index)
        return RegisterReader(self, process, index)

    def writer(self, process: ProcessRef) -> "RegisterWriter":
        return RegisterWriter(self, process)

    def auditor(self, process: ProcessRef) -> "RegisterAuditor":
        return RegisterAuditor(self, process)

    # -- hooks overridden by the max-register extension ---------------------

    def _decode_value(self, val: Any) -> Any:
        """Strip internal decoration from a value before returning it."""
        return val

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, m={self.num_readers})"


class _Handle:
    """Base for per-process handles: binds shared state to a process."""

    def __init__(self, register: AuditableRegister, process: ProcessRef) -> None:
        self.register = register
        self.process = process
        self.pid = process.pid

    def op(self, name: str, *args: Any) -> Op:
        """Package a call as an :class:`Op` for a process program."""
        return Op(name, getattr(self, name), args)


class RegisterReader(_Handle):
    """Reader ``p_j``: local state ``prev_val``, ``prev_sn``."""

    def __init__(
        self, register: AuditableRegister, process: ProcessRef, index: int
    ) -> None:
        super().__init__(register, process)
        self.index = index
        self.prev_val: Any = BOTTOM  # latest value read (⊥ initially)
        self.prev_sn: int = -1  # its sequence number (-1 initially)

    def read(self):
        """Algorithm 1, lines 1-6."""
        reg = self.register
        sn = yield from reg.SN.read()  # line 2
        if sn == self.prev_sn:  # line 3: silent read --
            return self.prev_val  # no new write since latest read
        # line 4: fetch current value and insert j into the (encrypted)
        # reader set, in one atomic primitive.
        word = yield from reg.R.fetch_xor(1 << self.index)
        sn = word.seq
        # line 5: help complete the sn-th write.
        yield from reg.SN.compare_and_swap(sn - 1, sn)
        self.prev_sn = sn  # line 6
        self.prev_val = reg._decode_value(word.val)
        return self.prev_val

    def read_op(self) -> Op:
        return Op("read", self.read)


class RegisterWriter(_Handle):
    """Writer ``p_i`` (``i`` not a reader index)."""

    def write(self, value: Any):
        """Algorithm 1, lines 7-15."""
        reg = self.register
        pad = reg.pad
        sn = (yield from reg.SN.read()) + 1  # line 8
        while True:  # lines 9-14 (repeat)
            word = yield from reg.R.read()  # line 10
            if word.seq >= sn:  # line 11: a concurrent write
                break  # with a newer sequence number succeeded
            # line 12: archive the current value ...
            yield from reg.V[word.seq].write(word.val)
            # line 13: ... and its deciphered reader set.
            for j in sorted(pad.members(word.seq, word.bits)):
                yield from reg.B[word.seq, j].write(True)
            # line 14: install (sn, value, fresh mask); fails if a reader
            # flipped a tracking bit (or another write won) meanwhile.
            swapped = yield from reg.R.compare_and_swap(
                word, RWord(sn, value, pad.empty_cipher(sn))
            )
            if swapped:
                break
        # line 15: announce the new sequence number.
        yield from reg.SN.compare_and_swap(sn - 1, sn)
        return None

    def write_op(self, value: Any) -> Op:
        return Op("write", self.write, (value,))


class RegisterAuditor(_Handle):
    """Auditor: local audit set ``A`` and low-water mark ``lsa``.

    The audit set is cumulative per auditor, as in the paper: each audit
    extends ``A`` with newly discovered (reader, value) pairs and returns
    the whole set.  ``lsa`` ensures archived entries are scanned once.

    ``A`` is kept twice: ``audit_set`` answers membership and
    ``audit_log`` lists the same pairs in discovery order.  An audit
    appends only the pairs it newly finds and returns
    ``AuditSet(audit_log, len(audit_log))``, an O(1) prefix view that
    equals ``frozenset(A)`` (see :mod:`repro.core.audit_set`), so a run
    of audits costs the pairs found, not the pairs held times audits.
    """

    def __init__(
        self, register: AuditableRegister, process: ProcessRef
    ) -> None:
        super().__init__(register, process)
        self.audit_set: Set[Tuple[int, Any]] = set()
        self.audit_log: List[Tuple[int, Any]] = []
        self.lsa: int = 0  # latest audited sequence number

    def _note(self, pair: Tuple[int, Any]) -> None:
        if pair not in self.audit_set:
            self.audit_set.add(pair)
            self.audit_log.append(pair)

    def audit(self):
        """Algorithm 1, lines 16-22."""
        reg = self.register
        pad = reg.pad
        word = yield from reg.R.read()  # line 17 (linearization point)
        for s in range(self.lsa, word.seq):  # lines 18-20
            val = yield from reg.V[s].read()
            val = reg._decode_value(val)
            for j in range(reg.num_readers):
                flagged = yield from reg.B[s, j].read()
                if flagged:
                    self._note((j, val))
        # line 21: readers of the current value, deciphered with rand_seq.
        current = reg._decode_value(word.val)
        for j in pad.members(word.seq, word.bits):
            self._note((j, current))
        self.lsa = word.seq  # line 22
        yield from reg.SN.compare_and_swap(word.seq - 1, word.seq)
        return AuditSet(self.audit_log, len(self.audit_log))

    def audit_op(self) -> Op:
        return Op("audit", self.audit)
