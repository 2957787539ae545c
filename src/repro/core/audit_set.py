"""The value an audit returns, as a shared prefix view.

An audit of Algorithm 1 (lines 16-22) returns the auditor's
*cumulative* set ``A`` of (reader, value) pairs.  Copying ``A`` on every
audit makes a run of ``k`` audits cost O(k |A|) in the auditor and again
in every layer that carries the result.  The auditor instead keeps its
distinct pairs in an append-only list and each audit returns an
:class:`AuditSet` -- the view ``(log, n)`` of the list's first ``n``
entries -- in O(1).  Because the list only grows, the view never
changes after it is returned.

The *value* is unchanged: an :class:`AuditSet` is a read-only
:class:`collections.abc.Set` that compares, hashes, iterates, prints and
pickles as the frozenset of its contents.  That frozenset is built on
first use and cached.  Consumers that know the representation (the
windowed audit oracle) read ``log[prev_n:n]`` to check an audit by the
pairs it added since the same auditor's previous audit.
"""

from __future__ import annotations

from collections.abc import Set
from itertools import islice
from typing import Any, FrozenSet, Iterator, List, Optional


def _value(other: Any) -> Any:
    return other.frozen() if isinstance(other, AuditSet) else other


class AuditSet:
    """Immutable view of the first ``n`` pairs of an auditor's log.

    Invariant (kept by the auditor that owns ``log``): ``log`` is
    append-only and holds distinct pairs, so the view never changes and
    ``len`` is O(1).

    A registered (virtual) :class:`collections.abc.Set` rather than a
    subclass: ``ABCMeta`` would route every ``isinstance(x, SET_TYPES)``
    in the codecs and the model checker's state walk through
    ``__instancecheck__``.  Comparisons and set algebra act on the
    frozenset and return what the frozenset operation returns.
    """

    __slots__ = ("_log", "_n", "_frozen")

    def __init__(self, log: List[Any], n: int) -> None:
        self._log = log
        self._n = n
        self._frozen: Optional[FrozenSet[Any]] = None

    @property
    def log(self) -> List[Any]:
        """The shared append-only list this view is a prefix of."""
        return self._log

    def frozen(self) -> FrozenSet[Any]:
        """The frozenset of the view's pairs (built once, cached)."""
        frozen = self._frozen
        if frozen is None:
            frozen = self._frozen = frozenset(islice(self._log, self._n))
        return frozen

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[Any]:
        return iter(self.frozen())

    def __contains__(self, item: Any) -> bool:
        return item in self.frozen()

    def __eq__(self, other: Any) -> bool:
        return self.frozen() == _value(other)

    def __hash__(self) -> int:
        return hash(self.frozen())

    def __le__(self, other: Any) -> bool:
        return self.frozen() <= _value(other)

    def __lt__(self, other: Any) -> bool:
        return self.frozen() < _value(other)

    def __ge__(self, other: Any) -> bool:
        return self.frozen() >= _value(other)

    def __gt__(self, other: Any) -> bool:
        return self.frozen() > _value(other)

    def __and__(self, other: Any) -> Any:
        return self.frozen() & _value(other)

    def __or__(self, other: Any) -> Any:
        return self.frozen() | _value(other)

    def __sub__(self, other: Any) -> Any:
        return self.frozen() - _value(other)

    def __xor__(self, other: Any) -> Any:
        return self.frozen() ^ _value(other)

    def __rand__(self, other: Any) -> Any:
        return other & self.frozen()

    def __ror__(self, other: Any) -> Any:
        return other | self.frozen()

    def __rsub__(self, other: Any) -> Any:
        return other - self.frozen()

    def __rxor__(self, other: Any) -> Any:
        return other ^ self.frozen()

    def isdisjoint(self, other: Any) -> bool:
        return self.frozen().isdisjoint(_value(other))

    def __reduce__(self) -> Any:
        # Pickles (and copies) as the plain value: nothing downstream
        # of a process boundary needs the shared log.
        return (frozenset, (self.frozen(),))

    def __repr__(self) -> str:
        return repr(self.frozen())


Set.register(AuditSet)

#: The types every codec, canonicaliser and object-graph walker treats
#: as a set value (an :class:`AuditSet` exactly as its frozenset).
SET_TYPES = (set, frozenset, AuditSet)
