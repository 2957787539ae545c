"""The paper's contributions: auditable objects.

- :class:`AuditableRegister` -- Algorithm 1 (multi-writer multi-reader
  register; effective reads are auditable, readers leak nothing).
- :class:`AuditableMaxRegister` -- Algorithm 2 (max register with random
  nonces hiding unread intermediate values).
- :class:`AuditableSnapshot` -- Algorithm 3 (n-component snapshot).
- :class:`AuditableVersioned` -- Theorem 13 (any versioned type).
- :class:`AuditSet` -- the value an Algorithm 1/2 audit returns: an
  O(1) prefix view of the auditor's log that equals a frozenset.
"""

from repro.core.audit_set import AuditSet
from repro.core.auditable_max_register import (
    AuditableMaxRegister,
    MaxRegisterWriter,
)
from repro.core.auditable_register import (
    AuditableRegister,
    RegisterAuditor,
    RegisterReader,
    RegisterWriter,
)
from repro.core.auditable_snapshot import (
    AuditableSnapshot,
    SnapshotAuditor,
    SnapshotScanner,
    SnapshotUpdater,
)
from repro.core.types import Nonced
from repro.core.versioned import (
    AtomicVersionedObject,
    AuditableVersioned,
    TypeSpec,
    counter_spec,
    journal_spec,
    kv_store_spec,
    logical_clock_spec,
)

__all__ = [
    "AtomicVersionedObject",
    "AuditSet",
    "AuditableMaxRegister",
    "AuditableRegister",
    "AuditableSnapshot",
    "AuditableVersioned",
    "MaxRegisterWriter",
    "Nonced",
    "RegisterAuditor",
    "RegisterReader",
    "RegisterWriter",
    "SnapshotAuditor",
    "SnapshotScanner",
    "SnapshotUpdater",
    "TypeSpec",
    "counter_spec",
    "journal_spec",
    "kv_store_spec",
    "logical_clock_spec",
]
