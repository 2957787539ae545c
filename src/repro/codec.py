"""The value codec: Python values as canonical tagged JSON.

History payloads (:func:`repro.analysis.fastlin.op_to_payload`: the
``repro lin`` input and the engine's checkpoint records) and the
streaming event log (:mod:`repro.sim.event_log`) carry operation
arguments and results as JSON.  Plain JSON flattens tuples, lists and
sets alike, so containers and the repo's own value types are tagged::

    tuple     -> {"t": [...]}        list   -> {"l": [...]}
    set, frozenset, AuditSet         dict   -> {"d": [[k, v], ...]}
              -> {"s": [...]}
    ⊥         -> {"btm": 1}          RWord  -> {"rw": [seq, val, bits]}
    dataclass -> {"ns": {"c": "module.Qualname", "f": {field: value}}}
    any leaf  -> {"rx": "repr text"}    (only with the ``repr_leaf``
                                         fallback, see below)

Set members and dict entries are sorted by their canonical JSON text,
so equal values always serialize to identical bytes (an AuditSet
encodes as the frozenset it equals).  Decoding revives dataclasses to
their real ``repro.*`` class, so ``isinstance`` hooks like
``register._decode_value`` keep working, and degrades to an
attribute-compatible hashable :class:`NsShell` for foreign or
since-renamed classes.

A leaf no tag covers raises :class:`TypeError` unless the caller
passes a ``leaf`` fallback.  Only the event log passes one
(:func:`repr_leaf`): a ``repr`` can carry a memory address, so history
payloads, whose bytes are checkpointed, must refuse such values rather
than encode them unstably.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from types import SimpleNamespace
from typing import Any, Callable, Dict, Optional

from repro.core.audit_set import SET_TYPES
from repro.memory.base import BOTTOM, Bottom
from repro.memory.rword import RWord


class ReprCapsule:
    """Decoded ``rx`` leaf: keeps the ``repr`` text and compares by it."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text

    def __repr__(self) -> str:
        return self.text

    def __eq__(self, other: Any) -> bool:
        return repr(self) == repr(other)

    def __hash__(self) -> int:
        return hash(self.text)


class NsShell(SimpleNamespace):
    """Decoded dataclass shell that oracles can key sets/dicts on.

    Hashes by attribute *names* only (equal shells have equal attribute
    sets, so the hash contract holds even when attribute values are
    unhashable decoded containers); equality stays SimpleNamespace's
    attribute-wise comparison.
    """

    def __hash__(self) -> int:
        return hash(frozenset(self.__dict__))


def _canon(encoded: Any) -> str:
    return json.dumps(encoded, sort_keys=True, separators=(",", ":"))


def repr_leaf(value: Any) -> Dict[str, str]:
    """The event log's fallback for a leaf no tag covers."""
    return {"rx": repr(value)}


def encode_value(
    value: Any, leaf: Optional[Callable[[Any], Any]] = None
) -> Any:
    """JSON-safe, canonical, round-trippable encoding of a value.

    A leaf no tag covers goes to ``leaf``; without one it raises
    :class:`TypeError`.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, tuple):
        return {"t": [encode_value(v, leaf) for v in value]}
    if isinstance(value, list):
        return {"l": [encode_value(v, leaf) for v in value]}
    if isinstance(value, SET_TYPES):
        return {
            "s": sorted((encode_value(v, leaf) for v in value), key=_canon)
        }
    if isinstance(value, dict):
        return {
            "d": sorted(
                ([encode_value(k, leaf), encode_value(v, leaf)]
                 for k, v in value.items()),
                key=_canon,
            )
        }
    if isinstance(value, Bottom):
        return {"btm": 1}
    if isinstance(value, RWord):
        return {"rw": [value.seq, encode_value(value.val, leaf), value.bits]}
    if is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return {
            "ns": {
                "c": f"{cls.__module__}.{cls.__qualname__}",
                "f": {
                    f.name: encode_value(getattr(value, f.name), leaf)
                    for f in fields(value)
                },
            }
        }
    if leaf is not None:
        return leaf(value)
    raise TypeError(f"cannot encode {type(value).__name__!r} as a value")


def _revive_dataclass(path: str, attrs: Dict[str, Any]) -> Any:
    """Reconstruct a repo dataclass from its wire form, or fall back
    to an attribute-compatible :class:`NsShell`.

    Only ``repro.*`` classes are ever imported (the producer is this
    repo; a payload naming anything else is treated as foreign data),
    and any reconstruction failure -- renamed class, changed fields --
    degrades to the shell rather than rejecting the input.
    """
    if path.startswith("repro."):
        module_name, _, qualname = path.rpartition(".")
        try:
            module = __import__(module_name, fromlist=["_"])
            cls = module
            for part in qualname.split("."):
                cls = getattr(cls, part)
            return cls(**attrs)
        except Exception:
            pass
    return NsShell(**attrs)


def decode_value(encoded: Any) -> Any:
    """Inverse of :func:`encode_value` (to oracle-compatible values)."""
    if not isinstance(encoded, dict):
        return encoded
    (tag, items), = encoded.items()
    if tag == "t":
        return tuple(decode_value(v) for v in items)
    if tag == "l":
        return [decode_value(v) for v in items]
    if tag == "s":
        return frozenset(decode_value(v) for v in items)
    if tag == "d":
        return {decode_value(k): decode_value(v) for k, v in items}
    if tag == "btm":
        return BOTTOM
    if tag == "rw":
        seq, val, bits = items
        return RWord(seq, decode_value(val), bits)
    if tag == "ns":
        return _revive_dataclass(
            items["c"],
            {name: decode_value(v) for name, v in items["f"].items()},
        )
    if tag == "rx":
        return ReprCapsule(items)
    raise ValueError(f"unknown value tag {tag!r}")
