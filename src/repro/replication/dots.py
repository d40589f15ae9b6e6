"""Dots, compact causal contexts and replicated operations.

A **dot** identifies one operation ever emitted on one replication channel:
the pair ``(origin peer, sequence number)``.  Because each channel has a
single writer (the sending peer), sequence numbers are contiguous per
channel, which makes the receiver's **causal context** — the set of dots it
has already joined — compressible to a contiguous watermark plus a small set
of out-of-order extras, exactly the representation delta-state CRDTs use.

An :class:`Op` is the unit of replication: one dotted operation carrying a
fact insertion, a fact deletion (with the dots it removes — observed-remove
semantics), a delegation install/retract, or a provenance derivation.  Ops
are immutable and JSON-encodable (:meth:`Op.encode`, built on
:mod:`repro.core.codec`), and joining the same op twice is a no-op by
construction: the causal context filters duplicate sequence numbers before
any effect is applied.

This module depends only on :mod:`repro.core` and :mod:`repro.provenance`,
so the message layer can import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.core import codec
from repro.core.facts import Fact
from repro.core.rules import Rule
from repro.core.schema import RelationSchema
from repro.provenance.graph import Derivation

#: The operation kinds a channel replicates, each with the :class:`Op`
#: fields it carries on the wire.  ``insert``/``delete`` carry extensional
#: (or provided-intensional) fact updates, ``delegate``/``undelegate`` carry
#: the delegation remainders of distributed rules, and ``derivation``
#: carries one provenance closure entry.
OP_FIELDS: Dict[str, Tuple[str, ...]] = {
    "insert": ("fact",),
    "delete": ("fact", "removed"),
    "delegate": ("delegation_id", "rule", "schemas"),
    "undelegate": ("delegation_id",),
    "derivation": ("derivation", "anchor"),
}

#: ``(encode, decode)`` of each op field.
_FIELD_CODECS = {
    "fact": (codec.encode_fact, codec.decode_fact),
    "removed": (list, tuple),
    "delegation_id": (str, str),
    "rule": (codec.encode_rule, codec.decode_rule),
    "schemas": (lambda schemas: [codec.encode_schema(s) for s in schemas],
                lambda encoded: tuple(codec.decode_schema(s) for s in encoded)),
    "derivation": (Derivation.encode, Derivation.decode),
    "anchor": (bool, bool),
}


class Dot(NamedTuple):
    """One operation's identity: ``(origin peer, per-channel sequence number)``."""

    origin: str
    seq: int


@dataclass(frozen=True)
class Op:
    """One dotted, replicated operation.

    ``seq`` is the dot's sequence number (the origin is implied by the
    channel the op travels on).  Exactly the fields of the op's ``kind`` are
    meaningful:

    * ``insert`` — ``fact``;
    * ``delete`` — ``fact`` plus ``removed``, the sequence numbers of the
      insert dots this deletion observed (empty for an out-of-band deletion
      of a fact this channel never inserted);
    * ``delegate`` — ``delegation_id``, ``rule``, ``schemas``;
    * ``undelegate`` — ``delegation_id``;
    * ``derivation`` — ``derivation`` and ``anchor``.
    """

    seq: int
    kind: str
    fact: Optional[Fact] = None
    removed: Tuple[int, ...] = ()
    delegation_id: str = ""
    rule: Optional[Rule] = None
    schemas: Tuple[RelationSchema, ...] = ()
    derivation: Optional[Derivation] = None
    anchor: bool = True

    def dot(self, origin: str) -> Dot:
        """This op's dot on the channel from ``origin``."""
        return Dot(origin, self.seq)

    def encode(self) -> Dict[str, Any]:
        """JSON-compatible representation carrying only the kind's fields.

        An insert op is a sequence number plus one fact; a delete op adds
        the removed dot numbers, and so on (see :data:`OP_FIELDS`).
        """
        encoded: Dict[str, Any] = {"seq": self.seq, "kind": self.kind}
        for name in OP_FIELDS[self.kind]:
            encoded[name] = _FIELD_CODECS[name][0](getattr(self, name))
        return encoded

    @classmethod
    def decode(cls, encoded: Any) -> "Op":
        """Inverse of :meth:`encode`; ``ValueError`` on a missing field."""
        kind = codec.required(encoded, "kind")
        if kind not in OP_FIELDS:
            raise ValueError(f"unknown op kind {kind!r}")
        fields = {name: _FIELD_CODECS[name][1](codec.required(encoded, name))
                  for name in OP_FIELDS[kind]}
        return cls(seq=codec.required(encoded, "seq"), kind=kind, **fields)


@dataclass
class CausalContext:
    """The compact set of sequence numbers a channel endpoint has seen.

    ``base`` is the contiguous watermark: every sequence number in
    ``1..base`` is contained.  ``extras`` holds the numbers seen out of
    order beyond the watermark; :meth:`add` drains them back into ``base``
    as gaps fill, so the representation stays small under any reordering.
    """

    base: int = 0
    extras: set = field(default_factory=set)

    def __contains__(self, seq: int) -> bool:
        return seq <= self.base or seq in self.extras

    def add(self, seq: int) -> bool:
        """Join one sequence number; ``False`` when it was already contained."""
        if seq in self:
            return False
        if seq == self.base + 1:
            self.base += 1
            while self.base + 1 in self.extras:
                self.base += 1
                self.extras.discard(self.base)
        else:
            self.extras.add(seq)
        return True

    def missing(self, upto: int) -> List[int]:
        """The sequence numbers up to ``upto`` this context has not seen."""
        return [seq for seq in range(self.base + 1, upto + 1)
                if seq not in self.extras]

    def is_complete(self, upto: int) -> bool:
        """``True`` when every sequence number in ``1..upto`` is contained."""
        return self.base >= upto or not self.missing(upto)

    def max_seen(self) -> int:
        """The highest sequence number contained (0 when empty)."""
        return max(self.extras) if self.extras else self.base

    def encode(self) -> Dict[str, object]:
        """JSON-compatible representation (see :func:`CausalContext.decode`)."""
        return {"base": self.base, "extras": sorted(self.extras)}

    @classmethod
    def decode(cls, encoded: Dict[str, object]) -> "CausalContext":
        """Inverse of :meth:`encode`."""
        return cls(base=int(encoded.get("base", 0)),
                   extras=set(int(s) for s in encoded.get("extras", [])))
