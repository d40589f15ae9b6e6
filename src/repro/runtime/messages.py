"""Messages exchanged between WebdamLog peers.

Four kinds of payload travel on the network, mirroring step 3 of the
computation stage described in the paper:

* **fact updates** (:class:`FactMessage`) — insertions and deletions for
  relations located at the recipient;
* **delegations** (:class:`DelegationInstallMessage`,
  :class:`DelegationRetractMessage`) — rules installed at or retracted from
  the recipient by a remote delegator;
* **control messages** (:class:`PeerJoinMessage`) — used by the "Interaction
  via the Web" scenario where new peers join the system and subscribe to the
  ``sigmod`` peer;
* **replication payloads** (:class:`DeltaEnvelopeMessage`,
  :class:`ReplicationDigestMessage`, :class:`ReplicationPullMessage`,
  :class:`ReplicationAckMessage`) — the dotted delta ops and anti-entropy
  control of causal replication mode (:mod:`repro.replication`), which
  replace raw fact/delegation messages on unreliable transports.

Every message can be encoded to / decoded from a JSON-compatible dictionary
(:meth:`Message.to_wire`, :func:`message_from_wire`, built on
:mod:`repro.core.codec`) so the same types flow over the in-memory and the
TCP transports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from typing import Any, Dict, FrozenSet, Iterable, Optional, Tuple

from repro.core import codec
from repro.core.facts import Fact
from repro.core.rules import Rule
from repro.core.schema import RelationSchema
from repro.provenance.graph import Derivation
from repro.replication.dots import Op

_message_counter = itertools.count(1)


def _next_message_id() -> str:
    return f"msg-{next(_message_counter)}"


@dataclass(frozen=True)
class Message:
    """Base class for every message: sender, recipient and a unique identifier."""

    sender: str
    recipient: str
    message_id: str = field(default_factory=_next_message_id)

    def payload_size(self) -> int:
        """Approximate payload size used by the network accounting (in items)."""
        return 1

    def kind(self) -> str:
        """Short type tag used for accounting and wire encoding."""
        return type(self).__name__

    def to_wire(self) -> Dict[str, Any]:
        """Encode the message as a JSON-compatible dictionary: the ``kind``
        tag, then every field through its entry in :data:`_FIELD_CODECS`."""
        encoded: Dict[str, Any] = {"kind": self.kind()}
        for f in fields(self):
            encoded[f.name] = _FIELD_CODECS.get(f.name, _PLAIN)[0](getattr(self, f.name))
        return encoded


@dataclass(frozen=True)
class FactMessage(Message):
    """Fact insertions/deletions addressed to relations of the recipient.

    ``derivations`` optionally carries the provenance of the inserted facts
    (the sender's derivations, transitively down to its base facts) so
    provenance-enabled receivers can answer why/lineage queries — and apply
    lineage-based access control — across peer boundaries.
    """

    inserted: FrozenSet[Fact] = frozenset()
    deleted: FrozenSet[Fact] = frozenset()
    derivations: Tuple[Derivation, ...] = ()

    def payload_size(self) -> int:
        """Number of facts (and attached derivations) carried."""
        return len(self.inserted) + len(self.deleted) + len(self.derivations)


@dataclass(frozen=True)
class DelegationInstallMessage(Message):
    """Install a delegated rule at the recipient.

    ``schemas`` carries the schemas (known to the delegator) of the relations
    mentioned in the delegated rule, so the recipient learns, for example,
    that the head relation is intensional at the delegator.  This mirrors the
    run-time relation discovery the paper describes.
    """

    delegation_id: str = ""
    rule: Optional[Rule] = None
    schemas: Tuple[RelationSchema, ...] = ()

    def payload_size(self) -> int:
        """A delegation counts as one rule plus its attached schemas."""
        return 1 + len(self.schemas)


@dataclass(frozen=True)
class DelegationRetractMessage(Message):
    """Retract a previously installed delegation."""

    delegation_id: str = ""


@dataclass(frozen=True)
class PeerJoinMessage(Message):
    """Announce a new peer (name and address) to the recipient."""

    peer_name: str = ""
    address: str = ""


@dataclass(frozen=True)
class DeltaEnvelopeMessage(Message):
    """A batch of dotted delta ops on one replication channel.

    Applying an envelope is an idempotent, commutative causal join: the
    recipient's inbox filters already-joined sequence numbers, so drops are
    repaired by retransmission, duplicates are absorbed, and reordering is
    resolved by the dot sets.  ``frontier`` advertises the sender's highest
    sequence number so the recipient can detect gaps without a digest.
    """

    ops: Tuple[Op, ...] = ()
    frontier: int = 0

    def payload_size(self) -> int:
        """Number of ops carried."""
        return len(self.ops)


@dataclass(frozen=True)
class ReplicationDigestMessage(Message):
    """Anti-entropy digest: the sender's channel frontier."""

    frontier: int = 0


@dataclass(frozen=True)
class ReplicationPullMessage(Message):
    """Anti-entropy pull: sequence numbers the sender's inbox is missing."""

    want: Tuple[int, ...] = ()

    def payload_size(self) -> int:
        """Number of sequence numbers requested."""
        return len(self.want)


@dataclass(frozen=True)
class ReplicationAckMessage(Message):
    """Contiguous-frontier acknowledgement: the producer may prune its log."""

    acked: int = 0


#: ``(encode, decode)`` of each message field; fields missing from
#: :data:`_FIELD_CODECS` are plain JSON values and pass as they are.
_PLAIN = (lambda value: value, lambda value: value)
_FACTS = (lambda facts: [codec.encode_fact(f) for f in sorted(facts, key=str)],
          lambda encoded: frozenset(codec.decode_fact(f) for f in encoded))
_FIELD_CODECS = {
    "inserted": _FACTS,
    "deleted": _FACTS,
    "derivations": (lambda derivations: [d.encode() for d in derivations],
                    lambda encoded: tuple(Derivation.decode(d) for d in encoded)),
    "rule": (lambda rule: None if rule is None else codec.encode_rule(rule),
             lambda encoded: None if encoded is None else codec.decode_rule(encoded)),
    "schemas": (lambda schemas: [codec.encode_schema(s) for s in schemas],
                lambda encoded: tuple(codec.decode_schema(s) for s in encoded)),
    "ops": (lambda ops: [op.encode() for op in ops],
            lambda encoded: tuple(Op.decode(op) for op in encoded)),
    "want": (list, tuple),
}

#: Every message class, by its wire ``kind`` tag.
_MESSAGE_KINDS = {cls.__name__: cls for cls in (
    FactMessage, DelegationInstallMessage, DelegationRetractMessage,
    PeerJoinMessage, DeltaEnvelopeMessage, ReplicationDigestMessage,
    ReplicationPullMessage, ReplicationAckMessage)}


def message_from_wire(encoded: Dict[str, Any]) -> Message:
    """Decode a message produced by :meth:`Message.to_wire`.

    An unknown kind or a missing field raises ``ValueError``.
    """
    cls = _MESSAGE_KINDS.get(codec.required(encoded, "kind"))
    if cls is None:
        raise ValueError(f"unknown message kind {encoded['kind']!r}")
    return cls(**{f.name: _FIELD_CODECS.get(f.name, _PLAIN)[1](codec.required(encoded, f.name))
                  for f in fields(cls)})


def batch_payload_size(messages: Iterable[Message]) -> int:
    """Total payload size of a batch of messages."""
    return sum(message.payload_size() for message in messages)
