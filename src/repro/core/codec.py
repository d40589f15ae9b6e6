"""The JSON encoding of WebdamLog data.

One representation serves every place where a peer's values, terms, facts,
atoms, rules, schemas and installed delegations leave the process: runtime
messages and TCP frames (:mod:`repro.runtime.messages`), replication channel
state (:mod:`repro.replication.state`) and durable metadata
(:mod:`repro.core.state`).  :class:`~repro.provenance.graph.Derivation` and
:class:`~repro.replication.dots.Op` build their ``encode``/``decode`` on it.

Encoders return plain JSON values; decoders take what ``json.loads`` gives
back.  Two rules hold throughout:

* Values are JSON scalars.  ``str``, ``int``, ``float`` (``±inf`` included:
  Python's ``json`` writes ``Infinity``), ``bool`` and ``None`` round-trip
  natively with their types intact.  ``bytes`` is the one escape,
  ``{"$bytes": "<hex>"}``.
* Decoders apply no defaults.  A missing field, an unknown escape or a value
  no constant can hold raises :class:`ValueError`, so a bad frame is dropped
  as malformed and a bad metadata row fails loudly at reopen.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.delegation import InstalledDelegation
from repro.core.facts import Fact
from repro.core.rules import Atom, Rule
from repro.core.schema import RelationKind, RelationSchema
from repro.core.terms import Constant, ConstantValue, Term, Variable

#: The key of the one escape: JSON has no binary type, so ``bytes`` is hex.
BYTES_ESCAPE = "$bytes"

#: Payload types JSON carries as they are (``bool`` is an ``int``).
_NATIVE = (str, int, float, type(None))


def required(encoded: Any, name: str) -> Any:
    """``encoded[name]``; ``ValueError`` when ``encoded`` has no such field."""
    if not isinstance(encoded, dict) or name not in encoded:
        raise ValueError(f"encoded object lacks field {name!r}")
    return encoded[name]


# --------------------------------------------------------------------------- #
# values and terms
# --------------------------------------------------------------------------- #

def encode_value(value: ConstantValue) -> Any:
    """Encode a constant payload as a JSON value."""
    if isinstance(value, bytes):
        return {BYTES_ESCAPE: value.hex()}
    if isinstance(value, _NATIVE):
        return value
    raise TypeError(f"cannot encode value of type {type(value).__name__}")


def decode_value(encoded: Any) -> ConstantValue:
    """Inverse of :func:`encode_value`."""
    if isinstance(encoded, dict):
        if encoded.keys() == {BYTES_ESCAPE} and isinstance(encoded[BYTES_ESCAPE], str):
            return bytes.fromhex(encoded[BYTES_ESCAPE])
        raise ValueError(f"unknown escape {encoded!r}")
    if isinstance(encoded, _NATIVE):
        return encoded
    raise ValueError(f"cannot decode a {type(encoded).__name__} as a value")


def encode_term(term: Term) -> Dict[str, Any]:
    """Encode a term: ``{"var": name}`` or ``{"const": value}``."""
    if isinstance(term, Variable):
        return {"var": term.name}
    if isinstance(term, Constant):
        return {"const": encode_value(term.value)}
    raise TypeError(f"cannot encode term {term!r}")


def decode_term(encoded: Any) -> Term:
    """Inverse of :func:`encode_term`."""
    if isinstance(encoded, dict) and "var" in encoded:
        return Variable(encoded["var"])
    return Constant(decode_value(required(encoded, "const")))


# --------------------------------------------------------------------------- #
# facts, atoms, rules, schemas, installed delegations
# --------------------------------------------------------------------------- #

def encode_fact(fact: Fact) -> Dict[str, Any]:
    """Encode a fact."""
    return {"relation": fact.relation, "peer": fact.peer,
            "values": [encode_value(v) for v in fact.values]}


def decode_fact(encoded: Any) -> Fact:
    """Inverse of :func:`encode_fact`."""
    return Fact(required(encoded, "relation"), required(encoded, "peer"),
                tuple(decode_value(v) for v in required(encoded, "values")))


def encode_atom(atom: Atom) -> Dict[str, Any]:
    """Encode an atom."""
    return {
        "relation": encode_term(atom.relation),
        "peer": encode_term(atom.peer),
        "args": [encode_term(a) for a in atom.args],
        "negated": atom.negated,
    }


def decode_atom(encoded: Any) -> Atom:
    """Inverse of :func:`encode_atom`."""
    return Atom(
        relation=decode_term(required(encoded, "relation")),
        peer=decode_term(required(encoded, "peer")),
        args=tuple(decode_term(a) for a in required(encoded, "args")),
        negated=required(encoded, "negated"),
    )


def encode_rule(rule: Rule) -> Dict[str, Any]:
    """Encode a rule with its identity (``rule_id``, ``author``, ``origin``)."""
    return {
        "head": encode_atom(rule.head),
        "body": [encode_atom(a) for a in rule.body],
        "author": rule.author,
        "origin": rule.origin,
        "rule_id": rule.rule_id,
    }


def decode_rule(encoded: Any) -> Rule:
    """Inverse of :func:`encode_rule`."""
    return Rule(
        head=decode_atom(required(encoded, "head")),
        body=tuple(decode_atom(a) for a in required(encoded, "body")),
        author=required(encoded, "author"),
        origin=required(encoded, "origin"),
        rule_id=required(encoded, "rule_id"),
    )


def encode_schema(schema: RelationSchema) -> Dict[str, Any]:
    """Encode a relation schema."""
    return {
        "name": schema.name,
        "peer": schema.peer,
        "columns": list(schema.columns),
        "kind": schema.kind.value,
        "persistent": schema.persistent,
        "key": list(schema.key),
    }


def decode_schema(encoded: Any) -> RelationSchema:
    """Inverse of :func:`encode_schema`."""
    return RelationSchema(
        name=required(encoded, "name"),
        peer=required(encoded, "peer"),
        columns=tuple(required(encoded, "columns")),
        kind=RelationKind(required(encoded, "kind")),
        persistent=required(encoded, "persistent"),
        key=tuple(required(encoded, "key")),
    )


def encode_delegation(installed: InstalledDelegation) -> Dict[str, Any]:
    """Encode a delegation installed at this peer by a remote delegator."""
    return {
        "delegation_id": installed.delegation_id,
        "delegator": installed.delegator,
        "rule": encode_rule(installed.rule),
    }


def decode_delegation(encoded: Any) -> InstalledDelegation:
    """Inverse of :func:`encode_delegation`."""
    return InstalledDelegation(
        delegation_id=required(encoded, "delegation_id"),
        delegator=required(encoded, "delegator"),
        rule=decode_rule(required(encoded, "rule")),
    )
