"""Round trips and strictness of the JSON codec (``repro.core.codec``).

Every round trip goes through JSON *text* — ``json.loads(json.dumps(...))``
— because that is the path TCP frames and SQLite metadata rows take: a
dictionary-level round trip could not see a lost bool/int/float distinction.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import codec
from repro.core.delegation import InstalledDelegation
from repro.core.facts import Fact
from repro.core.parser import parse_rule
from repro.core.rules import Atom
from repro.core.schema import RelationKind, RelationSchema
from repro.core.terms import Constant, Variable
from repro.provenance.graph import Derivation
from repro.replication.dots import Op
from repro.runtime.messages import FactMessage, message_from_wire


def through_json(encoded):
    return json.loads(json.dumps(encoded))


#: Every value type the engine stores — including bytes-valued picture
#: contents, which must survive the hex detour exactly, and ``±inf``.
values = st.one_of(
    st.text(max_size=12),
    st.integers(min_value=-2**40, max_value=2**40),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, width=32),
    st.binary(max_size=24),
)

names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu"), max_codepoint=127),
    min_size=1, max_size=8,
)

facts = st.builds(
    Fact,
    relation=names, peer=names,
    values=st.tuples(values, values),
)

derivations = st.builds(
    Derivation,
    fact=facts,
    rule_id=names,
    support=st.lists(facts, max_size=4).map(tuple),
    author=st.one_of(st.none(), names),
)

RULE = parse_rule(
    "attendeePictures@Jules($id, $n) :- "
    "selectedAttendee@Jules($a), pictures@$a($id, $n)",
    author="Jules",
)


def assert_same_types(original, decoded):
    for a, b in zip(original.values, decoded.values):
        assert type(a) is type(b)


class TestValueEncoding:
    @pytest.mark.parametrize("value", ["text", 42, -1, 3.5, 1.0, -0.0, True,
                                       False, None, float("inf"),
                                       float("-inf")])
    def test_scalar_roundtrip_keeps_type(self, value):
        decoded = codec.decode_value(through_json(codec.encode_value(value)))
        assert decoded == value
        assert type(decoded) is type(value)

    def test_scalars_are_plain_json(self):
        assert codec.encode_value(1) == 1
        assert codec.encode_value(True) is True

    def test_bytes_roundtrip(self):
        encoded = codec.encode_value(b"\x00\x01\xff")
        assert encoded == {"$bytes": "0001ff"}
        assert codec.decode_value(through_json(encoded)) == b"\x00\x01\xff"

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            codec.encode_value(object())

    @pytest.mark.parametrize("encoded", [
        {"$blob": "00"},
        {"$float": "inf"},
        {"$bytes": "00", "extra": 1},
        {"$bytes": 7},
    ])
    def test_unknown_escape_rejected(self, encoded):
        with pytest.raises(ValueError):
            codec.decode_value(encoded)

    def test_non_scalar_rejected(self):
        with pytest.raises(ValueError):
            codec.decode_value([1, 2])


class TestTermEncoding:
    def test_variable_roundtrip(self):
        term = Variable("attendee")
        assert codec.decode_term(through_json(codec.encode_term(term))) == term

    @pytest.mark.parametrize("value", ["x", 7, 2.5, 2.0, True, None, b"\x01",
                                       float("inf")])
    def test_constant_roundtrip_preserves_type(self, value):
        term = Constant(value)
        decoded = codec.decode_term(through_json(codec.encode_term(term)))
        assert decoded == term
        assert type(decoded.value) is type(value)

    def test_bool_int_float_distinction_survives(self):
        decoded = {codec.decode_term(through_json(codec.encode_term(Constant(v))))
                   for v in (1, True, 1.0)}
        assert len(decoded) == 3

    def test_term_without_const_or_var_rejected(self):
        with pytest.raises(ValueError):
            codec.decode_term({"value": 1})


class TestFactEncoding:
    def test_roundtrip(self):
        fact = Fact("pictures", "sigmod",
                    (32, "sea.jpg", "Emilien", True, None, 4.5, b"\x89PNG"))
        encoded = codec.encode_fact(fact)
        assert set(encoded) == {"relation", "peer", "values"}
        assert codec.decode_fact(through_json(encoded)) == fact

    def test_type_distinction_in_values(self):
        fact = Fact("r", "p", (1, True, 1.0))
        decoded = codec.decode_fact(through_json(codec.encode_fact(fact)))
        assert decoded == fact
        assert_same_types(fact, decoded)

    @given(facts)
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_exact(self, fact):
        decoded = codec.decode_fact(through_json(codec.encode_fact(fact)))
        assert decoded == fact
        assert_same_types(fact, decoded)

    @pytest.mark.parametrize("missing", ["relation", "peer", "values"])
    def test_missing_field_rejected(self, missing):
        encoded = codec.encode_fact(Fact("r", "p", (1,)))
        del encoded[missing]
        with pytest.raises(ValueError):
            codec.decode_fact(encoded)

    def test_unknown_escape_in_values_rejected(self):
        with pytest.raises(ValueError):
            codec.decode_fact({"relation": "r", "peer": "p",
                               "values": [{"$blob": "00"}]})


class TestAtomRuleSchemaDelegation:
    def test_atom_roundtrip(self):
        atom = Atom.of("pictures", "$attendee", "$id", "sea.jpg", negated=True)
        assert codec.decode_atom(through_json(codec.encode_atom(atom))) == atom

    def test_rule_roundtrip_preserves_metadata(self):
        decoded = codec.decode_rule(through_json(codec.encode_rule(RULE)))
        assert decoded == RULE
        assert decoded.author == "Jules"
        assert decoded.rule_id == RULE.rule_id

    def test_rule_constants_keep_their_types(self):
        rule = parse_rule("big@p($x) :- r@p($x, 1, true, 1.0)")
        decoded = codec.decode_rule(through_json(codec.encode_rule(rule)))
        assert decoded == rule
        constants = [t.value for t in decoded.body[0].args[1:]]
        assert [type(v) for v in constants] == [int, bool, float]

    @pytest.mark.parametrize("missing", ["rule_id", "author", "origin", "head"])
    def test_rule_missing_field_rejected(self, missing):
        encoded = through_json(codec.encode_rule(RULE))
        del encoded[missing]
        with pytest.raises(ValueError):
            codec.decode_rule(encoded)

    def test_schema_roundtrip(self):
        schema = RelationSchema("attendeePictures", "Jules", ("id", "name"),
                                kind=RelationKind.INTENSIONAL, persistent=False,
                                key=("id",))
        assert codec.decode_schema(through_json(codec.encode_schema(schema))) == schema

    @pytest.mark.parametrize("missing", ["kind", "persistent", "key"])
    def test_schema_missing_field_rejected(self, missing):
        encoded = codec.encode_schema(RelationSchema("r", "p", ("a",)))
        del encoded[missing]
        with pytest.raises(ValueError):
            codec.decode_schema(encoded)

    def test_delegation_roundtrip(self):
        installed = InstalledDelegation("d-1", "Jules", RULE)
        encoded = through_json(codec.encode_delegation(installed))
        assert codec.decode_delegation(encoded) == installed


class TestDerivationEncoding:
    @given(derivations)
    @settings(max_examples=100, deadline=None)
    def test_derivation_roundtrip_exact(self, derivation):
        decoded = Derivation.decode(through_json(derivation.encode()))
        assert decoded == derivation
        for original, roundtripped in zip(derivation.support, decoded.support):
            assert_same_types(original, roundtripped)

    def test_derivation_with_picture_bytes(self):
        picture = Fact("pictures", "Emilien", (1, "sea.jpg", b"\x89PNG\x00\xff"))
        derivation = Derivation(
            fact=Fact("attendeePictures", "Jules", (1, "sea.jpg")),
            rule_id="rule-1", support=(picture,), author="Jules",
        )
        assert Derivation.decode(through_json(derivation.encode())) == derivation

    def test_missing_author_rejected(self):
        encoded = Derivation(Fact("r", "p", (1,)), "rule-1", ()).encode()
        del encoded["author"]
        with pytest.raises(ValueError):
            Derivation.decode(encoded)

    @given(st.lists(facts, max_size=3), st.lists(facts, max_size=3),
           st.lists(derivations, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_fact_message_with_derivations_roundtrip(self, inserted, deleted,
                                                     shipped):
        message = FactMessage(
            sender="a", recipient="b",
            inserted=frozenset(inserted), deleted=frozenset(deleted),
            derivations=tuple(shipped),
        )
        decoded = message_from_wire(through_json(message.to_wire()))
        assert decoded.inserted == message.inserted
        assert decoded.deleted == message.deleted
        assert decoded.derivations == message.derivations
        assert decoded.payload_size() == message.payload_size()


class TestOpEncoding:
    FACT = Fact("pictures", "Emilien", (1, b"\x00", 2.0))

    @pytest.mark.parametrize("op", [
        Op(seq=1, kind="insert", fact=FACT),
        Op(seq=2, kind="delete", fact=FACT, removed=(1,)),
        Op(seq=3, kind="delete", fact=FACT),
        Op(seq=4, kind="delegate", delegation_id="d-1", rule=RULE,
           schemas=(RelationSchema("pictures", "Emilien", ("id", "data", "w")),)),
        Op(seq=5, kind="undelegate", delegation_id="d-1"),
        Op(seq=6, kind="derivation", anchor=False,
           derivation=Derivation(FACT, "rule-1", (FACT,), "Jules")),
    ], ids=lambda op: f"{op.kind}-{op.seq}")
    def test_roundtrip(self, op):
        assert Op.decode(through_json(op.encode())) == op

    def test_insert_carries_only_its_fact(self):
        encoded = Op(seq=1, kind="insert", fact=self.FACT).encode()
        assert set(encoded) == {"seq", "kind", "fact"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Op.decode({"seq": 1, "kind": "teleport"})

    def test_delegate_without_rule_rejected(self):
        with pytest.raises(ValueError):
            Op.decode({"seq": 1, "kind": "delegate", "delegation_id": "d",
                       "schemas": []})
