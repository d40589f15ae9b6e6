"""Fixpoint results of one peer's engine, in both evaluation modes.

Every case runs under ``evaluation_mode="incremental"`` (seminaive delta and
scoped rederive) and ``"naive"`` (clear and recompute every stage); both must
reach the same, expected fixpoint.
"""

import pytest

from repro.core.engine import WebdamLogEngine
from repro.core.facts import Fact

TRANSITIVE_CLOSURE = """
collection extensional persistent edge@p(src, dst);
collection intensional path@p(src, dst);
rule path@p($x, $y) :- edge@p($x, $y);
rule path@p($x, $z) :- path@p($x, $y), edge@p($y, $z);
"""

SAME_GENERATION = """
collection extensional persistent parent@p(child, parent);
collection intensional sg@p(x, y);
rule sg@p($x, $y) :- parent@p($x, $p), parent@p($y, $p);
rule sg@p($x, $y) :- parent@p($x, $px), sg@p($px, $py), parent@p($y, $py);
"""

UNREACHABLE = """
collection extensional persistent source@p(x);
collection extensional persistent node@p(x);
collection extensional persistent edge@p(src, dst);
collection intensional reach@p(x);
collection intensional unreachable@p(x);
rule reach@p($x) :- source@p($x);
rule reach@p($y) :- reach@p($x), edge@p($x, $y);
rule unreachable@p($x) :- node@p($x), not reach@p($x);
"""

CHAINED_NEGATION = """
collection extensional persistent base@p(x);
collection extensional persistent flagged@p(x);
collection intensional a@p(x);
collection intensional b@p(x);
collection intensional c@p(x);
rule a@p($x) :- flagged@p($x);
rule b@p($x) :- base@p($x), not a@p($x);
rule c@p($x) :- base@p($x), not b@p($x);
"""

POSITIVE_ON_NEGATED = """
collection extensional persistent base@p(x);
collection extensional persistent flagged@p(x);
collection intensional bad@p(x);
collection intensional filtered@p(x);
collection intensional report@p(x);
rule filtered@p($x) :- base@p($x), not bad@p($x);
rule bad@p($x) :- flagged@p($x);
rule report@p($x) :- filtered@p($x);
"""


@pytest.fixture(params=["incremental", "naive"])
def mode(request):
    return request.param


def converged(program, facts, mode):
    engine = WebdamLogEngine("p", evaluation_mode=mode)
    engine.load_program(program)
    engine.insert_facts(Fact(relation, "p", values) for relation, values in facts)
    engine.run_to_quiescence()
    return engine


def values(engine, relation):
    return {fact.values for fact in engine.query(relation)}


def chain(length):
    """Edges of the chain 0 -> 1 -> ... -> length."""
    return [("edge", (index, index + 1)) for index in range(length)]


def chain_closure(length):
    return {(i, j) for i in range(length + 1) for j in range(i + 1, length + 1)}


class TestTransitiveClosure:
    def test_chain_closure(self, mode):
        engine = converged(TRANSITIVE_CLOSURE, chain(6), mode)
        assert values(engine, "path") == chain_closure(6)

    def test_cycle_terminates(self, mode):
        edges = [("edge", (1, 2)), ("edge", (2, 3)), ("edge", (3, 1))]
        engine = converged(TRANSITIVE_CLOSURE, edges, mode)
        assert len(values(engine, "path")) == 9  # complete relation over 3 nodes

    def test_base_relation_left_untouched(self, mode):
        engine = converged(TRANSITIVE_CLOSURE, chain(3), mode)
        assert values(engine, "edge") == {(0, 1), (1, 2), (2, 3)}
        assert values(engine, "path") == chain_closure(3)

    def test_inserted_edges_match_full_recomputation(self, mode):
        engine = converged(TRANSITIVE_CLOSURE, chain(5), mode)
        engine.insert_facts([Fact("edge", "p", (6, 7)), Fact("edge", "p", (5, 6))])
        engine.run_to_quiescence()
        assert values(engine, "path") == chain_closure(7)

    def test_deleted_edge_shrinks_the_closure(self, mode):
        engine = converged(TRANSITIVE_CLOSURE, chain(4), mode)
        engine.delete_fact(Fact("edge", "p", (3, 4)))
        engine.run_to_quiescence()
        assert values(engine, "path") == chain_closure(3)


class TestRecursionAndNegation:
    def test_same_generation(self, mode):
        # Non-linear recursion over two small family trees.
        parents = [(2, 1), (3, 1), (4, 2), (5, 2), (6, 3), (7, 3)]
        engine = converged(SAME_GENERATION,
                           [("parent", pair) for pair in parents], mode)
        generation = values(engine, "sg")
        assert (4, 6) in generation
        assert (2, 3) in generation
        assert (2, 4) not in generation

    def test_negation_over_recursion(self, mode):
        facts = [("source", (0,)), ("edge", (0, 1)), ("edge", (1, 2))]
        facts += [("node", (n,)) for n in range(4)]
        engine = converged(UNREACHABLE, facts, mode)
        assert values(engine, "unreachable") == {(3,)}

    def test_new_edge_retracts_a_negation_result(self, mode):
        facts = [("source", (0,)), ("edge", (0, 1)), ("edge", (1, 2))]
        facts += [("node", (n,)) for n in range(4)]
        engine = converged(UNREACHABLE, facts, mode)
        engine.insert_fact(Fact("edge", "p", (2, 3)))
        engine.run_to_quiescence()
        assert values(engine, "unreachable") == set()

    def test_chained_negation(self, mode):
        facts = [("base", (n,)) for n in (1, 2, 3)] + [("flagged", (2,))]
        engine = converged(CHAINED_NEGATION, facts, mode)
        assert values(engine, "a") == {(2,)}
        assert values(engine, "b") == {(1,), (3,)}
        assert values(engine, "c") == {(2,)}

    def test_positive_dependency_on_a_negated_stratum(self, mode):
        facts = [("base", (n,)) for n in (1, 2, 3)] + [("flagged", (1,))]
        engine = converged(POSITIVE_ON_NEGATED, facts, mode)
        assert values(engine, "filtered") == {(2,), (3,)}
        assert values(engine, "report") == {(2,), (3,)}

    def test_relation_variable_reads_a_completed_negation_stratum(self, mode):
        program = """
        collection extensional persistent sel@p(r);
        collection extensional persistent s@p(x);
        collection extensional persistent small@p(x);
        collection intensional big@p(x);
        collection intensional copy@p(x);
        rule copy@p($x) :- sel@p($r), $r@p($x);
        rule big@p($x) :- s@p($x), not small@p($x);
        """
        facts = [("sel", ("big",)), ("small", (2,))] + [("s", (n,)) for n in (1, 2, 3)]
        engine = converged(program, facts, mode)
        assert values(engine, "big") == {(1,), (3,)}
        assert values(engine, "copy") == {(1,), (3,)}


class TestModesAgree:
    def test_incremental_evaluates_fewer_rules_on_an_insert(self):
        results = {}
        for mode in ("incremental", "naive"):
            engine = converged(TRANSITIVE_CLOSURE, chain(30), mode)
            engine.insert_fact(Fact("edge", "p", (30, 31)))
            stage = engine.run_stage()
            results[mode] = (stage.rules_evaluated, values(engine, "path"))
        assert results["incremental"][1] == results["naive"][1] == chain_closure(31)
        assert results["incremental"][0] < results["naive"][0]
