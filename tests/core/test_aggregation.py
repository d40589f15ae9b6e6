"""Tests of group-by aggregation."""

import pytest

from repro.core.aggregation import Aggregate, aggregate_relation, compute_aggregate


class TestAggregateEnum:
    def test_from_name(self):
        assert Aggregate.from_name("count") is Aggregate.COUNT
        assert Aggregate.from_name("AVG") is Aggregate.AVG
        with pytest.raises(ValueError):
            Aggregate.from_name("median")

    @pytest.mark.parametrize("function", list(Aggregate), ids=lambda f: f.value)
    def test_every_function_is_found_by_its_name(self, function):
        assert Aggregate.from_name(function.value) is function
        assert Aggregate.from_name(function.value.upper()) is function


class TestComputeAggregate:
    @pytest.mark.parametrize("function, expected", [
        (Aggregate.COUNT, 4),
        (Aggregate.SUM, 12),
        (Aggregate.MIN, 1),
        (Aggregate.MAX, 5),
        (Aggregate.AVG, 3.0),
    ], ids=lambda value: getattr(value, "value", None))
    def test_function_over_values(self, function, expected):
        assert compute_aggregate(function, [4, 1, 5, 2]) == expected

    def test_count_of_nothing_is_zero(self):
        assert compute_aggregate(Aggregate.COUNT, []) == 0

    @pytest.mark.parametrize("function", [Aggregate.SUM, Aggregate.MIN,
                                          Aggregate.MAX, Aggregate.AVG],
                             ids=lambda f: f.value)
    def test_numeric_aggregate_of_nothing_is_none(self, function):
        assert compute_aggregate(function, []) is None

    def test_count_keeps_duplicate_values(self):
        assert compute_aggregate(Aggregate.COUNT, [7, 7, 7]) == 3

    def test_min_and_max_compare_strings(self):
        names = ["bob", "alice", "carol"]
        assert compute_aggregate(Aggregate.MIN, names) == "alice"
        assert compute_aggregate(Aggregate.MAX, names) == "carol"

    def test_average_of_integers_is_a_float(self):
        assert compute_aggregate(Aggregate.AVG, [1, 2]) == 1.5


class TestAggregateRelation:
    ROWS = [
        ("alice", 1, 5), ("alice", 2, 3), ("bob", 3, 4), ("bob", 4, 4), ("bob", 5, 2),
    ]

    def test_count_per_group(self):
        result = aggregate_relation(self.ROWS, group_by=[0],
                                    aggregates=[(1, Aggregate.COUNT)])
        assert set(result) == {("alice", 2), ("bob", 3)}

    def test_multiple_aggregates(self):
        result = aggregate_relation(self.ROWS, group_by=[0],
                                    aggregates=[(2, Aggregate.AVG), (2, Aggregate.MAX),
                                                (2, Aggregate.MIN)])
        as_dict = {row[0]: row[1:] for row in result}
        assert as_dict["alice"] == (4.0, 5, 3)
        assert as_dict["bob"] == (pytest.approx(10 / 3), 4, 2)

    def test_sum(self):
        result = aggregate_relation(self.ROWS, group_by=[0],
                                    aggregates=[(2, Aggregate.SUM)])
        assert set(result) == {("alice", 8), ("bob", 10)}

    def test_empty_input(self):
        assert aggregate_relation([], group_by=[0], aggregates=[(1, Aggregate.COUNT)]) == []

    def test_group_by_multiple_columns(self):
        rows = [(1, "a", 10), (1, "a", 20), (1, "b", 5)]
        result = aggregate_relation(rows, group_by=[0, 1],
                                    aggregates=[(2, Aggregate.SUM)])
        assert set(result) == {(1, "a", 30), (1, "b", 5)}


    def test_group_by_nothing_aggregates_every_row(self):
        result = aggregate_relation(self.ROWS, group_by=[],
                                    aggregates=[(1, Aggregate.COUNT), (2, Aggregate.SUM)])
        assert result == [(5, 18)]

    def test_key_columns_follow_group_by_order(self):
        rows = [(1, "a", 10), (1, "a", 20), (2, "a", 5)]
        result = aggregate_relation(rows, group_by=[1, 0],
                                    aggregates=[(2, Aggregate.MAX)])
        assert set(result) == {("a", 1, 20), ("a", 2, 5)}
