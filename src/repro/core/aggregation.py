"""Group-by aggregation over plain value tuples.

Live views with ``count``/``sum``/``min``/``max``/``avg`` heads, the SQL
compiler's aggregate pushdown and the Wepic "select and rank photos based on
their annotations" feature (average rating, comment counts) all share the
function set and evaluation point defined here.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Sequence, Tuple


class Aggregate(enum.Enum):
    """Supported aggregate functions."""

    COUNT = "count"
    SUM = "sum"
    MIN = "min"
    MAX = "max"
    AVG = "avg"

    @classmethod
    def from_name(cls, name: str) -> "Aggregate":
        """Look up an aggregate by its (case-insensitive) name."""
        try:
            return cls(name.lower())
        except ValueError as exc:
            raise ValueError(f"unknown aggregate function {name!r}") from exc


def compute_aggregate(function: Aggregate, values: Sequence) -> object:
    """Apply one aggregate function to a sequence of values.

    ``COUNT`` counts the values; the numeric aggregates return ``None`` on an
    empty input.  This is the single evaluation point shared by
    :func:`aggregate_relation` and the live-view read path.
    """
    if function is Aggregate.COUNT:
        return len(values)
    numeric = list(values)
    if not numeric:
        return None
    if function is Aggregate.SUM:
        return sum(numeric)
    if function is Aggregate.MIN:
        return min(numeric)
    if function is Aggregate.MAX:
        return max(numeric)
    if function is Aggregate.AVG:
        return sum(numeric) / len(numeric)
    raise ValueError(f"unsupported aggregate {function}")  # pragma: no cover


def aggregate_relation(rows: Iterable[Tuple], group_by: Sequence[int],
                       aggregates: Sequence[Tuple[int, Aggregate]]) -> List[Tuple]:
    """Group ``rows`` on the ``group_by`` positions and aggregate each group.

    Each output row is the group key (in ``group_by`` order) followed by one
    value per ``(position, function)`` pair in ``aggregates``.
    """
    groups: Dict[Tuple, List[Tuple]] = {}
    for row in rows:
        key = tuple(row[i] for i in group_by)
        groups.setdefault(key, []).append(row)
    output: List[Tuple] = []
    for key, members in groups.items():
        aggregated = tuple(
            compute_aggregate(function, [member[position] for member in members])
            for position, function in aggregates
        )
        output.append(key + aggregated)
    return output
