"""Layer spans recorded from outside the program.

The traced run wraps the public entry points of each layer (listed in
:func:`_targets`) with timers, runs a fixed number of client operations,
and removes the wrappers again.  The timed runs never install
them.

* A **span** records its name, start, end, parent span and the id of the
  client operation it belongs to.  Layers that call into other layers
  (scheduler, peer, engine, planner, replication, wrappers, api) get spans.
* A **leaf** is a call into a layer that calls no other traced layer (the
  store and the transport).  Leaves are too frequent to keep one record
  each, so their time and count are summed onto the span that was open when
  they ran.  A store scan is timed row by row, each ``next()`` being one
  leaf, because the evaluator consumes scans lazily inside its own loops.

A span's self time is its duration minus its children's durations and its
leaves' time.  Per operation, the self times of all spans below the root,
plus all leaf time, plus the root's own self time (the time no layer
covers, reported as "unattributed") add up to the root's duration.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

# Positions inside an open-span frame (a list, for speed).
_ID, _PARENT, _OP, _LAYER, _NAME, _START, _CHILD, _LEAF, _LEAVES = range(9)


class Tracer:
    """In-memory span recorder; records are written out by :meth:`dump`."""

    def __init__(self):
        self.records: List[Tuple] = []
        self.counts: Dict[str, float] = {}
        self.stack: List[list] = []
        self.in_leaf = False
        self._next_id = 0
        self._op = 0

    # -- recording ---------------------------------------------------------- #

    def open(self, layer: str, name: str) -> list:
        self._next_id += 1
        parent = self.stack[-1][_ID] if self.stack else None
        frame = [self._next_id, parent, self._op, layer, name, perf_counter(),
                 0.0, 0.0, None]
        self.stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter()
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[_NAME]} closed out of order")
        duration = end - frame[_START]
        if self.stack:
            self.stack[-1][_CHILD] += duration
        self.records.append((frame[_ID], frame[_PARENT], frame[_OP], frame[_LAYER],
                             frame[_NAME], frame[_START], end,
                             duration - frame[_CHILD] - frame[_LEAF], frame[_LEAVES]))

    def leaf(self, name: str, seconds: float) -> None:
        frame = self.stack[-1]
        frame[_LEAF] += seconds
        leaves = frame[_LEAVES]
        if leaves is None:
            leaves = frame[_LEAVES] = {}
        entry = leaves.get(name)
        if entry is None:
            leaves[name] = [seconds, 1]
        else:
            entry[0] += seconds
            entry[1] += 1

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def count_max(self, name: str, value: float) -> None:
        if value > self.counts.get(name, 0):
            self.counts[name] = value

    @contextmanager
    def operation(self, kind: str) -> Iterator[None]:
        """The root span of one client operation."""
        self._op += 1
        frame = self.open("op", f"op.{kind}")
        try:
            yield
        finally:
            self.close(frame)

    def timed_rows(self, rows: Iterator) -> Iterator:
        """Re-yield a store scan, timing each ``next()`` as a store leaf."""
        while True:
            if not self.stack or self.in_leaf:
                try:
                    row = next(rows)
                except StopIteration:
                    return
                yield row
                continue
            self.in_leaf = True
            start = perf_counter()
            try:
                row = next(rows)
            except StopIteration:
                return
            finally:
                self.in_leaf = False
                self.leaf("store.scan", perf_counter() - start)
            self.count("store.rows_scanned")
            yield row

    # -- output ------------------------------------------------------------- #

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as out:
            for record in sorted(self.records):
                span_id, parent, op, layer, name, start, end, self_s, leaves = record
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "op": op, "layer": layer,
                    "name": name, "start": start, "end": end, "self_s": self_s,
                    "leaves": leaves or {},
                }) + "\n")


# --------------------------------------------------------------------------- #
# wrappers
# --------------------------------------------------------------------------- #

Hook = Callable[[Tracer, list, tuple, object], None]


def _span(tracer: Tracer, layer: str, name: str, fn: Callable,
          hook: Optional[Hook] = None) -> Callable:
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if not tracer.stack or tracer.in_leaf:
            return fn(*args, **kwargs)
        frame = tracer.open(layer, name)
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, frame, args, result)
        finally:
            tracer.close(frame)
        return result
    return wrapped


def _leaf(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if not tracer.stack or tracer.in_leaf:
            return fn(*args, **kwargs)
        tracer.in_leaf = True
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.in_leaf = False
            tracer.leaf(name, perf_counter() - start)
    return wrapped


def _scan(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        rows = fn(*args, **kwargs)
        if not tracer.stack or tracer.in_leaf:
            return rows
        return tracer.timed_rows(iter(rows))
    return wrapped


def _send(tracer: Tracer, fn: Callable) -> Callable:
    """Transport send as a leaf.  The wire size of each sent message is
    measured after the send's timer stops and charged to ``trace.wire``
    (tracer bookkeeping, not a layer)."""
    @functools.wraps(fn)
    def wrapped(self, message):
        if not tracer.stack or tracer.in_leaf:
            return fn(self, message)
        tracer.in_leaf = True
        start = perf_counter()
        try:
            result = fn(self, message)
        finally:
            tracer.in_leaf = False
            tracer.leaf("transport.send", perf_counter() - start)
        start = perf_counter()
        encoded = json.dumps(message.to_wire(), separators=(",", ":"), sort_keys=True)
        tracer.count("transport.wire_bytes", len(encoded.encode("utf-8")))
        tracer.leaf("trace.wire", perf_counter() - start)
        return result
    return wrapped


def _pull(tracer: Tracer, fn: Callable) -> Callable:
    """Answering a pull re-sends logged ops: count the envelopes it queues."""
    @functools.wraps(fn)
    def wrapped(self, *args, **kwargs):
        before = self.counters["envelopes_sent"]
        try:
            return fn(self, *args, **kwargs)
        finally:
            if tracer.stack:
                tracer.count("replication.retransmits",
                             self.counters["envelopes_sent"] - before)
    return _span(tracer, "replication", "replication.pull", wrapped)


def _join(tracer: Tracer, fn: Callable) -> Callable:
    """Count ops received and those new to the inbox (inside the apply span)."""
    @functools.wraps(fn)
    def wrapped(self, op):
        if tracer.stack:
            tracer.count("replication.ops_received")
            if op.seq not in self.cc:
                tracer.count("replication.new_ops")
        return fn(self, op)
    return wrapped


# -- hooks ------------------------------------------------------------------ #

def _view_opened(tracer, frame, args, view) -> None:
    if getattr(view, "compiled", None) is not None:
        tracer.count("api.views_opened")


def _view_read(tracer, frame, args, facts) -> None:
    tracer.count("api.answers", len(facts))


def _round(tracer, frame, args, report) -> None:
    tracer.count("scheduler.rounds")
    system = args[1]
    tracer.count_max("transport.max_in_flight", system.transport.pending_count())


def _peer_stage(tracer, frame, args, returned) -> None:
    result, outgoing = returned
    tracer.count("scheduler.stages")
    if result.evaluation_path != "skip" or outgoing:
        tracer.count("scheduler.useful_stages")


def _delivered(tracer, frame, args, count) -> None:
    tracer.count("peer.messages_delivered", count)


def _engine_stage(tracer, frame, args, result) -> None:
    frame[_NAME] = f"engine.stage.{result.evaluation_path}"
    tracer.count("engine.derived_facts", result.derived_intensional)


def _targets():
    """``(class, attribute, wrapper factory)`` for every traced entry point."""
    from repro.api.facade import PeerHandle
    from repro.api.views import LiveView
    from repro.core.engine import WebdamLogEngine
    from repro.planner.ordering import BodyPlanner
    from repro.replication.channel import ChannelInbox
    from repro.replication.state import ReplicationState
    from repro.runtime.inmemory import InMemoryTransport
    from repro.runtime.peer import Peer
    from repro.runtime.scheduler import LockstepScheduler
    from repro.runtime.system import WebdamLogSystem
    from repro.store.compiler import BodyPushdown
    from repro.store.memory import MemoryBackend, MemoryTable
    from repro.store.sqlite import SqliteBackend, SqliteTable
    from repro.wrappers import base, dropbox, email, facebook

    def span(layer, name, hook=None):
        return lambda tracer, fn: _span(tracer, layer, name, fn, hook)

    def leaf(name):
        return lambda tracer, fn: _leaf(tracer, name, fn)

    targets = [
        (PeerHandle, "query", span("api", "api.view_open", _view_opened)),
        (LiveView, "close", span("api", "api.view_close")),
        (LiveView, "facts", span("api", "api.view_read", _view_read)),
        (WebdamLogSystem, "converge", span("scheduler", "scheduler.converge")),
        (LockstepScheduler, "step", span("scheduler", "scheduler.step", _round)),
        (Peer, "deliver_all", span("peer", "peer.deliver", _delivered)),
        (Peer, "run_stage", span("peer", "peer.stage", _peer_stage)),
        (WebdamLogEngine, "run_stage", span("engine", "engine.stage", _engine_stage)),
        (BodyPlanner, "plan_rule", span("planner", "planner.plan")),
        (BodyPlanner, "plan_rule_delta", span("planner", "planner.plan")),
        (ReplicationState, "encode_outgoing", span("replication", "replication.encode")),
        (ReplicationState, "flush", span("replication", "replication.flush")),
        (ReplicationState, "apply_envelope", span("replication", "replication.apply")),
        (ReplicationState, "on_digest", span("replication", "replication.digest")),
        (ReplicationState, "on_pull", _pull),
        (ReplicationState, "on_ack", span("replication", "replication.ack")),
        (ChannelInbox, "apply", _join),
        (InMemoryTransport, "send", _send),
        (InMemoryTransport, "receive", leaf("transport.receive")),
        (InMemoryTransport, "advance_round", leaf("transport.advance")),
        (BodyPushdown, "run", leaf("store.sql")),
        (BodyPushdown, "aggregate", leaf("store.sql")),
        (MemoryBackend, "commit", leaf("store.commit")),
        (SqliteBackend, "commit", leaf("store.commit")),
    ]
    for table in (MemoryTable, SqliteTable):
        targets += [
            (table, "insert", leaf("store.insert")),
            (table, "insert_many", leaf("store.insert")),
            (table, "delete", leaf("store.delete")),
            (table, "clear", leaf("store.delete")),
            (table, "scan", _scan),
        ]
    for module in (base, facebook, email, dropbox):
        for cls in vars(module).values():
            if isinstance(cls, type) and issubclass(cls, base.Wrapper):
                for hook_name in ("before_stage", "after_stage"):
                    if hook_name in vars(cls):
                        targets.append((cls, hook_name,
                                        span("wrappers", f"wrappers.{hook_name}")))
    return targets


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced entry point; returns the function that unwraps them.

    An entry point missing from its class raises ``KeyError``: a renamed
    layer API must be re-targeted here rather than silently reporting zero.
    """
    originals = []
    try:
        for cls, attr, factory in _targets():
            original = vars(cls)[attr]
            originals.append((cls, attr, original))
            setattr(cls, attr, factory(tracer, original))
    except BaseException:
        for cls, attr, original in reversed(originals):
            setattr(cls, attr, original)
        raise

    def restore() -> None:
        for cls, attr, original in reversed(originals):
            setattr(cls, attr, original)
    return restore


# --------------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------------- #

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def self_times(records) -> Tuple[Dict[str, float], Dict[str, List[float]], float, float]:
    """Self time per span name, leaf ``[seconds, calls]`` per leaf name,
    unattributed time (root self time) and total root duration."""
    by_name: Dict[str, float] = {}
    leaves: Dict[str, List[float]] = {}
    unattributed = 0.0
    total = 0.0
    for _id, parent, _op, _layer, name, start, end, self_s, leaf_map in records:
        if parent is None:
            unattributed += self_s
            total += end - start
        else:
            by_name[name] = by_name.get(name, 0.0) + self_s
        for leaf_name, (seconds, calls) in (leaf_map or {}).items():
            entry = leaves.setdefault(leaf_name, [0.0, 0])
            entry[0] += seconds
            entry[1] += calls
    return by_name, leaves, unattributed, total


def layer_metrics(tracer: Tracer, program: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    ``program`` holds the program's own counters over the same operations
    (transport stats, engine and planner counters, replication counters).
    """
    by_name, leaves, unattributed, total = self_times(tracer.records)
    counts = tracer.counts

    def self_of(prefix: str) -> float:
        return sum(t for name, t in by_name.items() if name.startswith(prefix))

    def leaf_s(name: str) -> float:
        return leaves.get(name, [0.0, 0])[0]

    stages = counts.get("scheduler.stages", 0)
    received = counts.get("replication.ops_received", 0)
    plans = program["plans_computed"] + program["plans_cached"]
    answers = counts.get("engine.derived_facts", 0) + counts.get("api.answers", 0)
    return {
        "api.view_open_s": by_name.get("api.view_open", 0.0),
        "api.view_close_s": by_name.get("api.view_close", 0.0),
        "api.view_read_s": by_name.get("api.view_read", 0.0),
        "api.views_opened": counts.get("api.views_opened", 0),
        "scheduler.rounds": counts.get("scheduler.rounds", 0),
        "scheduler.stages": stages,
        "scheduler.useful_stage_ratio": _ratio(counts.get("scheduler.useful_stages", 0),
                                               stages),
        "scheduler.self_s": self_of("scheduler."),
        "peer.deliver_s": by_name.get("peer.deliver", 0.0),
        "peer.messages_delivered": counts.get("peer.messages_delivered", 0),
        "engine.self_s": self_of("engine."),
        "engine.stages.skip": program["stages_skip"],
        "engine.stages.delta": program["stages_delta"],
        "engine.stages.rederive": program["stages_rederive"],
        "engine.stages.full": program["stages_full"],
        "engine.stage_s.delta": by_name.get("engine.stage.delta", 0.0),
        "engine.stage_s.rederive": by_name.get("engine.stage.rederive", 0.0),
        "engine.stage_s.full": by_name.get("engine.stage.full", 0.0),
        "engine.derived_facts": counts.get("engine.derived_facts", 0),
        "engine.substitutions": program["substitutions"],
        "planner.plan_s": by_name.get("planner.plan", 0.0),
        "planner.plans_computed": program["plans_computed"],
        "planner.plan_cache_hit_ratio": _ratio(program["plans_cached"], plans),
        "store.insert_s": leaf_s("store.insert"),
        "store.delete_s": leaf_s("store.delete"),
        "store.scan_s": leaf_s("store.scan"),
        "store.rows_scanned": counts.get("store.rows_scanned", 0),
        "store.rows_per_answer": _ratio(counts.get("store.rows_scanned", 0), answers),
        "store.sql_s": leaf_s("store.sql"),
        "store.commit_s": leaf_s("store.commit"),
        "store.commits": leaves.get("store.commit", [0.0, 0])[1],
        "transport.messages": program["messages"],
        "transport.payload_items": program["payload_items"],
        "transport.dropped": program["dropped"],
        "transport.wire_bytes": counts.get("transport.wire_bytes", 0),
        "transport.max_in_flight": counts.get("transport.max_in_flight", 0),
        "transport.send_s": leaf_s("transport.send"),
        "replication.encode_s": by_name.get("replication.encode", 0.0),
        "replication.apply_s": by_name.get("replication.apply", 0.0),
        "replication.anti_entropy_s": sum(by_name.get(f"replication.{name}", 0.0)
                                          for name in ("flush", "digest", "pull", "ack")),
        "replication.envelopes": program["envelopes_sent"],
        "replication.retransmits": counts.get("replication.retransmits", 0),
        "replication.useful_op_ratio": _ratio(counts.get("replication.new_ops", 0),
                                              received),
        "wrappers.hook_s": self_of("wrappers."),
        "trace.op_s": total,
        "trace.unattributed_s": unattributed,
    }
