"""The closed-loop client shared by the workloads.

One client sends an operation, waits for the deployment to converge, checks
the result against the workload's oracle (untimed), and only then sends the
next one.  Operations come in seeded blocks whose mix is fixed, so a run's
statistics do not depend on where the time limit cut the stream.

A short reference task is timed right before and right after each operation
and each set-up, so every time is also given host-adjusted: on a shared host
the speed of the CPU drifts, by 10-20% between 30-second windows, and the
ratio to the reference timed next to an operation cancels most of that.
"""

from __future__ import annotations

import gc
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Tuple

from wepicbench.common import peak_rss_mb
from wepicbench.deploy import delta


class Op(NamedTuple):
    kind: str
    args: tuple = ()


#: Loop count of the reference task: 7 to 11 ms of interpreter work on a
#: shared 2-CPU x86-64 host running Python 3.11.
REFERENCE_LOOPS = 60_000

#: Host-adjusted times are what a time would have been on a host that runs
#: the reference task in exactly this long.
REFERENCE_NOMINAL_S = 0.010


def reference_seconds() -> float:
    """Time one run of the reference task: a fixed pure-Python loop over a
    small dict, with the collector off, so its time follows the host's speed
    and not the heap the program left behind."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table: Dict[int, int] = {}
        for index in range(REFERENCE_LOOPS):
            key = index & 1023
            table[key] = table.get(key, 0) + index
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


@dataclass
class PhaseResult:
    samples: List[Tuple[str, float]] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    #: The same times, host-adjusted: scaled by ``REFERENCE_NOMINAL_S`` over
    #: the mean of the reference task's times right before and right after.
    adjusted: List[Tuple[str, float]] = field(default_factory=list)
    setup_adjusted: List[float] = field(default_factory=list)
    reference_s: List[float] = field(default_factory=list)
    failed: int = 0
    #: Failed operations per kind, and the index of the first one: once a
    #: deployment diverges from the model, later checks of the same pages
    #: fail too, so ``failed`` also counts knock-on failures.
    failed_by_kind: Dict[str, int] = field(default_factory=dict)
    first_failed_op: Optional[int] = None
    problems: List[str] = field(default_factory=list)
    #: Program counters at the checkpoint: after the first ``checkpoint_ops``
    #: operations of a session (one per session when every block sets up).
    fingerprints: List[Dict[str, int]] = field(default_factory=list)
    #: Peak resident memory (MiB) at the last checkpoint.  The pages and
    #: replication state of a served session grow with every block, so the
    #: peak at the end of a run would grow with how many operations fit in it.
    checkpoint_rss_mb: float = 0.0
    #: Program counters summed over every operation of the phase.
    program: Dict[str, int] = field(default_factory=dict)
    config: Dict[str, object] = field(default_factory=dict)

    def op_seconds(self) -> float:
        return sum(seconds for _, seconds in self.samples)

    def adjust(self, seconds: float, before: float, after: float) -> float:
        """Host-adjust ``seconds`` by the reference times around it."""
        self.reference_s += [before, after]
        return seconds * REFERENCE_NOMINAL_S * 2 / (before + after)


def _add(total: Dict[str, int], part: Dict[str, int]) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def run_phase(workload, seconds: Optional[float] = None,
              ops: Optional[int] = None, tracer=None,
              setup_repeats: int = 1) -> PhaseResult:
    """Run whole blocks until ``ops`` operations ran or ``seconds`` passed.

    At least ``workload.checkpoint_ops`` operations always run, so every
    phase reaches the determinism checkpoint.  With ``tracer`` set, each
    operation is one root span.  ``setup_repeats`` extra set-ups (closed
    at once) give ``setup_s`` more samples when one session serves the run.
    """
    result = PhaseResult()

    def new_session():
        # Garbage from the previous session is collected here, untimed, so
        # no session pays for another's.
        gc.collect()
        before = reference_seconds()
        start = perf_counter()
        session = workload.setup()
        elapsed = perf_counter() - start
        result.setup_s.append(elapsed)
        result.setup_adjusted.append(result.adjust(elapsed, before, reference_seconds()))
        result.config = session.config
        result.problems.extend(f"set-up: {p}" for p in session.check_setup())
        return session

    session = None
    if not workload.setup_per_block:
        for _ in range(setup_repeats - 1):
            new_session().close()
        session = new_session()
        base = session.counters()
    deadline = perf_counter() + (seconds or 0.0)
    done = 0
    try:
        while True:
            if workload.setup_per_block:
                session = new_session()
                base = session.counters()
            for op in session.next_block():
                before = reference_seconds()
                ok, elapsed = _run_op(session, op, tracer)
                result.samples.append((op.kind, elapsed))
                result.adjusted.append(
                    (op.kind, result.adjust(elapsed, before, reference_seconds())))
                problems = session.check(op) if ok else ["did not converge or raised"]
                if problems:
                    result.failed += 1
                    result.failed_by_kind[op.kind] = result.failed_by_kind.get(op.kind, 0) + 1
                    if result.first_failed_op is None:
                        result.first_failed_op = done
                    result.problems.extend(f"{op.kind}{op.args}: {p}" for p in problems)
                done += 1
                if not workload.setup_per_block and done == workload.checkpoint_ops:
                    result.fingerprints.append(delta(session.counters(), base))
                    result.checkpoint_rss_mb = peak_rss_mb()
            if workload.setup_per_block:
                counted = delta(session.counters(), base)
                result.fingerprints.append(counted)
                result.checkpoint_rss_mb = peak_rss_mb()
                _add(result.program, counted)
                session.close()
                session = None
            if done < workload.checkpoint_ops:
                continue
            if ops is not None and done >= ops:
                break
            if seconds is not None and perf_counter() >= deadline:
                break
        if session is not None:
            _add(result.program, delta(session.counters(), base))
    finally:
        if session is not None:
            session.close()
    return result


def _run_op(session, op: Op, tracer) -> Tuple[bool, float]:
    start = perf_counter()
    try:
        if tracer is None:
            ok = session.run(op)
        else:
            with tracer.operation(op.kind):
                ok = session.run(op)
    except Exception:  # the client keeps going; the failure is counted
        traceback.print_exc(file=sys.stderr)
        ok = False
    return ok, perf_counter() - start
