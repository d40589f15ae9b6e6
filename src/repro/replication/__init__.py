"""Delta-state replication of extensional updates (dots + causal contexts).

The reliable in-memory transport delivers every :class:`FactMessage` exactly
once and in order, so the engine's diff-based update protocol (PR 3) never
sees a gap.  A real transport (``repro.net``) breaks all three assumptions:
messages arrive late, duplicated and out of order, and some never arrive at
all.  This package re-ships every cross-peer update as a **join-able delta**
in the style of delta-state CRDTs (Almeida et al.; see SNIPPETS.md's
``DeltaCRDT.py``):

* every operation a peer sends over one channel gets a **dot** — the pair
  ``(origin peer, sequence number)``, contiguous per channel
  (:mod:`repro.replication.dots`);
* the receiver tracks which dots it has seen in a **compact causal context**
  and joins each :class:`~repro.replication.dots.Op` at most once, so
  applying an envelope is idempotent, commutative and order-insensitive
  (:mod:`repro.replication.channel`);
* lost envelopes are repaired by periodic **anti-entropy**: the producer
  advertises its frontier in a digest, the consumer pulls the missing
  sequence numbers, and acknowledges the contiguous frontier so the producer
  can prune its op log (:mod:`repro.replication.state`).

Fact updates, provenance closures and delegation install/retract remainders
all ride the same mechanism, so any interleaving of drop, duplication and
reordering converges to the fixpoint of a reliable run (pinned by
``tests/properties/test_confluence_replication.py``).

Select the mode per deployment with ``system().replication("causal")``; the
``REPRO_REPLICATION`` environment variable picks the default (that is how CI
runs the whole suite once per mode), falling back to ``reliable``.

Only :mod:`~repro.replication.dots` and :mod:`~repro.replication.channel`
are imported here: :mod:`~repro.replication.state` depends on
:mod:`repro.runtime.messages`, which itself imports this package for
:class:`~repro.replication.dots.Op` — importing it at package level would
cycle.
"""

from __future__ import annotations

import os
from typing import Optional

#: Environment variable selecting the replication mode when the builder does not.
REPLICATION_ENV = "REPRO_REPLICATION"

#: Accepted replication modes: ``reliable`` ships raw FactMessages and trusts
#: the transport; ``causal`` ships dotted delta envelopes with anti-entropy.
REPLICATION_MODES = ("reliable", "causal")

#: Mode used when neither the builder nor the environment chose one.
DEFAULT_REPLICATION_MODE = "reliable"


def resolve_replication_mode(mode: Optional[str] = None) -> str:
    """Resolve the effective replication mode.

    Explicit ``mode`` wins, then the ``REPRO_REPLICATION`` environment
    variable, then :data:`DEFAULT_REPLICATION_MODE`.  Unknown names raise
    ``ValueError``.
    """
    chosen = mode or os.environ.get(REPLICATION_ENV) or DEFAULT_REPLICATION_MODE
    chosen = chosen.strip().lower()
    if chosen not in REPLICATION_MODES:
        raise ValueError(
            f"unknown replication mode {chosen!r}; expected one of "
            f"{', '.join(REPLICATION_MODES)}"
        )
    return chosen


from repro.replication.dots import CausalContext, Dot, Op  # noqa: E402
from repro.replication.channel import ChannelInbox, ChannelOutbox  # noqa: E402

__all__ = [
    "REPLICATION_ENV",
    "REPLICATION_MODES",
    "DEFAULT_REPLICATION_MODE",
    "resolve_replication_mode",
    "CausalContext",
    "Dot",
    "Op",
    "ChannelInbox",
    "ChannelOutbox",
]
