"""Deployment assembly with every knob pinned, plus the program's own
counters and resolved configuration read back from a built deployment."""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from repro.api import InMemoryTransport, system
from repro.core.facts import Fact
from repro.wepic.app import WepicApp
from repro.wepic.rules import SIGMOD_FB_PEER, SIGMOD_PEER, WepicRules, sigmod_schemas
from repro.wrappers.email import EmailService, EmailWrapper
from repro.wrappers.facebook import FacebookGroupWrapper, FacebookService

#: Knob values every workload sets explicitly (``drop_probability`` and
#: ``replication`` vary per workload and are passed in).
FIXED_KNOBS = {
    "scheduler": "lockstep",
    "evaluation": "incremental",
    "planner": "magic",
    "latency": 1,
}


def builder(storage: str, replication: str, drop_probability: float,
            transport_seed: int, **storage_options):
    """A system builder with every knob of the deployment set explicitly."""
    transport = InMemoryTransport(latency=FIXED_KNOBS["latency"],
                                  drop_probability=drop_probability,
                                  seed=transport_seed)
    return (system()
            .transport(transport)
            .scheduler(FIXED_KNOBS["scheduler"])
            .evaluation(FIXED_KNOBS["evaluation"])
            .planner(FIXED_KNOBS["planner"])
            .storage(storage, **storage_options)
            .replication(replication))


class WepicDeployment:
    """The Figure-2 deployment: ``sigmod``, ``SigmodFB`` behind the Facebook
    group wrapper, and one Wepic app (with an email wrapper) per attendee."""

    def __init__(self, attendees: Sequence[str], replication: str,
                 drop_probability: float, transport_seed: int):
        rules = WepicRules(sigmod_peer=SIGMOD_PEER, group_peer=SIGMOD_FB_PEER)
        facebook = FacebookService()
        email = EmailService()
        chain = builder("memory", replication, drop_probability, transport_seed)
        chain.default_trusted(SIGMOD_PEER).auto_accept_delegations(True)
        sigmod = chain.peer(SIGMOD_PEER)
        for schema in sigmod_schemas(SIGMOD_PEER, SIGMOD_FB_PEER):
            sigmod.schema(schema)
        for rule in rules.sigmod_rules():
            sigmod.rule(rule)
        chain.peer(SIGMOD_FB_PEER).wrapper(
            FacebookGroupWrapper(facebook, group="sigmod",
                                 peer_name=SIGMOD_FB_PEER))
        for attendee in attendees:
            chain.peer(attendee)
        self.api = chain.build()
        self.apps: Dict[str, WepicApp] = {}
        sigmod_handle = self.api.peer(SIGMOD_PEER)
        for attendee in attendees:
            handle = self.api.peer(attendee)
            self.apps[attendee] = WepicApp(handle, rules=rules)
            handle.attach_wrapper(EmailWrapper(email))
            facebook.add_user(attendee)
            facebook.join_group("sigmod", attendee)
            sigmod_handle.insert(Fact("attendees", SIGMOD_PEER, (attendee,)))

    def close(self) -> None:
        self.api.close()


def program_counters(api) -> Dict[str, int]:
    """Work counters the program keeps itself (summed over peers)."""
    stats = api.stats
    out = {
        "messages": stats.messages_sent,
        "payload_items": stats.payload_items,
        "dropped": stats.messages_dropped,
        "stages_skip": 0, "stages_delta": 0, "stages_rederive": 0, "stages_full": 0,
        "substitutions": 0, "rules_evaluated": 0, "fixpoint_iterations": 0,
        "plans_computed": 0, "plans_cached": 0,
        "envelopes_sent": 0, "ops_applied": 0,
    }
    for name in api.peer_names():
        peer = api.peer(name).unwrap()
        counters = peer.engine.eval_counters
        for path in ("skip", "delta", "rederive", "full"):
            out[f"stages_{path}"] += counters[f"stages_{path}"]
        out["substitutions"] += counters["substitutions_explored"]
        out["rules_evaluated"] += counters["rules_evaluated"]
        out["fixpoint_iterations"] += counters["fixpoint_iterations"]
        out["plans_computed"] += counters["plans_computed"]
        out["plans_cached"] += counters["plans_cached"]
        if peer.replication is not None:
            out["envelopes_sent"] += peer.replication.counters["envelopes_sent"]
            out["ops_applied"] += peer.replication.counters["ops_applied"]
    return out


def resolved_config(api) -> Dict[str, object]:
    """The configuration the built deployment actually runs with."""
    runtime = api.runtime
    transport = runtime.transport

    def one(values: Iterable[object], knob: str) -> object:
        distinct = sorted(set(values), key=str)
        if len(distinct) != 1:
            raise RuntimeError(f"peers disagree on {knob}: {distinct}")
        return distinct[0]

    peers = [api.peer(name).unwrap() for name in api.peer_names()]
    return {
        "scheduler": runtime.scheduler.name,
        "evaluation": one((p.engine.evaluation_mode for p in peers), "evaluation"),
        "planner": one((p.engine.planner_mode for p in peers), "planner"),
        "storage": one((p.engine.state.backend.name for p in peers), "storage"),
        "replication": one((p.replication_mode for p in peers), "replication"),
        "transport": type(transport).__name__,
        "latency": transport.latency,
        "drop_probability": transport.drop_probability,
    }


def check_pinned(api, expected: Dict[str, object]) -> Dict[str, object]:
    """Resolve the configuration and fail loudly if any knob differs."""
    resolved = resolved_config(api)
    wrong = {knob: (value, resolved.get(knob)) for knob, value in expected.items()
             if resolved.get(knob) != value}
    if wrong:
        raise RuntimeError(f"deployment ignored pinned knobs (expected, got): {wrong}")
    return resolved


def delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before[key] for key in after}
