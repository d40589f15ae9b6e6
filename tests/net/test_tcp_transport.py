"""The asyncio TCP transport behind ``system().transport("tcp")``.

These tests open real localhost sockets.  They keep peer counts small and
rely on the bounded-quiet-period convergence mode for determinism.
"""

import time

import pytest

from repro.api import system
from repro.core.errors import TransportError
from repro.core.facts import Fact
from repro.net.membership import ALIVE, LEFT
from repro.net.tcp import TcpTransport
from repro.runtime.messages import FactMessage

JULES = '''
collection extensional persistent pictures@jules(pic);
collection extensional persistent friends@jules(name);
fact friends@jules("emilien");
fact pictures@jules("p1");
fact pictures@jules("p2");
rule album@emilien($pic) :- pictures@jules($pic);
'''

EMILIEN = '''
collection extensional persistent album@emilien(pic);
'''


# Delegation: Jules's rule reads a relation at a peer named in Jules's data.
SELECTED_JULES = """
collection extensional persistent selectedAttendee@Jules(attendee);
collection intensional attendeePictures@Jules(id, name);
fact selectedAttendee@Jules("Emilien");
rule attendeePictures@Jules($id, $n) :- selectedAttendee@Jules($a), pictures@$a($id, $n);
"""

SELECTED_EMILIEN = """
collection extensional persistent pictures@Emilien(id, name);
fact pictures@Emilien(1, "sea.jpg");
fact pictures@Emilien(2, "boat.jpg");
"""


def with_transport(builder, transport):
    return builder.transport("tcp", seed=7) if transport == "tcp" else builder


def wait_for(predicate, timeout=8.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def test_register_assigns_real_addresses():
    with TcpTransport(seed=1) as transport:
        transport.register("alice")
        transport.register("bob")
        assert transport.peers() == ("alice", "bob")
        address = transport.address_of("alice")
        host, _, port = address.rpartition(":")
        assert host == "127.0.0.1" and int(port) > 0
        assert transport.is_registered("alice")
        assert not transport.is_registered("carol")


def test_membership_converges_between_peers():
    with TcpTransport(seed=1) as transport:
        for name in ("alice", "bob", "carol"):
            transport.register(name)
        assert wait_for(lambda: all(
            transport.membership_view(name).get(other) == ALIVE
            for name in ("alice", "bob", "carol")
            for other in ("alice", "bob", "carol") if other != name))


def test_message_travels_over_real_sockets():
    with TcpTransport(seed=1) as transport:
        transport.register("alice")
        transport.register("bob")
        message = FactMessage(sender="alice", recipient="bob",
                              inserted=frozenset({Fact("r", "bob", ("x",))}))
        assert transport.send(message) is True
        assert transport.stats.messages_sent == 1
        received = []
        assert wait_for(lambda: received.extend(transport.receive("bob"))
                        or received)
        assert received[0].message_id == message.message_id
        assert transport.stats.messages_delivered == 1


def test_unknown_recipient_raises_transport_error():
    with TcpTransport(seed=1) as transport:
        transport.register("alice")
        with pytest.raises(TransportError):
            transport.send(FactMessage(sender="alice", recipient="facebook"))
        with pytest.raises(TransportError):
            transport.send(FactMessage(sender="ghost", recipient="alice"))


def test_unregister_announces_leave():
    with TcpTransport(seed=1) as transport:
        transport.register("alice")
        transport.register("bob")
        assert wait_for(
            lambda: transport.membership_view("alice").get("bob") == ALIVE)
        transport.unregister("bob")
        assert transport.peers() == ("alice",)
        assert wait_for(
            lambda: transport.membership_view("alice").get("bob") == LEFT)


def test_event_log_written_to_jsonl(tmp_path):
    path = tmp_path / "net.jsonl"
    with TcpTransport(seed=1, log_path=str(path)) as transport:
        transport.register("alice")
        transport.register("bob")
        message = FactMessage(sender="alice", recipient="bob",
                              inserted=frozenset({Fact("r", "bob", ("x",))}))
        transport.send(message)
        assert wait_for(lambda: transport.receive("bob"))
    from repro.net.events import read_events
    actions = {event["action"] for event in read_events(str(path))}
    assert {"register", "send", "deliver"} <= actions


def test_wepic_scenario_matches_inmemory_with_churn():
    """The acceptance scenario: 3 peers over real TCP, same snapshots as
    in-memory, with a peer joining and leaving mid-run."""

    def run(use_tcp):
        builder = (system()
                   .peer("jules").program(JULES)
                   .peer("emilien").program(EMILIEN)
                   .done())
        if use_tcp:
            builder = builder.transport("tcp", seed=3)
        deployment = builder.build()
        with deployment:
            summary = deployment.converge()
            assert summary.converged
            # mid-run join: a third peer subscribes to jules's pictures
            deployment.add_peer("patrick", program=(
                'collection extensional persistent album@patrick(pic);'))
            deployment.peer("jules").add_rule(
                'rule album@patrick($p) :- pictures@jules($p);')
            assert deployment.converge().converged
            assert deployment.snapshot()["patrick"]
            # mid-run leave, then more traffic
            deployment.remove_peer("patrick")
            deployment.peer("jules").insert('pictures@jules("p3")')
            assert deployment.converge().converged
            return deployment.snapshot()

    assert run(use_tcp=False) == run(use_tcp=True)


def test_tcp_transport_with_async_scheduler():
    deployment = (system()
                  .scheduler("async")
                  .transport("tcp", seed=5)
                  .peer("jules").program(JULES)
                  .peer("emilien").program(EMILIEN)
                  .build())
    with deployment:
        summary = deployment.converge()
        assert summary.converged
        album = deployment.snapshot()["emilien"]["album@emilien"]
        assert {fact.values[0] for fact in album} == {"p1", "p2"}


def test_builder_rejects_inmemory_knobs_with_tcp():
    from repro.api import BuildError
    with pytest.raises(BuildError):
        system().latency(2).transport("tcp").build()


def test_builder_rejects_unknown_transport_name():
    from repro.api import BuildError
    with pytest.raises(BuildError):
        system().transport("carrier-pigeon")


@pytest.mark.parametrize("transport", ["inmemory", "tcp"])
def test_delegation_across_peers(transport):
    builder = (system()
               .peer("Jules").program(SELECTED_JULES)
               .peer("Emilien").program(SELECTED_EMILIEN)
               .done())
    with with_transport(builder, transport).build() as deployment:
        assert deployment.converge().converged
        facts = deployment.query("Jules", "attendeePictures").facts()
        assert {fact.values[0] for fact in facts} == {1, 2}
        assert deployment.peer("Emilien").counts()["installed_delegations"] == 1


@pytest.mark.parametrize("transport", ["inmemory", "tcp"])
def test_insert_fact_and_add_rule_after_build(transport):
    builder = system().peer("alice").peer("bob").done()
    with with_transport(builder, transport).build() as deployment:
        deployment.peer("alice").add_rule("mirror@bob($x) :- local@alice($x)")
        deployment.peer("alice").insert(Fact("local", "alice", (41,)))
        assert deployment.converge().converged
        assert deployment.query("bob", "mirror").facts() == (
            Fact("mirror", "bob", (41,)),)


@pytest.mark.parametrize("transport", ["inmemory", "tcp"])
def test_close_is_idempotent(transport):
    builder = system().peer("alice").peer("bob").done()
    deployment = with_transport(builder, transport).build()
    assert deployment.converge().converged
    deployment.close()
    deployment.close()


def test_provenance_survives_the_wire():
    """Lineage shipped in TCP frames explains a fact as in memory does."""
    derived = Fact("attendeePictures", "Jules", (1, "sea.jpg"))

    def explain(transport):
        builder = (system().provenance()
                   .peer("Jules").program(SELECTED_JULES)
                   .peer("Emilien").program(SELECTED_EMILIEN)
                   .done())
        with with_transport(builder, transport).build() as deployment:
            assert deployment.converge().converged
            explanation = deployment.explain("Jules", derived)
            via_string = deployment.explain(
                "Jules", 'attendeePictures@Jules(1, "sea.jpg")')
            assert via_string == explanation
            return explanation

    over_tcp = explain("tcp")
    assert over_tcp.derived
    assert "pictures@Emilien" in over_tcp.base_relations
    assert over_tcp == explain("inmemory")


def test_oversize_frame_is_logged_as_oversize_not_connect():
    """A frame past ``MAX_FRAME_BYTES`` is dropped as ``oversize``; the
    healthy connection it would have used is not blamed."""
    picture = b"\xab" * (2 * 1024 * 1024 + 100 * 1024)  # hex doubles it past 4 MiB
    builder = (system().replication("reliable")
               .peer("alice").program(
                   "collection extensional persistent blob@alice(data);\n"
                   "rule blob@bob($d) :- blob@alice($d);")
               .peer("bob").done())
    with with_transport(builder, "tcp").build() as deployment:
        deployment.converge()
        deployment.peer("alice").insert(Fact("blob", "alice", (picture,)))
        deployment.converge()
        drops = deployment.transport.events.events("drop")
    reasons = {event["reason"] for event in drops}
    assert "oversize" in reasons
    assert "connect" not in reasons
