"""The deprecated entry points are gone; their replacements remain."""

import pytest

import repro.runtime
from repro.api import PeerHandle
from repro.provenance import ProvenanceTracker
from repro.runtime.system import WebdamLogSystem


@pytest.mark.parametrize("owner, name, replacement", [
    (WebdamLogSystem, "run_round", "step"),
    (WebdamLogSystem, "run_rounds", "step"),
    (WebdamLogSystem, "run_until_quiescent", "converge"),
    (PeerHandle, "facts", None),
    (ProvenanceTracker, "reset_each_stage", None),
], ids=lambda value: value if isinstance(value, str) else None)
def test_deprecated_method_is_removed(owner, name, replacement):
    assert not hasattr(owner, name)
    if replacement is not None:
        assert callable(getattr(owner, replacement))


def test_inmemorynetwork_alias_is_removed():
    assert not hasattr(repro.runtime, "InMemoryNetwork")
    assert "InMemoryNetwork" not in repro.runtime.__all__
    assert hasattr(repro.runtime, "InMemoryTransport")


def test_provenance_tracker_takes_no_per_stage_flag():
    with pytest.raises(TypeError):
        ProvenanceTracker(per_stage=True)

