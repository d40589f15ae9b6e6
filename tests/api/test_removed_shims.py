"""The deprecated entry points are gone; their replacements remain."""

import importlib

import pytest

import repro.api
import repro.runtime
from repro.api import PeerHandle, SystemBuilder
from repro.api.query import Subscription
from repro.provenance import ProvenanceTracker
from repro.runtime.system import WebdamLogSystem


@pytest.mark.parametrize("owner, name, replacement", [
    (WebdamLogSystem, "run_round", "step"),
    (WebdamLogSystem, "run_rounds", "step"),
    (WebdamLogSystem, "run_until_quiescent", "converge"),
    (PeerHandle, "facts", None),
    (ProvenanceTracker, "reset_each_stage", None),
    (SystemBuilder, "backend", "transport"),
    (repro.api, "ProcessSystem", "System"),
    (Subscription, "poll", "on_delta"),
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


def test_process_runtime_module_is_removed():
    assert "ProcessSystem" not in repro.api.__all__
    with pytest.raises(ImportError):
        importlib.import_module("repro.runtime.processes")


@pytest.mark.parametrize("module", ["repro.runtime.wire", "repro.store.serialize"])
def test_duplicate_codec_modules_are_removed(module):
    with pytest.raises(ImportError):
        importlib.import_module(module)
    assert callable(importlib.import_module("repro.core.codec").encode_fact)
