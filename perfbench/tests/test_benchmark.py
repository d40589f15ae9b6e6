"""Tests of the benchmark itself, at a tiny scale with every oracle on.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from wepicbench.common import TAIL_MIN_BEYOND, tail  # noqa: E402

WORKLOADS = ("wepic_build", "wepic_live", "hub_pages")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    BENCHMARK = json.load(handle)


def _run(tmp_dir, workload: str, trace: int, seed: int = 3, index: int = 0):
    report = os.path.join(tmp_dir, f"{workload}-{trace}-{seed}-{index}.json")
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny", "--report", report],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    with open(report, encoding="utf-8") as handle:
        return done, json.loads(done.stdout.strip().splitlines()[-1]), json.load(handle)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two timed and two traced runs of every workload, same seed."""
    tmp_dir = str(tmp_path_factory.mktemp("runs"))
    return {(workload, trace, index): _run(tmp_dir, workload, trace, index=index)
            for workload in WORKLOADS
            for trace, index in ((0, 0), (0, 1), (1, 0), (1, 1))}


def test_tail_keeps_ten_samples_beyond_the_chosen_percentile():
    def beyond(samples, percentile):
        rank = max(1, math.ceil(percentile * len(samples) / 100))
        value = sorted(samples)[rank - 1]
        return sum(1 for sample in samples if sample > value)

    for n in range(1, 400):
        samples = [float(value) for value in range(n, 0, -1)]
        found = tail(samples)
        if n < 2 * TAIL_MIN_BEYOND:
            assert found is None
            continue
        percentile, value = found
        assert sum(1 for sample in samples if sample > value) >= TAIL_MIN_BEYOND
        assert percentile == 99 or beyond(samples, percentile + 1) < TAIL_MIN_BEYOND


def test_op_p50_moves_with_every_operation_kind():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from run import op_p50_ms
    from wepicbench.hub import HubPages

    samples = ([("insert", 0.002)] * 50 + [("read", 0.02)] * 20
               + [("open", 1.6)] * 20 + [("delete", 0.8)] * 10)
    base = op_p50_ms(HubPages, samples)
    for kind in ("insert", "read", "open", "delete"):
        slower = [(k, s * 10 if k == kind else s) for k, s in samples]
        assert op_p50_ms(HubPages, slower) == pytest.approx(base * 10 ** 0.25)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_writes_every_end_to_end_metric(runs, workload):
    _, line, _ = runs[(workload, 0, 0)]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_writes_every_per_layer_metric(runs, workload):
    _, line, _ = runs[(workload, 1, 0)]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_tree_is_well_formed(runs, workload):
    _, _, report = runs[(workload, 1, 0)]
    with open(os.path.join(ROOT, report["spans"]), encoding="utf-8") as handle:
        spans = {span["id"]: span for span in map(json.loads, handle)}
    assert spans
    eps = 1e-9
    children = {}
    for span in spans.values():
        children.setdefault(span["parent"], []).append(span)
        assert span["self_s"] >= -eps
        parent = spans.get(span["parent"])
        if parent is not None:
            assert parent["start"] - eps <= span["start"] <= span["end"] <= parent["end"] + eps
            assert parent["op"] == span["op"]

    def covered(span):
        below = sum(covered(child) for child in children.get(span["id"], []))
        leaves = sum(seconds for seconds, _ in span["leaves"].values())
        return span["self_s"] + leaves + below

    roots = children[None]
    assert len({root["op"] for root in roots}) == len(roots)
    for root in roots:
        duration = root["end"] - root["start"]
        assert covered(root) == pytest.approx(duration, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_across_runs_and_with_tracing(runs, workload):
    reports = [runs[(workload, trace, index)][2]
               for trace, index in ((0, 0), (0, 1), (1, 0), (1, 1))]
    fingerprints = [report["fingerprint"] for report in reports]
    assert all(fingerprint == fingerprints[0] for fingerprint in fingerprints)
    assert fingerprints[0]["messages"] > 0 or workload == "hub_pages"
    assert fingerprints[0]["substitutions"] > 0
    # Rows scanned exist only where the store is traced.
    assert reports[2]["traced_counts"] == reports[3]["traced_counts"]
    assert reports[2]["traced_counts"]["rows_scanned"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_match_the_oracles(runs, workload):
    for key in ((workload, 0, 0), (workload, 0, 1), (workload, 1, 0), (workload, 1, 1)):
        done, line, report = runs[key]
        assert line["correct"], report["problems"][:5]
        assert line["failed"] == 0
        assert done.returncode == 0


def test_deselect_keeps_a_rating_another_selected_peer_still_provides():
    """The known failure of the README: this fails at the commit that added
    the benchmark, and it is why ``wepic_live`` has no deselects."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.wepic.pictures import Picture
    from wepicbench.deploy import WepicDeployment

    deployment = WepicDeployment(("a", "b", "c", "o"), replication="reliable",
                                 drop_probability=0.0, transport_seed=1)
    apps, api = deployment.apps, deployment.api

    def ratings_at_a():
        return {fact.values for fact in api.peer("a").unwrap().query("attendeeRatings")}

    try:
        apps["o"].upload_picture(picture=Picture(1, "o-1.jpg", "o", "00"))
        for rater in ("b", "c"):
            apps[rater].rate_picture(1, 3, owner="o")
            apps["a"].select_attendee(rater)
        assert api.converge(max_steps=2000).converged
        assert (1, 3) in ratings_at_a()
        apps["a"].deselect_attendee("c")
        assert api.converge(max_steps=2000).converged
        assert (1, 3) in ratings_at_a(), "b still rates picture 1 with 3 stars"
    finally:
        deployment.close()


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(BENCHMARK["command"] + ["--workload", "hub_pages", "--seed", "1",
                                                 "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert done.returncode != 0
    assert "metrics" not in done.stdout
