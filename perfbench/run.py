#!/usr/bin/env python3
"""The repository benchmark: three Wepic workloads, timed and traced.

One run (the form ``BENCHMARK.json`` names)::

    python3 perfbench/run.py --workload wepic_build --seed 1 --seconds 20 --trace 0

measures one workload in this process and prints, as its last line, a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with no
instrumentation; with ``--trace 1`` they are the per-layer ones, from a
fixed number of operations run once plainly and once with every layer's
entry points wrapped in spans.  The lines above the JSON give the
workload's own named metrics; a full report (and, when traced, the spans as
JSONL) is written under ``perfbench/out/``.

Every workload::

    python3 perfbench/run.py --all [--seed 1] [--seconds 20]

runs each workload ``ALL_REPEATS`` times untraced and once traced, each in a
fresh process, and prints every named metric with its unit, sample count,
and median and quartiles across the runs, plus the determinism check.

The exit code is non-zero when any output differs from its oracle, when a
count that must repeat did not, or when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("wepic_build", "wepic_live", "hub_pages")

#: Set-ups per run for the workloads that serve the whole run from one
#: session; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Untraced runs per workload under ``--all``.
ALL_REPEATS = 3

#: The gated metrics.  Times are host-adjusted (see ``wepicbench.runner``).
END_TO_END_UNITS = {"setup_s": "s", "adj_op_p50_ms": "ms", "adj_op_mean_ms": "ms",
                    "peak_rss_mb": "MiB"}


def make_workload(name: str, seed: int, scale: str):
    from wepicbench.hub import HubPages
    from wepicbench.wepic import WepicBuild, WepicLive

    if name == "hub_pages":
        scratch = os.path.join(OUT, "tmp")
        os.makedirs(scratch, exist_ok=True)
        return HubPages(seed, scale, scratch=scratch)
    return {"wepic_build": WepicBuild, "wepic_live": WepicLive}[name](seed, scale)


def layer_unit(name: str) -> str:
    if any(part.endswith("_s") for part in name.split(".")[1:]):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if "ratio" in name or name.endswith("per_answer"):
        return "ratio"
    return "count"


def consistent(fingerprints: List[Dict[str, int]]) -> bool:
    return len({json.dumps(f, sort_keys=True) for f in fingerprints}) <= 1


def op_p50_ms(workload, samples) -> float:
    """The median latency of each of the workload's named operation groups,
    in ms, and their geometric mean: a slower kind moves it by its own
    share of the groups, however rare or fast that kind is."""
    medians = [statistics.median(values) * (1000 if unit == "s" else 1)
               for values, unit in workload.named_metrics(samples).values()]
    return statistics.geometric_mean(medians)


def named_metrics(workload, phase) -> Dict[str, dict]:
    """The workload's own named end-to-end metrics, with sample counts."""
    from wepicbench.common import summary

    out: Dict[str, dict] = {}
    for name, (values, unit) in workload.named_metrics(phase.samples).items():
        stats = summary(values)
        if unit == "s":
            out[name] = dict(stats, value=stats.get("p50"), unit=unit)
            continue
        base = name[:-len("_ms")]
        out[f"{base}_p50_ms"] = dict(stats, value=stats.get("p50"), unit=unit)
        if "tail" in stats:
            out[f"{base}_tail_ms"] = dict(stats, value=stats["tail"], unit=unit,
                                          percentile=stats["tail_percentile"])
    out["setup_s"] = dict(summary(phase.setup_s), value=statistics.median(phase.setup_s),
                          unit="s")
    attempted = len(phase.samples)
    out["error_rate"] = {"value": phase.failed / attempted if attempted else 1.0,
                         "unit": "ratio", "n": attempted,
                         "failed_by_kind": phase.failed_by_kind,
                         "first_failed_op": phase.first_failed_op}
    out["peak_rss_mb"] = {"value": phase.checkpoint_rss_mb, "unit": "MiB", "n": 1}
    return out


def timed_run(workload, seconds: float) -> dict:
    from wepicbench.common import peak_rss_mb
    from wepicbench.runner import run_phase

    phase = run_phase(workload, seconds=seconds, setup_repeats=SETUP_REPEATS)
    attempted = len(phase.samples)
    problems = list(phase.problems)
    if not consistent(phase.fingerprints):
        problems.append("program counters differ between identical builds")
    metrics = {
        "setup_s": statistics.median(phase.setup_adjusted),
        "adj_op_p50_ms": op_p50_ms(workload, phase.adjusted),
        "adj_op_mean_ms": statistics.fmean(s * 1000 for _, s in phase.adjusted),
        "peak_rss_mb": phase.checkpoint_rss_mb,
    }
    return {
        "attempted": attempted,
        "failed": phase.failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "named": named_metrics(workload, phase),
        "fingerprint": phase.fingerprints[0],
        "config": phase.config,
        "samples_ms": [[kind, seconds * 1000] for kind, seconds in phase.samples],
        "setup_samples_s": phase.setup_s,
        "reference_p50_ms": statistics.median(phase.reference_s) * 1000,
        "wall": {"setup_s": statistics.median(phase.setup_s),
                 "op_p50_ms": op_p50_ms(workload, phase.samples),
                 "op_mean_ms": statistics.fmean(s * 1000 for _, s in phase.samples),
                 "peak_rss_run_mb": peak_rss_mb()},
    }


def traced_run(workload, spans_path: str) -> dict:
    from wepicbench.runner import run_phase
    from wepicbench.tracing import Tracer, instrument, layer_metrics

    # Plain, traced, plain again: the overhead compares the traced pass with
    # the mean of the plain passes around it, so warm-up does not count.
    plain = [run_phase(workload, ops=workload.traced_ops)]
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        traced = run_phase(workload, ops=workload.traced_ops, tracer=tracer)
    finally:
        restore()
    plain.append(run_phase(workload, ops=workload.traced_ops))
    tracer.dump(spans_path)
    phases = plain + [traced]
    problems = [problem for phase in phases for problem in phase.problems]
    if not consistent([f for phase in phases for f in phase.fingerprints]):
        problems.append("program counters differ between the plain and traced runs")
    layers = layer_metrics(tracer, traced.program)
    layers["trace.overhead_ratio"] = traced.op_seconds() / statistics.fmean(
        phase.op_seconds() for phase in plain)
    attempted = sum(len(phase.samples) for phase in phases)
    failed = sum(phase.failed for phase in phases)
    traced_counts = dict(traced.program,
                         rows_scanned=tracer.counts.get("store.rows_scanned", 0))
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()},
        "fingerprint": traced.fingerprints[0],
        "traced_counts": traced_counts,
        "spans": os.path.relpath(spans_path, ROOT),
        "config": traced.config,
    }


def run_one(args) -> int:
    from wepicbench.common import run_metadata

    workload = make_workload(args.workload, args.seed, args.scale)
    os.makedirs(OUT, exist_ok=True)
    report_path = args.report or os.path.join(
        OUT, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    if args.trace:
        report = traced_run(workload, os.path.splitext(report_path)[0] + ".spans.jsonl")
    else:
        report = timed_run(workload, args.seconds)
    correct = report["failed"] == 0 and not report["problems"]
    report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, scale=args.scale, correct=correct,
                  knob_env_cleared=args.cleared_env,
                  metadata=run_metadata(ROOT, args.seed))
    with open(report_path, "w", encoding="utf-8") as out:
        json.dump(report, out, indent=2, sort_keys=True, default=str)

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"config={json.dumps(report['config'], sort_keys=True)}")
    for name, metric in report.get("named", {}).items():
        print(f"  {name:<22} {_describe(metric)}")
    if "wall" in report:
        print(f"  reference task p50 {report['reference_p50_ms']:.4g} ms; wall-clock "
              + ", ".join(f"{k} {v:.6g}" for k, v in report["wall"].items()))
    if args.trace:
        layers = report["metrics"]
        print(f"  unattributed {layers['trace.unattributed_s']['value']:.4g} s of "
              f"{layers['trace.op_s']['value']:.4g} s traced; overhead x"
              f"{layers['trace.overhead_ratio']['value']:.3g}; spans in {report['spans']}")
    for problem in report["problems"][:20]:
        print(f"  PROBLEM {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


def _describe(metric: dict) -> str:
    text = f"{metric['value']:.6g} {metric['unit']}  (n={metric.get('n')}"
    if "q1" in metric:
        text += f", q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}"
    if "percentile" in metric:
        text += f", p{metric['percentile']}"
    if metric.get("failed_by_kind"):
        text += (f", failed by kind {json.dumps(metric['failed_by_kind'], sort_keys=True)}"
                 f", first at operation {metric['first_failed_op']}")
    return text + ")"


# --------------------------------------------------------------------------- #
# --all: every workload, several fresh processes each
# --------------------------------------------------------------------------- #

def _child(workload: str, seed: int, seconds: float, trace: int,
           scale: str, report: str) -> Optional[dict]:
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--scale", scale, "--report", report]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    sys.stderr.write(done.stderr)
    if not os.path.exists(report):
        return None
    with open(report, encoding="utf-8") as handle:
        return json.load(handle)


def run_all(args) -> int:
    from wepicbench.common import summary

    os.makedirs(OUT, exist_ok=True)
    ok = True
    for workload in WORKLOADS:
        reports = []
        for index in range(ALL_REPEATS):
            path = os.path.join(OUT, f"all-{workload}-{index}.json")
            reports.append(_child(workload, args.seed, args.seconds, 0, args.scale, path))
        traced = _child(workload, args.seed, args.seconds, 1, args.scale,
                        os.path.join(OUT, f"all-{workload}-traced.json"))
        if any(r is None for r in reports) or traced is None:
            print(f"{workload}: a run produced no report")
            ok = False
            continue
        print(f"{workload}  ({ALL_REPEATS} untraced runs + 1 traced, seed {args.seed}, "
              f"config {json.dumps(traced['config'], sort_keys=True)})")
        for name in dict.fromkeys(n for r in reports for n in r["named"]):
            named = [r["named"][name] for r in reports if name in r["named"]]
            values = [metric["value"] for metric in named]
            unit = named[0]["unit"]
            samples = sum(metric.get("n", 0) for metric in named)
            line = f"  {name:<22} median {statistics.median(values):.6g} {unit}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                line += f"  [q1 {q1:.6g}, q3 {q3:.6g}]"
            percentiles = sorted({metric["percentile"] for metric in named
                                  if "percentile" in metric})
            if percentiles:
                line += f"  p{'/'.join(map(str, percentiles))}"
            print(line + f"  ({samples} samples over {len(values)} runs)")
        # Rare operations get too few samples per run for a tail; pooled over
        # the runs they may have enough.
        pooled = [(kind, ms / 1000) for r in reports for kind, ms in r["samples_ms"]]
        for name, (values, unit) in make_workload(workload, args.seed, args.scale) \
                .named_metrics(pooled).items():
            stats = summary(values)
            line = f"  {name:<22} pooled p50 {stats['p50']:.6g} {unit}"
            if "tail" in stats:
                line += f", p{stats['tail_percentile']} {stats['tail']:.6g} {unit}"
            print(line + f"  ({stats['n']} samples)")
        layers = traced["metrics"]
        print(f"  traced: unattributed {layers['trace.unattributed_s']['value']:.4g} s "
              f"of {layers['trace.op_s']['value']:.4g} s; overhead x"
              f"{layers['trace.overhead_ratio']['value']:.3g}; spans in {traced['spans']}")
        fingerprints = [r["fingerprint"] for r in reports] + [traced["fingerprint"]]
        same = consistent(fingerprints)
        print(f"  counts repeat across runs and traced/untraced: {same} "
              f"{json.dumps(traced['fingerprint'], sort_keys=True)}")
        correct = all(r["correct"] for r in reports) and traced["correct"]
        ok = ok and same and correct
        if not correct:
            print("  some run failed its oracle (see its report)")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--report", help="where to write the JSON report")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"cannot find the program: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from wepicbench.common import DEFAULT_SEED, clear_knob_env

    if args.seed is None:
        args.seed = DEFAULT_SEED
    args.cleared_env = clear_knob_env()
    if args.all:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
