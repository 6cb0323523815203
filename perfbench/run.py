"""Seeded end-to-end benchmark of cosub, with an optional traced run.

    python3 perfbench/run.py --workload sbm-sc --seed 1 --seconds 30 --trace 0

Set-up generates the workload's inputs from the seed (the program sees only
those inputs), writes the input files and warms every operation on a tiny
instance; it is repeated SETUP_REPS times and its median is `setup_s`.  The
measurement then runs rounds of the workload's operations (analyze,
synthesize, compress, denoise, atoms) until the next round would overrun
`--seconds`, checks every output, and reports per-call medians.

Every reported time is in reference seconds: the wall time less the speed
probe's own time, scaled by how fast the probe ran over the same interval
(`speed.py`).  That removes the host's second-to-second changes of core
speed; the raw wall times stay in the record.

`--trace 0` prints the end-to-end metrics.  `--trace 1` spends half of the
time untraced and half with the tracer installed, prints the per-layer
metrics (per round, median over traced rounds) and records the tracing
overhead per operation.  The line before the result holds the full record:
environment, samples, digests, checks and the trace summary.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import bootstrap
from tracer import FILE_READS, FILE_WRITES, Tracer

DEFAULT_SEED = 1
# Kept out of development: a claimed gain is confirmed on this seed too.
HOLDOUT_SEED = 2
SETUP_REPS = 5
# Fast operations are repeated within a round until they have run this long.
MIN_OP_SECONDS = 0.5

END_TO_END = {
    "analyze_s": "s", "synthesize_s": "s", "compress_s": "s", "denoise_s": "s",
    "atoms_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "modularity": "ratio",
    "nla_psnr_db": "dB", "denoise_snr_db": "dB", "ok_frac": "ratio",
}


def _spans(unit, kind, *names):
    return {"unit": unit, "kind": kind, "names": names}


def _counter(unit, kind, key, *names):
    return {"unit": unit, "kind": kind, "key": key, "names": names}


def _layer(layer):
    return {"unit": "s", "kind": "layer", "layer": layer}


def _observed(key):
    return {"unit": "count", "kind": "observed", "key": key}


# Per-layer metrics, each summed over one round of operations (median over
# traced rounds).  "total" is inclusive span time, "self" excludes child
# spans, "layer" is a layer's self time, counters come from call arguments,
# and "observed" numbers are read off the checked outputs.
PER_LAYER = {
    "partition.louvain_s": _spans("s", "total", "partition.louvain"),
    "partition.louvain_calls": _spans("count", "calls", "partition.louvain"),
    "partition.local_moves_s": _spans("s", "total", "partition._local_moves"),
    "partition.subgraphs_l1": _observed("subgraphs_l1"),
    "partition.max_subgraph_l1": _observed("max_subgraph_l1"),
    "partition.self_s": _layer("partition"),
    "spectral.canonicalize_s": _spans("s", "total", "spectral.canonicalize_degenerate"),
    "spectral.canonicalize_calls": _spans("count", "calls", "spectral.canonicalize_degenerate"),
    "spectral.multiplet_max": _counter("count", "max", "multiplet",
                                       "spectral.canonicalize_degenerate"),
    "spectral.eigenbasis_s": _spans("s", "total", "spectral.local_eigenbasis"),
    "spectral.eigenbasis_calls": _spans("count", "calls", "spectral.local_eigenbasis"),
    "spectral.dual_basis_s": _spans("s", "total", "spectral.dual_basis"),
    "spectral.flops_computed": _counter("flop", "count", "eigen_flops",
                                        "spectral.local_eigenbasis"),
    "spectral.self_s": _layer("spectral"),
    "filterbank.build_operators_self_s": _spans("s", "self", "filterbank.build_operators"),
    "filterbank.analyze_level_s": _spans("s", "total", "filterbank.analyze_level"),
    "filterbank.synthesize_level_s": _spans("s", "total", "filterbank.synthesize_level"),
    "filterbank.compute_atoms_s": _spans("s", "total", "filterbank.compute_atoms"),
    "filterbank.analyze_cascade_calls": _spans("count", "calls", "filterbank.analyze_cascade"),
    "filterbank.self_s": _layer("filterbank"),
    "graphs.coarsen_s": _spans("s", "total", "graphs.coarsen"),
    "graphs.coarsen_calls": _spans("count", "calls", "graphs.coarsen"),
    "graphs.split_adjacency_s": _spans("s", "total", "graphs.split_adjacency"),
    "graphs.connectivity_check_s": _spans("s", "total", "graphs.partition_is_connected"),
    "graphs.self_s": _layer("graphs"),
    "applications.nla_compress_s": _spans("s", "total", "applications.nla_compress"),
    "applications.nla_compress_calls": _spans("count", "calls", "applications.nla_compress"),
    "applications.self_s": _layer("applications"),
    "fileio.read_s": _spans("s", "total", *FILE_READS),
    "fileio.write_s": _spans("s", "total", *FILE_WRITES),
    "fileio.bytes_read": _counter("B", "count", "bytes_read", *FILE_READS),
    "fileio.bytes_written": _counter("B", "count", "bytes_written", *FILE_WRITES),
    "fileio.self_s": _layer("fileio"),
    "cli.self_s": _layer("cli"),
}

OP_NAMES = ("analyze", "synthesize", "compress", "denoise", "atoms")


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record to this JSON file")
    return parser.parse_args(argv)


# -- measurement ------------------------------------------------------------


class Calls:
    """Every operation call (its round, time, digest and check outcome) and
    every block of repeated calls of one operation in one round."""

    def __init__(self):
        self.records: list[dict] = []
        self.blocks: list[dict] = []
        self.first_digest: dict = {}    # (op, instance) -> digest of the first call

    def for_op(self, op: str, traced: bool | None = None) -> list[dict]:
        return [r for r in self.records
                if r["op"] == op and (traced is None or r["traced"] == traced)]


def run_call(workload, op: str, state: dict, calls: Calls, round_no: int, instance: int,
             tracer, probe) -> float:
    """Time one operation call, then check its outputs outside the timing."""
    call_id = len(calls.records)
    record = {"op": op, "round": round_no, "instance": instance, "traced": tracer is not None,
              "ok": False, "digest": None, "observed": {}, "errors": []}
    calls.records.append(record)
    if tracer is not None:
        tracer.call, tracer.active = call_id, True
        probe.paused = True
    start = time.perf_counter()
    try:
        out = workload.run(op, state)
    except Exception:  # a failing operation is counted, and the run goes on
        record["errors"].append(traceback.format_exc())
        out = None
    finally:
        end = time.perf_counter()
        if tracer is not None:
            tracer.active = probe.paused = False
    elapsed = end - start
    record.update(seconds=elapsed, start=start, end=end)
    if not record["errors"]:
        try:
            check = workload.check(op, state, out)
            record.update(digest=check.digest, observed=check.observed)
            record["errors"] += check.errors
        except Exception:
            record["errors"].append(traceback.format_exc())
    if record["digest"] and calls.first_digest.setdefault((op, instance),
                                                          record["digest"]) != record["digest"]:
        record["errors"].append(f"{op}: output digest differs from the first call")
    record["ok"] = not record["errors"]
    for err in record["errors"]:
        print(f"perfbench: {workload.name} {op}: {err}", file=sys.stderr)
    return elapsed


def add_block(calls: Calls, first: int, probe) -> None:
    """Summarise the calls from index `first` on, one operation repeated on
    one instance: per-call wall, net and scaled seconds over the block."""
    block = calls.records[first:]
    head = block[0]
    raw = sum(r["seconds"] for r in block) / len(block)
    net = sum(r["seconds"] - probe.inside(r["start"], r["end"]) for r in block) / len(block)
    factor, probes = probe.scale(head["start"], block[-1]["end"])
    calls.blocks.append({"op": head["op"], "instance": head["instance"],
                         "traced": head["traced"], "calls": len(block), "raw_seconds": raw,
                         "net_seconds": net, "seconds": net * factor, "probes": probes})


def measure(workload, states: list, seconds: float, calls: Calls, probe, tracer=None) -> int:
    """Run whole rounds, cycling through the instances, until the next round
    would end past `seconds`."""
    start = time.perf_counter()
    rounds = 0
    first_round = max((r["round"] for r in calls.records), default=-1) + 1
    while True:
        round_no = first_round + rounds
        instance = round_no % len(states)
        for op in workload.operations:
            spent, first = 0.0, len(calls.records)
            while True:
                spent += run_call(workload, op, states[instance], calls, round_no, instance,
                                  tracer, probe)
                if spent >= MIN_OP_SECONDS:
                    break
            add_block(calls, first, probe)
        rounds += 1
        elapsed = time.perf_counter() - start
        # Every instance runs at least once, so the quality numbers always
        # cover all of them.
        if rounds >= len(states) and elapsed + elapsed / rounds > seconds:
            return rounds


def timed_setups(workload, seed: int, workdir: Path, probe) -> tuple[list, list, list]:
    """Set up SETUP_REPS times: the scaled and the raw seconds of each, and
    the states of the last."""
    scaled, raw, states = [], [], None
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        states = workload.setup(seed, workdir)
        end = time.perf_counter()
        raw.append(end - start)
        scaled.append((raw[-1] - probe.inside(start, end)) * probe.scale(start, end)[0])
    return scaled, raw, states


# -- reporting --------------------------------------------------------------


def timing(values: list[float]) -> dict:
    """Median and sample count, plus the highest percentile of 90/99 that
    has at least ten samples beyond it."""
    out = {"median": statistics.median(values), "samples": len(values)}
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
            break
    return out


def observed(calls: Calls, key: str):
    """Median over instances of a deterministic number read off the outputs."""
    per_instance = {r["instance"]: r["observed"][key] for r in calls.records
                    if key in r["observed"]}
    return statistics.median(per_instance.values()) if per_instance else None


def per_call_seconds(calls: Calls, op: str) -> float:
    """Mean over instances of the median scaled untraced call time (one per
    block) on each instance.

    Instances differ in how much work their graph takes (Louvain's sweep
    count, LC community sizes), so each gets its own median and the
    instances weigh equally whatever number of rounds fitted in the run.
    """
    per_instance: dict = {}
    for b in blocks_of(calls, op):
        per_instance.setdefault(b["instance"], []).append(b["seconds"])
    return statistics.fmean(statistics.median(v) for v in per_instance.values())


def blocks_of(calls: Calls, op: str, traced: bool = False) -> list[dict]:
    return [b for b in calls.blocks if b["op"] == op and b["traced"] == traced]


def end_to_end(calls: Calls, setup: list[float]) -> dict:
    values = {f"{op}_s": per_call_seconds(calls, op) for op in OP_NAMES}
    ok = sum(r["ok"] for r in calls.records)
    values.update(
        setup_s=statistics.median(setup), peak_rss_mb=bootstrap.peak_rss_mb(),
        modularity=observed(calls, "modularity"), nla_psnr_db=observed(calls, "nla_psnr_db"),
        denoise_snr_db=observed(calls, "denoise_snr_db"), ok_frac=ok / len(calls.records))
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def _call_value(spec: dict, i: int, summary: dict, tracer: Tracer) -> float:
    kind = spec["kind"]
    if kind == "layer":
        return summary.get(i, {}).get("layers", {}).get(spec["layer"], 0.0)
    if kind == "count":
        return tracer.counts.get((i, spec["key"]), 0)
    if kind == "max":
        return tracer.maxima.get((i, spec["key"]), 0)
    column = {"calls": 0, "total": 1, "self": 2}[kind]
    spans = summary.get(i, {}).get("spans", {})
    return sum(spans[name][column] for name in spec["names"] if name in spans)


def per_layer(calls: Calls, tracer: Tracer) -> tuple[dict, list, dict]:
    """Per-layer metrics for one round (one call of each operation, each the
    median over its traced calls; maxima over all traced calls), the metrics
    whose wrapped functions no longer exist, and a per-operation breakdown."""
    summary = tracer.by_call()
    traced = {op: [i for i, r in enumerate(calls.records) if r["traced"] and r["op"] == op]
              for op in OP_NAMES}
    metrics, absent = {}, []
    for name, spec in PER_LAYER.items():
        if spec["kind"] == "observed":
            value = observed(calls, spec["key"]) or 0
        else:
            if spec["kind"] != "layer" and not set(spec["names"]) & tracer.names:
                absent.append(name)
            if spec["kind"] == "max":
                value = max((_call_value(spec, i, summary, tracer)
                             for ids in traced.values() for i in ids), default=0)
            else:
                value = sum(statistics.median(_call_value(spec, i, summary, tracer) for i in ids)
                            for ids in traced.values() if ids)
        metrics[name] = {"value": value, "unit": spec["unit"]}
    breakdown = {}
    for op in OP_NAMES:
        ids = [i for i in traced[op] if i in summary]
        layers, spans = {}, {}
        for i in ids:
            for layer, secs in summary[i]["layers"].items():
                layers[layer] = layers.get(layer, 0.0) + secs / len(ids)
            for span, stats in summary[i]["spans"].items():
                acc = spans.setdefault(span, [0.0, 0.0, 0.0])
                for k in range(3):
                    acc[k] += stats[k] / len(ids)
        breakdown[op] = {
            "layer_self_s": dict(sorted(layers.items())),
            "spans": {k: dict(zip(("calls", "total_s", "self_s"), v))
                      for k, v in sorted(spans.items())},
        }
    return metrics, absent, breakdown


def overhead(calls: Calls) -> dict:
    """Traced against untraced per-call medians of the same run, both in
    reference seconds."""
    out = {}
    for op in OP_NAMES:
        plain = [b["seconds"] for b in blocks_of(calls, op)]
        traced = [b["seconds"] for b in blocks_of(calls, op, traced=True)]
        if plain and traced:
            a, b = statistics.median(plain), statistics.median(traced)
            out[op] = {"untraced_s": a, "traced_s": b, "overhead_frac": b / a - 1.0}
    return out


def purpose_checks(workload, metrics: dict, breakdown: dict, calls: Calls) -> dict:
    """Confirm the traced run still matches why the workload was chosen."""
    analyze = breakdown["analyze"]
    analyze_s = statistics.median(r["seconds"] for r in calls.for_op("analyze", True))
    louvain = analyze["spans"].get("partition.louvain", {}).get("total_s", 0.0)
    layers = {}
    for op in breakdown.values():
        for layer, secs in op["layer_self_s"].items():
            layers[layer] = layers.get(layer, 0.0) + secs
    facts = {
        "partition_share_of_analyze": louvain / analyze_s,
        "louvain_calls": metrics["partition.louvain_calls"]["value"],
        "largest_layer": max(layers, key=layers.get) if layers else None,
        "fileio_active": any(metrics[m]["value"] > 0 for m in metrics
                             if m.startswith("fileio.")),
    }
    results = {}
    for fact, (op, expected) in workload.purpose.items():
        value = facts[fact]
        ok = value >= expected if op == ">=" else value == expected
        results[fact] = {"value": value, "expected": f"{op} {expected}", "ok": ok}
        if not ok:
            print(f"perfbench: warning: {workload.name}: {fact} is {value}, "
                  f"expected {op} {expected}; the workload no longer stresses what it was "
                  f"chosen for", file=sys.stderr)
    return results


# -- entry point ------------------------------------------------------------


def main(argv=None) -> int:
    bootstrap.prepare()
    args = parse_args(argv)
    import speed
    from workloads import WORKLOADS, instance_seeds

    workload = WORKLOADS[args.workload]
    workdir = Path.cwd() / ".perfbench_work" / f"{workload.name}-{args.seed}"
    calls = Calls()
    try:
        seconds = args.seconds / 2 if args.trace else args.seconds
        with speed.SpeedProbe() as probe:
            setup, setup_raw, states = timed_setups(workload, args.seed, workdir, probe)
            for state in states:
                workload.prepare(state)
            rounds = {"untraced": measure(workload, states, seconds, calls, probe)}
            if args.trace:
                tracer = Tracer()
                with tracer:
                    rounds["traced"] = measure(workload, states, seconds, calls, probe, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    failed = sum(not r["ok"] for r in calls.records)
    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "instance_seeds": instance_seeds(args.seed, workload.instances),
        "seconds": args.seconds, "trace": args.trace, "rounds": rounds,
        "environment": bootstrap.environment(),
        "speed_probe": {"interval_s": speed.INTERVAL_S,
                        "reference_s": speed.REFERENCE_PROBE_S,
                        "samples": len(probe.durations),
                        "probe_s": timing(probe.durations) if probe.durations else None},
        "setup_s": {**timing(setup), "all": setup, "raw": setup_raw},
        "operations": {op: {"scaled": {**timing([b["seconds"]
                                                 for b in blocks_of(calls, op)]),
                                       "blocks": blocks_of(calls, op)},
                            "raw": {**timing([r["seconds"] for r in calls.for_op(op, False)]),
                                    "all": [r["seconds"] for r in calls.for_op(op, False)]},
                            "digests": sorted({r["digest"] for r in calls.for_op(op)
                                               if r["digest"]}),
                            "failed": sum(not r["ok"] for r in calls.for_op(op))}
                       for op in workload.operations},
        "end_to_end": end_to_end(calls, setup),
    }
    if args.trace:
        metrics, absent, breakdown = per_layer(calls, tracer)
        record["trace"] = {
            "per_layer": metrics, "absent": absent, "overhead": overhead(calls),
            "per_operation": breakdown,
            "purpose": purpose_checks(workload, metrics, breakdown, calls),
        }
        for name in absent:
            print(f"perfbench: {name}: its function no longer exists; reported as 0",
                  file=sys.stderr)
    else:
        metrics = record["end_to_end"]
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(calls.records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
