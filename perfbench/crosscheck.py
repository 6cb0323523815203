"""Cross-check stage timings against the ROADMAP baseline on the 40k-node SC graph.

    python3 perfbench/crosscheck.py --seed 1 --out perfbench/results/crosscheck.json

The baseline was taken once per stage on a 2-core machine; this script
repeats each measurement once on the sbm-sc generator at 2000 blocks of 20
(the benchmark's sbm-sc workload uses 500 blocks), with the same SC
detection, and flags every figure more than 25% away from the baseline.
Nothing here is tuned to match: a flagged row is a finding to record.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import bootstrap
from run import DEFAULT_SEED
from tracer import Tracer

BLOCKS = 2000
TOLERANCE = 0.25
# ROADMAP "Baseline (measured at this re-anchor)", 40k-node SBM with blocks of 20.
BASELINE = {
    "louvain_sc_s": 4.5,
    "build_operators_s": 0.96,
    "analyze_level_s": 0.51,
    "synthesize_level_s": 0.03,
    "cascade_4_levels_s": 9.9,
    "local_moves_share": 0.74,
    "eigenbasis_share": 0.11,
    "coarsen_share": 0.09,
    "coarsen_calls": 456,
}


def measure(seed: int) -> tuple[dict, dict]:
    import cosub
    from workloads import sbm_inputs

    inputs = sbm_inputs(seed, blocks=BLOCKS)
    graph, x, config = inputs.graph, inputs.clean, inputs.partitions
    got = {}

    def timed(key, fn):
        start = time.perf_counter()
        out = fn()
        got[key] = time.perf_counter() - start
        return out

    part = timed("louvain_sc_s", lambda: cosub.louvain(graph, config))
    _, a_ext = cosub.split_adjacency(graph, part)
    ops = timed("build_operators_s", lambda: cosub.build_operators(graph, part, 1))
    channels, _ = timed("analyze_level_s", lambda: cosub.analyze_level(x, graph, ops, a_ext))
    timed("synthesize_level_s", lambda: cosub.synthesize_level(channels, ops))
    timed("cascade_4_levels_s",
          lambda: cosub.analyze_cascade(graph, x, config, p=1, max_levels=4))

    tracer = Tracer()
    with tracer:
        tracer.call, tracer.active = 0, True
        start = time.perf_counter()
        cosub.analyze_cascade(graph, x, config, p=1, max_levels=4)
        cascade = time.perf_counter() - start
        tracer.active = False
    spans = tracer.by_call()[0]["spans"]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    got["local_moves_share"] = total("partition._local_moves") / cascade
    got["eigenbasis_share"] = total("spectral.local_eigenbasis") / cascade
    got["coarsen_share"] = total("graphs.coarsen") / cascade
    got["coarsen_calls"] = spans.get("graphs.coarsen", [0])[0]
    facts = {"n": graph.n, "edges": graph.num_edges, "seed": seed,
             "subgraphs_l1": part.n_subgraphs, "traced_cascade_s": cascade}
    return got, facts


def main(argv=None) -> int:
    bootstrap.prepare()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", help="also write the report to this JSON file")
    args = parser.parse_args(argv)
    got, facts = measure(args.seed)
    rows = []
    for key, base in BASELINE.items():
        diff = got[key] / base - 1.0
        rows.append({"name": key, "baseline": base, "measured": got[key],
                     "diff_frac": diff, "over_tolerance": abs(diff) > TOLERANCE})
    report = {"graph": facts, "tolerance": TOLERANCE, "rows": rows,
              "environment": bootstrap.environment()}
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
