"""Alternating benchmark runs of two checkouts, summarised per end-to-end metric.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed N --pairs 10 \
        [--out FILE] [--traced K]

PARENT_DIR and CHANGE_DIR are two checkouts of this repository, typically a
parent commit and a change.  Each pair runs `perfbench/run.py` once in each,
one run at a time, and the side that runs first alternates from pair to pair.
The run length is `run_seconds` of CHANGE_DIR's BENCHMARK.json, the same for
both sides.

For every end-to-end metric of that file it prints each side's median and
quartiles, the relative change of the medians, the fraction of pairs the
change won (ties count for neither), and whether a gain may be claimed: the
change wins at least nine tenths of the pairs and its median is better than
the parent's by more than the parent's interquartile range.  Below 10 pairs
the rule is not applied and no gain is claimed: a few pairs on a shared
machine can meet it on unchanged code.  It also reports
every pair whose output digests differ (`digest_diff.differences`).  Exits 0
when every pair's digests are equal, 1 when one pair's are not.

With --out, it also writes the comparison as one JSON file: both checkouts
as given on the command line and their `git rev-parse HEAD` (null outside a
git work tree), the workload, seed and pair count, every run's end-to-end
medians, digests and environment (not its per-call lists, which make up most
of a record), the per-metric summary, the printed lines and the verdicts.

With --traced K, after the pairs it makes K runs of each side with the
tracer on (`perfbench/run.py --trace 1`, first side alternating) and prints,
for every per-layer metric, each side's median over those runs; the --out
file holds them under "traced", with each run's value.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from digest_diff import differences

# A gain is claimed only when the change wins at least this share of pairs,
# of at least this many.
WIN_SHARE = 0.9
MIN_PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(metrics: list[dict], parent: list[dict], change: list[dict]) -> list[dict]:
    """One row per metric from the `end_to_end` sections of aligned runs:
    `parent[i]` and `change[i]` are pair i.  `metrics` are BENCHMARK.json's
    `end_to_end` entries (name, unit, better).  A metric some run did not
    report has its row's `parent` set to None."""
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        a = [run[name]["value"] for run in parent]
        b = [run[name]["value"] for run in change]
        row = {"metric": name, "unit": metric["unit"], "pairs": len(a),
               "parent": None, "change": None, "relative": None, "wins": 0, "gain": False}
        if None in a or None in b:
            rows.append(row)
            continue
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        pa, pb = quartiles(a), quartiles(b)
        better_by = pa[1] - pb[1] if lower else pb[1] - pa[1]
        row.update(parent=pa, change=pb, wins=wins,
                   relative=pb[1] / pa[1] - 1.0 if pa[1] else None,
                   gain=(len(a) >= MIN_PAIRS and wins >= WIN_SHARE * len(a)
                         and better_by > pa[2] - pa[0]))
        rows.append(row)
    return rows


def format_rows(rows: list[dict]) -> list[str]:
    lines = []
    for row in rows:
        if row["parent"] is None:
            lines.append(f"{row['metric']}: not reported")
            continue
        (p1, p2, p3), (c1, c2, c3) = row["parent"], row["change"]
        relative = "" if row["relative"] is None else f" ({row['relative']:+.1%})"
        rule = (f"not applied (fewer than {MIN_PAIRS} pairs)" if row["pairs"] < MIN_PAIRS
                else "holds" if row["gain"] else "does not hold")
        lines.append(f"{row['metric']} [{row['unit']}]: parent {p2:.6g} [{p1:.6g}, {p3:.6g}]"
                     f" -> change {c2:.6g} [{c1:.6g}, {c3:.6g}]{relative},"
                     f" change won {row['wins']}/{row['pairs']}, gain rule {rule}")
    return lines


def run_once(checkout: Path, workload: str, seed: int, seconds: float, out: Path,
             trace: int = 0) -> dict:
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--out", str(out),
                    *(["--trace", str(trace)] if trace else [])],
                   cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())


def traced_medians(per_layer: dict) -> dict:
    """Per side, every per-layer metric's unit, its value in each traced
    run (the `trace.per_layer` sections in `per_layer[side]`) and their
    median.  A metric some run did not report is left out."""
    out: dict = {}
    for side, runs in per_layer.items():
        out[side] = {}
        for name in sorted(set.intersection(*(set(run) for run in runs))):
            values = [run[name]["value"] for run in runs]
            out[side][name] = {"unit": runs[0][name]["unit"], "values": values,
                               "median": statistics.median(values)}
    return out


def format_traced(medians: dict, k: int) -> list[str]:
    lines = [f"per-layer medians of {k} traced runs per side:"]
    for name, parent in medians["parent"].items():
        change = medians["change"].get(name)
        if change is None:
            continue
        a, b = parent["median"], change["median"]
        relative = f" ({b / a - 1.0:+.1%})" if a else ""
        lines.append(f"{name} [{parent['unit']}]: parent {a:.6g} -> change {b:.6g}{relative}")
    return lines


def compact(record: dict) -> dict:
    """The fields of a `perfbench/run.py` record that a comparison reads, in
    the record's own shape: `digest_diff.differences` and `summary` take it."""
    return {"workload": record["workload"], "seed": record["seed"],
            "instance_seeds": record["instance_seeds"],
            "end_to_end": record["end_to_end"],
            "operations": {op: {"digests": entry["digests"], "failed": entry["failed"]}
                           for op, entry in record["operations"].items()},
            "environment": record["environment"]}


def git_head(checkout: Path) -> str | None:
    """The commit checked out in `checkout`, or None outside a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, help="also write the comparison to this JSON file")
    parser.add_argument("--traced", type=int, default=0, metavar="K",
                        help="also make K traced runs per side and report per-layer medians")
    args = parser.parse_args(argv)
    if args.traced < 0:
        parser.error("--traced must be non-negative")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict = {"parent": [], "change": []}
    first, digest_lines = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            first.append(order[0])
            for side in order:
                record = run_once(sides[side], args.workload, args.seed,
                                  bench["run_seconds"], Path(tmp) / f"{side}-{i}.json")
                runs[side].append(compact(record))
            diff = differences(runs["parent"][-1], runs["change"][-1])
            digest_lines += [f"pair {i + 1}: {line}" for line in diff]
            print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
        per_layer: dict = {"parent": [], "change": []}
        for i in range(args.traced):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                record = run_once(sides[side], args.workload, args.seed, bench["run_seconds"],
                                  Path(tmp) / f"{side}-traced-{i}.json", trace=1)
                per_layer[side].append(record["trace"]["per_layer"])
            print(f"traced run {i + 1}/{args.traced} done", file=sys.stderr)
    rows = summary(bench["end_to_end"], [r["end_to_end"] for r in runs["parent"]],
                   [r["end_to_end"] for r in runs["change"]])
    printed = [f"{args.workload} seed {args.seed}, {args.pairs} pairs, "
               f"{bench['run_seconds']} s runs, first side alternating", *format_rows(rows)]
    printed += (["digests differ:", *digest_lines] if digest_lines
                else ["every digest equal in every pair"])
    if args.traced:
        medians = traced_medians(per_layer)
        printed += format_traced(medians, args.traced)
    print("\n".join(printed))
    if args.out:
        comparison = {
            "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
            "run_seconds": bench["run_seconds"],
            "trees": {side: {"path": str(getattr(args, side)), "head": git_head(path)}
                      for side, path in sides.items()},
            "first": first, "runs": runs, "summary": rows, "printed": printed,
            "verdicts": {"gains": [row["metric"] for row in rows if row["gain"]],
                         "digests_equal": not digest_lines},
        }
        if args.traced:
            comparison["traced"] = {"runs": args.traced, **medians}
        # Without indentation: 10 pairs of sbm-sc (8 digests per operation)
        # take about 83 KB, against 116 KB indented.
        args.out.write_text(json.dumps(comparison, sort_keys=True, separators=(",", ":")) + "\n")
    return 1 if digest_lines else 0


if __name__ == "__main__":
    sys.exit(main())
