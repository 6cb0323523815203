"""Alternating benchmark runs of two checkouts, summarised per end-to-end metric.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed N --pairs 10

PARENT_DIR and CHANGE_DIR are two checkouts of this repository, typically a
parent commit and a change.  Each pair runs `perfbench/run.py` once in each,
one run at a time, and the side that runs first alternates from pair to pair.
The run length is `run_seconds` of CHANGE_DIR's BENCHMARK.json, the same for
both sides.

For every end-to-end metric of that file it prints each side's median and
quartiles, the relative change of the medians, the fraction of pairs the
change won (ties count for neither), and whether a gain may be claimed: the
change wins at least nine tenths of the pairs and its median is better than
the parent's by more than the parent's interquartile range.  It also reports
every pair whose output digests differ (`digest_diff.differences`).  Exits 0
when every pair's digests are equal, 1 when one pair's are not.
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

# A gain is claimed only when the change wins at least this share of pairs.
WIN_SHARE = 0.9


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
                   gain=wins >= WIN_SHARE * len(a) and better_by > pa[2] - pa[0])
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
        lines.append(f"{row['metric']} [{row['unit']}]: parent {p2:.6g} [{p1:.6g}, {p3:.6g}]"
                     f" -> change {c2:.6g} [{c1:.6g}, {c3:.6g}]{relative},"
                     f" change won {row['wins']}/{row['pairs']},"
                     f" gain rule {'holds' if row['gain'] else 'does not hold'}")
    return lines


def run_once(checkout: Path, workload: str, seed: int, seconds: float, out: Path) -> dict:
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--out", str(out)],
                   cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict = {"parent": [], "change": []}
    digest_lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                record = run_once(sides[side], args.workload, args.seed,
                                  bench["run_seconds"], Path(tmp) / f"{side}-{i}.json")
                runs[side].append(record)
            diff = differences(runs["parent"][-1], runs["change"][-1])
            digest_lines += [f"pair {i + 1}: {line}" for line in diff]
            print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
    rows = summary(bench["end_to_end"], [r["end_to_end"] for r in runs["parent"]],
                   [r["end_to_end"] for r in runs["change"]])
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs, "
          f"{bench['run_seconds']} s runs, first side alternating")
    print("\n".join(format_rows(rows)))
    if digest_lines:
        print("digests differ:\n" + "\n".join(digest_lines))
        return 1
    print("every digest equal in every pair")
    return 0


if __name__ == "__main__":
    sys.exit(main())
