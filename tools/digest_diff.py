"""Compare the output digests of two benchmark records.

    python3 tools/digest_diff.py BASE.json HEAD.json

Both files are records written by `perfbench/run.py --out`, for the same
workload and seed, typically one at a parent commit and one at a change.
For each operation a record lists the distinct sha256 digests of its outputs
over all instances, sorted, so a digest is not tied to an instance: a
changed instance shows as a digest that only one side has.

Prints every operation whose digests differ, with the digests only one side
has, and every operation with failed calls, whose digests cannot stand for
all instances.  Exits 0 when every operation matches, 1 when one does not,
and 2 when the records cannot be compared.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

# Record fields that must agree for the digests to be comparable.
SAME_INPUTS = ("workload", "seed", "instance_seeds")


def differences(base: dict, head: dict) -> list[str]:
    """One block of lines per operation that differs or had failed calls."""
    lines = []
    for op in sorted(set(base["operations"]) | set(head["operations"])):
        sides = {"base": base["operations"].get(op), "head": head["operations"].get(op)}
        missing = [name for name, entry in sides.items() if entry is None]
        if missing:
            lines.append(f"{op}: absent from {' and '.join(missing)}")
            continue
        digests = {name: set(entry["digests"]) for name, entry in sides.items()}
        failed = {name: entry["failed"] for name, entry in sides.items() if entry["failed"]}
        if digests["base"] == digests["head"] and digests["base"] and not failed:
            continue
        lines.append(f"{op}: {len(digests['base'])} digests in base, "
                     f"{len(digests['head'])} in head")
        lines += [f"  failed calls in {name}: {count}" for name, count in failed.items()]
        lines += [f"  only in base: {d}" for d in sorted(digests["base"] - digests["head"])]
        lines += [f"  only in head: {d}" for d in sorted(digests["head"] - digests["base"])]
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    try:
        base, head = (json.loads(Path(path).read_text()) for path in args)
        for key in SAME_INPUTS:
            if base[key] != head[key]:
                print(f"digest_diff: records differ in {key}: {base[key]!r} vs {head[key]!r}",
                      file=sys.stderr)
                return 2
        lines = differences(base, head)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"digest_diff: cannot compare {args[0]} and {args[1]}: {exc!r}", file=sys.stderr)
        return 2
    name = f"{base['workload']} seed {base['seed']}"
    if lines:
        print(f"{name}: digests differ")
        print("\n".join(lines))
        return 1
    print(f"{name}: every digest of {len(base['operations'])} operations equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
