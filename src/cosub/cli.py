"""Command-line front end: partition, analyze, synthesize, compress, denoise,
atoms and metrics over the text formats of `fileio`.

Exit codes: 0 success, 2 invalid usage or inputs, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import fileio, filterbank
from .applications import best_depth_nla, compression_ratio, denoise, psnr, snr
from .filterbank import analyze_cascade, build_operators, compute_atoms, synthesize_level
from .fileio import MANIFEST_VERSION
from .graphs import WeightedGraph, partition_is_connected
from .partition import PartitionConfig, edge_aware_adjacency, louvain, modularity

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class CliError(Exception):
    """Invalid inputs or arguments; maps to exit code 2."""


def _read(what: str, read, path, **kwargs):
    """Run a `fileio` reader; an unreadable or malformed file is a usage error."""
    try:
        return read(path, **kwargs)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read {what} {path}: {exc}") from exc


def _write(what: str, path, write, *args, **kwargs):
    """Run `write(*args, **kwargs)`, which writes `path`; an output that
    cannot be written is a usage error."""
    try:
        return write(*args, **kwargs)
    except OSError as exc:
        raise CliError(f"cannot write {what} {path}: {exc}") from exc


def _load_graph(path) -> WeightedGraph:
    return _read("graph", fileio.read_edge_list, path)


def _load_signal(path, n: int | None = None) -> np.ndarray:
    x = _read("signal", fileio.read_signal, path)
    if n is not None and len(x) != n:
        raise CliError(f"signal {path} has {len(x)} values, graph has {n} nodes")
    return x


def _partition_config(args) -> PartitionConfig:
    try:
        return PartitionConfig(variant=args.impl, tau=args.tau, seed=args.seed,
                               edge_aware=(args.method == "edaw"))
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _add_partition_flags(parser, require_method=True):
    parser.add_argument("--method", choices=("cosub", "edaw"),
                        default="cosub" if not require_method else None,
                        required=require_method)
    parser.add_argument("--impl", choices=("sc", "lc"),
                        default="sc" if not require_method else None,
                        required=require_method)
    parser.add_argument("--tau", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)


def _check_edaw_signal(args) -> None:
    if args.method == "edaw" and args.signal is None:
        raise CliError("--method edaw requires --signal")


def cmd_partition(args) -> int:
    _check_edaw_signal(args)
    config = _partition_config(args)
    graph = _load_graph(args.graph)
    target = graph
    if args.method == "edaw":
        target = edge_aware_adjacency(graph, _load_signal(args.signal, graph.n))
    part = louvain(target, config)
    _write("partition", args.out, fileio.write_partition, part, args.out,
           zero_based=args.zero_based_labels)
    print(f"subgraphs: {part.n_subgraphs}")
    print(f"modularity: {modularity(graph, part):.6f}")
    return EXIT_OK


class _FixedPartitions:
    """The fixed partition files as a cascade supply, one per level: all are
    read up front and handed out unchecked.  The cascade refuses one that
    does not fit its level's graph, and `_run_cascade` then names the file."""

    def __init__(self, args):
        self._fixed = iter([(path, _read("partition", fileio.read_partition, path,
                                         zero_based=args.zero_based_labels))
                            for path in args.partition])
        self.last = None    # the (graph, partition, path) handed out last

    def __call__(self, graph, signal):
        path, partition = next(self._fixed, (None, None))
        if partition is not None:
            self.last = graph, partition, path
        return partition


def _check_output(args) -> None:
    """Refuse, before any input is read, an output that `_write` would refuse
    after the work, with its message: an --outdir that exists and is not a
    directory, an --out that is a directory, and either one whose directory
    cannot be reached or lies below a file; and an empty one, since "" names
    no file (though `Path("")` is the working directory)."""
    if args.command == "metrics":
        return
    analyze = args.command == "analyze"
    path = args.outdir if analyze else args.out
    try:  # with a trailing separator, a path resolves only to a directory
        os.stat(os.path.join(path if analyze else os.path.dirname(path) or ".", ""))
        code = errno.EISDIR if not analyze and os.path.isdir(path) else 0
    except OSError as exc:
        code = exc.errno
    if not path:
        code = errno.ENOENT
    elif analyze and code == errno.ENOENT:  # `mkdir` makes it and its missing parents
        code = 0
    elif analyze and code and os.path.exists(path):  # not a directory: `mkdir` refuses it
        code = errno.EEXIST
    if code:
        what = ("output directory" if analyze
                else args.command if args.command in ("partition", "atoms") else "signal")
        exc = OSError(code, os.strerror(code), str(path))
        raise CliError(f"cannot write {what} {path}: {exc}")


def _run_cascade(args, cascade=analyze_cascade):
    """The front end of the cascade commands: every argument is checked
    before any file is read (`main` has checked the output); then the graph,
    the signal (zeros for `atoms` without one) and the fixed partition files
    are read, and `cascade(graph, signal, partitions, p=, max_levels=)` runs.
    Returns the signal and the cascade's result.  When the cascade fails
    with a ValueError after a fixed partition file was handed out, a file
    that does not fit its level's graph is named (exit 2)."""
    if args.levels < 1:
        raise CliError("--levels must be at least 1")
    _check_edaw_signal(args)
    config = None if args.partition else _partition_config(args)
    graph = _load_graph(args.graph)
    signal = (np.zeros(graph.n) if args.signal is None
              else _load_signal(args.signal, graph.n))
    partitions = _FixedPartitions(args) if config is None else config
    try:
        return signal, cascade(graph, signal, partitions, p=1 if args.norm == "l1" else 2,
                               max_levels=args.levels)
    except ValueError:
        if config is None and partitions.last is not None:
            level_graph, partition, path = partitions.last
            _check_partition(level_graph, partition, f"partition file {path}")
        raise


def _check_partition(graph, partition, what: str) -> None:
    if partition.n != graph.n:
        raise CliError(f"{what} has {partition.n} labels, graph has {graph.n} nodes")
    if not partition_is_connected(graph, partition):
        raise CliError(f"{what} has a disconnected subgraph")


def _analysis_artifacts(pyramid, outdir: Path, zero_based: bool):
    """Write every level's artifacts and the final approximation into
    `outdir`.  Returns the manifest's level entries, the final
    approximation's name and the sha256 of every artifact by name."""
    sha256 = {}

    def artifact(name: str, write, value, **kwargs) -> str:
        path = outdir / name
        sha256[name] = _write("analysis artifact", path, write, value, path, **kwargs)
        return name

    level_entries = [{
        "n": level.n,
        "partition": artifact(f"level{j}_partition.txt", fileio.write_partition,
                              level.partition, zero_based=zero_based),
        "a_int": artifact(f"level{j}_a_int.tsv", fileio.write_edge_list, level.a_int),
        "a_ext": artifact(f"level{j}_a_ext.tsv", fileio.write_edge_list, level.a_ext),
        "channels": [artifact(f"level{j}_channel_{l:02d}.csv", fileio.write_signal, chan)
                     for l, chan in enumerate(level.channels, start=1)],
    } for j, level in enumerate(pyramid.levels, start=1)]
    final_name = artifact("final_approximation.csv", fileio.write_signal,
                          pyramid.final_approximation)
    return level_entries, final_name, sha256


def cmd_analyze(args) -> int:
    with fileio._digests_of_reads() as digests:  # the inputs' digests, from their one read
        _, pyramid = _run_cascade(args)
    outdir = Path(args.outdir)
    manifest_path = outdir / "manifest.json"
    earlier = _earlier_artifacts(manifest_path)
    _write("output directory", outdir, outdir.mkdir, parents=True, exist_ok=True)
    level_entries, final_name, sha256 = _analysis_artifacts(pyramid, outdir,
                                                            args.zero_based_labels)
    manifest = {
        "format_version": MANIFEST_VERSION,
        "command": args.argv,
        "inputs": {
            "graph": {"path": str(args.graph), "sha256": digests[str(args.graph)]},
            "signal": {"path": str(args.signal), "sha256": digests[str(args.signal)]},
        },
        "n": pyramid.n,
        "p": pyramid.p,
        "partition_config": {
            "method": args.method, "impl": args.impl,
            "tau": args.tau, "seed": args.seed,
            "fixed_partitions": [str(p_) for p_ in (args.partition or [])],
        },
        "zero_based_labels": args.zero_based_labels,
        "levels": level_entries,
        "final_approximation": final_name,
        "sha256": sha256,
    }
    _write("manifest", manifest_path, fileio.write_manifest, manifest, manifest_path)
    # Files of an earlier run that this one did not rewrite, such as those of
    # deeper levels, would be taken for this run's.
    for name in sorted(earlier - sha256.keys() - {manifest_path.name}):
        stale = outdir / name
        try:
            stale.unlink(missing_ok=True)
        except OSError as exc:
            raise CliError(f"cannot remove stale artifact {stale}: {exc}") from exc
    for j, level in enumerate(pyramid.levels, start=1):
        sizes = [len(c) for c in level.channels]
        if sum(sizes) != level.n:
            raise ValueError(f"level {j} is not critically sampled: {sum(sizes)} != {level.n}")
        print(f"level {j}: n={level.n} channels={sizes} (sum={sum(sizes)})")
    print(f"final approximation size: {len(pyramid.final_approximation)}")
    print(f"manifest: {outdir / 'manifest.json'}")
    return EXIT_OK


def _artifact(base: Path, name) -> Path:
    """A manifest artifact, named by a bare file name in the manifest's
    directory; any other name could make `synthesize` read an arbitrary file."""
    if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
        raise CliError(f"malformed manifest: artifact {name!r} is not a bare file name")
    return base / name


def _artifact_paths(manifest: dict, base: Path):
    """The levels' (n, partition, a_int, a_ext, channels), artifacts as paths
    in `base`, and the final approximation's path.  KeyError or TypeError
    for a missing or invalid field, CliError for levels that are not a list."""
    levels = manifest["levels"]
    if not isinstance(levels, list):
        raise CliError(f"malformed manifest: levels must be a list, got {type(levels).__name__}")
    entries = [(entry["n"], _artifact(base, entry["partition"]),
                _artifact(base, entry["a_int"]), _artifact(base, entry["a_ext"]),
                [_artifact(base, name) for name in entry["channels"]])
               for entry in levels]
    return entries, _artifact(base, manifest["final_approximation"])


def _earlier_artifacts(manifest_path: Path) -> set:
    """The artifact names of the manifest an earlier run left; none when it
    cannot be read or names anything but bare file names."""
    try:
        entries, final_path = _artifact_paths(fileio.read_manifest(manifest_path),
                                              manifest_path.parent)
    except (OSError, ValueError, KeyError, TypeError, CliError):
        return set()
    return {final_path.name} | {path.name for _, *paths, channels in entries
                                for path in [*paths, *channels]}


def _rebuild_from_manifest(manifest: dict, base: Path):
    """Per-level operators and detail channels, the final approximation and
    the manifest's node count.  Every artifact the manifest's "sha256" map
    names is checked against it as it is read; a manifest without the map is
    read unchecked.  The final approximation is read before any eigensolve."""
    try:
        n_total = manifest["n"]
        p = manifest["p"]
        zero_based = manifest.get("zero_based_labels", False)
        sha256 = manifest.get("sha256", {})
        entries, final_path = _artifact_paths(manifest, base)
    except (KeyError, TypeError) as exc:
        raise CliError(f"malformed manifest: missing or invalid field {exc}") from exc
    if type(p) is not int or p not in (1, 2):
        raise CliError(f"malformed manifest: p must be 1 or 2, got {p!r}")
    if type(zero_based) is not bool:
        raise CliError(f"malformed manifest: zero_based_labels must be true or false, "
                       f"got {zero_based!r}")
    if not (isinstance(sha256, dict) and all(isinstance(v, str) for v in sha256.values())):
        raise CliError("malformed manifest: sha256 must map artifact names to hex digests")
    if type(n_total) is not int or n_total < 1:
        raise CliError(f"malformed manifest: n must be a positive integer, got {n_total!r}")

    def read(reader, path, **kwargs):
        return _read("manifest artifact", reader, path, sha256=sha256.get(path.name), **kwargs)

    final = read(fileio.read_signal, final_path)
    levels = []
    for n, part_path, a_int_path, _, chan_paths in entries:
        if type(n) is not int or n < 1:
            raise CliError(f"malformed manifest: level n must be a positive integer, got {n!r}")
        # Every file of the level is read before its eigensolve.
        partition = read(fileio.read_partition, part_path, zero_based=zero_based)
        a_int = read(fileio.read_edge_list, a_int_path, n=n)
        details = [read(fileio.read_signal, path) for path in chan_paths[1:]]
        try:
            operators = build_operators(a_int, partition, p)
        except ValueError:  # a partition that does not fit its graph is named (exit 2)
            _check_partition(a_int, partition, f"manifest artifact {part_path}")
            raise
        # Each dual basis is solved here, so that one over the residual
        # tolerance is a numeric failure (exit 3), not an inconsistent level.
        for c in operators.classes:
            c.synthesis  # a cached property: reading it solves the dual
        levels.append((operators, details))
    return levels, final, n_total


def cmd_synthesize(args) -> int:
    manifest = _read("manifest", fileio.read_manifest, args.manifest)
    levels, x, n = _rebuild_from_manifest(manifest, Path(args.manifest).parent)
    for j, (operators, details) in reversed(list(enumerate(levels, start=1))):
        try:
            x = synthesize_level([x] + details, operators)
        except ValueError as exc:  # channel count or length
            raise CliError(f"manifest level {j} is inconsistent: {exc}") from exc
    if len(x) != n:
        raise CliError(f"malformed manifest: n is {n}, but its levels reconstruct {len(x)} values")
    ref = _load_signal(args.reference, len(x)) if args.reference else None
    _write("signal", args.out, fileio.write_signal, x, args.out)
    print(f"reconstructed {len(x)} values -> {args.out}")
    if ref is not None:
        print(f"max abs deviation: {np.abs(x - ref).max():.3e}")
    return EXIT_OK


def _parse_keep_hp(text: str):
    """A count (int) or a fraction of the details (float in [0, 1])."""
    try:
        if text.endswith("%"):
            value = float(text[:-1])
            if not 0.0 <= value <= 100.0:
                raise CliError("--keep-hp percentage must lie in [0, 100]")
            return value / 100.0
        count = int(text)
    except ValueError as exc:
        raise CliError(f"invalid --keep-hp value {text!r}") from exc
    if count < 0:
        raise CliError("--keep-hp count must be non-negative")
    return count


def cmd_compress(args) -> int:
    keep = _parse_keep_hp(args.keep_hp)
    signal, pyramid = _run_cascade(args)
    if pyramid.num_levels == 0:
        raise CliError("cascade produced no level (graph too small or no progress)")
    result, reconstruction = best_depth_nla(pyramid, signal, keep)
    _write("signal", args.out, fileio.write_signal, reconstruction, args.out)
    print(f"level: {result.level}")
    print(f"kept_lp: {result.kept_lp}")
    print(f"kept_hp: {result.kept_hp}")
    print(f"ratio: {result.ratio:.4f}")
    print(f"psnr: {result.psnr}")
    return EXIT_OK


def cmd_denoise(args) -> int:
    if not (math.isfinite(args.sigma) and args.sigma >= 0):
        raise CliError("--sigma must be finite and non-negative")
    _, cleaned = _run_cascade(args, lambda graph, noisy, partitions, p, max_levels:
                              denoise(graph, noisy, args.sigma, max_levels, partitions, p=p))
    _write("signal", args.out, fileio.write_signal, cleaned, args.out)
    print(f"denoised {len(cleaned)} values -> {args.out}")
    return EXIT_OK


def cmd_atoms(args) -> int:
    _, pyramid = _run_cascade(args)
    atoms = compute_atoms(pyramid)
    blocks = ((j, l, level.operators.index_lists[l - 1], mat)
              for j, (level, first, details) in enumerate(zip(
                  pyramid.levels, atoms.approximation, atoms.details), start=1)
              for l, mat in [(1, first), *sorted(details.items())])
    _write("atoms", args.out, fileio.write_atoms, blocks, args.out)
    total = atoms.total_detail_atoms + sum(m.shape[1] for m in atoms.approximation[-1:])
    print(f"atoms written: {total} (graph size {pyramid.n})")
    return EXIT_OK


def cmd_metrics(args) -> int:
    if min(args.kept_lp or 0, args.kept_hp or 0) < 0:
        raise CliError("--kept-lp/--kept-hp: kept coefficient counts must be non-negative")
    ref = _load_signal(args.reference)
    est = _load_signal(args.estimate)
    if len(ref) != len(est):
        raise CliError("signals differ in length")
    print(f"psnr: {psnr(ref, est)}")
    print(f"snr: {snr(ref, est)}")
    if args.kept_lp is not None and args.kept_hp is not None:
        try:
            ratio = compression_ratio(len(ref), args.kept_lp, args.kept_hp)
        except ValueError as exc:
            raise CliError(f"--kept-lp/--kept-hp: {exc}") from exc
        print(f"ratio: {ratio}")
    return EXIT_OK


@functools.cache  # built once per process: `parse_args` keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cosub",
                                     description="Connected-subgraph filterbanks for graph signals")
    sub = parser.add_subparsers(dest="command", required=True)

    p_part = sub.add_parser("partition", help="detect a connected-subgraph partition")
    p_part.add_argument("--graph", required=True)
    p_part.add_argument("--signal")
    p_part.add_argument("--out", required=True)
    p_part.add_argument("--zero-based-labels", action="store_true")
    _add_partition_flags(p_part, require_method=True)
    p_part.set_defaults(func=cmd_partition)

    def analysis_like(name, help_text, func, signal_required=True, **defaults):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--graph", required=True)
        cmd.add_argument("--levels", type=int, required=True)
        cmd.add_argument("--norm", choices=("l1", "l2"), default="l1")
        cmd.add_argument("--partition", action="append",
                         help="fixed partition file, repeatable per level")
        cmd.add_argument("--zero-based-labels", action="store_true")
        _add_partition_flags(cmd, require_method=False)
        cmd.add_argument("--signal", required=signal_required)
        cmd.set_defaults(func=func, **defaults)
        return cmd

    analysis_like("analyze", "run the analysis cascade", cmd_analyze).add_argument(
        "--outdir", required=True)

    p_syn = sub.add_parser("synthesize", help="reconstruct a signal from a manifest")
    p_syn.add_argument("--manifest", required=True)
    p_syn.add_argument("--out", required=True)
    p_syn.add_argument("--reference")
    p_syn.set_defaults(func=cmd_synthesize)

    comp = analysis_like("compress", "non-linear approximation compression", cmd_compress)
    comp.add_argument("--keep-hp", required=True,
                      help="detail coefficients to keep: count or percentage like '5%%'")
    comp.add_argument("--out", required=True)

    den = analysis_like("denoise", "hard-threshold denoising", cmd_denoise, norm="l2")
    den.add_argument("--sigma", type=float, required=True)
    den.add_argument("--out", required=True)

    analysis_like("atoms", "export analysis atoms as CSV, one row per support entry",
                  cmd_atoms, signal_required=False).add_argument("--out", required=True)

    p_met = sub.add_parser("metrics", help="PSNR/SNR between two signal files")
    p_met.add_argument("--reference", required=True)
    p_met.add_argument("--estimate", required=True)
    p_met.add_argument("--kept-lp", type=int)
    p_met.add_argument("--kept-hp", type=int)
    p_met.set_defaults(func=cmd_metrics)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv  # what `analyze` records as the manifest's "command"
    try:
        _check_output(args)
        return args.func(args)
    except (CliError, filterbank.BlockSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
