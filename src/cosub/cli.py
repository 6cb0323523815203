"""Command-line front end: partition, analyze, synthesize, compress, denoise,
atoms and metrics over the text formats of `fileio`.

Exit codes: 0 success, 2 invalid usage or inputs, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import fileio
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


def _load_graph(path) -> WeightedGraph:
    return _read("graph", fileio.read_edge_list, path)


def _load_signal(path, n: int | None = None) -> np.ndarray:
    x = _read("signal", fileio.read_signal, path)
    if n is not None and len(x) != n:
        raise CliError(f"signal {path} has {len(x)} values, graph has {n} nodes")
    return x


def _partition_config(args) -> PartitionConfig:
    return PartitionConfig(variant=args.impl, tau=args.tau, seed=args.seed,
                           edge_aware=(args.method == "edaw"))


def _norm_exponent(name: str) -> int:
    return 1 if name == "l1" else 2


def _add_partition_flags(parser, require_method=True):
    parser.add_argument("--method", choices=("cosub", "edaw"),
                        default="cosub" if not require_method else None,
                        required=require_method)
    parser.add_argument("--impl", choices=("sc", "lc"),
                        default="sc" if not require_method else None,
                        required=require_method)
    parser.add_argument("--tau", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)


def cmd_partition(args) -> int:
    graph = _load_graph(args.graph)
    if args.method == "edaw" and args.signal is None:
        raise CliError("--method edaw requires --signal")
    config = _partition_config(args)
    target = graph
    if args.method == "edaw":
        target = edge_aware_adjacency(graph, _load_signal(args.signal, graph.n))
    part = louvain(target, config)
    fileio.write_partition(part, args.out, zero_based=args.zero_based_labels)
    print(f"subgraphs: {part.n_subgraphs}")
    print(f"modularity: {modularity(graph, part):.6f}")
    return EXIT_OK


def _detect_partitions(args, graph, signal):
    if args.partition:
        fixed = [_read("partition", fileio.read_partition, path,
                       zero_based=args.zero_based_labels) for path in args.partition]
        _check_partition(graph, fixed[0], "first partition file")
        return fixed
    return _partition_config(args)


def _check_partition(graph, partition, what: str) -> None:
    if partition.n != graph.n:
        raise CliError(f"{what} has {partition.n} labels, graph has {graph.n} nodes")
    if not partition_is_connected(graph, partition):
        raise CliError(f"{what} has a disconnected subgraph")


def _analysis_artifacts(pyramid, outdir: Path, zero_based: bool):
    level_entries = []
    for j, level in enumerate(pyramid.levels, start=1):
        part_path = outdir / f"level{j}_partition.txt"
        a_int_path = outdir / f"level{j}_a_int.tsv"
        a_ext_path = outdir / f"level{j}_a_ext.tsv"
        fileio.write_partition(level.partition, part_path, zero_based=zero_based)
        fileio.write_edge_list(level.a_int, a_int_path)
        fileio.write_edge_list(level.a_ext, a_ext_path)
        channel_paths = []
        for l, chan in enumerate(level.channels, start=1):
            chan_path = outdir / f"level{j}_channel_{l:02d}.csv"
            fileio.write_signal(chan, chan_path)
            channel_paths.append(chan_path.name)
        level_entries.append({
            "n": level.n,
            "partition": part_path.name,
            "a_int": a_int_path.name,
            "a_ext": a_ext_path.name,
            "channels": channel_paths,
        })
    final_path = outdir / "final_approximation.csv"
    fileio.write_signal(pyramid.final_approximation, final_path)
    return level_entries, final_path.name


def cmd_analyze(args) -> int:
    if args.levels < 1:
        raise CliError("--levels must be at least 1")
    graph = _load_graph(args.graph)
    signal = _load_signal(args.signal, graph.n)
    partitions = _detect_partitions(args, graph, signal)
    p = _norm_exponent(args.norm)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    pyramid = analyze_cascade(graph, signal, partitions, p=p, max_levels=args.levels)
    level_entries, final_name = _analysis_artifacts(pyramid, outdir, args.zero_based_labels)
    manifest = {
        "format_version": MANIFEST_VERSION,
        "command": sys.argv[1:],
        "inputs": {
            "graph": {"path": str(args.graph), "sha256": fileio.sha256_file(args.graph)},
            "signal": {"path": str(args.signal), "sha256": fileio.sha256_file(args.signal)},
        },
        "n": graph.n,
        "p": p,
        "partition_config": {
            "method": args.method, "impl": args.impl,
            "tau": args.tau, "seed": args.seed,
            "fixed_partitions": [str(p_) for p_ in (args.partition or [])],
        },
        "zero_based_labels": args.zero_based_labels,
        "levels": level_entries,
        "final_approximation": final_name,
    }
    fileio.write_manifest(manifest, outdir / "manifest.json")
    for j, level in enumerate(pyramid.levels, start=1):
        sizes = [len(c) for c in level.channels]
        if sum(sizes) != level.n:
            raise ValueError(f"level {j} is not critically sampled: {sum(sizes)} != {level.n}")
        print(f"level {j}: n={level.n} channels={sizes} (sum={sum(sizes)})")
    print(f"final approximation size: {len(pyramid.final_approximation)}")
    print(f"manifest: {outdir / 'manifest.json'}")
    return EXIT_OK


def _rebuild_from_manifest(manifest: dict, base: Path):
    """Per-level operators and detail channels, and the final approximation."""
    try:
        p = manifest["p"]
        zero_based = manifest.get("zero_based_labels", False)
        entries = [(entry["n"], base / entry["partition"], base / entry["a_int"],
                    base / entry["a_ext"], [base / name for name in entry["channels"]])
                   for entry in manifest["levels"]]
        final_path = base / manifest["final_approximation"]
    except (KeyError, TypeError) as exc:
        raise CliError(f"malformed manifest: missing or invalid field {exc}") from exc
    if p not in (1, 2):
        raise CliError(f"malformed manifest: p must be 1 or 2, got {p!r}")
    levels = []
    for n, part_path, a_int_path, a_ext_path, chan_paths in entries:
        for path in [part_path, a_int_path, a_ext_path, *chan_paths]:
            if not path.exists():
                raise CliError(f"manifest artifact missing: {path}")
        partition = _read("manifest artifact", fileio.read_partition, part_path,
                          zero_based=zero_based)
        a_int = _read("manifest artifact", fileio.read_edge_list, a_int_path, n=n)
        _check_partition(a_int, partition, f"manifest artifact {part_path}")
        operators = build_operators(a_int, partition, p)
        details = [_read("manifest artifact", fileio.read_signal, path)
                   for path in chan_paths[1:]]
        levels.append((operators, details))
    if not final_path.exists():
        raise CliError(f"manifest artifact missing: {final_path}")
    return levels, _read("manifest artifact", fileio.read_signal, final_path)


def cmd_synthesize(args) -> int:
    manifest = _read("manifest", fileio.read_manifest, args.manifest)
    levels, x = _rebuild_from_manifest(manifest, Path(args.manifest).parent)
    for j, (operators, details) in reversed(list(enumerate(levels, start=1))):
        try:
            x = synthesize_level([x] + details, operators)
        except ValueError as exc:  # channel count or length
            raise CliError(f"manifest level {j} is inconsistent: {exc}") from exc
    fileio.write_signal(x, args.out)
    print(f"reconstructed {len(x)} values -> {args.out}")
    if args.reference:
        ref = _load_signal(args.reference, len(x))
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
    graph = _load_graph(args.graph)
    signal = _load_signal(args.signal, graph.n)
    partitions = _detect_partitions(args, graph, signal)
    p = _norm_exponent(args.norm)
    keep = _parse_keep_hp(args.keep_hp)
    pyramid = analyze_cascade(graph, signal, partitions, p=p, max_levels=args.levels)
    if pyramid.num_levels == 0:
        raise CliError("cascade produced no level (graph too small or no progress)")
    result, reconstruction = best_depth_nla(pyramid, signal, keep)
    fileio.write_signal(reconstruction, args.out)
    print(f"level: {result.level}")
    print(f"kept_lp: {result.kept_lp}")
    print(f"kept_hp: {result.kept_hp}")
    print(f"ratio: {result.ratio:.4f}")
    print(f"psnr: {result.psnr}")
    return EXIT_OK


def cmd_denoise(args) -> int:
    graph = _load_graph(args.graph)
    noisy = _load_signal(args.signal, graph.n)
    partitions = _detect_partitions(args, graph, noisy)
    if args.sigma < 0:
        raise CliError("--sigma must be non-negative")
    p = _norm_exponent(args.norm)
    cleaned = denoise(graph, noisy, args.sigma, args.levels, partitions, p=p)
    fileio.write_signal(cleaned, args.out)
    print(f"denoised {len(cleaned)} values -> {args.out}")
    return EXIT_OK


def cmd_atoms(args) -> int:
    graph = _load_graph(args.graph)
    if args.signal:
        signal = _load_signal(args.signal, graph.n)
    else:
        if args.method == "edaw":
            raise CliError("--method edaw requires --signal")
        signal = np.zeros(graph.n)
    partitions = _detect_partitions(args, graph, signal)
    p = _norm_exponent(args.norm)
    pyramid = analyze_cascade(graph, signal, partitions, p=p, max_levels=args.levels)
    atoms = compute_atoms(pyramid)
    lines = ["level,channel,subgraph,node,value"]
    for j, level in enumerate(pyramid.levels, start=1):
        index_lists = level.operators.index_lists
        blocks = [(1, atoms.approximation[j - 1])]
        blocks += [(l, atoms.details[j - 1][l]) for l in sorted(atoms.details[j - 1])]
        for l, mat in blocks:
            labels = index_lists[l - 1]
            dense = mat.toarray()
            for col, label in enumerate(labels):
                for node in range(pyramid.n):
                    lines.append(f"{j},{l},{label},{node},{fileio.FLOAT_FMT % dense[node, col]}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    total = sum(mat.shape[1] for lvl in atoms.details for mat in lvl.values())
    if atoms.approximation:
        total += atoms.approximation[-1].shape[1]
    print(f"atoms written: {total} (graph size {pyramid.n})")
    return EXIT_OK


def cmd_metrics(args) -> int:
    ref = _load_signal(args.reference)
    est = _load_signal(args.estimate)
    if len(ref) != len(est):
        raise CliError("signals differ in length")
    print(f"psnr: {psnr(ref, est)}")
    print(f"snr: {snr(ref, est)}")
    if args.kept_lp is not None and args.kept_hp is not None:
        print(f"ratio: {compression_ratio(len(ref), args.kept_lp, args.kept_hp)}")
    return EXIT_OK


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

    def analysis_like(name, help_text, extra):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--graph", required=True)
        cmd.add_argument("--levels", type=int, required=True)
        cmd.add_argument("--norm", choices=("l1", "l2"), default="l1")
        cmd.add_argument("--partition", action="append",
                         help="fixed partition file, repeatable per level")
        cmd.add_argument("--zero-based-labels", action="store_true")
        _add_partition_flags(cmd, require_method=False)
        extra(cmd)
        return cmd

    def analyze_extra(cmd):
        cmd.add_argument("--signal", required=True)
        cmd.add_argument("--outdir", required=True)

    analysis_like("analyze", "run the analysis cascade", analyze_extra).set_defaults(
        func=cmd_analyze)

    p_syn = sub.add_parser("synthesize", help="reconstruct a signal from a manifest")
    p_syn.add_argument("--manifest", required=True)
    p_syn.add_argument("--out", required=True)
    p_syn.add_argument("--reference")
    p_syn.set_defaults(func=cmd_synthesize)

    def compress_extra(cmd):
        cmd.add_argument("--signal", required=True)
        cmd.add_argument("--keep-hp", required=True,
                         help="detail coefficients to keep: count or percentage like '5%%'")
        cmd.add_argument("--out", required=True)

    analysis_like("compress", "non-linear approximation compression",
                  compress_extra).set_defaults(func=cmd_compress)

    def denoise_extra(cmd):
        cmd.add_argument("--signal", required=True)
        cmd.add_argument("--sigma", type=float, required=True)
        cmd.add_argument("--out", required=True)

    den = analysis_like("denoise", "hard-threshold denoising", denoise_extra)
    den.set_defaults(func=cmd_denoise, norm="l2")

    def atoms_extra(cmd):
        cmd.add_argument("--signal")
        cmd.add_argument("--out", required=True)

    analysis_like("atoms", "export analysis atoms as CSV", atoms_extra).set_defaults(
        func=cmd_atoms)

    p_met = sub.add_parser("metrics", help="PSNR/SNR between two signal files")
    p_met.add_argument("--reference", required=True)
    p_met.add_argument("--estimate", required=True)
    p_met.add_argument("--kept-lp", type=int)
    p_met.add_argument("--kept-hp", type=int)
    p_met.set_defaults(func=cmd_metrics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
