"""Seeded inputs, operations and output checks of the three benchmark workloads.

Every operation is reached through a module attribute looked up at call
time (`cosub.analyze_cascade`, `cosub.cli.main`, ...), so the tracer's
patches see it.  Each check returns the errors it found, a sha256 digest of
the operation's outputs, and the quality numbers observed on them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cosub
import cosub.cli
import cosub.fileio

KEEP_FRACTION = 0.05        # detail coefficients kept by compress
NOISE_SIGMA = 0.1           # noise added to the unit-peak clean signal for denoise
RECON_RTOL = 1e-10          # reconstruction error bound, relative to max|x|
DUAL_TOL = 1e-10            # per-block |P^T Q - I| bound
LC_TAU = 1000               # the CLI default

# Sizes are scaled so that one round of all operations takes a few seconds
# on two cores; see README.md for the sizes they scale down from.
SBM_BLOCKS = 250            # blocks of 20 nodes
GRID_SIDE = 96              # 8x8 tiles, then 4x4 supernode tiles, then one tile
HUB_BLOCKS = 100            # blocks of 20 nodes behind the hubs
HUBS = 1
HUB_LEAVES = 120            # pendant leaves per hub: a 119-fold multiplet
HUB_LINKS = 3               # seeded links from each hub into the SBM


@dataclass
class Inputs:
    graph: cosub.WeightedGraph
    clean: np.ndarray
    noisy: np.ndarray
    partitions: object          # PartitionConfig or a list of fixed partitions
    levels: int
    tau: int | None = None      # community size cap checked under LC
    files: dict = field(default_factory=dict)


@dataclass
class Check:
    errors: list
    digest: str
    observed: dict = field(default_factory=dict)


# -- input generators -------------------------------------------------------


def _sbm(blocks: int, seed: int) -> tuple[cosub.WeightedGraph, np.ndarray]:
    n = 20 * blocks
    graph = cosub.sbm_graph([20] * blocks, p_in=0.7, p_out=4.0 / n, seed=seed)
    return graph, np.repeat(np.arange(blocks), 20)


def instance_seeds(seed: int, count: int) -> list[int]:
    """Independent input seeds for the `count` instances of one run."""
    return [int(np.random.SeedSequence([seed, k]).generate_state(1)[0]) for k in range(count)]


def _signals(base: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Base pattern plus bounded texture, scaled to unit peak; the noisy copy
    adds white noise.  Bounded (uniform) levels keep both the peak behind
    PSNR and the energy behind SNR nearly the same from seed to seed."""
    clean = base + 0.2 * rng.uniform(-1.0, 1.0, len(base))
    clean /= np.abs(clean).max()
    return clean, clean + NOISE_SIGMA * rng.standard_normal(len(base))


def sbm_inputs(seed: int, blocks: int = SBM_BLOCKS) -> Inputs:
    graph, block = _sbm(blocks, seed)
    rng = np.random.default_rng([seed, 1])
    clean, noisy = _signals(rng.uniform(-1.0, 1.0, blocks)[block], rng)
    return Inputs(graph, clean, noisy, cosub.PartitionConfig("sc", seed=0), levels=4)


def tile_partition(side: int, tile: int) -> cosub.SubgraphPartition:
    """Square tiles of a side x side grid, numbered row-major, so supernode j
    of the coarsened graph is tile j and the coarse graph is again a grid."""
    r, c = np.divmod(np.arange(side * side), side)
    per_row = side // tile
    return cosub.SubgraphPartition.from_labels((r // tile) * per_row + c // tile + 1)


def grid_partitions(side: int) -> list:
    parts = [tile_partition(side, 8)]
    side //= 8
    if side % 4 == 0 and side > 4:
        parts.append(tile_partition(side, 4))
        side //= 4
    parts.append(tile_partition(side, side))
    return parts


def grid_inputs(seed: int, side: int = GRID_SIDE) -> Inputs:
    graph = cosub.grid_graph(side, side)
    rng = np.random.default_rng([seed, 2])
    r, c = np.divmod(np.arange(side * side), side)
    smooth = np.zeros(side * side)
    # Fixed frequencies and amplitudes with seeded phases and step position
    # keep the signal's smoothness, and so the NLA and denoising quality,
    # comparable from seed to seed.
    for amplitude, fr, fc in ((0.5, 1, 2), (0.3, 2, 3), (0.2, 3, 1)):
        smooth += amplitude * np.cos(
            2 * np.pi * (fr * r + fc * c) / side + rng.uniform(0, 2 * np.pi))
    step = (c > rng.uniform(0.4, 0.6) * side).astype(float)
    clean, noisy = _signals(smooth + step, rng)
    parts = grid_partitions(side)
    return Inputs(graph, clean, noisy, parts, levels=len(parts))


def hub_inputs(seed: int, blocks: int = HUB_BLOCKS, hubs: int = HUBS,
               leaves: int = HUB_LEAVES) -> Inputs:
    sbm, block = _sbm(blocks, seed)
    rng = np.random.default_rng([seed, 3])
    n0 = sbm.n
    u, v, _ = sbm.edge_arrays()
    edges = list(zip(u.tolist(), v.tolist()))
    groups = [block]
    node = n0
    for h in range(hubs):
        hub = node
        edges.extend((hub, hub + 1 + k) for k in range(leaves))
        edges.extend((int(t), hub) for t in rng.choice(n0, HUB_LINKS, replace=False))
        groups.append(np.full(leaves + 1, blocks + h))
        node += leaves + 1
    graph = cosub.WeightedGraph.from_edges(node, edges)
    clean, noisy = _signals(rng.uniform(-1.0, 1.0, blocks + hubs)[np.concatenate(groups)], rng)
    return Inputs(graph, clean, noisy, cosub.PartitionConfig("lc", tau=LC_TAU, seed=0),
                  levels=3, tau=LC_TAU)


# -- shared checks ----------------------------------------------------------


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _reconstruction_errors(label: str, estimate: np.ndarray, reference: np.ndarray) -> list:
    if estimate.shape != reference.shape:
        return [f"{label}: shape {estimate.shape}, expected {reference.shape}"]
    err = float(np.abs(estimate - reference).max())
    bound = RECON_RTOL * float(np.abs(reference).max())
    return [] if err <= bound else [f"{label}: max abs error {err:.3e} > {bound:.3e}"]


def _partition_errors(level: int, graph, partition, tau) -> list:
    errors = []
    if not cosub.partition_is_connected(graph, partition):
        errors.append(f"level {level}: a subgraph is disconnected")
    if tau is not None and partition.sizes.max() > tau:
        errors.append(f"level {level}: community of {partition.sizes.max()} > tau={tau}")
    return errors


def _level_one(graph, partition) -> dict:
    return {"subgraphs_l1": int(partition.n_subgraphs),
            "max_subgraph_l1": int(partition.sizes.max()),
            "modularity": cosub.modularity(graph, partition)}


def check_pyramid(pyramid, inputs: Inputs) -> Check:
    """Critical sampling, per-block duality and partition contracts per level."""
    errors = []
    if pyramid.num_levels == 0:
        return Check(["analysis produced no level"], "")
    parts = []
    for j, level in enumerate(pyramid.levels, start=1):
        sizes = [len(ch) for ch in level.channels]
        if sum(sizes) != level.n:
            errors.append(f"level {j}: channel sizes sum to {sum(sizes)}, n={level.n}")
        residual = max(float(np.abs(b.synthesis.T @ b.analysis - np.eye(b.size)).max())
                       for b in level.operators.bases)
        if residual > DUAL_TOL:
            errors.append(f"level {j}: dual residual {residual:.2e}")
        errors += _partition_errors(j, level.a_int, level.partition, inputs.tau)
        parts += [level.partition.labels, *level.channels]
    observed = _level_one(inputs.graph, pyramid.levels[0].partition)
    return Check(errors, _digest(*parts, pyramid.final_approximation), observed)


def check_atoms(atoms, pyramid, n: int) -> Check:
    """One atom per coefficient: the atom count equals n (critical sampling)."""
    errors = []
    count = atoms.total_detail_atoms + atoms.approximation[-1].shape[1]
    if count != n:
        errors.append(f"atoms: {count} atoms for {n} nodes")
    for j, (approx, level) in enumerate(zip(atoms.approximation, pyramid.levels), start=1):
        if approx.shape != (n, len(level.channels[0])):
            errors.append(f"atoms: level {j} approximation shape {approx.shape}")
    mats = list(atoms.approximation)
    mats += [level[l] for level in atoms.details for l in sorted(level)]
    return Check(errors, _digest(*(a for m in mats for a in (m.data, m.indices, m.indptr))))


# -- workloads ---------------------------------------------------------------


class LibraryWorkload:
    """Library calls on in-memory inputs: analyze, synthesize, compress,
    denoise and atoms, all on the same partition source."""

    operations = ("analyze", "synthesize", "compress", "denoise", "atoms")

    def __init__(self, name: str, why: str, make_inputs, tiny_inputs, instances: int,
                 purpose: dict):
        self.name, self.why, self.purpose = name, why, purpose
        self.instances = instances
        self._make_inputs, self._tiny_inputs = make_inputs, tiny_inputs

    def setup(self, seed: int, workdir: Path) -> list[dict]:
        """Generate one state per instance, then warm every code path on a
        tiny instance."""
        tiny = {"inputs": self._tiny_inputs(seed)}
        for op in self.operations:
            self.run(op, tiny)
        return [{"inputs": self._make_inputs(s)} for s in instance_seeds(seed, self.instances)]

    def prepare(self, state: dict) -> None:
        """Nothing beyond set-up: atoms read the pyramid of the last analyze."""

    def run(self, op: str, state: dict):
        inp = state["inputs"]
        if op == "analyze":
            state["pyramid"] = cosub.analyze_cascade(inp.graph, inp.clean, inp.partitions,
                                                     p=1, max_levels=inp.levels)
            return state["pyramid"]
        if op == "synthesize":
            return cosub.synthesize_cascade(state["pyramid"])
        if op == "compress":
            return cosub.best_level_nla(inp.graph, inp.clean, inp.partitions, KEEP_FRACTION,
                                        p=1, max_levels=inp.levels)
        if op == "denoise":
            return cosub.denoise(inp.graph, inp.noisy, NOISE_SIGMA, 1, inp.partitions, p=2)
        if op == "atoms":
            return cosub.compute_atoms(state["pyramid"])
        raise ValueError(op)

    def check(self, op: str, state: dict, out) -> Check:
        inp = state["inputs"]
        if op == "analyze":
            return check_pyramid(out, inp)
        if op == "synthesize":
            return Check(_reconstruction_errors("synthesize", out, inp.clean), _digest(out))
        if op == "compress":
            return self._check_compress(out, state)
        if op == "denoise":
            return _check_denoised(out, inp)
        return check_atoms(out, state["pyramid"], inp.graph.n)

    @staticmethod
    def _check_compress(result, state) -> Check:
        """Rebuild the chosen reconstruction from the analyze pyramid (same
        partitions, same norm) and require the reported PSNR to match it."""
        inp = state["inputs"]
        errors = []
        sub = state["pyramid"].truncated(result.level)
        recon = cosub.synthesize_cascade(cosub.nla_compress(sub, result.kept_hp))
        expected = cosub.psnr(inp.clean, recon)
        if not (math.isfinite(result.psnr) and abs(result.psnr - expected) <= 1e-9 * abs(expected)):
            errors.append(f"compress: psnr {result.psnr} but reconstruction gives {expected}")
        if result.ratio != inp.graph.n / (result.kept_lp + result.kept_hp):
            errors.append("compress: ratio disagrees with the kept counts")
        fields = (result.level, result.kept_hp, result.kept_lp, result.ratio, result.psnr)
        return Check(errors, _digest(repr(fields).encode()), {"nla_psnr_db": result.psnr})


def _check_denoised(out: np.ndarray, inp: Inputs) -> Check:
    errors = []
    if out.shape != inp.clean.shape or not np.all(np.isfinite(out)):
        errors.append("denoise: output has the wrong length or non-finite values")
        return Check(errors, _digest(out))
    return Check(errors, _digest(out), {"denoise_snr_db": cosub.snr(inp.clean, out)})


class CliWorkload:
    """The `cosub` command line, run in process through `cosub.cli.main` on
    files: analyze writes artifacts and synthesize reads them back."""

    operations = ("analyze", "synthesize", "compress", "denoise", "atoms")
    instances = 2
    purpose = {"fileio_active": ("==", True)}

    def __init__(self, name: str, why: str):
        self.name, self.why = name, why

    @staticmethod
    def _write_inputs(inputs: Inputs, workdir: Path) -> Inputs:
        workdir.mkdir(parents=True, exist_ok=True)
        files = {key: workdir / name for key, name in (
            ("graph", "graph.tsv"), ("clean", "clean.csv"), ("noisy", "noisy.csv"),
            ("outdir", "analysis"), ("synth", "synthesized.csv"),
            ("compressed", "compressed.csv"), ("denoised", "denoised.csv"))}
        cosub.fileio.write_edge_list(inputs.graph, files["graph"])
        cosub.fileio.write_signal(inputs.clean, files["clean"])
        cosub.fileio.write_signal(inputs.noisy, files["noisy"])
        inputs.files = {key: str(path) for key, path in files.items()}
        return inputs

    def setup(self, seed: int, workdir: Path) -> list[dict]:
        """Generate and write one input set per instance, then warm every
        command on a tiny instance."""
        warm = workdir / "warmup"
        tiny = {"inputs": self._write_inputs(hub_inputs(seed, blocks=4, hubs=1, leaves=6), warm)}
        self.prepare(tiny)
        for op in self.operations:
            self.run(op, tiny)
        shutil.rmtree(warm)
        return [{"inputs": self._write_inputs(hub_inputs(s), workdir / f"run{k}")}
                for k, s in enumerate(instance_seeds(seed, self.instances))]

    def prepare(self, state: dict) -> None:
        """The CLI's atoms command writes a dense n x n table, so atoms are
        timed through the library, on the pyramid that the analyze command's
        settings give, built once here."""
        inp = state["inputs"]
        state["pyramid"] = cosub.analyze_cascade(inp.graph, inp.clean, inp.partitions,
                                                 p=1, max_levels=inp.levels)

    @staticmethod
    def _argv(op: str, inp: Inputs) -> list:
        f = inp.files
        detect = ["--impl", "lc", "--tau", str(LC_TAU)]
        if op == "analyze":
            return ["analyze", "--graph", f["graph"], "--signal", f["clean"],
                    "--levels", str(inp.levels), *detect, "--outdir", f["outdir"]]
        if op == "synthesize":
            return ["synthesize", "--manifest", str(Path(f["outdir"]) / "manifest.json"),
                    "--out", f["synth"], "--reference", f["clean"]]
        if op == "compress":
            return ["compress", "--graph", f["graph"], "--signal", f["clean"],
                    "--levels", str(inp.levels), *detect, "--keep-hp",
                    f"{100 * KEEP_FRACTION:g}%", "--out", f["compressed"]]
        return ["denoise", "--graph", f["graph"], "--signal", f["noisy"], "--levels", "2",
                *detect, "--sigma", repr(NOISE_SIGMA), "--out", f["denoised"]]

    def run(self, op: str, state: dict):
        inp = state["inputs"]
        if op == "atoms":
            return cosub.compute_atoms(state["pyramid"])
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cosub.cli.main(self._argv(op, inp))
        return code, stdout.getvalue()

    def check(self, op: str, state: dict, out) -> Check:
        inp = state["inputs"]
        if op == "atoms":
            return check_atoms(out, state["pyramid"], inp.graph.n)
        code, text = out
        if code != 0:
            return Check([f"{op}: exit code {code}"], "")
        files = inp.files
        read_signal = cosub.fileio.read_signal
        if op == "analyze":
            return self._check_analysis(inp)
        if op == "synthesize":
            x = read_signal(files["synth"])
            return Check(_reconstruction_errors("synthesize", x, inp.clean),
                         _digest(Path(files["synth"]).read_bytes()))
        if op == "compress":
            x = read_signal(files["compressed"])
            reported = float(text.split("psnr:")[1].split()[0])
            expected = cosub.psnr(inp.clean, x)
            errors = [] if abs(reported - expected) <= 1e-9 * abs(expected) else [
                f"compress: reported psnr {reported}, output file gives {expected}"]
            return Check(errors, _digest(Path(files["compressed"]).read_bytes()),
                         {"nla_psnr_db": expected})
        x = read_signal(files["denoised"])
        check = _check_denoised(x, inp)
        check.digest = _digest(Path(files["denoised"]).read_bytes())
        return check

    @staticmethod
    def _check_analysis(inp: Inputs) -> Check:
        """Every artifact is read back: channel sizes, partition contracts, and
        a digest over all files except the manifest (it embeds paths and argv)."""
        fio = cosub.fileio
        outdir = Path(inp.files["outdir"])
        manifest = fio.read_manifest(outdir / "manifest.json")
        errors, observed = [], {}
        for j, entry in enumerate(manifest["levels"], start=1):
            sizes = [len(fio.read_signal(outdir / name)) for name in entry["channels"]]
            if sum(sizes) != entry["n"]:
                errors.append(f"level {j}: channel sizes sum to {sum(sizes)}, n={entry['n']}")
            part = fio.read_partition(outdir / entry["partition"])
            a_int = fio.read_edge_list(outdir / entry["a_int"], n=entry["n"])
            errors += _partition_errors(j, a_int, part, inp.tau)
            if j == 1:
                observed = _level_one(inp.graph, part)
        names = sorted(p.name for p in outdir.iterdir() if p.name != "manifest.json")
        digest = _digest(*(name.encode() + (outdir / name).read_bytes() for name in names))
        return Check(errors, digest, observed)


WORKLOADS = {
    "sbm-sc": LibraryWorkload(
        "sbm-sc",
        "SBM with 250 blocks of 20 under SC detection: partition (Louvain local moves) "
        "does most of the work, spectral sees hundreds of tiny blocks",
        sbm_inputs, lambda seed: sbm_inputs(seed, blocks=10), 8,
        {"partition_share_of_analyze": (">=", 0.5), "fileio_active": ("==", False)}),
    "grid-tiles": LibraryWorkload(
        "grid-tiles",
        "96x96 grid with fixed 8x8 tiles: no detection at all, spectral (64-node blocks "
        "with many multiplets) does most of the work on equal-sized blocks",
        grid_inputs, lambda seed: grid_inputs(seed, side=32), 2,
        {"louvain_calls": ("==", 0), "largest_layer": ("==", "spectral"),
         "fileio_active": ("==", False)}),
    "cli-hubs-lc": CliWorkload(
        "cli-hubs-lc",
        "CLI on files, LC detection, a hub with a 119-fold multiplet: the only workload "
        "that runs cli and fileio and the LC aggregation rounds"),
}
