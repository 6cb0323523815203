"""File formats and the command-line pipeline."""

import hashlib
import json
import os
import re
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import atoms_csv_oracle
from conftest import edge_tuples
from cosub import (PartitionConfig, SubgraphPartition, WeightedGraph, analyze_cascade,
                   best_level_nla, compute_atoms, edge_aware_adjacency, fileio, grid_graph,
                   haar_partition, line_graph, louvain, nla_compress, sbm_graph,
                   synthesize_cascade)
from cosub.cli import build_parser, main
from test_filterbank import weighted_graphs


@pytest.fixture
def toy_files(tmp_path, toy_graph, toy_partition):
    graph_path = tmp_path / "toy.tsv"
    signal_path = tmp_path / "x.csv"
    part1_path = tmp_path / "p1.txt"
    part2_path = tmp_path / "p2.txt"
    fileio.write_edge_list(toy_graph, graph_path)
    fileio.write_signal([1.0, -1.0, 0.0, 0.0, 0.0], signal_path)
    fileio.write_partition(toy_partition, part1_path)
    fileio.write_partition(SubgraphPartition.from_labels([1, 1]), part2_path)
    return {"graph": graph_path, "signal": signal_path,
            "p1": part1_path, "p2": part2_path, "dir": tmp_path}


@pytest.fixture
def split_calls(monkeypatch):
    """The node count of every graph that `split_adjacency` splits."""
    import cosub.filterbank
    import cosub.graphs

    calls = []
    for module in (cosub.graphs, cosub.filterbank):
        def counted(graph, partition, _split=module.split_adjacency):
            calls.append(graph.n)
            return _split(graph, partition)
        monkeypatch.setattr(module, "split_adjacency", counted)
    return calls


class TestFileFormats:
    def test_edge_list_round_trip(self, tmp_path, toy_graph):
        path = tmp_path / "g.tsv"
        fileio.write_edge_list(toy_graph, path)
        back = fileio.read_edge_list(path)
        assert back.n == toy_graph.n
        assert edge_tuples(back) == edge_tuples(toy_graph)

    def test_edge_list_comments_and_default_weight(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("# a comment\n0\t1\n1\t2\t2.5\n")
        g = fileio.read_edge_list(path)
        assert g.n == 3
        assert edge_tuples(g) == [(0, 1, 1.0), (1, 2, 2.5)]

    def test_edge_list_duplicate_rejected(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("0\t1\n1\t0\t2.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            fileio.read_edge_list(path)

    def test_edge_list_isolated_trailing_node(self, tmp_path):
        path = tmp_path / "g.tsv"
        g = WeightedGraph.from_edges(4, [(0, 1)])  # nodes 2, 3 isolated
        fileio.write_edge_list(g, path)
        assert fileio.read_edge_list(path).n == 4

    @pytest.mark.parametrize("text", [f"# nodes: {fileio.MAX_NODES + 1}\n0\t1\n",
                                      f"0\t1\n1\t{10**12}\n"], ids=["header", "index"])
    def test_edge_list_node_count_bounded(self, tmp_path, text):
        path = tmp_path / "g.tsv"
        path.write_text(text)
        with pytest.raises(ValueError, match="exceed the maximum"):
            fileio.read_edge_list(path)

    def test_signal_round_trip(self, tmp_path):
        path = tmp_path / "x.csv"
        values = np.array([1.25, -0.5, 1e-17, 3.0])
        fileio.write_signal(values, path)
        assert np.array_equal(fileio.read_signal(path), values)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_signal_non_finite_rejected(self, tmp_path, bad):
        path = tmp_path / "x.csv"
        path.write_text(f"1.0\n{bad}\n0.5\n")
        with pytest.raises(ValueError, match="non-finite"):
            fileio.read_signal(path)

    @pytest.mark.parametrize("text", ["", "\n\n", "# a comment\n"],
                             ids=["empty", "blank", "comment"])
    def test_signal_without_values_rejected(self, tmp_path, text):
        path = tmp_path / "x.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: no signal values")):
            fileio.read_signal(path)

    def test_partition_zero_based_flag(self, tmp_path):
        path = tmp_path / "p.txt"
        part = SubgraphPartition.from_labels([1, 1, 2])
        fileio.write_partition(part, path, zero_based=True)
        assert path.read_text().split() == ["0", "0", "1"]
        back = fileio.read_partition(path, zero_based=True)
        assert np.array_equal(back.labels, part.labels)


    def test_writers_match_the_per_scalar_writers(self, tmp_path):
        """Formatting from `tolist()` writes the bytes the writers wrote when
        they formatted numpy scalars one by one: into a new file, over a
        longer one, through a symlink to a longer one, and to os.devnull.
        Each writer returns the sha256 of those bytes."""
        tiny = 5e-324
        weights = [tiny, 2.5e-310, 1e300, 1 / 3, 0.1, 1.0, 7.0, 2.0 ** 53 + 2]
        n = 1_000_003
        u = [0, 1, 2, 999_999, 5, 6, 1_000_000, 123_456_789 % n]
        v = [1, 2, 1_000_002, 1_000_001, 7, 8, 1_000_002, 999_998]
        graph = WeightedGraph.from_edges(n, list(zip(u, v, weights)))
        signal = np.array([-0.0, 0.0, tiny, -tiny, 2.5e-310, 1e300, -1e300, 1 / 3,
                           np.nan, np.inf, -np.inf, 123456789.0])
        labels = np.random.default_rng(3).permutation(70_000) + 1
        partition = SubgraphPartition.from_labels(labels)
        cases = [(fileio.write_edge_list, old_write_edge_list, (graph,)),
                 (fileio.write_signal, old_write_signal, (signal,)),
                 (fileio.write_signal, old_write_signal, ([1, -2, 3],)),
                 (fileio.write_partition, old_write_partition, (partition,)),
                 (fileio.write_partition, old_write_partition, (partition, True))]
        for k, (new, old, args) in enumerate(cases):
            old(*args[:1], tmp_path / f"old{k}", *args[1:])
            expected = (tmp_path / f"old{k}").read_bytes()
            longer = expected + b"0.123456789\n" * 3
            over, target, link = (tmp_path / f"{name}{k}" for name in ("over", "target", "link"))
            over.write_bytes(longer)
            target.write_bytes(longer)
            link.symlink_to(target)
            for path in (tmp_path / f"new{k}", over, link, os.devnull):
                assert new(*args[:1], path, *args[1:]) == hashlib.sha256(expected).hexdigest()
            for path in (tmp_path / f"new{k}", over, target):
                assert path.read_bytes() == expected
            assert link.is_symlink() and link.resolve() == target.resolve()
        assert "-0\n" in (tmp_path / "new1").read_text()


# The text writers as they were when they formatted numpy scalars one by one.


def old_write_edge_list(graph, path):
    lines = [f"# nodes: {graph.n}"]
    for u, v, w in edge_tuples(graph):
        lines.append(f"{u}\t{v}\t{fileio.FLOAT_FMT % w}")
    path.write_text("\n".join(lines) + "\n")


def old_write_signal(values, path):
    x = np.asarray(values, dtype=np.float64)
    path.write_text("\n".join(fileio.FLOAT_FMT % v for v in x) + "\n")


def old_write_partition(partition, path, zero_based=False):
    shift = -1 if zero_based else 0
    path.write_text("\n".join(str(int(c) + shift) for c in partition.labels) + "\n")


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _listed_artifacts(manifest) -> list:
    """Every artifact name a manifest lists."""
    names = [manifest["final_approximation"]]
    for entry in manifest["levels"]:
        names += [entry["partition"], entry["a_int"], entry["a_ext"], *entry["channels"]]
    return names


def _record_sha256(outdir, name):
    """Record the sha256 of the hand-edited artifact `name` in the manifest,
    so that synthesize reaches the check the edit is meant to trip."""
    manifest = json.loads((outdir / "manifest.json").read_text())
    manifest["sha256"][name] = _sha256(outdir / name)
    (outdir / "manifest.json").write_text(json.dumps(manifest))


class TestPartitionCommand:
    def test_detects_toy_partition(self, toy_files, capsys):
        out = toy_files["dir"] / "part.txt"
        code = main(["partition", "--graph", str(toy_files["graph"]),
                     "--method", "cosub", "--impl", "sc", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "subgraphs: 2" in printed
        assert "modularity: 0.220000" in printed
        part = fileio.read_partition(out)
        assert np.array_equal(part.labels, [1, 1, 1, 2, 2])

    def test_edaw_detects_on_the_edge_aware_graph(self, tmp_path, capsys):
        graph = grid_graph(6, 6)
        x = np.where(np.arange(graph.n) % 6 < 3, 1.0, -1.0) + 0.01 * np.arange(graph.n)
        fileio.write_edge_list(graph, tmp_path / "g.tsv")
        fileio.write_signal(x, tmp_path / "x.csv")
        out = tmp_path / "part.txt"
        code = main(["partition", "--graph", str(tmp_path / "g.tsv"),
                     "--signal", str(tmp_path / "x.csv"), "--method", "edaw", "--impl", "sc",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        config = PartitionConfig(variant="sc", tau=1000, seed=2, edge_aware=True)
        expected = louvain(edge_aware_adjacency(graph, fileio.read_signal(tmp_path / "x.csv")),
                           config)
        assert np.array_equal(fileio.read_partition(out).labels, expected.labels)
        assert f"subgraphs: {expected.n_subgraphs}\n" in capsys.readouterr().out

    def test_edaw_requires_signal(self, toy_files, capsys):
        code = main(["partition", "--graph", str(toy_files["graph"]),
                     "--method", "edaw", "--impl", "sc",
                     "--out", str(toy_files["dir"] / "p.txt")])
        assert code == 2
        assert "requires --signal" in capsys.readouterr().err

    def test_byte_identical_reruns(self, toy_files):
        out1 = toy_files["dir"] / "a.txt"
        out2 = toy_files["dir"] / "b.txt"
        args = ["partition", "--graph", str(toy_files["graph"]),
                "--method", "cosub", "--impl", "lc", "--tau", "4", "--seed", "9"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestAnalyzeSynthesize:
    def run_analyze(self, toy_files, outdir):
        return main(["analyze", "--graph", str(toy_files["graph"]),
                     "--signal", str(toy_files["signal"]),
                     "--partition", str(toy_files["p1"]),
                     "--partition", str(toy_files["p2"]),
                     "--levels", "2", "--norm", "l1", "--outdir", str(outdir)])

    def test_channel_files_match_hand_values(self, toy_files, capsys):
        outdir = toy_files["dir"] / "run"
        assert self.run_analyze(toy_files, outdir) == 0
        printed = capsys.readouterr().out
        assert "(sum=5)" in printed
        assert np.allclose(fileio.read_signal(outdir / "level1_channel_01.csv"),
                           [0.0, 0.0], atol=1e-12)
        assert np.allclose(fileio.read_signal(outdir / "level1_channel_02.csv"),
                           [1.0, 0.0], atol=1e-12)
        assert np.allclose(fileio.read_signal(outdir / "level1_channel_03.csv"),
                           [0.0], atol=1e-12)

    def test_levels_zero_rejected(self, toy_files, capsys):
        code = main(["analyze", "--graph", str(toy_files["graph"]),
                     "--signal", str(toy_files["signal"]),
                     "--levels", "0", "--outdir", str(toy_files["dir"] / "r")])
        assert code == 2

    def test_nan_edge_weight_is_usage_error(self, toy_files, capsys):
        toy_files["graph"].write_text("0\t1\n0\t2\tnan\n1\t2\n2\t3\n3\t4\n")
        code = main(["analyze", "--graph", str(toy_files["graph"]),
                     "--signal", str(toy_files["signal"]),
                     "--levels", "1", "--outdir", str(toy_files["dir"] / "r")])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not (toy_files["dir"] / "r").exists()

    @pytest.mark.parametrize("text", [f"# nodes: {10**12}\n0\t1\n",
                                      f"0\t1\n1\t{10**12}\n"], ids=["header", "index"])
    def test_huge_node_count_is_usage_error(self, toy_files, capsys, text):
        toy_files["graph"].write_text(text)
        code = main(["analyze", "--graph", str(toy_files["graph"]),
                     "--signal", str(toy_files["signal"]),
                     "--levels", "1", "--outdir", str(toy_files["dir"] / "r")])
        assert code == 2
        assert "exceed the maximum" in capsys.readouterr().err

    def test_index_beyond_float_range_is_usage_error(self, toy_files, capsys):
        toy_files["graph"].write_text(f"# nodes: 5\n0\t1\n1\t{10**400}\n")
        code = main(["analyze", "--graph", str(toy_files["graph"]),
                     "--signal", str(toy_files["signal"]),
                     "--levels", "1", "--outdir", str(toy_files["dir"] / "r")])
        assert code == 2
        assert "out of range for n=5" in capsys.readouterr().err
        assert not (toy_files["dir"] / "r").exists()

    def test_nan_signal_is_usage_error(self, toy_files, capsys):
        toy_files["signal"].write_text("1.0\n-1.0\nnan\n0.0\n0.0\n")
        code = main(["analyze", "--graph", str(toy_files["graph"]),
                     "--signal", str(toy_files["signal"]),
                     "--levels", "1", "--outdir", str(toy_files["dir"] / "r")])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        code = main(["metrics", "--reference", str(toy_files["signal"]),
                     "--estimate", str(toy_files["signal"])])
        assert code == 2

    def test_round_trip_via_manifest(self, toy_files, capsys):
        outdir = toy_files["dir"] / "run"
        assert self.run_analyze(toy_files, outdir) == 0
        rec = toy_files["dir"] / "rec.csv"
        code = main(["synthesize", "--manifest", str(outdir / "manifest.json"),
                     "--out", str(rec), "--reference", str(toy_files["signal"])])
        assert code == 0
        assert f"reconstructed 5 values -> {rec}\nmax abs deviation" in capsys.readouterr().out
        assert np.abs(fileio.read_signal(rec)
                      - fileio.read_signal(toy_files["signal"])).max() < 1e-9

    @pytest.mark.parametrize("values, message", [
        (None, "cannot read signal"), ([1.0, 2.0, 3.0], "has 3 values, graph has 5 nodes")])
    def test_bad_reference_writes_nothing(self, toy_files, capsys, values, message):
        outdir = toy_files["dir"] / "run"
        assert self.run_analyze(toy_files, outdir) == 0
        reference = toy_files["dir"] / "ref.csv"
        if values is not None:
            fileio.write_signal(np.array(values), reference)
        rec = toy_files["dir"] / "rec.csv"
        code = main(["synthesize", "--manifest", str(outdir / "manifest.json"),
                     "--out", str(rec), "--reference", str(reference)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not rec.exists()

    def test_synthesize_splits_each_level_once(self, toy_files, request):
        outdir = toy_files["dir"] / "run"
        assert self.run_analyze(toy_files, outdir) == 0
        calls = request.getfixturevalue("split_calls")
        code = main(["synthesize", "--manifest", str(outdir / "manifest.json"),
                     "--out", str(toy_files["dir"] / "rec.csv")])
        assert code == 0
        assert calls == [5, 2]

    @pytest.mark.parametrize("command, extra", [
        ("analyze", ["--signal", "SIGNAL", "--outdir", "OUT"]),
        ("compress", ["--signal", "SIGNAL", "--keep-hp", "1", "--out", "OUT"]),
        ("denoise", ["--signal", "SIGNAL", "--sigma", "0.1", "--out", "OUT"]),
        ("atoms", ["--out", "OUT"]),
    ])
    def test_fixed_partitions_split_each_level_once(self, toy_files, split_calls,
                                                    command, extra):
        paths = {"SIGNAL": str(toy_files["signal"]), "OUT": str(toy_files["dir"] / "out")}
        code = main([command, "--graph", str(toy_files["graph"]),
                     "--partition", str(toy_files["p1"]),
                     "--partition", str(toy_files["p2"]), "--levels", "2",
                     *[paths.get(a, a) for a in extra]])
        assert code == 0
        assert split_calls == [5, 2]

    def test_other_cascade_error_stays_numeric(self, toy_files, capsys, monkeypatch):
        # A level whose fixed partition fits its graph and that still fails
        # is not blamed on the partition file.
        import cosub.filterbank

        def failing(*args):
            raise ValueError("level failed")
        monkeypatch.setattr(cosub.filterbank, "analyze_level", failing)
        code = self.run_analyze(toy_files, toy_files["dir"] / "run")
        assert code == 3
        assert capsys.readouterr().err == "error: level failed\n"

    def test_missing_channel_file_fails(self, toy_files, capsys, monkeypatch):
        outdir = toy_files["dir"] / "run"
        assert self.run_analyze(toy_files, outdir) == 0
        missing = outdir / "level1_channel_02.csv"
        missing.unlink()
        import cosub.cli
        built = []
        monkeypatch.setattr(cosub.cli, "build_operators", lambda *a: built.append(a))
        code = main(["synthesize", "--manifest", str(outdir / "manifest.json"),
                     "--out", str(toy_files["dir"] / "rec.csv")])
        assert code == 2
        assert capsys.readouterr().err == (f"error: cannot read manifest artifact {missing}: "
                                           f"[Errno 2] No such file or directory: '{missing}'\n")
        assert built == []  # the level's files are read before its eigensolve

    def test_a_ext_files_are_not_read(self, toy_files, capsys):
        outdir = toy_files["dir"] / "run"
        assert self.run_analyze(toy_files, outdir) == 0
        for j in (1, 2):
            (outdir / f"level{j}_a_ext.tsv").unlink()
        rec = toy_files["dir"] / "rec.csv"
        code = main(["synthesize", "--manifest", str(outdir / "manifest.json"),
                     "--out", str(rec), "--reference", str(toy_files["signal"])])
        assert code == 0
        assert np.allclose(fileio.read_signal(rec), fileio.read_signal(toy_files["signal"]),
                           atol=1e-12, rtol=0)

    def test_zeroed_details_reconstruct_blockwise_constant(self, toy_files, tmp_path):
        const_signal = tmp_path / "const.csv"
        fileio.write_signal([2.0, 2.0, 2.0, -3.0, -3.0], const_signal)
        outdir = tmp_path / "run"
        assert main(["analyze", "--graph", str(toy_files["graph"]),
                     "--signal", str(const_signal),
                     "--partition", str(toy_files["p1"]),
                     "--levels", "1", "--norm", "l1",
                     "--outdir", str(outdir)]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        for name in ("level1_channel_02.csv", "level1_channel_03.csv"):
            values = fileio.read_signal(outdir / name)
            # An edited artifact is read only under its new sha256.
            manifest["sha256"][name] = fileio.write_signal(np.zeros_like(values), outdir / name)
        (outdir / "manifest.json").write_text(json.dumps(manifest))
        rec = tmp_path / "rec.csv"
        assert main(["synthesize", "--manifest", str(outdir / "manifest.json"),
                     "--out", str(rec)]) == 0
        assert np.allclose(fileio.read_signal(rec), [2.0, 2.0, 2.0, -3.0, -3.0],
                           atol=1e-10)

    def test_disconnected_partition_file_rejected(self, toy_files, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1\n1\n2\n2\n1\n")  # class 1 = {0,1,4}, not connected
        code = main(["analyze", "--graph", str(toy_files["graph"]),
                     "--signal", str(toy_files["signal"]),
                     "--partition", str(bad), "--levels", "1",
                     "--outdir", str(tmp_path / "r")])
        assert code == 2
        assert "disconnected" in capsys.readouterr().err

    def test_block_above_the_size_bound_is_usage_error(self, tmp_path, capsys):
        from cosub.filterbank import MAX_BLOCK_SIZE
        s = MAX_BLOCK_SIZE + 1
        graph, signal, part = tmp_path / "line.tsv", tmp_path / "x.csv", tmp_path / "p.txt"
        fileio.write_edge_list(line_graph(s + 2), graph)
        fileio.write_signal(np.arange(s + 2.0), signal)
        fileio.write_partition(SubgraphPartition.from_labels([1, 1] + [2] * s), part)
        code = main(["analyze", "--graph", str(graph), "--signal", str(signal),
                     "--partition", str(part), "--levels", "1", "--outdir", str(tmp_path / "r")])
        assert code == 2
        assert (f"subgraph 2 has {s} nodes, above the block-size bound of {MAX_BLOCK_SIZE}"
                in capsys.readouterr().err)
        assert not (tmp_path / "r").exists()

    def test_detected_block_above_the_size_bound_is_usage_error(
            self, toy_files, tmp_path, capsys, monkeypatch):
        import cosub.filterbank
        monkeypatch.setattr(cosub.filterbank, "MAX_BLOCK_SIZE", 2)
        code = main(["analyze", "--graph", str(toy_files["graph"]),
                     "--signal", str(toy_files["signal"]), "--method", "cosub", "--impl", "lc",
                     "--levels", "1", "--outdir", str(tmp_path / "r")])
        assert code == 2
        assert "above the block-size bound of 2" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("label", ["99999999999999999999", str(-2**63 - 1)])
    def test_label_beyond_int64_is_usage_error(self, toy_files, tmp_path, capsys, label):
        bad = tmp_path / "big.txt"
        bad.write_text(f"1\n1\n1\n2\n{label}\n")
        code = main(["analyze", "--graph", str(toy_files["graph"]),
                     "--signal", str(toy_files["signal"]),
                     "--partition", str(bad), "--levels", "1",
                     "--outdir", str(tmp_path / "r")])
        assert code == 2
        assert f"{bad}: label {label} is out of range" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_zero_based_label_that_wraps_is_usage_error(self, toy_files, tmp_path, capsys):
        # 2**63 - 1 is an int64, but not once shifted to one-based labels.
        bad = tmp_path / "big.txt"
        bad.write_text(f"0\n0\n0\n1\n{2**63 - 1}\n")
        code = main(["analyze", "--graph", str(toy_files["graph"]),
                     "--signal", str(toy_files["signal"]),
                     "--partition", str(bad), "--zero-based-labels", "--levels", "1",
                     "--outdir", str(tmp_path / "r")])
        assert code == 2
        assert f"{bad}: label {2**63 - 1} is out of range" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_second_level_size_mismatch_is_usage_error(self, toy_files, tmp_path, capsys):
        bad2 = tmp_path / "bad2.txt"
        bad2.write_text("1\n1\n1\n")  # level-2 graph has 2 nodes, not 3
        code = main(["analyze", "--graph", str(toy_files["graph"]),
                     "--signal", str(toy_files["signal"]),
                     "--partition", str(toy_files["p1"]),
                     "--partition", str(bad2), "--levels", "2",
                     "--outdir", str(tmp_path / "r")])
        assert code == 2
        assert f"{bad2} has 3 labels, graph has 2 nodes" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["analyze", "atoms"])
    def test_disconnected_second_partition_file_is_usage_error(
            self, tmp_path, capsys, command):
        # Haar pairs on a 12-node line, then a level-2 partition that joins
        # supernodes 0, 2 and 4 of the 6-node coarse line: not connected.
        graph, signal = tmp_path / "line.tsv", tmp_path / "x.csv"
        h1, h2 = tmp_path / "h1.txt", tmp_path / "h2.txt"
        fileio.write_edge_list(line_graph(12), graph)
        fileio.write_signal(np.arange(12.0), signal)
        fileio.write_partition(haar_partition(12), h1)
        h2.write_text("1\n2\n1\n2\n1\n2\n")
        out = tmp_path / "out"
        extra = (["--signal", str(signal), "--outdir", str(out)] if command == "analyze"
                 else ["--out", str(out)])
        code = main([command, "--graph", str(graph), "--levels", "2",
                     "--partition", str(h1), "--partition", str(h2), *extra])
        assert code == 2
        assert f"partition file {h2} has a disconnected subgraph" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_final_approximation_is_usage_error(self, toy_files, capsys):
        outdir = toy_files["dir"] / "run"
        assert self.run_analyze(toy_files, outdir) == 0
        (outdir / "final_approximation.csv").write_text("nan\n")
        _record_sha256(outdir, "final_approximation.csv")
        code = main(["synthesize", "--manifest", str(outdir / "manifest.json"),
                     "--out", str(toy_files["dir"] / "rec.csv")])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    def test_garbled_partition_artifact_is_usage_error(self, toy_files, capsys):
        outdir = toy_files["dir"] / "run"
        assert self.run_analyze(toy_files, outdir) == 0
        (outdir / "level1_partition.txt").write_text("1\n1\nx\n2\n2\n")
        _record_sha256(outdir, "level1_partition.txt")
        code = main(["synthesize", "--manifest", str(outdir / "manifest.json"),
                     "--out", str(toy_files["dir"] / "rec.csv")])
        assert code == 2
        # The full message: the temporary directory's name holds the test's.
        assert (f"cannot read manifest artifact {outdir / 'level1_partition.txt'}: invalid"
                in capsys.readouterr().err)

    def test_manifest_without_levels_is_usage_error(self, toy_files, capsys):
        outdir = toy_files["dir"] / "run"
        assert self.run_analyze(toy_files, outdir) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        del manifest["levels"]
        (outdir / "manifest.json").write_text(json.dumps(manifest))
        code = main(["synthesize", "--manifest", str(outdir / "manifest.json"),
                     "--out", str(toy_files["dir"] / "rec.csv")])
        assert code == 2
        assert "levels" in capsys.readouterr().err

    def _tamper_and_synthesize(self, toy_files, tamper):
        outdir = toy_files["dir"] / "run"
        assert self.run_analyze(toy_files, outdir) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        tamper(outdir, manifest)
        # Edited artifacts keep a matching sha256, so that synthesize reaches
        # the check each edit is meant to trip.
        manifest["sha256"] = {name: _sha256(outdir / name) for name in manifest["sha256"]}
        (outdir / "manifest.json").write_text(json.dumps(manifest))
        return main(["synthesize", "--manifest", str(outdir / "manifest.json"),
                     "--out", str(toy_files["dir"] / "rec.csv")])

    def test_partition_length_mismatch_is_usage_error(self, toy_files, capsys):
        def tamper(outdir, manifest):
            (outdir / "level1_partition.txt").write_text("1\n1\n1\n2\n2\n2\n")
        assert self._tamper_and_synthesize(toy_files, tamper) == 2
        assert "6 labels, graph has 5 nodes" in capsys.readouterr().err

    def test_disconnected_partition_artifact_is_usage_error(self, toy_files, capsys):
        def tamper(outdir, manifest):
            # Class 2 = {1, 3, 4}: node 1 has no intra-subgraph edge to 3 or 4.
            (outdir / "level1_partition.txt").write_text("1\n2\n1\n2\n2\n")
        assert self._tamper_and_synthesize(toy_files, tamper) == 2
        assert "level1_partition.txt has a disconnected subgraph" in capsys.readouterr().err

    def test_wrong_channel_count_is_usage_error(self, toy_files, capsys):
        def tamper(outdir, manifest):
            manifest["levels"][0]["channels"].pop()
        assert self._tamper_and_synthesize(toy_files, tamper) == 2
        assert "level 1 is inconsistent: channel count" in capsys.readouterr().err

    def test_wrong_channel_length_is_usage_error(self, toy_files, capsys):
        def tamper(outdir, manifest):
            (outdir / "level1_channel_02.csv").write_text("1.0\n")
        assert self._tamper_and_synthesize(toy_files, tamper) == 2
        assert "channel 2 has length 1, expected 2" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["5", 5.5, None, True, 0],
                             ids=["str", "float", "null", "bool", "zero"])
    def test_invalid_level_size_is_usage_error(self, toy_files, capsys, n):
        def tamper(outdir, manifest):
            manifest["levels"][0]["n"] = n
        assert self._tamper_and_synthesize(toy_files, tamper) == 2
        assert f"level n must be a positive integer, got {n!r}" in capsys.readouterr().err

    def test_bool_norm_exponent_is_usage_error(self, toy_files, capsys):
        def tamper(outdir, manifest):
            manifest["p"] = True
        assert self._tamper_and_synthesize(toy_files, tamper) == 2
        assert "p must be 1 or 2, got True" in capsys.readouterr().err

    def test_unknown_norm_exponent_is_usage_error(self, toy_files, capsys):
        def tamper(outdir, manifest):
            manifest["p"] = 3
        assert self._tamper_and_synthesize(toy_files, tamper) == 2
        assert "p must be 1 or 2" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["no", "true", 0, 1, None],
                             ids=["no", "true-string", "zero", "one", "null"])
    def test_non_bool_zero_based_labels_is_usage_error(self, toy_files, capsys, flag):
        def tamper(outdir, manifest):
            manifest["zero_based_labels"] = flag
        assert self._tamper_and_synthesize(toy_files, tamper) == 2
        assert (f"malformed manifest: zero_based_labels must be true or false, got {flag!r}"
                in capsys.readouterr().err)

    def test_absent_zero_based_labels_reads_one_based(self, toy_files, capsys):
        def tamper(outdir, manifest):
            del manifest["zero_based_labels"]
        assert self._tamper_and_synthesize(toy_files, tamper) == 0

    def test_manifest_records_the_parsed_command(self, toy_files, monkeypatch):
        """An in-process caller's own `sys.argv` is not the command that ran."""
        monkeypatch.setattr(sys, "argv", ["host-program", "--unrelated", "flag"])
        outdir = toy_files["dir"] / "run"
        argv = ["analyze", "--graph", str(toy_files["graph"]),
                "--signal", str(toy_files["signal"]), "--partition", str(toy_files["p1"]),
                "--levels", "1", "--outdir", str(outdir)]
        assert main(argv) == 0
        assert json.loads((outdir / "manifest.json").read_text())["command"] == argv

    def test_final_approximation_length_mismatch_is_usage_error(self, toy_files, capsys):
        def tamper(outdir, manifest):
            (outdir / "final_approximation.csv").write_text("1.0\n2.0\n")
        assert self._tamper_and_synthesize(toy_files, tamper) == 2
        assert "level 2 is inconsistent: channel 1 has length 2" in capsys.readouterr().err

    @pytest.mark.parametrize("field, name", [
        ("channels", "{outdir}/level1_channel_02.csv"),  # absolute, and it exists
        ("channels", "../level1_channel_02.csv"),
        ("partition", "../level1_partition.txt"),
        ("a_int", "./level1_a_int.tsv"),
        ("final_approximation", ".."),
        ("final_approximation", "..\\final_approximation.csv"),
    ])
    def test_artifact_outside_manifest_directory_is_usage_error(
            self, toy_files, capsys, field, name):
        def tamper(outdir, manifest):
            # Valid copies outside the manifest's directory: only the name
            # may make synthesize refuse them.
            for artifact in outdir.iterdir():
                (outdir.parent / artifact.name).write_bytes(artifact.read_bytes())
            resolved = name.format(outdir=outdir.resolve())
            if field == "final_approximation":
                manifest[field] = resolved
            elif field == "channels":
                manifest["levels"][0]["channels"][1] = resolved
            else:
                manifest["levels"][0][field] = resolved
        assert self._tamper_and_synthesize(toy_files, tamper) == 2
        assert "is not a bare file name" in capsys.readouterr().err

    def test_analyze_byte_identical_reruns(self, toy_files):
        out1 = toy_files["dir"] / "r1"
        out2 = toy_files["dir"] / "r2"
        for outdir in (out1, out2):
            assert main(["analyze", "--graph", str(toy_files["graph"]),
                         "--signal", str(toy_files["signal"]),
                         "--method", "cosub", "--impl", "sc", "--seed", "5",
                         "--levels", "2", "--norm", "l2",
                         "--outdir", str(outdir)]) == 0
        for name in sorted(f.name for f in out1.iterdir()):
            if name == "manifest.json":
                continue  # manifest echoes --outdir, everything else matches
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_manifest_records_the_sha256_of_every_artifact(self, toy_files):
        outdir = toy_files["dir"] / "run"
        assert self.run_analyze(toy_files, outdir) == 0
        manifest = fileio.read_manifest(outdir / "manifest.json")
        names = set(_listed_artifacts(manifest))
        assert names == {f.name for f in outdir.iterdir()} - {"manifest.json"}
        assert manifest["sha256"] == {name: _sha256(outdir / name) for name in names}

    @pytest.mark.parametrize("name, edit", [
        ("level1_channel_02.csv", lambda data: data[:1] + bytes([data[1] ^ 1]) + data[2:]),
        ("level1_channel_02.csv", lambda data: data + b"5\n"),
        ("level1_partition.txt", lambda data: data + b"2\n"),
    ], ids=["flipped-byte", "stale-channel-tail", "stale-partition-tail"])
    def test_artifact_that_does_not_match_its_sha256_is_usage_error(
            self, toy_files, capsys, name, edit):
        # A flipped byte still parses, and reconstructs a wrong signal; a
        # stale tail is what a write killed before its cut leaves behind.
        outdir = toy_files["dir"] / "run"
        assert self.run_analyze(toy_files, outdir) == 0
        path = outdir / name
        path.write_bytes(edit(path.read_bytes()))
        rec = toy_files["dir"] / "rec.csv"
        code = main(["synthesize", "--manifest", str(outdir / "manifest.json"),
                     "--out", str(rec)])
        assert code == 2
        assert f"{path}: sha256 does not match the manifest" in capsys.readouterr().err
        assert not rec.exists()

    def test_manifest_without_sha256_synthesizes_unchecked(self, toy_files):
        outdir = toy_files["dir"] / "run"
        assert self.run_analyze(toy_files, outdir) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        del manifest["sha256"]
        (outdir / "manifest.json").write_text(json.dumps(manifest))
        (outdir / "level1_channel_02.csv").write_text("0\n0\n")
        assert main(["synthesize", "--manifest", str(outdir / "manifest.json"),
                     "--out", str(toy_files["dir"] / "rec.csv")]) == 0

    @pytest.mark.parametrize("value", [["x"], {"level1_partition.txt": 1}, "abc"],
                             ids=["list", "int-digest", "str"])
    def test_malformed_sha256_map_is_usage_error(self, toy_files, capsys, value):
        outdir = toy_files["dir"] / "run"
        assert self.run_analyze(toy_files, outdir) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        manifest["sha256"] = value
        (outdir / "manifest.json").write_text(json.dumps(manifest))
        assert main(["synthesize", "--manifest", str(outdir / "manifest.json"),
                     "--out", str(toy_files["dir"] / "rec.csv")]) == 2
        assert ("malformed manifest: sha256 must map artifact names to hex digests"
                in capsys.readouterr().err)

    def test_rerun_over_a_longer_deeper_run_matches_a_fresh_outdir(self, tmp_path):
        """Artifacts rewritten in place over a 3-level run of another signal
        are the bytes a fresh output directory receives."""
        graph = tmp_path / "grid.tsv"
        fileio.write_edge_list(grid_graph(8, 8), graph)
        earlier, signal = tmp_path / "earlier.csv", tmp_path / "x.csv"
        fileio.write_signal(np.random.default_rng(0).normal(size=64) * 1e6, earlier)
        fileio.write_signal(np.arange(64.0) % 5, signal)
        run, fresh = tmp_path / "run", tmp_path / "fresh"

        def analyze(x, levels, outdir):
            assert main(["analyze", "--graph", str(graph), "--signal", str(x),
                         "--levels", str(levels), "--outdir", str(outdir)]) == 0
        analyze(earlier, 3, run)
        old_sizes = {f.name: f.stat().st_size for f in run.iterdir()}
        analyze(signal, 2, run)
        analyze(signal, 2, fresh)
        manifest = fileio.read_manifest(run / "manifest.json")
        names = _listed_artifacts(manifest)
        assert len(manifest["levels"]) == 2 and "level3_partition.txt" in old_sizes
        assert any(old_sizes[name] > (run / name).stat().st_size for name in names)
        for name in names:
            assert (run / name).read_bytes() == (fresh / name).read_bytes(), name
        assert manifest["sha256"] == fileio.read_manifest(fresh / "manifest.json")["sha256"]
        assert {f.name for f in run.iterdir()} == {f.name for f in fresh.iterdir()}
        assert main(["synthesize", "--manifest", str(run / "manifest.json"),
                     "--out", str(tmp_path / "rec.csv")]) == 0

    @staticmethod
    def analyze_grid(tmp_path, side, levels):
        """Analyze a random signal on a side x side grid; returns the output directory."""
        graph, signal, outdir = tmp_path / "grid.tsv", tmp_path / "x.csv", tmp_path / "run"
        fileio.write_edge_list(grid_graph(side, side), graph)
        fileio.write_signal(np.random.default_rng(side).normal(size=side * side), signal)
        assert main(["analyze", "--graph", str(graph), "--signal", str(signal),
                     "--levels", str(levels), "--outdir", str(outdir)]) == 0
        return outdir

    @pytest.mark.parametrize("levels, message", [
        ([], "malformed manifest: n is 36, but its levels reconstruct 7 values"),
        ({}, "malformed manifest: levels must be a list, got dict"),
    ], ids=["empty-list", "dict"])
    def test_levels_that_do_not_rebuild_n_values_are_usage_error(self, tmp_path, capsys,
                                                                 levels, message):
        outdir = self.analyze_grid(tmp_path, 6, 2)
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["n"] == 36
        assert len(fileio.read_signal(outdir / manifest["final_approximation"])) == 7
        manifest["levels"] = levels
        (outdir / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        rec = tmp_path / "rec.csv"
        assert main(["synthesize", "--manifest", str(outdir / "manifest.json"),
                     "--out", str(rec)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not rec.exists()

    @pytest.mark.parametrize("n", [None, "36", 0, True])
    def test_invalid_manifest_n_is_usage_error(self, tmp_path, capsys, n):
        outdir = self.analyze_grid(tmp_path, 6, 2)
        manifest = json.loads((outdir / "manifest.json").read_text())
        if n is None:
            del manifest["n"]
        else:
            manifest["n"] = n
        (outdir / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["synthesize", "--manifest", str(outdir / "manifest.json"),
                     "--out", str(tmp_path / "rec.csv")]) == 2
        assert re.search(r"malformed manifest: .*\bn\b", capsys.readouterr().err)

    def test_missing_final_approximation_fails_before_any_eigensolve(self, tmp_path, capsys,
                                                                     monkeypatch):
        outdir = self.analyze_grid(tmp_path, 8, 3)
        assert len(fileio.read_manifest(outdir / "manifest.json")["levels"]) == 3
        (outdir / "final_approximation.csv").unlink()
        import cosub.cli
        calls = []
        build = cosub.cli.build_operators
        monkeypatch.setattr(cosub.cli, "build_operators",
                            lambda *args: calls.append(args) or build(*args))
        capsys.readouterr()
        assert main(["synthesize", "--manifest", str(outdir / "manifest.json"),
                     "--out", str(tmp_path / "rec.csv")]) == 2
        assert "final_approximation.csv" in capsys.readouterr().err
        assert calls == []

    def test_dual_residual_is_checked_by_synthesize_not_analyze(self, toy_files, capsys,
                                                                 monkeypatch):
        import cosub.spectral
        monkeypatch.setattr(cosub.spectral, "DUAL_RESIDUAL_TOL", -1.0)
        outdir = toy_files["dir"] / "run"
        assert self.run_analyze(toy_files, outdir) == 0
        capsys.readouterr()
        rec = toy_files["dir"] / "rec.csv"
        assert main(["synthesize", "--manifest", str(outdir / "manifest.json"),
                     "--out", str(rec)]) == 3
        assert re.fullmatch(r"error: dual basis residual \S+ exceeds tolerance\n",
                            capsys.readouterr().err)
        assert not rec.exists()

    def test_analyze_reads_each_input_once(self, toy_files, monkeypatch):
        """The manifest's input digests are those of the bytes the readers parsed."""
        opened, real_open = [], Path.open
        monkeypatch.setattr(Path, "open", lambda self, *args, **kwargs:
                            opened.append(self.name) or real_open(self, *args, **kwargs))
        outdir = toy_files["dir"] / "run"
        assert self.run_analyze(toy_files, outdir) == 0
        monkeypatch.undo()
        assert opened.count("toy.tsv") == 1 and opened.count("x.csv") == 1
        inputs = json.loads((outdir / "manifest.json").read_text())["inputs"]
        assert inputs["graph"] == {"path": str(toy_files["graph"]),
                                   "sha256": _sha256(toy_files["graph"])}
        assert inputs["signal"] == {"path": str(toy_files["signal"]),
                                    "sha256": _sha256(toy_files["signal"])}
        assert fileio._read_digests is None

    @pytest.mark.parametrize("earlier", [
        "not json",
        json.dumps({"format_version": 1, "levels": [], "final_approximation": "../x.csv"}),
        json.dumps({"format_version": 1, "levels": [], "final_approximation": "manifest.json"}),
    ], ids=["unreadable", "not-a-bare-name", "names-the-manifest"])
    def test_rerun_removes_only_what_a_readable_earlier_manifest_lists(self, toy_files,
                                                                       earlier):
        """Neither an earlier manifest that cannot be read nor one that names
        a file outside the output directory removes a file; the new
        manifest is kept."""
        outdir = toy_files["dir"] / "run"
        outdir.mkdir()
        (outdir / "manifest.json").write_text(earlier)
        (outdir / "keep.txt").write_text("kept")
        assert main(["analyze", "--graph", str(toy_files["graph"]),
                     "--signal", str(toy_files["signal"]), "--partition", str(toy_files["p1"]),
                     "--levels", "1", "--outdir", str(outdir)]) == 0
        assert (outdir / "keep.txt").read_text() == "kept"
        assert toy_files["signal"].exists()
        assert fileio.read_manifest(outdir / "manifest.json")["levels"]


class TestUnwritableOutput:
    """An output that cannot be written is a usage error (exit 2) that names
    the path."""

    EMPTY_OUT = "[Errno 2] No such file or directory"  # what opening "" gives

    @pytest.mark.parametrize("command, extra, what", [
        ("analyze", ["--outdir", "{file}"], "output directory {file}"),
        ("compress", ["--keep-hp", "1", "--out", "{missing}/c.csv"], "signal {missing}/c.csv"),
        ("denoise", ["--sigma", "0.1", "--out", "{dir}"], "signal {dir}"),
    ], ids=["outdir-is-a-file", "out-in-a-missing-directory", "out-is-a-directory"])
    def test_exits_2_and_names_the_path(self, toy_files, capsys, command, extra, what):
        names = {"file": str(toy_files["p1"]), "dir": str(toy_files["dir"]),
                 "missing": str(toy_files["dir"] / "missing")}
        code = main([command, "--graph", str(toy_files["graph"]),
                     "--signal", str(toy_files["signal"]), "--partition", str(toy_files["p1"]),
                     "--levels", "1", *[a.format(**names) for a in extra]])
        assert code == 2
        assert f"error: cannot write {what.format(**names)}: [Errno" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, what, error", [
        (["analyze", "--outdir", "{file}"], "output directory {file}", "[Errno 17] File exists"),
        (["compress", "--keep-hp", "1", "--out", "{missing}/c.csv"], "signal {missing}/c.csv",
         "[Errno 2] No such file or directory"),
        (["denoise", "--sigma", "0.1", "--out", "{dir}"], "signal {dir}",
         "[Errno 21] Is a directory"),
        (["atoms", "--out", "{dir}"], "atoms {dir}", "[Errno 21] Is a directory"),
        (["partition", "--method", "cosub", "--impl", "sc", "--out", "{dir}"], "partition {dir}",
         "[Errno 21] Is a directory"),
        (["synthesize", "--manifest", "{absent}", "--out", "{dir}"], "signal {dir}",
         "[Errno 21] Is a directory"),
        (["analyze", "--outdir", "{file}/sub"], "output directory {file}/sub",
         "[Errno 20] Not a directory"),
        (["compress", "--keep-hp", "1", "--out", "{file}/c.csv"], "signal {file}/c.csv",
         "[Errno 20] Not a directory"),
        (["compress", "--keep-hp", "1", "--out", ""], "signal ", EMPTY_OUT),
        (["denoise", "--sigma", "0.1", "--out", ""], "signal ", EMPTY_OUT),
        (["atoms", "--out", ""], "atoms ", EMPTY_OUT),
        (["partition", "--method", "cosub", "--impl", "sc", "--out", ""], "partition ",
         EMPTY_OUT),
        (["synthesize", "--manifest", "{absent}", "--out", ""], "signal ", EMPTY_OUT),
        (["analyze", "--outdir", ""], "output directory ", EMPTY_OUT),
    ], ids=["outdir-is-a-file", "out-in-a-missing-directory", "out-is-a-directory",
            "atoms-out-is-a-directory", "partition-out-is-a-directory",
            "synthesize-out-is-a-directory", "outdir-below-a-file", "out-below-a-file",
            "compress-out-is-empty", "denoise-out-is-empty", "atoms-out-is-empty",
            "partition-out-is-empty", "synthesize-out-is-empty", "analyze-outdir-is-empty"])
    def test_is_found_before_any_input_is_read(self, toy_files, capsys, argv, what, error):
        """The graph (or manifest) named does not exist: the error is the
        output's."""
        names = {"file": str(toy_files["p1"]), "dir": str(toy_files["dir"]),
                 "missing": str(toy_files["dir"] / "missing"),
                 "absent": str(toy_files["dir"] / "absent.json")}
        target = what.format(**names).split(" ")[-1]
        inputs = ["--graph", str(toy_files["dir"] / "absent.tsv"),
                  "--signal", str(toy_files["signal"])]
        if argv[0] == "synthesize":
            inputs = []  # its one input is the manifest, in argv
        elif argv[0] != "partition":
            inputs += ["--partition", str(toy_files["p1"]), "--levels", "1"]
        code = main([argv[0], *inputs, *[a.format(**names) for a in argv[1:]]])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: cannot write {what.format(**names)}: {error}: {target!r}\n"

    @pytest.mark.parametrize("command, extra", [
        ("analyze", ["--outdir", "{file}/sub"]),
        ("compress", ["--keep-hp", "1", "--out", "{file}/c.csv"]),
    ], ids=["outdir-below-a-file", "out-below-a-file"])
    def test_message_is_the_writers(self, toy_files, capsys, command, extra):
        """An output below a file is refused with the error its write gives."""
        extra = [a.format(file=toy_files["p1"]) for a in extra]
        with pytest.raises(OSError) as write:
            if command == "analyze":
                Path(extra[-1]).mkdir(parents=True, exist_ok=True)
            else:
                open(extra[-1], "w").close()
        what = "output directory" if command == "analyze" else "signal"
        code = main([command, "--graph", str(toy_files["graph"]),
                     "--signal", str(toy_files["signal"]), "--partition", str(toy_files["p1"]),
                     "--levels", "1", *extra])
        assert code == 2
        assert capsys.readouterr().err == f"error: cannot write {what} {extra[-1]}: {write.value}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_is_usage_error(self, toy_files, capsys):
        """A device that refuses the bytes passes the early check; the write
        itself fails (ENOSPC) and is reported as the output's error."""
        code = main(["denoise", "--graph", str(toy_files["graph"]),
                     "--signal", str(toy_files["signal"]), "--partition", str(toy_files["p1"]),
                     "--levels", "1", "--sigma", "0.1", "--out", "/dev/full"])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: cannot write signal /dev/full: [Errno 28] No space left on device\n"


class TestArgumentsRejectedAtEntry:
    """Invalid arguments are usage errors (exit 2), caught before any work."""

    @pytest.mark.parametrize("command, extra", [
        ("compress", ["--keep-hp", "1"]),
        ("denoise", ["--sigma", "0.1"]),
        ("atoms", []),
    ])
    def test_levels_zero(self, toy_files, capsys, command, extra):
        out = toy_files["dir"] / "out.csv"
        code = main([command, "--graph", str(toy_files["graph"]),
                     "--signal", str(toy_files["signal"]), "--levels", "0",
                     *extra, "--out", str(out)])
        assert code == 2
        assert "--levels" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["partition", "analyze"])
    def test_lc_tau_below_two(self, toy_files, capsys, command):
        args = ["--graph", str(toy_files["graph"]), "--signal", str(toy_files["signal"]),
                "--method", "cosub", "--impl", "lc", "--tau", "1"]
        if command == "partition":
            args += ["--out", str(toy_files["dir"] / "p.txt")]
        else:
            args += ["--levels", "1", "--outdir", str(toy_files["dir"] / "r")]
        assert main([command, *args]) == 2
        assert "tau" in capsys.readouterr().err

    @pytest.mark.parametrize("command, extra", [
        ("partition", ["--method", "cosub", "--impl", "sc", "--out", "p.txt"]),
        ("analyze", ["--levels", "1", "--outdir", "r"]),
        ("compress", ["--levels", "1", "--keep-hp", "1", "--out", "c.csv"]),
        ("denoise", ["--levels", "1", "--sigma", "0.1", "--out", "d.csv"]),
        ("atoms", ["--levels", "1", "--out", "a.csv"]),
    ])
    def test_negative_seed(self, toy_files, capsys, monkeypatch, command, extra):
        monkeypatch.chdir(toy_files["dir"])
        code = main([command, "--graph", str(toy_files["graph"]),
                     "--signal", str(toy_files["signal"]), "--seed", "-1", *extra])
        assert code == 2
        assert "seed must be non-negative, got -1" in capsys.readouterr().err
        assert not (toy_files["dir"] / extra[-1]).exists()

    def test_metrics_nothing_kept(self, toy_files, capsys):
        code = main(["metrics", "--reference", str(toy_files["signal"]),
                     "--estimate", str(toy_files["signal"]),
                     "--kept-lp", "0", "--kept-hp", "0"])
        assert code == 2
        assert "kept" in capsys.readouterr().err

    @pytest.mark.parametrize("counts", [["--kept-lp", "-1", "--kept-hp", "0"],
                                        ["--kept-lp", "2", "--kept-hp", "-3"]])
    def test_metrics_negative_count_before_reading(self, tmp_path, capsys, counts):
        missing = str(tmp_path / "missing.csv")
        code = main(["metrics", "--reference", missing, "--estimate", missing, *counts])
        assert code == 2
        err = capsys.readouterr().err
        assert "--kept-lp/--kept-hp: kept coefficient counts must be non-negative" in err
        assert "cannot read" not in err

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_denoise_non_finite_sigma(self, toy_files, capsys, sigma):
        out = toy_files["dir"] / "drec.csv"
        code = main(["denoise", "--graph", str(toy_files["graph"]),
                     "--signal", str(toy_files["signal"]),
                     "--partition", str(toy_files["p1"]),
                     "--levels", "1", "--sigma", sigma, "--out", str(out)])
        assert code == 2
        assert "--sigma" in capsys.readouterr().err
        assert not out.exists()

    OUTPUTS = {"partition": ["--out", "p.txt"], "analyze": ["--outdir", "r"],
               "compress": ["--keep-hp", "1", "--out", "c.csv"],
               "denoise": ["--sigma", "0.1", "--out", "d.csv"], "atoms": ["--out", "a.csv"]}

    @pytest.mark.parametrize("command, invalid, message", [
        *[(c, ["--levels", "0"], "--levels must be at least 1")
          for c in ("compress", "denoise", "atoms")],
        ("compress", ["--keep-hp", "abc"], "invalid --keep-hp value 'abc'"),
        ("denoise", ["--sigma", "nan"], "--sigma must be finite"),
        *[(c, ["--seed", "-1"], "seed must be non-negative, got -1")
          for c in ("partition", "analyze", "compress", "denoise", "atoms")],
        *[(c, ["--impl", "lc", "--tau", "1"], "tau must be at least 2")
          for c in ("partition", "analyze")],
        *[(c, ["--method", "edaw"], "--method edaw requires --signal")
          for c in ("atoms", "partition")],
    ])
    def test_reported_before_any_file_is_read(self, tmp_path, capsys, monkeypatch,
                                              command, invalid, message):
        """Neither the graph nor the signal exists: an invalid argument is
        still what is reported, so it was checked before either was read."""
        monkeypatch.chdir(tmp_path)
        args = [command, "--graph", "missing.tsv", *self.OUTPUTS[command]]
        args += (["--method", "cosub", "--impl", "sc"] if command == "partition"
                 else ["--levels", "1"])
        if "edaw" not in invalid:
            args += ["--signal", "missing.csv"]
        assert main([*args, *invalid]) == 2
        err = capsys.readouterr().err
        assert message in err and "cannot read" not in err
        assert list(tmp_path.iterdir()) == []


class TestRoundTripProperty:
    """`analyze` then `synthesize` through the files: `FLOAT_FMT` round-trips
    every double, so the files hold the in-memory pyramid bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(graph=weighted_graphs(), impl=st.sampled_from(["sc", "lc"]),
           norm=st.sampled_from(["l1", "l2"]), seed=st.integers(0, 2**32 - 1))
    def test_files_match_the_library(self, graph, impl, norm, seed):
        x = np.random.default_rng(seed).normal(size=graph.n)
        pyramid = analyze_cascade(graph, x, PartitionConfig(impl, tau=8, seed=3),
                                  p=1 if norm == "l1" else 2, max_levels=3)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            fileio.write_edge_list(graph, tmp / "g.tsv")
            fileio.write_signal(x, tmp / "x.csv")
            assert main(["analyze", "--graph", str(tmp / "g.tsv"), "--signal", str(tmp / "x.csv"),
                         "--impl", impl, "--tau", "8", "--seed", "3", "--levels", "3",
                         "--norm", norm, "--outdir", str(tmp / "r")]) == 0
            manifest = fileio.read_manifest(tmp / "r" / "manifest.json")
            assert len(manifest["levels"]) == pyramid.num_levels
            for entry, level in zip(manifest["levels"], pyramid.levels):
                written = [fileio.read_signal(tmp / "r" / name) for name in entry["channels"]]
                assert [c.tobytes() for c in written] == [c.tobytes() for c in level.channels]
            assert main(["synthesize", "--manifest", str(tmp / "r" / "manifest.json"),
                         "--out", str(tmp / "rec.csv")]) == 0
            rec = fileio.read_signal(tmp / "rec.csv")
        assert rec.tobytes() == synthesize_cascade(pyramid).tobytes()


class TestOtherCommands:
    def test_atoms_contains_second_level_detail(self, toy_files, capsys):
        out = toy_files["dir"] / "atoms.csv"
        code = main(["atoms", "--graph", str(toy_files["graph"]),
                     "--partition", str(toy_files["p1"]),
                     "--partition", str(toy_files["p2"]),
                     "--levels", "2", "--norm", "l1", "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        block = [float(r[4]) for r in rows if r[0] == "2" and r[1] == "2"]
        assert np.allclose(block, [1 / 6, 1 / 6, 1 / 6, -1 / 4, -1 / 4], atol=1e-12)

    def test_atoms_csv_is_the_oracles(self, tmp_path, capsys):
        graph = sbm_graph([14, 10, 8, 6, 5, 3], 0.6, 0.05, 4)
        fileio.write_edge_list(graph, tmp_path / "g.tsv")
        out = tmp_path / "atoms.csv"
        assert main(["atoms", "--graph", str(tmp_path / "g.tsv"), "--method", "cosub",
                     "--impl", "sc", "--levels", "3", "--out", str(out)]) == 0
        pyramid = analyze_cascade(graph, np.zeros(graph.n), PartitionConfig("sc"),
                                  p=1, max_levels=3)
        assert [level.operators.n_channels for level in pyramid.levels] == [13, 4, 2]
        blocks = list(atoms_csv_oracle.pyramid_blocks(pyramid, compute_atoms(pyramid)))
        assert out.read_bytes() == atoms_csv_oracle.atoms_csv_text(blocks).encode()

    def test_atoms_csv_memory_on_a_96_grid_in_tiles(self, tmp_path, capsys):
        """A 96 x 96 grid in 8 x 8, then 4 x 4 tiles: 732,672 rows, 25 MB of
        text.  Each channel's rows are formatted on their own, so the peak
        stays under 80 MB; formatting every row before joining any peaks
        above 120 MB."""
        def tiles(side, tile):
            r, c = np.divmod(np.arange(side * side), side)
            return SubgraphPartition.from_labels((r // tile) * (side // tile) + c // tile + 1)

        fileio.write_edge_list(grid_graph(96, 96), tmp_path / "g.tsv")
        fileio.write_partition(tiles(96, 8), tmp_path / "p1.txt")
        fileio.write_partition(tiles(12, 4), tmp_path / "p2.txt")
        out = tmp_path / "atoms.csv"
        tracemalloc.start()
        try:
            code = main(["atoms", "--graph", str(tmp_path / "g.tsv"),
                         "--partition", str(tmp_path / "p1.txt"),
                         "--partition", str(tmp_path / "p2.txt"),
                         "--levels", "2", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        with out.open("rb") as f:
            assert sum(1 for _ in f) == 1 + 732_672
        assert peak < 80_000_000

    def test_metrics_identical_files_inf(self, toy_files, capsys):
        code = main(["metrics", "--reference", str(toy_files["signal"]),
                     "--estimate", str(toy_files["signal"])])
        assert code == 0
        printed = capsys.readouterr().out
        assert "psnr: inf" in printed
        assert "snr: inf" in printed

    def test_metrics_empty_signal_is_usage_error(self, toy_files, capsys):
        empty = toy_files["dir"] / "empty.csv"
        empty.write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["metrics", "--reference", str(toy_files["signal"]),
                         "--estimate", str(empty)])
        assert code == 2
        assert f"{empty}: no signal values" in capsys.readouterr().err

    def test_metrics_zero_reference(self, toy_files, capsys):
        zero = toy_files["dir"] / "zero.csv"
        fileio.write_signal(np.zeros(5), zero)
        code = main(["metrics", "--reference", str(zero),
                     "--estimate", str(toy_files["signal"])])
        assert code == 3
        assert "PSNR needs a nonzero reference signal" in capsys.readouterr().err

    def test_metrics_with_ratio(self, toy_files, capsys):
        code = main(["metrics", "--reference", str(toy_files["signal"]),
                     "--estimate", str(toy_files["signal"]),
                     "--kept-lp", "2", "--kept-hp", "3"])
        assert code == 0
        assert "ratio: 1.0" in capsys.readouterr().out

    def test_compress_keep_all_is_lossless(self, toy_files, capsys):
        out = toy_files["dir"] / "crec.csv"
        code = main(["compress", "--graph", str(toy_files["graph"]),
                     "--signal", str(toy_files["signal"]),
                     "--partition", str(toy_files["p1"]),
                     "--levels", "1", "--norm", "l1",
                     "--keep-hp", "100%", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "psnr: inf" in printed
        assert np.array_equal(fileio.read_signal(out),
                              fileio.read_signal(toy_files["signal"]))

    def test_denoise_runs(self, toy_files, capsys):
        out = toy_files["dir"] / "drec.csv"
        code = main(["denoise", "--graph", str(toy_files["graph"]),
                     "--signal", str(toy_files["signal"]),
                     "--partition", str(toy_files["p1"]),
                     "--levels", "1", "--sigma", "0.0", "--out", str(out)])
        assert code == 0
        assert np.abs(fileio.read_signal(out)
                      - fileio.read_signal(toy_files["signal"])).max() < 1e-10


@pytest.fixture
def sbm_files(tmp_path):
    """A 48-node SBM (6 blocks of 8) and a noisy blockwise-constant signal."""
    graph = sbm_graph([8] * 6, 0.8, 0.1, 3)
    rng = np.random.default_rng(3)
    x = np.repeat(rng.normal(size=6), 8) + 0.1 * rng.normal(size=48)
    fileio.write_edge_list(graph, tmp_path / "g.tsv")
    fileio.write_signal(x, tmp_path / "x.csv")
    return {"graph": tmp_path / "g.tsv", "signal": tmp_path / "x.csv", "dir": tmp_path}


class TestCompressCommand:
    CONFIG = PartitionConfig("sc", seed=4)

    def run_compress(self, files, keep):
        out = files["dir"] / "compressed.csv"
        code = main(["compress", "--graph", str(files["graph"]),
                     "--signal", str(files["signal"]), "--impl", "sc", "--seed", "4",
                     "--levels", "3", "--norm", "l1", "--keep-hp", keep, "--out", str(out)])
        return code, out

    # sha256 of compressed.csv and the printed report, pinned from a run of
    # the version that built the cascade twice per compress.  `0%`, `10%` and
    # `3` were re-taken when non-generic multiplets left the per-vector
    # search; their channels moved by at most 2.2e-16.
    PINNED = {
        "10%": ("c7ed86dabc72de918c40932ef949f1eb2ede21591d3cd412fc0c0540678cee57",
                "level: 1\nkept_lp: 6\nkept_hp: 4\nratio: 4.8000\npsnr: 32.121065308478634\n"),
        "3": ("f093e0ece86456bb66a713e2cc4c570b4e42eb3b91cc1b6f715f352a7437862f",
              "level: 1\nkept_lp: 6\nkept_hp: 3\nratio: 5.3333\npsnr: 31.629550321095657\n"),
        "0%": ("79d48790e52666c38068ff6d8ee6fd8e39b76a0c4370ae2e900d5e854db0b41f",
               "level: 1\nkept_lp: 6\nkept_hp: 0\nratio: 8.0000\npsnr: 28.717817052613412\n"),
        "100%": ("128a029cc7f1e290c779dd8551795bf9bf45c04f73c07c69534c4bfb94af2d1d",
                 "level: 1\nkept_lp: 6\nkept_hp: 42\nratio: 1.0000\npsnr: inf\n"),
    }

    @pytest.mark.parametrize("keep", sorted(PINNED))
    def test_matches_pinned_run(self, sbm_files, capsys, keep):
        code, out = self.run_compress(sbm_files, keep)
        assert code == 0
        digest, report = self.PINNED[keep]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        assert capsys.readouterr().out == report

    def test_keep_none_drops_every_detail(self, sbm_files, capsys):
        code, out = self.run_compress(sbm_files, "0%")
        assert code == 0
        assert "kept_hp: 0\n" in capsys.readouterr().out
        x = fileio.read_signal(sbm_files["signal"])
        graph = fileio.read_edge_list(sbm_files["graph"])
        expected = best_level_nla(graph, x, self.CONFIG, 0, p=1, max_levels=3)
        pyramid = analyze_cascade(graph, x, self.CONFIG, p=1, max_levels=3)
        best = pyramid.truncated(expected.level)
        assert np.array_equal(fileio.read_signal(out),
                              synthesize_cascade(nla_compress(best, 0)))

    def test_keep_all_is_lossless_on_a_cascade(self, sbm_files, capsys):
        code, out = self.run_compress(sbm_files, "100%")
        assert code == 0
        printed = capsys.readouterr().out
        assert "psnr: inf" in printed
        graph = fileio.read_edge_list(sbm_files["graph"])
        x = fileio.read_signal(sbm_files["signal"])
        pyramid = analyze_cascade(graph, x, self.CONFIG, p=1, max_levels=3)
        assert pyramid.num_levels >= 2
        assert f"kept_hp: {pyramid.truncated(1).detail_counts()}\n" in printed
        assert out.read_bytes() == sbm_files["signal"].read_bytes()

    def test_negative_count_is_usage_error(self, sbm_files, capsys):
        code, _ = self.run_compress(sbm_files, "-1")
        assert code == 2
        assert "non-negative" in capsys.readouterr().err


@pytest.fixture
def uneven_files(tmp_path):
    """A 35-node SBM with blocks of 3, 5, 8, 2, 6, 4 and 7 nodes, so that the
    level-1 subgraphs differ in size and channels hold different counts."""
    sizes = [3, 5, 8, 2, 6, 4, 7]
    graph = sbm_graph(sizes, 0.8, 0.08, 3)
    rng = np.random.default_rng(3)
    x = np.repeat(rng.normal(size=7), sizes) + 0.1 * rng.normal(size=35)
    fileio.write_edge_list(graph, tmp_path / "g.tsv")
    fileio.write_signal(x, tmp_path / "x.csv")
    return {"graph": tmp_path / "g.tsv", "signal": tmp_path / "x.csv", "dir": tmp_path}


class TestPinnedArtifacts:
    """sha256 of every `analyze` artifact except the manifest (which echoes
    paths), and of `atoms` CSVs.  The partitions come from the queue-driven
    local moves; with the same partitions, the version that placed each
    coefficient with per-label position tables wrote the same `analyze`
    artifacts.

    `ATOMS_DENSE` pins the earlier atoms format, which wrote every node of
    every atom, as that version wrote it; `ATOMS` pins the current one, which
    writes each atom's support only.  Expanding the current file back to the
    dense table must reproduce the old pin, so the values themselves stay
    checked.

    Level-1 channel 7 and the atoms of both runs were re-taken when
    non-generic multiplets left the per-vector search: that channel moved by
    at most 2.8e-17."""

    RUNS = {
        "l1-sc": ["--impl", "sc", "--seed", "4", "--levels", "3", "--norm", "l1"],
        "l2-lc": ["--impl", "lc", "--tau", "12", "--seed", "4", "--levels", "3",
                  "--norm", "l2"],
    }
    ANALYZE = {
        "l1-sc": {
        "final_approximation.csv": "60b9b35b0a092e0eb32a4bc9fd478b650b727c521c04f75e286e4be5e0723fe9",
        "level1_a_ext.tsv": "fe62cc8373eb22ae8d5b79fa047e6d0fe9429ef6f662b0dcce502614285ea360",
        "level1_a_int.tsv": "115958347e2b248d902e9a1630ee54e1dc4d557b02723b3d07a2c544126024e7",
        "level1_channel_01.csv": "ea96ee023a60d3bc4ca2d07b00ed9f4546eae5ad3a3b94c3cff7ff9e031d22ed",
        "level1_channel_02.csv": "1e4111ba975200d8b83955632fc9600948e25942f4a3f0548a71da990f016403",
        "level1_channel_03.csv": "8f55a7858171eaea7a8cb607b35a70132d84a60889bb21ab0dec39674b872bbf",
        "level1_channel_04.csv": "755df0bf817482e923f8589d6a5799ad915919a8c52a7eb87c4fa876c3f106c5",
        "level1_channel_05.csv": "e3d555dbe3fe8d6e8153bb4c61107a6ba47c0589578674a0f5b23b09fe88b85e",
        "level1_channel_06.csv": "a3cae77ba62fad5de9db5b58d33d20cb5144342ddb5b68af37adcb76fb2f1d56",
        "level1_channel_07.csv": "6a3fc6ecbba65999730418c8d57c93f140ae2eacc056f702ac4061c59100fe60",
        "level1_channel_08.csv": "95d08fc7b1c73eb817dddfef9add0b70b4667178bb8fa289245244b45b848da1",
        "level1_channel_09.csv": "3104a38bed6203d30b2d30316d2e69720fbe4b2ac6ce3f6440005cc5716e6111",
        "level1_channel_10.csv": "7d54f939c68ece3296c5dc1c29950bd24f4fe1576ae75571192253346aaeb2f9",
        "level1_channel_11.csv": "34e9d5092ed519b8aedd0c33a27a5bfe2a61c167aa625f1982c9664b621b5528",
        "level1_channel_12.csv": "70ca7d38d767a5582c8fc75f5cbbbc8c11347d2e715da78355f26a667d9ead60",
        "level1_partition.txt": "c536bdd22bfdf830df30d132561d3bb4e35299dac482ce24cc92e52b33e20a82",
        "level2_a_ext.tsv": "3fdeee10cb2d2c513004126bc816d9db949e22976a007ddee122b7888ac28ea2",
        "level2_a_int.tsv": "133e9a64a6ce3091703e9ab2f87f3740b5640892e815087cf8e84aed260ac509",
        "level2_channel_01.csv": "60b9b35b0a092e0eb32a4bc9fd478b650b727c521c04f75e286e4be5e0723fe9",
        "level2_channel_02.csv": "3ea38e95a566120c740dfbb9f611bea69c797ea5d732c8ee8aa070357337ebb0",
        "level2_channel_03.csv": "ee657172a1dcd65724e4ff0c08306d60436b5403fa3b171980e4f685fa5960cb",
        "level2_channel_04.csv": "1bb79ea7060c126fc951ea3caf119098830b85adc649958c9b2fcc83aa908796",
        "level2_channel_05.csv": "ce361e7e880ea6b2c827679f444209212eaa6a9cffea754faba8482e178963d0",
        "level2_partition.txt": "189f5286a1d4efad375b47ac2e01252fd71434df0ab84a6a2210fddcc77fe51a",
        },
        "l2-lc": {
        "final_approximation.csv": "00d80dca87fb775a608b87ba3774eae1f38b6ad606f8af2aae0a3b3cf5d9ed96",
        "level1_a_ext.tsv": "fe62cc8373eb22ae8d5b79fa047e6d0fe9429ef6f662b0dcce502614285ea360",
        "level1_a_int.tsv": "115958347e2b248d902e9a1630ee54e1dc4d557b02723b3d07a2c544126024e7",
        "level1_channel_01.csv": "80dd6ddacbe2558d6b379fa717551b709dab67416a3bd577a2554ef52ccfda2a",
        "level1_channel_02.csv": "a4c89fb6208da3e9a0a84bc036092afb0b75d272307647725b47fba6bc71cca5",
        "level1_channel_03.csv": "8bedca78d17f017c801dded04d0b203a88bba8f0a2c758c99b5de3017203610c",
        "level1_channel_04.csv": "b8528dd4c1ac682042f49765078e6826c065b68d85e45285eb5ba2e49358761f",
        "level1_channel_05.csv": "02e0e415c30a53edc7223eaf5b0bfa7a51b7585a59b95c0f0dfbf2a95fdb7ab2",
        "level1_channel_06.csv": "187c6b4fa5391fd0c112c232e2cdc36488477be158bbc2122ac1887d1f12ccca",
        "level1_channel_07.csv": "663ee35c998141aa7c11e62167aa68c4cfea81f30673f6b91f3dae6b105fa6cb",
        "level1_channel_08.csv": "e7a9a17e5a92cd705c49580d8af0ceb9f6d53d9cbb235933fa085cd428387ee7",
        "level1_channel_09.csv": "49f63d5a6f5313819b82b446da58294979ecb5afbe4667602627160b63c65045",
        "level1_channel_10.csv": "cf8775c46550a857fc6ae5df4a56c65f1eabc7dc8a6e58e2d341cf3d3e224a06",
        "level1_channel_11.csv": "16fcc9243315222d75d6ec7733572c0b1bbef9f9dad4832cb6faf7c11b84138e",
        "level1_channel_12.csv": "80073ba53c5bc7b86b30f01b8cb6b2aa6e63fa7636c5955667f6a2309dc60e19",
        "level1_partition.txt": "c536bdd22bfdf830df30d132561d3bb4e35299dac482ce24cc92e52b33e20a82",
        "level2_a_ext.tsv": "3fdeee10cb2d2c513004126bc816d9db949e22976a007ddee122b7888ac28ea2",
        "level2_a_int.tsv": "133e9a64a6ce3091703e9ab2f87f3740b5640892e815087cf8e84aed260ac509",
        "level2_channel_01.csv": "00d80dca87fb775a608b87ba3774eae1f38b6ad606f8af2aae0a3b3cf5d9ed96",
        "level2_channel_02.csv": "bc0fd1cefdfcc3933cbc375836f4d6421e3ae824abe96e3646b0e41a9329e911",
        "level2_channel_03.csv": "dc127f2654689ef954d472728124e0f481a7640bbfff992e511908faf85fab98",
        "level2_channel_04.csv": "44ce9427bd0f24111664145a5bd716a6ac40f42d2a222a7a0e87b836c161cf29",
        "level2_channel_05.csv": "fc8d410043089513e3026d58d97b589684fdd591d5d4c54d00b3856941d90184",
        "level2_partition.txt": "189f5286a1d4efad375b47ac2e01252fd71434df0ab84a6a2210fddcc77fe51a",
        },
    }
    ATOMS = {
        "l1-sc": "9daf7e373aeacfae7b6e590bb35d0466bda7416c457147662dcbd2c30ffcde37",
        "l2-lc": "09817d83409aae445c5c917a2e4ae1e5e0b14c8f7297c536223639d088ad8a18",
    }
    ATOMS_DENSE = {
        "l1-sc": "f32c5a6ff72f855a85eba062dd037ba68d7f574bcef4c26fb571d7a2254b728f",
        "l2-lc": "9a013ea191a639a9f49f1c93f47b7ef9144945ebde426bc2f89ea0c984ce475b",
    }

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_analyze_artifacts(self, uneven_files, run):
        outdir = uneven_files["dir"] / run
        assert main(["analyze", "--graph", str(uneven_files["graph"]),
                     "--signal", str(uneven_files["signal"]), *self.RUNS[run],
                     "--outdir", str(outdir)]) == 0
        got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in outdir.iterdir() if f.name != "manifest.json"}
        assert got == self.ANALYZE[run]

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_atoms_csv(self, uneven_files, run):
        out = uneven_files["dir"] / f"atoms-{run}.csv"
        assert main(["atoms", "--graph", str(uneven_files["graph"]), *self.RUNS[run],
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.ATOMS[run]

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_atoms_csv_expands_to_dense_table(self, uneven_files, run):
        out = uneven_files["dir"] / f"atoms-{run}.csv"
        assert main(["atoms", "--graph", str(uneven_files["graph"]), *self.RUNS[run],
                     "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        atoms: dict = {}  # (level, channel, subgraph) -> {node: value text}
        for row in rows:
            level, channel, label, node, value = row.split(",")
            support = atoms.setdefault((level, channel, label), {})
            assert not support or int(node) > max(support), "nodes must ascend"
            support[int(node)] = value
        n = fileio.read_edge_list(uneven_files["graph"]).n
        dense = [header] + [f"{level},{channel},{label},{node},{support.get(node, '0')}"
                            for (level, channel, label), support in atoms.items()
                            for node in range(n)]
        text = "\n".join(dense) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == self.ATOMS_DENSE[run]
        assert len(rows) < len(dense) - 1


def test_parser_is_built_once_and_keeps_no_state(toy_files, capsys):
    assert build_parser() is build_parser()
    analyze = ["analyze", "--graph", "g", "--signal", "x", "--levels", "1", "--outdir", "o"]
    first = build_parser().parse_args([*analyze, "--partition", "a", "--partition", "b"])
    second = build_parser().parse_args(analyze)
    third = build_parser().parse_args([*analyze, "--partition", "c"])
    assert first.partition == ["a", "b"] and second.partition is None
    assert third.partition == ["c"]
    manifest = toy_files["dir"] / "r" / "manifest.json"
    written = []
    for _ in range(2):
        assert main(["analyze", "--graph", str(toy_files["graph"]),
                     "--signal", str(toy_files["signal"]), "--partition", str(toy_files["p1"]),
                     "--levels", "1", "--outdir", str(toy_files["dir"] / "r")]) == 0
        written.append(manifest.read_bytes())
    assert written[0] == written[1]
    fixed = json.loads(written[1])["partition_config"]["fixed_partitions"]
    assert fixed == [str(toy_files["p1"])]


CASCADE_OPTIONS = {
    "--graph": ("Store", True, None, None, None),
    "--levels": ("Store", True, None, None, int),
    "--norm": ("Store", False, "l1", ("l1", "l2"), None),
    "--partition": ("Append", False, None, None, None),
    "--zero-based-labels": ("StoreTrue", False, False, None, None),
    "--method": ("Store", False, "cosub", ("cosub", "edaw"), None),
    "--impl": ("Store", False, "sc", ("sc", "lc"), None),
    "--tau": ("Store", False, 1000, None, int),
    "--seed": ("Store", False, 0, None, int),
    "--signal": ("Store", True, None, None, None),
}
OUT = {"--out": ("Store", True, None, None, None)}
PARSER_INTERFACE = {
    "partition": ("cmd_partition", {
        "--graph": ("Store", True, None, None, None),
        "--signal": ("Store", False, None, None, None),
        **OUT,
        "--zero-based-labels": ("StoreTrue", False, False, None, None),
        "--method": ("Store", True, None, ("cosub", "edaw"), None),
        "--impl": ("Store", True, None, ("sc", "lc"), None),
        "--tau": ("Store", False, 1000, None, int),
        "--seed": ("Store", False, 0, None, int)}),
    "analyze": ("cmd_analyze", {**CASCADE_OPTIONS,
                                "--outdir": ("Store", True, None, None, None)}),
    "synthesize": ("cmd_synthesize", {
        "--manifest": ("Store", True, None, None, None), **OUT,
        "--reference": ("Store", False, None, None, None)}),
    "compress": ("cmd_compress", {**CASCADE_OPTIONS, **OUT,
                                  "--keep-hp": ("Store", True, None, None, None)}),
    "denoise": ("cmd_denoise", {**CASCADE_OPTIONS, **OUT,
                                "--norm": ("Store", False, "l2", ("l1", "l2"), None),
                                "--sigma": ("Store", True, None, None, float)}),
    "atoms": ("cmd_atoms", {**CASCADE_OPTIONS, **OUT,
                            "--signal": ("Store", False, None, None, None)}),
    "metrics": ("cmd_metrics", {
        "--reference": ("Store", True, None, None, None),
        "--estimate": ("Store", True, None, None, None),
        "--kept-lp": ("Store", False, None, None, int),
        "--kept-hp": ("Store", False, None, None, int)}),
}


def test_parser_interface_is_pinned():
    """Every subcommand's options with their action, `required`, `default`,
    `choices` and `type`, and the function each subcommand runs."""
    subparsers = next(a for a in build_parser()._actions
                      if a.choices and isinstance(a.choices, dict))
    found = {}
    for name, cmd in subparsers.choices.items():
        options = {a.option_strings[-1]: (re.sub(r"^_|Action$", "", type(a).__name__),
                                          a.required, a.default, a.choices, a.type)
                   for a in cmd._actions if a.dest != "help"}
        found[name] = (cmd.get_default("func").__name__, options)
    assert found == PARSER_INTERFACE
