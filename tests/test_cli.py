"""File formats and the command-line pipeline."""

import hashlib
import json
import re
import sys
import warnings

import numpy as np
import pytest

from conftest import edge_tuples
from cosub import (PartitionConfig, SubgraphPartition, WeightedGraph, analyze_cascade,
                   best_level_nla, fileio, haar_partition, line_graph, nla_compress,
                   sbm_graph, synthesize_cascade)
from cosub.cli import build_parser, main


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
        they formatted numpy scalars one by one."""
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
            new(*args[:1], tmp_path / f"new{k}", *args[1:])
            old(*args[:1], tmp_path / f"old{k}", *args[1:])
            assert (tmp_path / f"new{k}").read_bytes() == (tmp_path / f"old{k}").read_bytes()
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
        assert "max abs deviation" in capsys.readouterr().out
        assert np.abs(fileio.read_signal(rec)
                      - fileio.read_signal(toy_files["signal"])).max() < 1e-9

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

    def test_missing_channel_file_fails(self, toy_files, capsys):
        outdir = toy_files["dir"] / "run"
        assert self.run_analyze(toy_files, outdir) == 0
        (outdir / "level1_channel_02.csv").unlink()
        code = main(["synthesize", "--manifest", str(outdir / "manifest.json"),
                     "--out", str(toy_files["dir"] / "rec.csv")])
        assert code == 2
        assert "missing" in capsys.readouterr().err

    def test_zeroed_details_reconstruct_blockwise_constant(self, toy_files, tmp_path):
        const_signal = tmp_path / "const.csv"
        fileio.write_signal([2.0, 2.0, 2.0, -3.0, -3.0], const_signal)
        outdir = tmp_path / "run"
        assert main(["analyze", "--graph", str(toy_files["graph"]),
                     "--signal", str(const_signal),
                     "--partition", str(toy_files["p1"]),
                     "--levels", "1", "--norm", "l1",
                     "--outdir", str(outdir)]) == 0
        for name in ("level1_channel_02.csv", "level1_channel_03.csv"):
            values = fileio.read_signal(outdir / name)
            fileio.write_signal(np.zeros_like(values), outdir / name)
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
        code = main(["synthesize", "--manifest", str(outdir / "manifest.json"),
                     "--out", str(toy_files["dir"] / "rec.csv")])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    def test_garbled_partition_artifact_is_usage_error(self, toy_files, capsys):
        outdir = toy_files["dir"] / "run"
        assert self.run_analyze(toy_files, outdir) == 0
        (outdir / "level1_partition.txt").write_text("1\n1\nx\n2\n2\n")
        code = main(["synthesize", "--manifest", str(outdir / "manifest.json"),
                     "--out", str(toy_files["dir"] / "rec.csv")])
        assert code == 2
        assert "level1_partition.txt" in capsys.readouterr().err

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
        assert "disconnected" in capsys.readouterr().err

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
    # the version that built the cascade twice per compress.
    PINNED = {
        "10%": ("8eb2f224f70812e2037fbb64d24a611a615253874d2764c6232d2c618aebbf95",
                "level: 1\nkept_lp: 6\nkept_hp: 4\nratio: 4.8000\npsnr: 32.12106530847863\n"),
        "3": ("14da84e913906bf4bca3a2cbd6971db8a0f9bc1b99f75ed63f00e1f960a2350e",
              "level: 1\nkept_lp: 6\nkept_hp: 3\nratio: 5.3333\npsnr: 31.629550321095653\n"),
        "0%": ("be8e85d785952a6c3ec2c67e2cfddc3b4d7576c028177e3e198288370015a788",
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
    checked."""

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
        "level1_channel_07.csv": "dfe81013c474c4d2b9e87b608fdfdc6973d63cc2a1e3cfd00d854485308f7608",
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
        "level1_channel_07.csv": "70695db0716e9a474af18af400f3b36c2bb1f179f8f2b05b7550a8446d4a8db2",
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
        "l1-sc": "70fd954a49ee3ce2b91c978ba61af278656c0bbf2865efe22d09567cbcd2e63d",
        "l2-lc": "09298118219c008df08f46f03bffa9352e704d87b540466f21801fa9da8a9c95",
    }
    ATOMS_DENSE = {
        "l1-sc": "ec710df93a602ae98e099b424a09bbcaaae4053439e710a8d07cffb2ef943c64",
        "l2-lc": "6a1101fc56a3f52e9322f2ca6f554b6f6b8e544e88c1a7b76e9950145bb0ad17",
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
