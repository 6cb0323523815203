"""File formats and the command-line pipeline."""

import hashlib
import json

import numpy as np
import pytest

from cosub import (PartitionConfig, SubgraphPartition, WeightedGraph, analyze_cascade,
                   best_level_nla, fileio, nla_compress, sbm_graph, synthesize_cascade)
from cosub.cli import main


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


class TestFileFormats:
    def test_edge_list_round_trip(self, tmp_path, toy_graph):
        path = tmp_path / "g.tsv"
        fileio.write_edge_list(toy_graph, path)
        back = fileio.read_edge_list(path)
        assert back.n == toy_graph.n
        assert list(back.edges()) == list(toy_graph.edges())

    def test_edge_list_comments_and_default_weight(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("# a comment\n0\t1\n1\t2\t2.5\n")
        g = fileio.read_edge_list(path)
        assert g.n == 3
        assert list(g.edges()) == [(0, 1, 1.0), (1, 2, 2.5)]

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

    def test_partition_zero_based_flag(self, tmp_path):
        path = tmp_path / "p.txt"
        part = SubgraphPartition.from_labels([1, 1, 2])
        fileio.write_partition(part, path, zero_based=True)
        assert path.read_text().split() == ["0", "0", "1"]
        back = fileio.read_partition(path, zero_based=True)
        assert np.array_equal(back.labels, part.labels)


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

    def test_second_level_size_mismatch_is_numeric_failure(self, toy_files, tmp_path):
        bad2 = tmp_path / "bad2.txt"
        bad2.write_text("1\n1\n1\n")  # level-2 graph has 2 nodes, not 3
        code = main(["analyze", "--graph", str(toy_files["graph"]),
                     "--signal", str(toy_files["signal"]),
                     "--partition", str(toy_files["p1"]),
                     "--partition", str(bad2), "--levels", "2",
                     "--outdir", str(tmp_path / "r")])
        assert code == 3

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

    def test_unknown_norm_exponent_is_usage_error(self, toy_files, capsys):
        def tamper(outdir, manifest):
            manifest["p"] = 3
        assert self._tamper_and_synthesize(toy_files, tamper) == 2
        assert "p must be 1 or 2" in capsys.readouterr().err

    def test_final_approximation_length_mismatch_is_usage_error(self, toy_files, capsys):
        def tamper(outdir, manifest):
            (outdir / "final_approximation.csv").write_text("1.0\n2.0\n")
        assert self._tamper_and_synthesize(toy_files, tamper) == 2
        assert "level 2 is inconsistent: channel 1 has length 2" in capsys.readouterr().err

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
    paths), pinned from a run of the version that placed each coefficient
    with per-label position tables, and of `atoms` CSVs.

    `ATOMS_DENSE` pins the earlier atoms format, which wrote every node of
    every atom; `ATOMS` pins the current one, which writes each atom's
    support only.  Expanding the current file back to the dense table must
    reproduce the old pin, so the values themselves stay checked."""

    RUNS = {
        "l1-sc": ["--impl", "sc", "--seed", "4", "--levels", "3", "--norm", "l1"],
        "l2-lc": ["--impl", "lc", "--tau", "12", "--seed", "4", "--levels", "3",
                  "--norm", "l2"],
    }
    ANALYZE = {
        "l1-sc": {
        "final_approximation.csv": "cf5a1a4d37ead0fc4b5117e14f446b524b3ee9cbbf51dc37dc841893b1cde05c",
        "level1_a_ext.tsv": "7be3212f3cbe08f1214fcae2b84064b44984953c9eab3e2ed33819a8897b9ec0",
        "level1_a_int.tsv": "da6b368f5ed96070c621b7cb7757afed9c120d3af78502a044707f4f8c2faeed",
        "level1_channel_01.csv": "d508bd07274548eeb1f677e8243bb68694bfcb63d06d8e00db79a7634393c78a",
        "level1_channel_02.csv": "dee43d8ba4af7f64ad9ce6c36c907ab65a0b4252ed16e531d3a82cda3af50d8e",
        "level1_channel_03.csv": "1bcaf47fc40f7f73a9c96f727c3d44df51275f658aaeb0e0cac1d6353a19e423",
        "level1_channel_04.csv": "dd436ab2ccce14f687774d41c9dc924af08df43d6d390ad7c06b72c35328b859",
        "level1_channel_05.csv": "6e81dd079004307c01f632f77c5401a6d146a223f61590a4efb43fb23ef81b22",
        "level1_channel_06.csv": "85d144c9190f4206d42ecb092c6419caf0ee768053f37042690abcd32213e40f",
        "level1_channel_07.csv": "8308fc90a645c63e3c51c5b76009e0b71c1d471d1a1d2d44429089723d274664",
        "level1_channel_08.csv": "72c3641067fc2a7e7e4266e2516b56518120067321314577bbbfdfa3b9c0fa13",
        "level1_channel_09.csv": "2822d93f64f92148e0ff23dac39cc9dbb6cea0248723e3433d9f192148cfff70",
        "level1_channel_10.csv": "f58de55b4c2278930d45b26516101ab29f7f2ce6225e613b5e689256b04eabc4",
        "level1_partition.txt": "0c169b068a3e05a96157e5ab42758c7c37b496e11b85aa38a07a8d3a9b45c4d1",
        "level2_a_ext.tsv": "3fdeee10cb2d2c513004126bc816d9db949e22976a007ddee122b7888ac28ea2",
        "level2_a_int.tsv": "15458510dc05af513e5dab6594e97b6571181111b89ab37f9ad55855c9dd10c4",
        "level2_channel_01.csv": "cf5a1a4d37ead0fc4b5117e14f446b524b3ee9cbbf51dc37dc841893b1cde05c",
        "level2_channel_02.csv": "bb18bd8b7e341a3e47b5ad91f74b7fd50620a0da6419df3bd12f50e636e9496a",
        "level2_channel_03.csv": "9fa6dd267490a02b831f046fd32de950f5b1770bbfe9dbd32f096c79ddb37b78",
        "level2_channel_04.csv": "9c511cc1802f693a87c2347a4efc235f9d56d34f6ae448abcd154b8e9cc4689b",
        "level2_channel_05.csv": "459bbe86c1b6697cbd92ae3b3e2814d2d74fbb5005890bffb7b87d28ff2b0921",
        "level2_partition.txt": "189f5286a1d4efad375b47ac2e01252fd71434df0ab84a6a2210fddcc77fe51a",
        },
        "l2-lc": {
        "final_approximation.csv": "9095e92c3336d18d17c79602c05f905315ae349347d3dc2d77a5e2255d5a0ce0",
        "level1_a_ext.tsv": "7be3212f3cbe08f1214fcae2b84064b44984953c9eab3e2ed33819a8897b9ec0",
        "level1_a_int.tsv": "da6b368f5ed96070c621b7cb7757afed9c120d3af78502a044707f4f8c2faeed",
        "level1_channel_01.csv": "223028862abc3d50d44c0cf905dab35584a2c72d092a915fee3fb707e0c85b31",
        "level1_channel_02.csv": "aef86670032d3d35a752ad81ac73bcccb43af40e7d9af8233b566f1bf1e4e2c0",
        "level1_channel_03.csv": "fd50e23edeab6401302b3738141205390ee9c82821d69696fa6774c9fda07126",
        "level1_channel_04.csv": "ad9cc957265c9caa2c9a9f30839484bbc91f8abecbc79f76957ea98fad78a76e",
        "level1_channel_05.csv": "ce6fa1f76175ef38d8f76d34fd306c8884d50fbf9cbb01aa05ac3458119518ee",
        "level1_channel_06.csv": "45df46c1c10ce1d4e17295b20376990144153a212e755ca2fc5f26f9ddf5d82f",
        "level1_channel_07.csv": "02b52c283fe74d90d1dffb76a039919b6c5eface8bc5f4aa9df5a4de7f848cc6",
        "level1_channel_08.csv": "6eb4c0741288731f23f3747f3f2540a7225f7cd1a4afe7b707880a3cb7520d6a",
        "level1_channel_09.csv": "d5c1df12f69a94f9246991e78510f3073ec940a0edc728edd7b7f85193b70946",
        "level1_channel_10.csv": "e91263a0a2fa700e9cf5e88d56fcdbd5504ed2feb069d104399bf46683bb89e8",
        "level1_partition.txt": "0c169b068a3e05a96157e5ab42758c7c37b496e11b85aa38a07a8d3a9b45c4d1",
        "level2_a_ext.tsv": "3fdeee10cb2d2c513004126bc816d9db949e22976a007ddee122b7888ac28ea2",
        "level2_a_int.tsv": "15458510dc05af513e5dab6594e97b6571181111b89ab37f9ad55855c9dd10c4",
        "level2_channel_01.csv": "9095e92c3336d18d17c79602c05f905315ae349347d3dc2d77a5e2255d5a0ce0",
        "level2_channel_02.csv": "0463aae07855f3289262111da3df194a269ec62fdeca03985847108819078500",
        "level2_channel_03.csv": "6236b43f61d576dd535e655e87a65763ec08f5aa30c346b0e16399232ae04785",
        "level2_channel_04.csv": "5c2b446598c0b1ec75f71713122c3d08be3f79da6ad1997cb0eb51fbb098fe57",
        "level2_channel_05.csv": "1ed5c46e3075a2bb9f64244fa993afca8b94210f7d0b7f93c5cac47ba81175e9",
        "level2_partition.txt": "189f5286a1d4efad375b47ac2e01252fd71434df0ab84a6a2210fddcc77fe51a",
        },
    }
    ATOMS = {
        "l1-sc": "046bcc873f442cd694b14017279f9f0afebcbf35dac68d0111df7ec0e2a5bfe0",
        "l2-lc": "9d36bbe67584ba01670ccd94791d53b9ad14e9269ffa8cd3b8357f40b12b6f8f",
    }
    ATOMS_DENSE = {
        "l1-sc": "5eaf7554e57b31fb5c7f0fb3ba28d624f7b67de3363875dee073ff7dff7b7a20",
        "l2-lc": "11fef1ca5fa952dca0d12d9cb0bff0f63ac417ec36d4d913d31ec9fe41d02d05",
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
