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
