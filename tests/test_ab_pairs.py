"""tools/ab_pairs.py's summary and --out file on synthetic records."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))  # ab_pairs imports digest_diff beside it
spec = importlib.util.spec_from_file_location("ab_pairs", TOOLS / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

TIME = {"name": "analyze_s", "unit": "s", "better": "lower"}
QUALITY = {"name": "nla_psnr_db", "unit": "dB", "better": "higher"}


def runs(name, values):
    return [{name: {"value": v, "unit": "s"}} for v in values]


def row(metric, parent, change):
    name = metric["name"]
    return ab_pairs.summary([metric], runs(name, parent), runs(name, change))[0]


def test_clear_gain_holds():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]
    out = row(TIME, parent, [v * 0.6 for v in parent])
    assert out["wins"] == 10 and out["pairs"] == 10 and out["gain"]
    assert out["parent"][1] == pytest.approx(1.0)
    assert out["change"][1] == pytest.approx(0.6)
    assert out["relative"] == pytest.approx(-0.4)


def test_eight_wins_of_ten_is_not_a_gain():
    parent = [1.0] * 10
    change = [0.5] * 8 + [1.5] * 2
    out = row(TIME, parent, change)
    assert out["wins"] == 8 and not out["gain"]


def test_ties_count_for_neither_side():
    out = row(TIME, [1.0] * 10, [1.0] * 9 + [0.5])
    assert out["wins"] == 1 and not out["gain"]


def test_gap_within_parent_spread_is_not_a_gain():
    # The change wins every pair, but by less than the parent's own
    # interquartile range.
    parent = [1.0, 1.4, 1.0, 1.4, 1.0, 1.4, 1.0, 1.4, 1.0, 1.4]
    out = row(TIME, parent, [v - 0.05 for v in parent])
    assert out["wins"] == 10 and not out["gain"]


def test_higher_is_better_metric():
    out = row(QUALITY, [30.0] * 10, [31.0] * 10)
    assert out["wins"] == 10 and out["gain"]
    assert row(QUALITY, [30.0] * 10, [29.0] * 10)["wins"] == 0


def test_missing_metric_is_not_reported():
    out = row(QUALITY, [None] * 3, [None] * 3)
    assert out["parent"] is None and not out["gain"]
    assert ab_pairs.format_rows([out]) == ["nla_psnr_db: not reported"]


def test_single_pair_uses_its_values():
    out = row(TIME, [2.0], [1.0])
    assert out["parent"] == (2.0, 2.0, 2.0) and out["wins"] == 1 and not out["gain"]
    line = ab_pairs.format_rows([out])[0]
    assert line.startswith("analyze_s [s]: parent 2 [2, 2] -> change 1 [1, 1] (-50.0%)")
    assert line.endswith("change won 1/1, gain rule not applied (fewer than 10 pairs)")


def test_nine_clear_wins_are_not_a_gain():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01]
    out = row(TIME, parent, [v * 0.6 for v in parent])
    assert out["wins"] == 9 and out["pairs"] == 9 and not out["gain"]
    assert ab_pairs.format_rows([out])[0].endswith(
        "change won 9/9, gain rule not applied (fewer than 10 pairs)")
    ten = row(TIME, parent + [1.0], [v * 0.6 for v in parent + [1.0]])
    assert ten["gain"] and ab_pairs.format_rows([ten])[0].endswith("gain rule holds")


# -- the --out file, with stub runs in place of perfbench/run.py --------------

ROOT = TOOLS.parent
RUN_KEYS = {"workload", "seed", "instance_seeds", "end_to_end", "operations", "environment"}
OPERATIONS = ("analyze", "synthesize", "compress", "denoise", "atoms")
ENVIRONMENT = {"nproc": 2, "cpu_model": "x" * 40, "python": "3.11.7", "numpy": "2.4.6",
               "scipy": "1.17.1", "blas": {"name": "openblas", "version": "0.3", "threads": 2},
               "thread_env": {"OMP_NUM_THREADS": None, "OPENBLAS_NUM_THREADS": None}}


def stub_record(workload, seed, seconds, digest):
    """A run record in perfbench/run.py's shape, as large as a 30 s sbm-sc
    run's: five operations of eight instances, and per-call lists, which the
    --out file must leave out."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    calls = [seconds] * 3000
    digests = [digest] + [f"{i:064x}" for i in range(7)]
    return {"workload": workload, "seed": seed, "instance_seeds": list(range(10**8, 10**8 + 8)),
            "end_to_end": {m["name"]: {"value": seconds, "unit": m["unit"]} for m in metrics},
            "operations": {op: {"digests": digests, "failed": 0,
                                "raw": {"median": seconds, "all": calls},
                                "scaled": {"median": seconds, "blocks": calls}}
                           for op in OPERATIONS},
            "environment": ENVIRONMENT,
            "setup_s": {"median": seconds, "all": calls, "raw": calls}}


def checkouts(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        side.mkdir()
        (side / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    return parent, change


def stub_runs(monkeypatch, change_digest="d" * 64):
    def run_once(checkout, workload, seed, seconds, out):
        change = checkout.name == "change"
        return stub_record(workload, seed, 0.5 if change else 1.0,
                           change_digest if change else "d" * 64)
    monkeypatch.setattr(ab_pairs, "run_once", run_once)


def compare(parent, change, *extra):
    return ab_pairs.main([str(parent), str(change), "--workload", "sbm-sc", "--seed", "1",
                          "--pairs", "10", *extra])


def test_out_file_holds_the_comparison(tmp_path, monkeypatch, capsys):
    parent, change = checkouts(tmp_path)
    stub_runs(monkeypatch)
    assert compare(parent, change) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "ab.json"
    assert compare(parent, change, "--out", str(out)) == 0
    assert capsys.readouterr().out == printed
    assert out.stat().st_size < 100_000
    data = json.loads(out.read_text())
    assert set(data) == {"workload", "seed", "pairs", "run_seconds", "trees", "first", "runs",
                         "summary", "printed", "verdicts"}
    assert (data["workload"], data["seed"], data["pairs"]) == ("sbm-sc", 1, 10)
    assert data["trees"] == {"parent": {"path": str(parent), "head": None},
                             "change": {"path": str(change), "head": None}}
    assert data["first"] == ["parent", "change"] * 5
    for side, seconds in (("parent", 1.0), ("change", 0.5)):
        assert len(data["runs"][side]) == 10
        for run in data["runs"][side]:
            assert set(run) == RUN_KEYS
            assert run["end_to_end"]["analyze_s"] == {"value": seconds, "unit": "s"}
            assert set(run["operations"]) == set(OPERATIONS)
            assert run["operations"]["analyze"] == {
                "digests": ["d" * 64] + [f"{i:064x}" for i in range(7)], "failed": 0}
            assert run["environment"] == ENVIRONMENT
    assert ab_pairs.differences(data["runs"]["parent"][3], data["runs"]["change"][3]) == []
    assert data["printed"] == printed.splitlines()
    rows = {row["metric"]: row for row in data["summary"]}
    assert rows["analyze_s"]["wins"] == 10 and rows["analyze_s"]["change"] == [0.5] * 3
    assert data["verdicts"] == {"gains": [row["metric"] for row in data["summary"]
                                          if row["gain"]], "digests_equal": True}
    assert "analyze_s" in data["verdicts"]["gains"]
    assert "nla_psnr_db" not in data["verdicts"]["gains"]


def test_out_file_records_differing_digests(tmp_path, monkeypatch, capsys):
    parent, change = checkouts(tmp_path)
    stub_runs(monkeypatch, change_digest="f" * 64)
    out = tmp_path / "ab.json"
    assert compare(parent, change, "--out", str(out)) == 1
    printed = capsys.readouterr().out
    data = json.loads(out.read_text())
    assert data["verdicts"]["digests_equal"] is False
    assert data["printed"] == printed.splitlines()
    assert "digests differ:" in data["printed"]
    assert data["printed"][-1].startswith("pair 10: ")


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_git_head_names_the_checked_out_commit(tmp_path):
    assert ab_pairs.git_head(tmp_path) is None
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    subprocess.run([*git, "init", "-q"], cwd=tmp_path, check=True)
    subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "t"], cwd=tmp_path, check=True)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path, check=True,
                          capture_output=True, text=True).stdout.strip()
    assert len(head) == 40 and ab_pairs.git_head(tmp_path) == head


def traced_stub_runs(monkeypatch):
    """Stub runs as `stub_runs`; a traced run also has a `trace.per_layer`
    section whose values count the traced runs of its side (1, 2, 3, ...).
    Returns the list of (side, trace) calls."""
    calls = []

    def run_once(checkout, workload, seed, seconds, out, trace=0):
        side = checkout.name
        calls.append((side, trace))
        record = stub_record(workload, seed, 0.5 if side == "change" else 1.0, "d" * 64)
        if trace:
            k = sum(1 for c in calls if c == (side, 1))
            scale = 1.0 if side == "parent" else 0.25
            record["trace"] = {"per_layer": {
                "graphs.self_s": {"value": scale * k, "unit": "s"},
                "spectral.multiplet_max": {"value": 7, "unit": "count"}}}
        return record
    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    return calls


def test_traced_runs_add_per_layer_medians(tmp_path, monkeypatch, capsys):
    parent, change = checkouts(tmp_path)
    stub_runs(monkeypatch)
    out = tmp_path / "plain.json"
    assert compare(parent, change, "--out", str(out)) == 0
    plain = capsys.readouterr().out.splitlines()
    calls = traced_stub_runs(monkeypatch)
    out = tmp_path / "traced.json"
    assert compare(parent, change, "--out", str(out), "--traced", "3") == 0
    printed = capsys.readouterr().out.splitlines()
    # The pairs run untraced, then three traced runs per side, first side alternating.
    assert calls[:20] == [(side, 0) for side in ["parent", "change", "change", "parent"] * 5]
    assert calls[20:] == [("parent", 1), ("change", 1), ("change", 1), ("parent", 1),
                          ("parent", 1), ("change", 1)]
    assert printed[:len(plain)] == plain
    assert printed[len(plain):] == [
        "per-layer medians of 3 traced runs per side:",
        "graphs.self_s [s]: parent 2 -> change 0.5 (-75.0%)",
        "spectral.multiplet_max [count]: parent 7 -> change 7 (+0.0%)"]
    assert out.stat().st_size < 100_000
    data = json.loads(out.read_text())
    assert data["printed"] == printed
    assert data["traced"] == {
        "runs": 3,
        "parent": {"graphs.self_s": {"unit": "s", "values": [1.0, 2.0, 3.0], "median": 2.0},
                   "spectral.multiplet_max": {"unit": "count", "values": [7, 7, 7],
                                              "median": 7}},
        "change": {"graphs.self_s": {"unit": "s", "values": [0.25, 0.5, 0.75], "median": 0.5},
                   "spectral.multiplet_max": {"unit": "count", "values": [7, 7, 7],
                                              "median": 7}}}


def test_negative_traced_count_is_rejected(tmp_path, monkeypatch):
    parent, change = checkouts(tmp_path)
    traced_stub_runs(monkeypatch)
    with pytest.raises(SystemExit):
        compare(parent, change, "--traced", "-1")


OUT_KEYS = {"workload", "seed", "pairs", "run_seconds", "trees", "first", "runs", "summary",
            "printed", "verdicts"}


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_comparisons_have_the_out_schema(path):
    """Every root BENCH_*.json is an `ab_pairs.py --out` file under 100 KB,
    with a "traced" section when it was made with --traced."""
    assert path.stat().st_size < 100_000
    data = json.loads(path.read_text())
    assert set(data) - {"traced"} == OUT_KEYS
    if "traced" in data:
        traced = data["traced"]
        assert set(traced) == {"runs", "parent", "change"} and traced["runs"] >= 1
        for side in ("parent", "change"):
            assert traced[side]
            for entry in traced[side].values():
                assert set(entry) == {"unit", "values", "median"}
                assert len(entry["values"]) == traced["runs"]
    pairs = data["pairs"]
    assert set(data["trees"]) == {"parent", "change"}
    assert all(set(tree) == {"path", "head"} for tree in data["trees"].values())
    assert len(data["first"]) == pairs
    assert set(data["first"]) <= {"parent", "change"}
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for side in ("parent", "change"):
        assert len(data["runs"][side]) == pairs
        for run in data["runs"][side]:
            assert set(run) == RUN_KEYS
            assert (run["workload"], run["seed"]) == (data["workload"], data["seed"])
            assert {m["name"] for m in metrics} <= set(run["end_to_end"])
            assert all(set(op) == {"digests", "failed"} for op in run["operations"].values())
    assert [row["metric"] for row in data["summary"]] == [m["name"] for m in metrics]
    assert data["printed"][1:1 + len(metrics)] == ab_pairs.format_rows(data["summary"])
    assert set(data["verdicts"]) == {"gains", "digests_equal"}
    assert data["verdicts"]["gains"] == [row["metric"] for row in data["summary"]
                                         if row["gain"]]


def test_there_are_committed_comparisons():
    assert sorted(ROOT.glob("BENCH_*.json"))
