"""tools/ab_pairs.py's summary on synthetic end-to-end records."""

import importlib.util
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
    assert out["parent"] == (2.0, 2.0, 2.0) and out["wins"] == 1 and out["gain"]
    line = ab_pairs.format_rows([out])[0]
    assert line.startswith("analyze_s [s]: parent 2 [2, 2] -> change 1 [1, 1] (-50.0%)")
    assert line.endswith("change won 1/1, gain rule holds")
