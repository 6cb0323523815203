"""tools/digest_diff.py on hand-made benchmark records."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "digest_diff.py"
spec = importlib.util.spec_from_file_location("digest_diff", TOOL)
digest_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(digest_diff)


def record(**operations):
    """A record with the fields digest_diff reads; `operations` maps each
    operation to its digests, or to (digests, failed calls)."""
    ops = {}
    for op, value in operations.items():
        digests, failed = value if isinstance(value, tuple) else (value, 0)
        ops[op] = {"digests": sorted(digests), "failed": failed}
    return {"workload": "sbm-sc", "seed": 1, "instance_seeds": [11, 12], "operations": ops}


def run(tmp_path, base, head):
    paths = []
    for name, rec in (("base", base), ("head", head)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(rec))
    return digest_diff.main([str(p) for p in paths])


def test_equal_records_pass(tmp_path, capsys):
    rec = record(analyze=["a1", "a2"], atoms=["t1"])
    assert run(tmp_path, rec, rec) == 0
    assert "every digest of 2 operations equal" in capsys.readouterr().out


def test_changed_digest_is_reported(tmp_path, capsys):
    base = record(analyze=["a1", "a2"], atoms=["t1"])
    head = record(analyze=["a1", "a3"], atoms=["t1"])
    assert run(tmp_path, base, head) == 1
    out = capsys.readouterr().out
    assert "only in base: a2" in out and "only in head: a3" in out
    assert "atoms" not in out


@pytest.mark.parametrize("base, head, expected", [
    (record(analyze=["a1"]), record(analyze=(["a1"], 1)), "failed calls in head: 1"),
    (record(analyze=[]), record(analyze=[]), "analyze: 0 digests in base, 0 in head"),
    (record(analyze=["a1"], atoms=["t1"]), record(analyze=["a1"]), "atoms: absent from head"),
], ids=["failed", "empty", "absent"])
def test_unverifiable_operation_is_reported(tmp_path, capsys, base, head, expected):
    assert run(tmp_path, base, head) == 1
    assert expected in capsys.readouterr().out


def test_records_of_other_inputs_are_refused(tmp_path, capsys):
    base = record(analyze=["a1"])
    head = dict(record(analyze=["a1"]), seed=2)
    assert run(tmp_path, base, head) == 2
    assert "seed" in capsys.readouterr().err


def test_wrong_argument_count_is_refused(capsys):
    assert digest_diff.main(["only-one.json"]) == 2
    assert "BASE.json HEAD.json" in capsys.readouterr().err
