import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_record.py")
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _doc(base_values, new_values):
    doc = {}
    env = {"git_commit": "c"}
    for label, values in (("parent", base_values), ("change", new_values)):
        for v in values:
            run = {"correct": True, "attempted": 1, "failed": 0, "digest": None,
                   "metrics": {"op_s": v}, "units": {"op_s": "s"}, "env": env}
            bench_record.record(doc, label, "w", {}, run)
    return doc


def test_compare_applies_the_paired_rule():
    base = [10.0, 11.0, 10.5, 10.2, 10.8, 10.1, 10.9, 10.4, 10.6, 10.3]
    # 9 of 10 pairs won and a median gap beyond the parent's IQR: a gain
    won = [v - 2.0 for v in base[:9]] + [base[9] + 1.0]
    row = bench_record.compare(_doc(base, won), "parent", "change")["w"]["op_s"]
    assert (row["wins"], row["losses"], row["pairs"]) == (9, 1, 10)
    assert row["clears_base_iqr"] and row["verdict"] == "gain"
    # 8 of 10 won is unresolved, however far the medians lie apart
    row = bench_record.compare(_doc(base, won[:8] + [v + 1.0 for v in base[8:]]),
                               "parent", "change")["w"]["op_s"]
    assert row["wins"] == 8 and row["verdict"] == "unresolved"
    # every pair won, but by less than the parent's IQR: unresolved
    row = bench_record.compare(_doc(base, [v - 0.01 for v in base]),
                               "parent", "change")["w"]["op_s"]
    assert row["wins"] == 10 and not row["clears_base_iqr"]
    assert row["verdict"] == "unresolved"
    # the mirror of a gain reads worse
    row = bench_record.compare(_doc(base, [v + 2.0 for v in base]),
                               "parent", "change")["w"]["op_s"]
    assert row["losses"] == 10 and row["verdict"] == "worse"
    with pytest.raises(bench_record.RecordError, match="'other'"):
        bench_record.compare(_doc(base, base), "parent", "other")
