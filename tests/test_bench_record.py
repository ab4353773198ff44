import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_record.py")
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _doc(base_values, new_values, metric="op_s"):
    doc = {}
    env = {"git_commit": "c"}
    for label, values in (("parent", base_values), ("change", new_values)):
        for v in values:
            run = {"correct": True, "attempted": 1, "failed": 0, "digest": None,
                   "metrics": {metric: v}, "units": {metric: "s"}, "env": env}
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


def test_compare_reads_correctness_failures_and_digests(tmp_path, capsys):
    base = [10.0, 11.0, 10.5, 10.2, 10.8, 10.1, 10.9, 10.4, 10.6, 10.3]
    doc = _doc(base, [v - 2.0 for v in base])

    def verdict():
        return bench_record.compare(doc, "parent", "change")["w"]["op_s"]["verdict"]

    assert verdict() == "gain"
    runs = doc["sets"]["change"]["w"]["runs"]
    runs[0]["digest"] = "abc"
    runs[3]["correct"] = False
    checks = bench_record.run_checks(doc, "parent", "change")["w"]
    assert checks["change"] == {"digests": ["None", "abc"], "failed": 0, "attempted": 10,
                                "correct": False}
    assert checks["parent"]["correct"] and checks["parent"]["digests"] == ["None"]
    assert verdict() == "unresolved"  # an incorrect run on the new side
    runs[3]["correct"] = True
    runs[5]["failed"] = 1
    assert verdict() == "unresolved"  # a larger failed share than the parent's
    doc["sets"]["parent"]["w"]["runs"][2]["failed"] = 1
    assert verdict() == "gain"  # the same failed share

    path = os.path.join(tmp_path, "bench.json")
    bench_record.save(doc, path)
    assert bench_record.main(["--compare", "parent", "change", "--out", path]) == 0
    text = capsys.readouterr().out
    assert "w        change: correct=True failed=1/10 digests=None abc" in text
    stored = json.load(open(path))
    assert stored["run_checks"]["change vs parent"]["w"]["parent"]["failed"] == 1
    assert stored["comparisons"]["change vs parent"]["w"]["op_s"]["verdict"] == "gain"


def test_compare_applies_the_no_regression_bound(tmp_path, capsys):
    bound = bench_record.end_to_end_bounds()["op_s"]
    base = [10.0, 11.0, 10.5, 10.2, 10.8, 10.1, 10.9, 10.4, 10.6, 10.3]
    # worse on every pair and beyond the parent's IQR, yet inside the bound
    row = bench_record.compare(_doc(base, [v * (1 + bound / 2) for v in base]),
                               "parent", "change")["w"]["op_s"]
    assert row["verdict"] == "worse" and row["bound"] == bound and row["within_bound"]
    # a median worse by more than bound times the parent's is out of bound
    worse = [v * (1 + 2 * bound) for v in base]
    row = bench_record.compare(_doc(base, worse), "parent", "change")["w"]["op_s"]
    assert row["within_bound"] is False
    # a metric that BENCHMARK.json does not list as end to end has no bound
    row = bench_record.compare(_doc(base, worse, "nn.bn.fwd_ms"),
                               "parent", "change")["w"]["nn.bn.fwd_ms"]
    assert row["bound"] is None and row["within_bound"] is None

    path = os.path.join(tmp_path, "bench.json")
    bench_record.save(_doc(base, worse), path)
    assert bench_record.main(["--compare", "parent", "change", "--out", path]) == 0
    assert "within bound: no" in capsys.readouterr().out
    stored = json.load(open(path))
    assert stored["comparisons"]["change vs parent"]["w"]["op_s"]["within_bound"] is False
