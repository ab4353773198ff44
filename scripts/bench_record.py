"""Record benchmark runs of one source tree into a BENCH_*.json file.

    python3 scripts/bench_record.py --tree ../parent --label parent \
        --workload distill --runs 5 --out BENCH_8.json

Runs ``perfbench/run.py --trace 0`` of the tree ``--runs`` times, one after
the other, and adds each run's end-to-end metrics, digest and operation
counts to the set named by ``--label`` and ``--workload`` in ``--out``.
Runs already in that set are kept, so calling the script with ``--runs 1``
for two trees in turn records alternating pairs.  Each set also holds the
median and quartiles of every metric over its runs and the environment
record run.py prints (Python, NumPy, BLAS and its thread count, nproc, git
commit and ``src/`` line count).  A set refuses runs of a different commit.

    python3 scripts/bench_record.py --compare parent change --out BENCH_8.json

compares two recorded sets instead, workload by workload, by the paired
rule: run i of one set is paired with run i of the other, so record them
alternately.  For each metric (all are lower-is-better) it prints both
medians and interquartile ranges and the pairs the second set wins, loses
and ties.  The second set's gain counts only when it wins at least nine
tenths of the pairs and its median beats the first's by more than the
first's IQR; a loss by the same rule reads "worse", anything else
"unresolved".  Each metric that the repo's ``BENCHMARK.json`` lists as
end to end also reads ``within_bound``: whether the second set's median is
worse than the first's by no more than that metric's ``bound`` times the
first's median, the rule a change that claims no gain is held to; other
metrics read None.  It also prints, per workload and set, the distinct
digests, the failed and attempted operations summed over the runs and
whether every run was correct; no metric reads "gain" when the second
set has an incorrect run or fails a larger share of its operations than
the first.  The comparison is also stored in the file, under
``comparisons`` and ``run_checks``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "BENCHMARK.json")


class RecordError(Exception):
    """A run could not be recorded."""


def end_to_end_bounds() -> dict:
    """Metric name -> its no-regression bound, a fraction of the base median,
    for every end-to-end metric of the repo's BENCHMARK.json."""
    with open(BENCHMARK) as fh:
        return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run.py call in tree; its result, digest and env record."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    except (IndexError, StopIteration, json.JSONDecodeError):
        raise RecordError(f"run.py in {tree} exited {proc.returncode} without a result:\n"
                          f"{proc.stderr[-2000:]}")
    digests = [line.split()[1] for line in lines if line.strip().startswith("digest ")]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "digest": digests[0] if digests else None,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "units": {name: m["unit"] for name, m in result["metrics"].items()},
        "env": env,
    }


def summarize(runs: list[dict], units: dict) -> dict:
    """Median and quartiles (inclusive method) of each metric over runs."""
    out = {}
    for name, unit in sorted(units.items()):
        values = [run["metrics"][name] for run in runs]
        q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                     if len(values) > 1 else values * 3)
        out[name] = {"unit": unit, "median": statistics.median(values), "q1": q1, "q3": q3,
                     "min": min(values), "max": max(values)}
    return out


def record(doc: dict, label: str, workload: str, args: dict, run: dict) -> None:
    """Add run to doc's (label, workload) set and refresh its summary."""
    sets = doc.setdefault("sets", {}).setdefault(label, {})
    entry = sets.setdefault(workload, {"args": args, "env": run["env"], "runs": []})
    if entry["args"] != args:
        raise RecordError(f"set {label}/{workload} was run with {entry['args']}, not {args}")
    if entry["env"]["git_commit"] != run["env"]["git_commit"]:
        raise RecordError(f"set {label}/{workload} holds commit "
                          f"{entry['env']['git_commit']}, not {run['env']['git_commit']}")
    entry["runs"].append({k: run[k] for k in ("correct", "attempted", "failed", "digest",
                                              "metrics")})
    entry["summary"] = summarize(entry["runs"], run["units"])


def run_checks(doc: dict, base: str, new: str) -> dict:
    """Per workload both sets ran and per set: distinct digests, summed
    failed and attempted operations, and whether every run was correct."""
    sets = doc.get("sets", {})
    for label in (base, new):
        if label not in sets:
            raise RecordError(f"no set named {label!r}; sets: {sorted(sets)}")
    out = {}
    for workload in sorted(set(sets[base]) & set(sets[new])):
        out[workload] = {}
        for label in (base, new):
            runs = sets[label][workload]["runs"]
            out[workload][label] = {
                "digests": sorted({str(run["digest"]) for run in runs}),
                "failed": sum(run["failed"] for run in runs),
                "attempted": sum(run["attempted"] for run in runs),
                "correct": all(run["correct"] for run in runs),
            }
    return out


def _failed_share(check: dict) -> float:
    return check["failed"] / max(check["attempted"], 1)


def compare(doc: dict, base: str, new: str) -> dict:
    """The paired comparison of set new against set base, per workload and metric."""
    out = {}
    bounds = end_to_end_bounds()
    for workload, checks in run_checks(doc, base, new).items():
        b_entry, n_entry = doc["sets"][base][workload], doc["sets"][new][workload]
        b_chk, n_chk = checks[base], checks[new]
        sound = n_chk["correct"] and _failed_share(n_chk) <= _failed_share(b_chk)
        rows = {}
        for name, b_sum in sorted(b_entry["summary"].items()):
            n_sum = n_entry["summary"][name]
            pairs = [(b["metrics"][name], n["metrics"][name])
                     for b, n in zip(b_entry["runs"], n_entry["runs"])]
            wins = sum(y < x for x, y in pairs)
            losses = sum(y > x for x, y in pairs)
            iqr = b_sum["q3"] - b_sum["q1"]
            diff = n_sum["median"] - b_sum["median"]
            if wins >= 0.9 * len(pairs) and -diff > iqr and sound:
                verdict = "gain"
            elif losses >= 0.9 * len(pairs) and diff > iqr:
                verdict = "worse"
            else:
                verdict = "unresolved"
            bound = bounds.get(name)
            rows[name] = {
                "unit": b_sum["unit"], "pairs": len(pairs), "wins": wins, "losses": losses,
                "base": {k: b_sum[k] for k in ("median", "q1", "q3")},
                "new": {k: n_sum[k] for k in ("median", "q1", "q3")},
                "change_pct": 100.0 * diff / b_sum["median"],
                "clears_base_iqr": abs(diff) > iqr, "verdict": verdict,
                "bound": bound,
                "within_bound": None if bound is None else diff <= bound * b_sum["median"],
            }
        out[workload] = rows
    return out


def _yes_no(flag) -> str:
    return "-" if flag is None else "yes" if flag else "no"


def print_comparison(result: dict, checks: dict, base: str, new: str) -> None:
    for workload, sides in checks.items():
        for label, c in sides.items():
            print(f"{workload:8} {label}: correct={c['correct']} "
                  f"failed={c['failed']}/{c['attempted']} digests={' '.join(c['digests'])}")
    print(f"{new} against {base}: medians [q1, q3]; wins/losses of {new} over the pairs")
    for workload, rows in result.items():
        for name, r in rows.items():
            b, n = r["base"], r["new"]
            print(f"{workload:8} {name:12} {b['median']:9.4g} [{b['q1']:.4g}, {b['q3']:.4g}]"
                  f" -> {n['median']:9.4g} [{n['q1']:.4g}, {n['q3']:.4g}] {r['unit']:3}"
                  f" {r['change_pct']:+6.1f}%  {r['wins']}/{r['losses']} of {r['pairs']}"
                  f"  clears {base} IQR: {_yes_no(r['clears_base_iqr'])}"
                  f"  {r['verdict']}  within bound: {_yes_no(r['within_bound'])}")


def save(doc: dict, path: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", help="checkout whose perfbench/run.py to run")
    parser.add_argument("--label", help="set name, e.g. parent or change")
    parser.add_argument("--workload", help="run.py workload")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two recorded sets of --out instead of running")
    parser.add_argument("--runs", type=int, default=5, help="runs to add (default 5)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measured window per run (default 40)")
    parser.add_argument("--out", required=True, help="BENCH_*.json file to create or extend")
    ns = parser.parse_args(argv)
    if ns.compare is None and None in (ns.tree, ns.label, ns.workload):
        parser.error("recording runs needs --tree, --label and --workload")
    if ns.runs < 1:
        parser.error("--runs must be at least 1")
    doc = {}
    if os.path.exists(ns.out):
        with open(ns.out) as fh:
            doc = json.load(fh)
    args = {"seed": ns.seed, "seconds": ns.seconds, "trace": 0}
    try:
        if ns.compare:
            base, new = ns.compare
            result, checks = compare(doc, base, new), run_checks(doc, base, new)
            print_comparison(result, checks, base, new)
            doc.setdefault("comparisons", {})[f"{new} vs {base}"] = result
            doc.setdefault("run_checks", {})[f"{new} vs {base}"] = checks
            save(doc, ns.out)
            return 0
        for _ in range(ns.runs):
            run = run_once(ns.tree, ns.workload, ns.seed, ns.seconds)
            record(doc, ns.label, ns.workload, args, run)
            print(f"{ns.label} {ns.workload}: correct={run['correct']} "
                  f"failed={run['failed']}/{run['attempted']} " + " ".join(
                      f"{k}={v:.4g}" for k, v in sorted(run["metrics"].items())))
            save(doc, ns.out)
    except RecordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
