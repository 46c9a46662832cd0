"""Write a BENCH_<n>.json record from two sets of benchmark runs.

Usage:
  python3 tools/bench_record.py PARENT.jsonl CHANGE.jsonl --change TEXT \\
      --claim WORKLOAD/METRIC --out BENCH_<n>.json

PARENT.jsonl and CHANGE.jsonl are the ``--out`` files of ``perfbench/run.py``
run from the root of each checkout, one line per workload and run.  Runs are
paired by (workload, seed): run pair p with ``--seed p`` on both sides.  The
value of a run is the median over its samples; each side is summarized by
the median and the quartiles (inclusive method) over its runs.  A pair is a
win for the change when its value is better in the metric's direction, the
``better`` of its ``end_to_end`` entry in BENCHMARK.json, the benchmark's
spec at the root of the checkout this script lives in.

The claim is met when the change wins at least 9 of 10 pairs and its median
beats the parent's by more than the parent's interquartile range.  As in
``perfbench/compare.py``, a metric whose change median is worse than the
parent's by more than the metric's ``bound`` in BENCHMARK.json, relative to
the parent's median, is a regression: its row says so in ``regression``, and
the record lists every one in ``regressions`` as WORKLOAD/METRIC.
"""

import argparse
import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
ENV_KEYS = ("cpu_model", "nproc", "platform", "python", "numpy", "scipy", "blas",
            "blas_threads")


def end_to_end_metrics():
    """{metric: (True when higher is better, bound)} over the spec's end-to-end metrics."""
    with open(SPEC, encoding="utf-8") as fh:
        return {m["name"]: (m["better"] == "higher", m["bound"])
                for m in json.load(fh)["end_to_end"]}


def load_runs(path):
    """{(workload, seed): record} of one side; a repeated pair is an error."""
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                key = (rec["workload"], rec["seed"])
                if key in runs:
                    raise SystemExit(f"{path}: workload {key[0]} seed {key[1]} appears twice")
                runs[key] = rec
    return runs


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def compare(parent, change, metric, higher, bound):
    """Summary of one metric over the paired runs of one workload."""
    better = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
    p = [r["stats"][metric]["median"] for r in parent]
    c = [r["stats"][metric]["median"] for r in change]
    ps, cs = quartiles(p), quartiles(c)
    med_p, med_c = statistics.median(p), statistics.median(c)
    worse = (med_p - med_c if higher else med_c - med_p) / abs(med_p) if med_p else 0.0
    return {
        "parent": ps, "change": cs, "pairs": len(p),
        "change_wins": sum(better(b, a) for a, b in zip(p, c)),
        "ties": sum(a == b for a, b in zip(p, c)),
        "median_change_pct": round(100.0 * (med_c - med_p) / med_p, 1) if med_p else 0.0,
        "regression": worse > bound,
        "parent_runs": [round(v, 4) for v in p],
        "change_runs": [round(v, 4) for v in c],
    }


def claim(table, workload, metric, higher):
    row = table[workload][metric]
    med_p, med_c = statistics.median(row["parent_runs"]), statistics.median(row["change_runs"])
    iqr = row["parent"]["q3"] - row["parent"]["q1"]
    gain = med_c - med_p if higher else med_p - med_c
    return {
        "metric": metric, "workload": workload,
        "rule": "change wins at least 9 of 10 pairs and its median beats the parent's "
                "by more than the parent's interquartile range",
        "change_wins": row["change_wins"], "pairs": row["pairs"],
        "parent_median": round(med_p, 4), "change_median": round(med_c, 4),
        "parent_iqr": round(iqr, 4), "median_change_pct": row["median_change_pct"],
        "met": row["change_wins"] >= 9 and row["pairs"] >= 10 and gain > iqr,
    }


def environment(parent_runs, change_runs):
    env = next(iter(change_runs.values()))["env"]
    out = {k: env[k] for k in ENV_KEYS if k in env}
    out["parent_commit"] = next(iter(parent_runs.values()))["env"].get("commit")
    out["change_commit"] = env.get("commit")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--change", dest="title", required=True, help="what the change does")
    parser.add_argument("--claim", required=True, help="WORKLOAD/METRIC the change claims")
    parser.add_argument("--order", default="alternating: parent first on odd pairs, change "
                        "first on even pairs; seed = pair number on both sides")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = end_to_end_metrics()
    parent, change = load_runs(args.parent), load_runs(args.change)
    if set(parent) != set(change):
        raise SystemExit(f"unpaired runs: {sorted(set(parent) ^ set(change))}")
    table = {}
    for workload in sorted({w for w, _ in parent}):
        seeds = sorted(s for w, s in parent if w == workload)
        p = [parent[workload, s] for s in seeds]
        c = [change[workload, s] for s in seeds]
        metrics = [m for m in p[0]["stats"] if m in spec and all(m in r["stats"] for r in p + c)]
        table[workload] = {m: compare(p, c, m, *spec[m]) for m in metrics}
    workload, metric = args.claim.split("/")
    record = {
        "change": args.title,
        "command": "python3 perfbench/run.py --workload all --seed <pair> --seconds "
                   "<run_seconds> --out <side>.jsonl, run from the root of each checkout",
        "protocol": {
            "pairs": len({s for _, s in parent}), "order": args.order,
            "run_seconds": sorted({r["seconds"] for r in parent.values()}),
            "value_per_run": "median over the run's samples (one fresh worker process per "
                             "sample)",
            "summary": "median and quartiles (inclusive method) over the runs of each side",
        },
        "environment": environment(parent, change),
        "claim": claim(table, workload, metric, spec[metric][0]),
        "regressions": [f"{w}/{m}" for w, rows in table.items() for m, row in rows.items()
                        if row["regression"]],
        "end_to_end": table,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps(record["claim"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
