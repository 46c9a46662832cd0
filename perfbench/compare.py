"""Compare two sets of benchmark runs and flag regressions.

Usage, from the root of a checkout:

  python3 perfbench/compare.py BASE.jsonl [HEAD.jsonl]

Each file holds the records that ``perfbench/run.py --out FILE`` appended,
one per workload run.  A run contributes one value per metric (the median
over its samples).  For every workload and metric, each side prints the
number of runs, the median, the quartiles, and the spread (q3 - q1) / median.
An end-to-end metric whose head median is worse than the base median by more
than its BENCHMARK.json bound is flagged REGRESSION; a spread above a third
of the bound is flagged unsteady.  Per-layer metrics have no bound and are
printed for reading only.  Exit status 1 when a regression is flagged.
"""

import json
import statistics
import sys

from run import load_spec, summary


def load(path):
    """{(workload, metric): [one value per run]} from a results file."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"]:
                metrics = rec["layers"]
            else:
                metrics = {k: v["median"] for k, v in rec["stats"].items()}
            for name, value in metrics.items():
                values.setdefault((rec["workload"], name), []).append(value)
    return values


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    e2e = {m["name"]: m for m in load_spec()["end_to_end"]}
    sides = [load(p) for p in argv]
    keys = sorted(set().union(*sides), key=lambda k: (k[0], k[1] not in e2e, k[1]))
    regressions = 0
    for workload, metric in keys:
        cells = []
        for side in sides:
            vals = side.get((workload, metric))
            if not vals:
                cells.append("        (absent)")
                continue
            st = summary(vals)
            med, q1, q3 = st["median"], st["q1"], st["q3"]
            spread = (q3 - q1) / abs(med) if med else 0.0
            flag = ""
            if metric in e2e and spread > e2e[metric]["bound"] / 3.0:
                flag = " unsteady"
            cells.append(f"n={len(vals):<2} median {med:<11.5g} q1 {q1:<11.5g} q3 {q3:<11.5g} "
                         f"spread {spread:6.3f}{flag}")
        verdict = ""
        if len(sides) == 2 and metric in e2e and all((workload, metric) in s for s in sides):
            base = statistics.median(sides[0][(workload, metric)])
            head = statistics.median(sides[1][(workload, metric)])
            m = e2e[metric]
            change = (head - base) / abs(base) if base else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = f"  change {100.0 * change:+.1f}%"
            if worse > m["bound"]:
                verdict += f"  REGRESSION (bound {100.0 * m['bound']:.0f}%)"
                regressions += 1
        print(f"{workload:<15} {metric:<44} " + "  |  ".join(cells) + verdict)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
