"""crlab benchmark: end-to-end and per-layer metrics of three workloads.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload golden --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all --out results.jsonl   # every workload

Each sample is one fresh worker process (perfbench/worker.py), run one at a
time, because every ``crlab`` command pays for its imports and starts with
empty module-level caches.  Samples are started until the next one would
end after ``--seconds``; the first always runs.  With ``--trace 1`` plain
and traced samples alternate, and the per-layer metrics come from the traced
ones.  Each metric is the median over its samples; ``setup_s`` is the median
over at least MIN_SETUPS worker set-ups (set-up-only workers fill the gap).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--out FILE`` also
appends one JSON record per workload run (samples, quartiles, environment)
for perfbench/compare.py.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKDIR = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

MIN_SETUPS = 5
RUN_LIMIT_S = 170.0          # every run, set-up workers included, ends within this
# OpenBLAS's default on the 2-core reference machine; capped at the cores
# this process may use.  Set before numpy loads in each worker.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"commit": git_commit(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "cpu_model": model,
            "platform": platform.platform()}


def spawn(job_text, setup_only, trace, timeout):
    """Run one worker to completion; returns its result dict or an error dict."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, repr(spawned), str(int(setup_only)), str(int(trace))],
            input=job_text, capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return {"error": "worker timed out", "duration_s": time.monotonic() - spawned}
    duration = time.monotonic() - spawned
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}",
                "duration_s": duration}
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"worker printed no result: {lines[-1][:200]}", "duration_s": duration}
    result["duration_s"] = duration
    return result


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure(name, seed, seconds, trace):
    """Run the samples of one workload; returns (record, error or None)."""
    inputs = WORKLOADS[name].prepare(seed)
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORKDIR)
    try:
        return _measure(name, seed, seconds, trace, inputs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(name, seed, seconds, trace, inputs, workdir):
    job_text = json.dumps({"root": ROOT, "workload": name, "inputs": inputs,
                           "workdir": workdir, "blas_threads": BLAS_THREADS})
    start = time.monotonic()
    kinds = (False, True) if trace else (False,)
    samples, setups = [], []
    longest = 0.0
    error = None
    while True:
        elapsed = time.monotonic() - start
        done_kinds = {s["traced"] for s in samples}
        if done_kinds >= set(kinds) and elapsed + longest > seconds:
            break
        traced = kinds[len(samples) % len(kinds)]
        r = spawn(job_text, False, traced, RUN_LIMIT_S - elapsed)
        longest = max(longest, r["duration_s"])
        if "error" in r:
            error = r["error"]
            break
        r["traced"] = traced
        samples.append(r)
        setups.append(r["setup_s"])
    while error is None and len(setups) < MIN_SETUPS:
        r = spawn(job_text, True, False, RUN_LIMIT_S - (time.monotonic() - start))
        if "error" in r:
            error = r["error"]
            break
        setups.append(r["setup_s"])

    plain = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    if error is not None:
        attempted, failed = attempted + 1, failed + 1
    stats = {}
    if plain:
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            stats[key] = summary([s[key] for s in plain])
    if setups:
        stats["setup_s"] = summary(setups)
    stats["pass_ratio"] = summary([1.0 - failed / attempted])
    layers = {}
    if traced:
        for key in traced[0]["layers"]:
            layers[key] = statistics.median(s["layers"][key] for s in traced)
        if plain:
            layers["trace.overhead_s"] = (statistics.median(s["wall_s"] for s in traced)
                                          - stats["wall_s"]["median"])
    env = machine()
    if samples:
        env.update(samples[0]["env"])
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": env, "elapsed_s": time.monotonic() - start,
        "samples": [{k: v for k, v in s.items() if k not in ("env", "spans")}
                    for s in samples],
        "setups": setups, "stats": stats, "layers": layers,
        "spans": traced[0]["spans"] if traced else None,
        "attempted": attempted, "failed": failed,
        "correct": error is None and failed == 0 and bool(samples),
    }
    return record, error


def result_line(record, spec):
    """The contract's last line: every end-to-end (or per-layer) metric, by name."""
    if record["trace"]:
        values = record["layers"]
        declared = spec["per_layer"]
    else:
        values = {k: v["median"] for k, v in record["stats"].items()}
        declared = spec["end_to_end"]
    # a failed run may lack some values; it is marked incorrect anyway
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def report(record, spec, error):
    """Human-readable lines: every metric by name with its unit, then the spans."""
    print(f"workload {record['workload']}: seed {record['seed']}, trace {record['trace']}, "
          f"{len(record['samples'])} samples, {len(record['setups'])} set-ups, "
          f"{record['elapsed_s']:.1f} s")
    if error is not None:
        print(f"  ERROR: {error}")
    for s in record["samples"]:
        if s["failed"]:
            print(f"  FAILED checks: {s['failed_checks']}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, st in record["stats"].items():
        print(f"  {name:<40} {st['median']:<12.6g} {units[name]:<8} "
              f"median of {st['n']}, q1 {st['q1']:.6g}, q3 {st['q3']:.6g}")
    print(f"  {'fail_ratio':<40} {record['failed'] / record['attempted']:<12.6g} "
          f"{'ratio':<8} {record['failed']} of {record['attempted']} checks")
    if record["trace"]:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in record["layers"].items():
            print(f"  {name:<40} {value:<12.6g} {units.get(name, '')}")
        if record["spans"]:
            wall = next(s["wall_s"] for s in record["samples"] if s["traced"])
            print(f"  self time by span, first traced pass ({wall:.3f} s):")
            rows = sorted(record["spans"].items(), key=lambda kv: -kv[1]["self_s"])
            for name, st in rows:
                print(f"    {name:<40} {st['calls']:>7} calls  self {st['self_s']:9.4f} s  "
                      f"{100.0 * st['self_s'] / wall:5.1f}%")
    print("env " + json.dumps(record["env"], sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append JSON records to this file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "crlab", "__init__.py")):
        print(f"no crlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    ok = True
    for name in names:
        record, error = measure(name, args.seed, seconds, args.trace)
        report(record, spec, error)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        ok = ok and record["correct"]
        lines[name] = result_line(record, spec)
    if len(names) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps({"correct": ok,
                          "attempted": sum(v["attempted"] for v in lines.values()),
                          "failed": sum(v["failed"] for v in lines.values()),
                          "workloads": lines}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
