"""Run a fixed set of crlab CLI experiments and print the sha256 of every output file.

Usage:
  python3 tools/output_digest.py [--out DIR]

The set: ``reproduce-all``; ``index`` on acceptance criterion 6 (the contact
isomorphism) at 96x32, 192x64 and 384x64, and on the refinement grids 1536x8
and 3072x32, and once more at 96x32 with its Matrix Market export;
``glue`` on the reproduce-all flow pair at tau 6, 8, 10 and 12, and on two
shifted complex-line cylinders (u with weights (1, 1) and shifts (2, 0), w
with weights (-1, 1) and shifts (0, 2)) at tau 6, 10 and 14; ``sweep-delta``
on the trivial cylinder and on the contact cylinder S = I with weights
(0.5, 0.5), whose magnitudes cross the wall at 1;
``index`` on the blocks that carry shift columns: the trivial cylinder
with weights (1, 1) and shifts (2, 2), at its default grid and at 1536x32,
its reduced pattern (1, 2), and the plane with weight 1 and 2 shifts; ``index`` on the plane with weight -1,
whose mode 0 is a wide row-window block; ``index`` at 96x16 on a dim-4
contact cylinder between two non-diagonal constant ends with weights
(0.5, 0.5), whose blocks have 4 fields per node; ``spectrum`` of the first
of those ends' loop operator by the Fourier method and by finite
differences (both by its mode blocks); and ``vdim`` at seed 3 on six
configuration graphs, written out as literal JSON: two degenerations with
their smooth families (codimension 1 each) and a spliced two-level splitting
against the single cylinder (codimension 3, the known splice tension), plus
100 randomized budget variants of each of the five canonical cases.
Each experiment runs in its own interpreter on the ``crlab`` sources next to
this script, so the environment the tool is started with (for example
OPENBLAS_NUM_THREADS) reaches every run before numpy loads.  Outputs go to
DIR (default: a temporary directory, removed afterwards).

Prints one ``<exit status>  <experiment>`` line per run, then one
``<sha256>  <experiment>/<file>`` line per output file, sorted by path, and
exits 1 when a run did not exit 0.  Two checkouts, or two thread counts,
write the same bytes exactly when their digest lines agree; compare them
with ``diff``.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from crlab.cli import EXPERIMENTS  # noqa: E402  (the sources next to this script)

# config kind of each subcommand
KINDS = {command: kind for kind, (command, _, _) in EXPERIMENTS.items()}


def _end(sign, weight, coeff, shift_dims=0, dim=2):
    end = {"sign": sign, "weight": weight, "asymptotic": {"dim": dim, "coeff": coeff}}
    if shift_dims:
        end["shift_dims"] = shift_dims
    return end


def _cylinder(fiber, neg, pos, weights, n_prime=6.0, shift_dims=(0, 0), dim=2):
    return {"domain_kind": "cylinder", "fiber": fiber,
            "ends": [_end("negative", weights[0], neg, shift_dims[0], dim),
                     _end("positive", weights[1], pos, shift_dims[1], dim)],
            "truncation": {"s_max": 12.0, "n_prime": n_prime}}


def _contact(neg, pos, weights=(0.0, 0.0), n_prime=6.0):
    return _cylinder("contact_fiber", {"kind": "diag", "values": neg},
                     {"kind": "diag", "values": pos}, weights, n_prime)


def _component(neg, pos, ind_L2, symmetry, level, trivial=False):
    """A configuration-graph component's JSON, every orbit at action 1."""
    return {"neg": [{"id": i, "action": 1.0} for i in neg],
            "pos": [{"id": i, "action": 1.0} for i in pos],
            "ind_L2": ind_L2, "trivial": trivial, "domain_symmetry_dim": symmetry,
            "target_level": level}


# the graphs of the vdim run: one_bubble_pair(1, -2) and its smooth family,
# multi_end_split_pair(4, 2, 1) and its smooth family, and
# splice_trivial(broken_pair(0, 0), 0) with the single cylinder of budget 0
LADDER_GRAPHS = [
    {"components": [_component([], ["x"], 1, 3, 1),
                    _component(["x-", "x"], ["x+"], -2, 0, 0)],
     "seams": [[0, 0, 1, 1]], "levels": 2},
    {"components": [_component(["x-"], ["x+"], -1, 2, 0)], "seams": [], "levels": 1},
    {"components": [_component(["z-"], ["x"], 2, 1, 1),
                    _component(["x", "y-0"], ["y+0", "y+1"], 1, -2, 0)],
     "seams": [[0, 0, 1, 0]], "levels": 2},
    {"components": [_component(["z-", "y-0"], ["y+0", "y+1"], 3, -2, 0)],
     "seams": [], "levels": 1},
    {"components": [_component(["x-"], ["x"], 0, 1, 1),
                    _component(["x"], ["x+"], 0, 2, 0),
                    _component(["x"], ["x"], 0, 1, 2, trivial=True)],
     "seams": [[0, 0, 2, 0], [2, 0, 1, 0]], "levels": 3},
    {"components": [_component(["x-"], ["x+"], 0, 2, 0)], "seams": [], "levels": 1},
]
# the seed of each run whose config sets one (the default is 0)
SEEDS = {"vdim_ladder": 3}


def experiments():
    """(name, subcommand, config inputs or None) of every run, in order."""
    runs = [("reproduce_all", "reproduce-all", None)]
    for s_nodes, t_nodes in ((96, 32), (192, 64), (384, 64), (1536, 8), (3072, 32)):
        runs.append((f"criterion6_{s_nodes}x{t_nodes}", "index",
                     {"problem": _contact([1.0, 1.0], [1.0, 1.0]),
                      "grid": {"s_nodes": s_nodes, "t_nodes": t_nodes}}))
    runs.append(("criterion6_96x32_export", "index",
                 {"problem": _contact([1.0, 1.0], [1.0, 1.0]),
                  "grid": {"s_nodes": 96, "t_nodes": 32}, "export_matrix": True}))
    runs.append(("glue_flow_pair", "glue",
                 {"problem_u": _contact([-2.0, -2.0], [1.0, 1.0], (1.0, 0.5), 3.0),
                  "problem_w": _contact([1.0, 1.0], [3.0, 3.0], (-0.5, 1.5), 3.0),
                  "taus": [6.0, 8.0, 10.0, 12.0]}))
    zero = {"kind": "zero"}
    runs.append(("glue_shifted_lines", "glue",
                 {"problem_u": _cylinder("complex_line", zero, zero, (1.0, 1.0), 3.0, (2, 0)),
                  "problem_w": _cylinder("complex_line", zero, zero, (-1.0, 1.0), 3.0, (0, 2)),
                  "taus": [6.0, 10.0, 14.0]}))
    runs.append(("sweep_trivial", "sweep-delta",
                 {"problem": _cylinder("complex_line", zero, zero, (-1.0, 1.0)),
                  "deltas": [0.5, 1.5, 2.5]}))
    runs.append(("sweep_contact", "sweep-delta",
                 {"problem": _contact([1.0, 1.0], [1.0, 1.0], (0.5, 0.5)),
                  "deltas": [0.5, 1.5, 2.5]}))
    for shifts in ((2, 2), (1, 2)):
        runs.append((f"shifted_cylinder_{shifts[0]}{shifts[1]}", "index",
                     {"problem": _cylinder("complex_line", zero, zero, (1.0, 1.0),
                                           shift_dims=shifts)}))
    runs.append(("shifted_cylinder_22_1536x32", "index",
                 {"problem": _cylinder("complex_line", zero, zero, (1.0, 1.0), shift_dims=(2, 2)),
                  "grid": {"s_nodes": 1536, "t_nodes": 32}}))
    for name, weight, shift_dims in (("shifted_plane", 1.0, 2), ("plane_growth", -1.0, 0)):
        runs.append((name, "index",
                     {"problem": {"domain_kind": "plane", "fiber": "complex_line",
                                  "ends": [_end("positive", weight, zero, shift_dims)],
                                  "truncation": {"s_max": 12.0, "n_prime": 6.0}}}))
    dim4 = {"kind": "constant", "matrix": [
        [-5.1, 0.4, -0.4, -4.6], [0.4, -4.4, 2.2, -3.6], [-0.4, 2.2, 0.4, 1.7],
        [-4.6, -3.6, 1.7, -3.4]]}
    runs.append(("contact_dim4", "index",
                 {"problem": _cylinder("contact_fiber", dim4,
                                       {"kind": "constant", "matrix": [
                                           [1.2, 0.8, 0.0, -0.6], [0.8, -1.9, 0.4, 0.0],
                                           [0.0, 0.4, 2.6, 0.9], [-0.6, 0.0, 0.9, 3.3]]},
                                       (0.5, 0.5), dim=4),
                  "grid": {"s_nodes": 96, "t_nodes": 16}}))
    coupled = {"dim": 4, "coeff": dim4}
    for method in ("fourier", "finite_difference"):
        runs.append((f"spectrum_{method}", "spectrum", {"spec": coupled, "method": method}))
    # the splice pair reads codimension 3, the known tension: no expectation
    runs.append(("vdim_ladder", "vdim",
                 {"graphs": LADDER_GRAPHS,
                  "pairs": [{"degenerate": 0, "smooth": 1, "expect_codim": 1},
                            {"degenerate": 2, "smooth": 3, "expect_codim": 1},
                            {"degenerate": 4, "smooth": 5}],
                  "cases": ["one_bubble", "two_level_split", "multi_end_bubble",
                            "multi_end_split", "multi_multi_split"],
                  "variants": 100}))
    return runs


def run_all(out):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH", "")) if p))
    statuses = []
    for name, command, inputs in experiments():
        argv = [sys.executable, "-m", "crlab.cli", command, "--out", out]
        if inputs is not None:
            path = os.path.join(out, f"{name}.config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"name": name, "kind": KINDS[command], "inputs": inputs,
                           "seed": SEEDS.get(name, 0)}, fh)
            argv += ["--config", path]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        statuses.append((proc.returncode, name))
    return statuses


def digests(out):
    """(sha256, relative path) of every output file under ``out``, configs excluded."""
    found = []
    for root, _, files in os.walk(out):
        for f in files:
            path = os.path.join(root, f)
            if os.path.dirname(path) == out:      # the configs written above
                continue
            with open(path, "rb") as fh:
                found.append((hashlib.sha256(fh.read()).hexdigest(),
                              os.path.relpath(path, out).replace(os.sep, "/")))
    return sorted(found, key=lambda d: d[1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None, help="keep the outputs in this directory")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.abspath(args.out or tmp)
        os.makedirs(out, exist_ok=True)
        statuses = run_all(out)
        for code, name in statuses:
            print(f"{code}  {name}")
        for digest, path in digests(out):
            print(f"{digest}  {path}")
    return 0 if all(code == 0 for code, _ in statuses) else 1


if __name__ == "__main__":
    sys.exit(main())
