"""Self-tests of the benchmark.  Run from the root of a checkout:

  python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py, so the repository's own test run does not
collect it.  The subprocess tests run one plain and one traced worker per
workload (about a minute on two cores).
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Analytic, ContactLadder, Golden, oracle_index  # noqa: E402


def failed(checks):
    return [name for name, ok in checks if not ok]


# -- each verifier fails on a wrong integer or byte ---------------------------

def test_golden_verifier_rejects_a_wrong_byte_or_exit_code():
    expected = Golden.prepare(0)
    good = {"exit_code": 0, "csv": expected["reference_csv"]}
    assert failed(Golden.checks(good, expected)) == []
    bad = dict(good, csv=good["csv"].replace("cylinder_decay_index,-2", "cylinder_decay_index,-3"))
    assert failed(Golden.checks(bad, expected)) == ["bytes", "row:cylinder_decay_index"]
    assert failed(Golden.checks(dict(good, exit_code=2), expected)) == ["exit_code"]
    truncated = dict(good, csv=good["csv"].rsplit("\n", 3)[0] + "\n")
    assert "row:multi_multi_split_codim" in failed(Golden.checks(truncated, expected))


def _contact_outputs(mins=(0.88, 0.96, 0.98)):
    return {"reports": [{"grid": f"g{i}", "index": 0, "dim_ker": 0, "dim_coker": 0,
                         "decisive": True, "min_singular_value": m}
                        for i, m in enumerate(mins)]}


def test_contact_verifier_rejects_a_wrong_integer_or_decision():
    expected = ContactLadder.prepare(0)
    assert failed(ContactLadder.checks(_contact_outputs(), expected)) == []
    for key, value in (("index", 1), ("dim_ker", 1), ("dim_coker", 2), ("decisive", False)):
        out = _contact_outputs()
        out["reports"][1][key] = value
        assert failed(ContactLadder.checks(out, expected)) == [f"g1:{key}"]
    assert failed(ContactLadder.checks(_contact_outputs((0.9, 0.7, 0.98)), expected)) == [
        "finest_two_within_10pct"]


def test_analytic_verifier_rejects_a_wrong_integer():
    expected = Analytic.prepare(3)
    good = {"indices": [p["expected_index"] for p in expected["problems"]],
            "codims": {case: [[c, c]] * expected["variants"]
                       for case, c in expected["codim_expected"].items()}}
    assert failed(Analytic.checks(good, expected)) == []
    bad = copy.deepcopy(good)
    bad["indices"][4] += 1
    assert failed(Analytic.checks(bad, expected)) == ["index[4]"]
    bad = copy.deepcopy(good)
    bad["codims"]["multi_multi_split"][7] = [1, 2]
    assert failed(Analytic.checks(bad, expected)) == ["multi_multi_split[7]"]
    wrong_ref = copy.deepcopy(expected)
    wrong_ref["problems"][0]["expected_index"] += 1
    assert failed(Analytic.checks(good, wrong_ref)) == ["index[0]"]


# -- the analytic reference and its seed ---------------------------------------

def test_oracle_reference_matches_the_numerical_index():
    """The mode-oracle reference agrees with crlab's SVD route (criterion 7's
    grids) on one problem of each case."""
    from crlab.indexing import index_of
    from crlab.loops import LoopOperatorSpec
    from crlab.problems import GridSpec, build_contact_fiber_cylinder
    import numpy as np
    for p in Analytic.prepare(11)["problems"][:5]:
        grid = GridSpec(96, 32) if p["dim"] == 2 else GridSpec(96, 16)
        prob = build_contact_fiber_cylinder(
            LoopOperatorSpec(dim=p["dim"], coeff=np.array(p["S_minus"])),
            LoopOperatorSpec(dim=p["dim"], coeff=np.array(p["S_plus"])))
        assert index_of(prob, grid).index == p["expected_index"]


def test_seed_changes_the_inputs_but_not_the_integers():
    a, b = Analytic.prepare(1), Analytic.prepare(2)
    assert a == Analytic.prepare(1)
    assert a["problems"][0]["S_minus"] != b["problems"][0]["S_minus"]
    assert [p["expected_index"] for p in a["problems"]] == [
        p["expected_index"] for p in b["problems"]]
    import numpy as np
    p = a["problems"][3]
    assert oracle_index(np.array(p["S_minus"]), np.array(p["S_plus"]), kmax=40) == \
        p["expected_index"]


# -- the tracer ----------------------------------------------------------------

def test_tracer_rebinds_every_alias_and_restores_them():
    import crlab
    import crlab.cli  # noqa: F401
    mods = {n: sys.modules["crlab." + n] for n in ("assemble", "indexing", "gluing", "cli")}
    original = mods["assemble"].assemble
    assert crlab.assemble is original          # the package attribute is the function
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = mods["assemble"].assemble
        assert wrapped is not original and wrapped.__wrapped__ is original
        for holder in (crlab, mods["indexing"], mods["gluing"], mods["cli"]):
            assert holder.assemble is wrapped
        assert mods["gluing"].kernel_vectors is mods["assemble"].kernel_vectors
        assert mods["gluing"].kernel_vectors.__wrapped__ is not None
        assert crlab.numerical_index is mods["indexing"].numerical_index
        assert mods["gluing"].numerical_index is mods["indexing"].numerical_index
    finally:
        tracer.uninstall()
    assert crlab.assemble is original and mods["indexing"].assemble is original


def test_tracer_self_time_excludes_children_and_generator_consumers():
    import crlab.dimension as dim
    import numpy as np
    tracer = Tracer()
    tracer.install()
    try:
        rng = np.random.default_rng(0)
        for deg, smooth, _ in dim.randomized_budget_variants("one_bubble", rng, 5):
            time.sleep(0.02)
            dim.codimension(deg, smooth)
    finally:
        tracer.uninstall()
    t = tracer.table()
    gen = t["dimension.randomized_budget_variants"]
    assert gen["calls"] == 1 and t["dimension.codimension"]["calls"] == 5
    # the consumer's sleeps fall between the generator's resumptions
    assert gen["total_s"] < 0.05
    # the pair builders run inside them, as child spans
    assert t["dimension.one_bubble_pair"]["calls"] == 5
    assert gen["self_s"] < gen["total_s"]
    for st in t.values():
        assert 0.0 <= st["self_s"] <= st["total_s"] + 1e-9


# -- whole workers: traced and untraced agree; each layer is reached -------------

REACHED = {
    "golden": ["gluing.stability_constant.calls", "indexing.numerical_index.calls",
               "assemble.assemble.calls", "assemble.fd_operators.calls",
               "assemble.kernel_vectors.calls", "loops.is_nondegenerate.calls",
               "loops.assemble_loop_operator.calls", "problems.build.calls",
               "dimension.codimension.calls", "cli.write_atomic.calls",
               "cli.run.self_s", "gluing.glue.self_s", "gluing.component_kernel.self_s",
               "gluing.approximate_kernel.self_s", "gluing.transplant_residuals.self_s",
               "gluing.verify_additivity.self_s", "indexing.index_of.self_s"],
    "contact_ladder": ["indexing.numerical_index.calls", "assemble.assemble.calls",
                       "assemble.fd_operators.calls", "problems.build.calls",
                       "indexing.index_of.self_s"],
    "analytic": ["loops.spectral_flow.calls", "loops.spectral_flow.evals_per_call",
                 "loops.assemble_loop_operator.calls", "loops.is_nondegenerate.calls",
                 "problems.build.calls", "dimension.codimension.calls",
                 "dimension.randomized_budget_variants.self_s",
                 "indexing.analytic_index.self_s"],
}
# layers a workload must not reach: an optimisation there predicts no change
BYPASSED = {
    "golden": ["loops.spectral_flow.calls"],
    "contact_ladder": ["gluing.stability_constant.calls", "loops.spectral_flow.calls",
                       "assemble.kernel_vectors.calls"],
    "analytic": ["indexing.numerical_index.calls", "assemble.assemble.calls",
                 "gluing.stability_constant.calls"],
}


@pytest.mark.parametrize("workload", sorted(REACHED))
def test_traced_pass_matches_untraced_and_reaches_its_layers(workload):
    # seconds=0: exactly one plain and one traced sample
    record, error = run.measure(workload, 5, 0, trace=True)
    assert error is None and record["correct"]
    plain, traced = record["samples"]
    assert not plain["traced"] and traced["traced"]
    assert plain["identity"] == traced["identity"]
    spec = run.load_spec()
    line = run.result_line(record, spec)
    assert sorted(line["metrics"]) == sorted(m["name"] for m in spec["per_layer"])
    layers = record["layers"]
    for name in REACHED[workload]:
        assert layers[name] > 0, name
    for name in BYPASSED[workload]:
        assert layers[name] == 0, name


def test_end_to_end_line_names_every_metric():
    record, error = run.measure("analytic", 2, 0, trace=False)
    assert error is None and record["correct"]
    spec = run.load_spec()
    line = run.result_line(record, spec)
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert sorted(line["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert len(record["setups"]) >= run.MIN_SETUPS


def test_fails_without_the_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "golden", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_compare_flags_a_regression(tmp_path):
    import compare
    base, head = tmp_path / "base.jsonl", tmp_path / "head.jsonl"
    for path, wall in ((base, 1.0), (head, 1.5)):
        with open(path, "w") as fh:
            for seed in range(3):
                rec = {"workload": "golden", "trace": 0,
                       "stats": {"wall_s": {"median": wall + 0.01 * seed}}}
                fh.write(json.dumps(rec) + "\n")
    assert compare.main([str(base), str(base)]) == 0
    assert compare.main([str(base), str(head)]) == 1
