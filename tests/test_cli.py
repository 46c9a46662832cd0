"""Experiment configs, schema validation, output files, determinism, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import NEAR_COLLISION_ENDPOINTS

import crlab.cli as cli
from crlab.cli import EXIT_ERROR, EXIT_INDECISIVE, EXIT_OK, ExperimentConfig, run
from crlab.exceptions import ConfigError


def trivial_problem_json(weights=(1.0, 1.0), shifts=(0, 0), s_max=12.0, n_prime=6.0):
    def end(sign, w, sd):
        return {"sign": sign, "weight": w, "shift_dims": sd,
                "asymptotic": {"dim": 2, "period": 1.0, "coeff": {"kind": "zero"}}}
    return {
        "domain_kind": "cylinder",
        "ends": [end("negative", weights[0], shifts[0]),
                 end("positive", weights[1], shifts[1])],
        "fiber": "complex_line",
        "truncation": {"s_max": s_max, "n_prime": n_prime},
    }


def contact_problem_json(diag_m, diag_p, weights=(0.0, 0.0), s_max=12.0, n_prime=3.0):
    def end(sign, w, vals):
        return {"sign": sign, "weight": w, "shift_dims": 0,
                "asymptotic": {"dim": 2, "coeff": {"kind": "diag", "values": vals}}}
    return {
        "domain_kind": "cylinder",
        "ends": [end("negative", weights[0], diag_m), end("positive", weights[1], diag_p)],
        "fiber": "contact_fiber",
        "truncation": {"s_max": s_max, "n_prime": n_prime},
    }


def test_config_roundtrip():
    cfg = ExperimentConfig(name="x", kind="index",
                           inputs={"problem": trivial_problem_json()},
                           output_dir="out", seed=3)
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg


def test_schema_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json({"name": "x", "kind": "nonsense"})


def test_schema_reports_pointer():
    bad = {"name": "x", "kind": "index",
           "inputs": {"problem": {"domain_kind": "torus", "ends": [], "fiber": "complex_line",
                                  "truncation": {"s_max": 12.0, "n_prime": 6.0}}}}
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_json(bad)
    assert "inputs" in err.value.pointer


def test_spectrum_experiment_is_deterministic(tmp_path):
    cfg = ExperimentConfig(
        name="spec0", kind="spectrum",
        inputs={"spec": {"dim": 2, "coeff": {"kind": "zero"}}, "t_resolution": 64},
        output_dir=str(tmp_path))
    assert run(cfg) == EXIT_OK
    p = tmp_path / "spec0" / "spectrum.csv"
    first = p.read_bytes()
    data = json.loads((tmp_path / "spec0" / "spectrum.json").read_text())
    vals = [e["value"] for e in data["eigenvalues"] if abs(e["value"]) < 10]
    assert any(abs(v) < 1e-9 for v in vals)
    assert all(e["multiplicity"] == 2 for e in data["eigenvalues"]
               if abs(e["value"]) < 10 and e["reliable"])
    assert run(cfg) == EXIT_OK
    assert p.read_bytes() == first
    assert b"\r" not in first


def test_index_experiment_exit_codes(tmp_path):
    good = ExperimentConfig(
        name="idx", kind="index",
        inputs={"problem": trivial_problem_json(), "expect_index": -2},
        output_dir=str(tmp_path))
    assert run(good) == EXIT_OK
    text = (tmp_path / "idx" / "index.csv").read_text()
    assert "-2" in text
    bad = ExperimentConfig(
        name="idx_bad", kind="index",
        inputs={"problem": trivial_problem_json(), "expect_index": 5},
        output_dir=str(tmp_path))
    assert run(bad) == EXIT_ERROR


def test_index_experiment_matrix_export(tmp_path):
    cfg = ExperimentConfig(
        name="mx", kind="index",
        inputs={"problem": trivial_problem_json(s_max=6.0, n_prime=3.0),
                "grid": {"s_nodes": 48, "t_nodes": 16}, "export_matrix": True},
        output_dir=str(tmp_path))
    assert run(cfg) == EXIT_OK
    assert (tmp_path / "mx" / "operator.mtx").exists()


def test_indecisive_exit_code(tmp_path, monkeypatch):
    cfg = ExperimentConfig(
        name="ind2", kind="index",
        inputs={"problem": trivial_problem_json()},
        output_dir=str(tmp_path))
    real = cli.numerical_index

    def flagged(op, policy=None):
        rep = real(op)
        rep.decisive = False
        return rep

    monkeypatch.setattr(cli, "numerical_index", flagged)
    assert run(cfg) == EXIT_INDECISIVE


def test_memory_error_is_a_clean_error(tmp_path, monkeypatch):
    # a grid too large to allocate fails inside numpy with a MemoryError
    def too_large(problem, grid):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(cli, "assemble", too_large)
    cfg = ExperimentConfig(name="oom", kind="index", inputs={"problem": trivial_problem_json()},
                           output_dir=str(tmp_path))
    assert run(cfg) == EXIT_ERROR
    summary = (tmp_path / "oom" / "summary.txt").read_text()
    assert summary == "ERROR: MemoryError: Unable to allocate 7.28 TiB\n"


def test_sweep_experiment(tmp_path):
    cfg = ExperimentConfig(
        name="sw", kind="sweep",
        inputs={"problem": trivial_problem_json(weights=(-1.0, 1.0)),
                "deltas": [0.3, 1.0, 2.0, 3.0]},
        output_dir=str(tmp_path))
    assert run(cfg) == EXIT_OK
    lines = (tmp_path / "sw" / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 5
    assert all(line.split(",")[1] == "0" for line in lines[1:])
    jumps = (tmp_path / "sw" / "jumps.csv").read_text().strip().splitlines()
    assert len(jumps) == 4


def test_glue_experiment(tmp_path):
    cfg = ExperimentConfig(
        name="gl", kind="glue",
        inputs={"problem_u": contact_problem_json([-2.0, -2.0], [1.0, 1.0], (1.0, 0.5)),
                "problem_w": contact_problem_json([1.0, 1.0], [3.0, 3.0], (-0.5, 1.5)),
                "taus": [6.0, 8.0]},
        output_dir=str(tmp_path))
    assert run(cfg) == EXIT_OK
    rows = (tmp_path / "gl" / "glue.csv").read_text().strip().splitlines()
    assert rows[0].startswith("tau,ind_u,ind_w,ind_glued")
    assert len(rows) == 3


@pytest.mark.parametrize("grid, code", [("48x8", EXIT_ERROR), ("97x16", EXIT_OK)])
def test_glue_grid_override_reaches_the_components(tmp_path, grid, code):
    # 48 s-nodes on |s| <= 12 break the weight-resolution rule at |delta| = 1.5
    cfg = {"name": "glg", "kind": "glue",
           "inputs": {"problem_u": contact_problem_json([-2.0, -2.0], [1.0, 1.0], (1.0, 0.5)),
                      "problem_w": contact_problem_json([1.0, 1.0], [3.0, 3.0], (-0.5, 1.5)),
                      "taus": [6.0, 8.0]},
           "output_dir": str(tmp_path)}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["glue", "--config", str(path), "--grid", grid]) == code
    summary = (tmp_path / "glg" / "summary.txt").read_text()
    if code == EXIT_ERROR:
        assert summary.startswith("ERROR: ResolutionError")
    else:
        assert "additivity: PASS" in summary


def test_vdim_experiment(tmp_path):
    from crlab.dimension import broken_pair, single_cylinder
    cfg = ExperimentConfig(
        name="vd", kind="vdim",
        inputs={"graphs": [broken_pair(1, 1).to_json(), single_cylinder(2).to_json()],
                "pairs": [{"degenerate": 0, "smooth": 1, "expect_codim": 1}],
                "cases": ["one_bubble", "multi_multi_split"], "variants": 10},
        output_dir=str(tmp_path), seed=11)
    assert run(cfg) == EXIT_OK
    assert (tmp_path / "vd" / "dims.csv").exists()
    assert (tmp_path / "vd" / "codims.csv").exists()
    wrong = ExperimentConfig(
        name="vd_bad", kind="vdim",
        inputs={"graphs": [broken_pair(1, 1).to_json(), single_cylinder(2).to_json()],
                "pairs": [{"degenerate": 0, "smooth": 1, "expect_codim": 3}]},
        output_dir=str(tmp_path))
    assert run(wrong) == EXIT_ERROR


def test_error_exit_and_summary(tmp_path):
    cfg = ExperimentConfig(
        name="boom", kind="index",
        inputs={"problem": trivial_problem_json(weights=(9.0, 1.0))},
        output_dir=str(tmp_path))
    assert run(cfg) == EXIT_ERROR
    assert "ERROR" in (tmp_path / "boom" / "summary.txt").read_text()


def _contact_fiber_plane_json():
    return {"domain_kind": "plane",
            "ends": [{"sign": "positive", "weight": 0.5, "shift_dims": 0,
                      "asymptotic": {"dim": 4, "coeff": {"kind": "diag",
                                                         "values": [1.0, 2.0, 3.0, 4.0]}}}],
            "fiber": "contact_fiber",
            "truncation": {"s_max": 12.0, "n_prime": 6.0}}


def _complex_line_with_asymptotics_json():
    p = trivial_problem_json()
    for end, vals in zip(p["ends"], ([3.0, 3.0], [-5.0, -5.0])):
        end["asymptotic"]["coeff"] = {"kind": "diag", "values": vals}
    return p


@pytest.mark.parametrize("make_problem", [_contact_fiber_plane_json,
                                          _complex_line_with_asymptotics_json],
                         ids=["contact_fiber_plane", "complex_line_with_asymptotics"])
def test_config_the_builders_cannot_honour_is_an_error(tmp_path, make_problem):
    # the builders would index another problem: the complex-line plane, or
    # the trivial cylinder with i d/dt at both ends
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"name": "other", "kind": "index",
                                "inputs": {"problem": make_problem()},
                                "output_dir": str(tmp_path)}))
    assert cli.main(["index", "--config", str(path)]) == EXIT_ERROR
    assert (tmp_path / "other" / "summary.txt").read_text().startswith("ERROR:")
    assert not (tmp_path / "other" / "index.json").exists()


def test_index_on_near_collision_cylinder(tmp_path):
    # the interpolation path between these ends carries two eigenvalues that
    # nearly collide; the analytic index must still come out
    p = contact_problem_json([1.0, 1.0], [1.0, 1.0])
    for end, S in zip(p["ends"], NEAR_COLLISION_ENDPOINTS):
        end["asymptotic"] = {"dim": 4, "coeff": {"kind": "constant", "matrix": S}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"name": "near", "kind": "index",
                                "inputs": {"problem": p, "grid": {"s_nodes": 96, "t_nodes": 16}},
                                "output_dir": str(tmp_path)}))
    assert cli.main(["index", "--config", str(path)]) == EXIT_OK
    assert "analytic index = 0: PASS" in (tmp_path / "near" / "summary.txt").read_text()


def _odd_grid(tmp_path):
    return ["reproduce-all", "--out", str(tmp_path), "--grid", "96x33"]


def _pair_of_missing_graph(tmp_path):
    from crlab.dimension import broken_pair
    return _config_argv(tmp_path, "vdim", {"graphs": [broken_pair(1, 1).to_json()],
                                           "pairs": [{"degenerate": 0, "smooth": 1}]})


def _vdim_unknown_case(tmp_path):
    return _config_argv(tmp_path, "vdim", {"cases": ["nope"]})


def _cylinder_without_negative_end(tmp_path):
    p = trivial_problem_json()
    p["ends"][0]["sign"] = "positive"
    return _config_argv(tmp_path, "index", {"problem": p})


def _plane_with_negative_end(tmp_path):
    from crlab.problems import build_plane
    p = build_plane(1.0).to_json()
    p["ends"][0]["sign"] = "negative"
    return _config_argv(tmp_path, "index", {"problem": p})


def _index_with_misspelt_grid(tmp_path):
    return _config_argv(tmp_path, "index", {"problem": trivial_problem_json(),
                                            "grdi": {"s_nodes": 48, "t_nodes": 8}})


def _glue_with_grid(tmp_path):
    p = contact_problem_json([1.0, 1.0], [1.0, 1.0])
    return _config_argv(tmp_path, "glue", {"problem_u": p, "problem_w": p, "taus": [6.0],
                                           "grid": {"s_nodes": 48, "t_nodes": 8}})


def _index_with_extra_grid_key(tmp_path):
    return _config_argv(tmp_path, "index", {"problem": trivial_problem_json(),
                                            "grid": {"s_nodes": 96, "t_nodes": 32, "tnodes": 64}})


def _truncation_with_extra_key(tmp_path):
    p = trivial_problem_json()
    p["truncation"]["nprime"] = 6.0
    return _config_argv(tmp_path, "index", {"problem": p})


def _index_with_coeff(tmp_path, coeff):
    p = contact_problem_json([1.0, 1.0], [1.0, 1.0])
    p["ends"][0]["asymptotic"]["coeff"] = coeff
    return _config_argv(tmp_path, "index", {"problem": p})


def _diag_with_misspelt_values(tmp_path):
    return _index_with_coeff(tmp_path, {"kind": "diag", "valeus": [1.0, 1.0]})


def _diag_without_values(tmp_path):
    return _index_with_coeff(tmp_path, {"kind": "diag"})


def _constant_without_matrix(tmp_path):
    return _index_with_coeff(tmp_path, {"kind": "constant"})


def _zero_with_values(tmp_path):
    return _index_with_coeff(tmp_path, {"kind": "zero", "values": [5.0, 5.0]})


def _diag_with_matrix(tmp_path):
    return _index_with_coeff(tmp_path, {"kind": "diag", "values": [1.0, 1.0],
                                        "matrix": [[1.0, 0.0], [0.0, 1.0]]})


def _spectrum_with_period_2(tmp_path):
    return _config_argv(tmp_path, "spectrum", {"spec": {"dim": 2, "period": 2}})


def _problem_with_interpolation(tmp_path):
    p = contact_problem_json([1.0, 1.0], [1.0, 1.0])
    p["interpolation"] = "linear"
    return _config_argv(tmp_path, "index", {"problem": p})


def _vdim_with_graphs(tmp_path, pair):
    from crlab.dimension import broken_pair, single_cylinder
    return _config_argv(tmp_path, "vdim", {
        "graphs": [broken_pair(1, 1).to_json(), single_cylinder(2).to_json()], "pairs": [pair]})


def _component_with_misspelt_key(tmp_path):
    argv = _vdim_with_graphs(tmp_path, {"degenerate": 0, "smooth": 1})
    cfg = json.loads((tmp_path / "cfg.json").read_text())
    component = cfg["inputs"]["graphs"][1]["components"][0]
    component["targetlevel"] = component.pop("target_level")
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    return argv


def _pair_with_misspelt_key(tmp_path):
    return _vdim_with_graphs(tmp_path, {"degenerate": 0, "smooth": 1, "expect_codimm": 7})


def _contact_with_shifts(tmp_path):
    p = contact_problem_json([1.0, 1.0], [1.0, 1.0])
    p["ends"][0]["shift_dims"] = 2
    return _config_argv(tmp_path, "index", {"problem": p})


def _config_argv(tmp_path, kind, inputs):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"name": "bad", "kind": kind, "inputs": inputs,
                                "output_dir": str(tmp_path)}))
    return [kind, "--config", str(path)]


def _sweep_argv(tmp_path, deltas):
    argv = _config_argv(tmp_path, "sweep", {"problem": trivial_problem_json(weights=(-1.0, 1.0)),
                                            "deltas": deltas})
    return ["sweep-delta"] + argv[1:]


def _sweep_with_negative_delta(tmp_path):
    return _sweep_argv(tmp_path, [0.5, -1.5])


@pytest.mark.parametrize("make_argv, message", [
    (_odd_grid, "bad --grid value '96x33'"),
    (_pair_of_missing_graph, "ERROR: ConfigError: /inputs/pairs/0: names a graph beyond the 1 given"),
    (_vdim_unknown_case, "config error: /inputs/cases/0: 'nope' is not one of ['one_bubble', "),
    (_cylinder_without_negative_end,
     "ERROR: ValueError: a cylinder needs one negative and one positive end"),
    (_plane_with_negative_end, "ERROR: ValueError: a plane needs exactly one positive end"),
    (_contact_with_shifts,
     "ERROR: ValueError: augmentation shifts live on the complex-line part only"),
    (_index_with_misspelt_grid,
     "config error: /inputs: Additional properties are not allowed ('grdi' was unexpected)"),
    (_glue_with_grid,
     "config error: /inputs: Additional properties are not allowed ('grid' was unexpected)"),
    (_sweep_with_negative_delta,
     "config error: /inputs/deltas/1: -1.5 is less than or equal to the minimum of 0"),
    (_index_with_extra_grid_key,
     "config error: /inputs/grid: Additional properties are not allowed ('tnodes' was unexpected)"),
    (_truncation_with_extra_key,
     "config error: /inputs/problem/truncation: Additional properties are not allowed "
     "('nprime' was unexpected)"),
    (_diag_with_misspelt_values,
     "config error: /inputs/problem/ends/0/asymptotic/coeff: Additional properties are not "
     "allowed ('valeus' was unexpected)"),
    (_diag_without_values,
     "config error: /inputs/problem/ends/0/asymptotic/coeff: 'values' is a required property"),
    (_constant_without_matrix,
     "config error: /inputs/problem/ends/0/asymptotic/coeff: 'matrix' is a required property"),
    (_zero_with_values,
     "config error: /inputs/problem/ends/0/asymptotic/coeff: 'values' is not one of ['kind']"),
    (_diag_with_matrix,
     "config error: /inputs/problem/ends/0/asymptotic/coeff: 'matrix' is not one of "
     "['kind', 'values']"),
    (_spectrum_with_period_2, "config error: /inputs/spec/period: 1 was expected"),
    (_problem_with_interpolation,
     "config error: /inputs/problem: Additional properties are not allowed "
     "('interpolation' was unexpected)"),
    (_component_with_misspelt_key,
     "config error: /inputs/graphs/1/components/0: Additional properties are not allowed "
     "('targetlevel' was unexpected)"),
    (_pair_with_misspelt_key,
     "config error: /inputs/pairs/0: Additional properties are not allowed "
     "('expect_codimm' was unexpected)"),
], ids=["odd_grid", "pair_of_missing_graph", "vdim_unknown_case",
        "cylinder_without_negative_end", "plane_with_negative_end", "contact_with_shifts",
        "index_with_misspelt_grid",
        "glue_with_grid", "sweep_with_negative_delta", "index_with_extra_grid_key",
        "truncation_with_extra_key", "diag_with_misspelt_values", "diag_without_values",
        "constant_without_matrix", "zero_with_values", "diag_with_matrix",
        "spectrum_with_period_2", "problem_with_interpolation",
        "component_with_misspelt_key", "pair_with_misspelt_key"])
def test_malformed_input_is_a_clean_error(tmp_path, capsys, make_argv, message):
    assert cli.main(make_argv(tmp_path)) == EXIT_ERROR
    summary = tmp_path / "bad" / "summary.txt"
    reported = summary.read_text() if summary.exists() else capsys.readouterr().err
    assert reported.startswith(message)
    if message.startswith("config error"):
        # refused before any run: no output directory
        assert not (tmp_path / "bad").exists()


def test_sweep_over_repeated_magnitude(tmp_path):
    # two samples at one magnitude: no window lies between them
    assert cli.main(_sweep_argv(tmp_path, [0.5, 0.5, 1.5])) == EXIT_OK
    sweep = (tmp_path / "bad" / "sweep.csv").read_text().strip().splitlines()
    assert len(sweep) == 4
    jumps = (tmp_path / "bad" / "jumps.csv").read_text().strip().splitlines()
    assert jumps[1:] == ["0.5,0.5,0,0", "0.5,1.5,0,0"]


def test_main_entry_with_config_file(tmp_path):
    cfg = {"name": "fromfile", "kind": "index",
           "inputs": {"problem": trivial_problem_json(), "expect_index": -2},
           "output_dir": str(tmp_path)}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["index", "--config", str(path)]) == EXIT_OK
    # grid override via the command line
    assert cli.main(["index", "--config", str(path), "--grid", "96x16"]) == EXIT_OK
    assert cli.main(["index", "--config", str(path), "--grid", "junk"]) == EXIT_ERROR


def test_main_rejects_mismatched_subcommand(tmp_path):
    cfg = {"name": "x", "kind": "index",
           "inputs": {"problem": trivial_problem_json()}, "output_dir": str(tmp_path)}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["sweep-delta", "--config", str(path)]) == EXIT_ERROR


def _main_with_smax(tmp_path, kind, inputs):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"name": "sm", "kind": kind, "inputs": inputs,
                                "output_dir": str(tmp_path)}))
    return cli.main([kind, "--config", str(path), "--smax", "14"])


def _problem_without_truncation():
    p = contact_problem_json([1.0, 1.0], [1.0, 1.0])
    del p["truncation"]
    return p


@pytest.mark.parametrize("make_problem_u", [_problem_without_truncation, lambda: 5],
                         ids=["no_truncation", "not_an_object"])
def test_smax_on_malformed_problem_is_config_error(tmp_path, capsys, make_problem_u):
    inputs = {"problem_u": make_problem_u(),
              "problem_w": contact_problem_json([1.0, 1.0], [1.0, 1.0]), "taus": [6.0]}
    assert _main_with_smax(tmp_path, "glue", inputs) == EXIT_ERROR
    assert "config error" in capsys.readouterr().err


def test_smax_override_reaches_the_problem(tmp_path):
    inputs = {"problem": trivial_problem_json(), "expect_index": -2}
    assert _main_with_smax(tmp_path, "index", inputs) == EXIT_OK
    assert json.loads((tmp_path / "sm" / "index.json").read_text())["grid_tag"].endswith("@S14")


@pytest.mark.parametrize("problem, flags", [
    (trivial_problem_json(s_max=float("inf")), []),
    (trivial_problem_json(weights=(float("nan"), 1.0)), []),
    (trivial_problem_json(), ["--smax", "inf"]),
    (trivial_problem_json(), ["--smax", "nan"]),
], ids=["s_max_infinity", "weight_nan", "smax_flag_inf", "smax_flag_nan"])
def test_non_finite_number_is_a_config_error(tmp_path, capsys, problem, flags):
    # json.dumps writes inf and nan as the constants Infinity and NaN, which
    # json.load reads back and the schema's numbers accept
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"name": "nf", "kind": "index", "inputs": {"problem": problem},
                                "output_dir": str(tmp_path)}))
    try:
        code = cli.main(["index", "--config", str(path)] + flags)
    except SystemExit as exc:       # argparse rejects the flag's value
        code = exc.code
    assert code == EXIT_ERROR
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["index"],                                          # --config is required
    ["reproduce-all", "--frobnicate"],
    ["reproduce-all", "--smax", "30", "--seed", "5"],   # flags reproduce-all does not read
    ["spectrum", "--config", "cfg.json", "--grid", "96x32"],
    ["vdim", "--config", "cfg.json", "--grid", "96x32"],
    ["index", "--config", "cfg.json", "--seed", "5"],
], ids=["no_config", "unknown_flag", "reproduce_all_smax_seed", "spectrum_grid", "vdim_grid",
        "index_seed"])
def test_usage_error_exits_1(argv, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["glue", "--help"])
    assert err.value.code == EXIT_OK
    assert "--smax" in capsys.readouterr().out


def test_kinds_agree_between_schema_runners_and_subcommands():
    kinds = set(cli.load_schema()["properties"]["kind"]["enum"])
    assert kinds == set(cli.EXPERIMENTS)


def test_vdim_cases_agree_between_schema_and_dimension():
    vdim = next(part["then"] for part in cli.load_schema()["allOf"]
                if part["if"]["properties"]["kind"]["const"] == "vdim")
    cases = vdim["properties"]["inputs"]["properties"]["cases"]["items"]["enum"]
    assert cases == list(cli.dimension.CANONICAL_CASES)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)])
def test_outputs_take_the_mode_of_the_umask(tmp_path, umask, mode):
    # mkstemp alone would leave every result file 0600
    old = os.umask(umask)
    try:
        cli.write_atomic(str(tmp_path / "out.csv"), "a\n")
    finally:
        os.umask(old)
    assert (tmp_path / "out.csv").stat().st_mode & 0o777 == mode
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_float_formatting_fixed_width():
    assert cli.fmt(np.float64(1.0) / 3.0) == "0.33333333333333331"
    assert cli.fmt(7) == "7"
    assert cli.fmt(True) == "true"
    for x, text in ((np.inf, "inf"), (-np.inf, "-inf"), (np.nan, "nan")):
        assert cli.fmt(x) == cli.fmt(np.float64(x)) == text


@pytest.mark.parametrize("s_nodes", [384, 192], ids=["384x64", "192x64"])
def test_index_files_identical_across_blas_threads(tmp_path, s_nodes):
    # criterion 6's isomorphism: every block takes the banded route, whose
    # output does not depend on the number of BLAS threads.  Dense SVD differs
    # in the low digits, so outside this contract stay the blocks with shift
    # columns, the blocks the Gram guard rejects and the full SVD in
    # kernel_vectors -- and with them the stability column of ``glue`` on a
    # glued problem whose stability constant reads a shifted block.
    cfg = ExperimentConfig(
        name="iso", kind="index",
        inputs={"problem": contact_problem_json([1.0, 1.0], [1.0, 1.0], n_prime=6.0),
                "grid": {"s_nodes": s_nodes, "t_nodes": 64}})
    path = tmp_path / "iso.json"
    path.write_text(json.dumps(cfg.to_json()))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    outputs = []
    for threads in ("1", "2"):
        # the variables must be set before numpy loads: a fresh interpreter
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "crlab.cli", "index", "--config", str(path), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr
        outputs.append([(out / "iso" / f).read_bytes() for f in ("index.json", "index.csv")])
    assert outputs[0] == outputs[1]
