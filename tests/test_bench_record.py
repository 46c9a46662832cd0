"""tools/bench_record.py: pairing, summaries and the claim rule on made-up runs."""

import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _runs(path, rss, wall, commit):
    with open(path, "w") as fh:
        for seed, (r, w) in enumerate(zip(rss, wall), start=1):
            stats = {"peak_rss_mb": {"median": r}, "wall_s": {"median": w},
                     "pass_ratio": {"median": 1.0}}
            fh.write(json.dumps({"workload": "ladder", "seed": seed, "seconds": 20,
                                 "stats": stats, "env": {"commit": commit, "nproc": 2}}) + "\n")


def test_record_pairs_runs_and_applies_the_claim_rule(tmp_path):
    parent_rss = [368.0, 370.0, 366.0, 369.0, 371.0, 367.0, 368.5, 369.5, 370.5, 366.5]
    change_rss = [98.0, 99.0, 97.0, 98.5, 99.5, 97.5, 98.2, 98.8, 99.2, 400.0]
    _runs(tmp_path / "p.jsonl", parent_rss, [3.0] * 10, "aaa")
    _runs(tmp_path / "c.jsonl", change_rss, [3.1] * 10, "bbb")
    out = tmp_path / "bench.json"
    assert bench_record.main([str(tmp_path / "p.jsonl"), str(tmp_path / "c.jsonl"),
                              "--change", "x", "--claim", "ladder/peak_rss_mb",
                              "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    rss = rec["end_to_end"]["ladder"]["peak_rss_mb"]
    assert (rss["pairs"], rss["change_wins"], rss["ties"]) == (10, 9, 0)
    assert rss["parent"]["median"] == 368.75 and rss["change_runs"][-1] == 400.0
    assert rec["claim"]["met"] and rec["claim"]["change_median"] == 98.65
    assert rec["end_to_end"]["ladder"]["wall_s"]["change_wins"] == 0
    assert rec["end_to_end"]["ladder"]["pass_ratio"]["ties"] == 10
    assert rec["environment"]["parent_commit"] == "aaa"
    assert rec["environment"]["change_commit"] == "bbb"
    assert rec["protocol"]["pairs"] == 10 and rec["protocol"]["run_seconds"] == [20]
    # wall_s is worse by 3.3 %, within its bound of 25 %
    assert rec["regressions"] == [] and not rec["end_to_end"]["ladder"]["wall_s"]["regression"]


def test_regressions_are_flagged_by_each_metric_bound(tmp_path):
    # against the spec's bounds: wall_s 26 % worse is beyond its 25 %, and 25 %
    # worse is not; peak_rss_mb 6 % worse is beyond its 5 %; pass_ratio is equal
    _runs(tmp_path / "p.jsonl", [100.0] * 10, [2.0] * 10, "a")
    _runs(tmp_path / "c.jsonl", [106.0] * 10, [2.52] * 10, "b")
    out = tmp_path / "bench.json"
    assert bench_record.main([str(tmp_path / "p.jsonl"), str(tmp_path / "c.jsonl"), "--change",
                              "x", "--claim", "ladder/wall_s", "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    rows = rec["end_to_end"]["ladder"]
    assert rec["regressions"] == ["ladder/peak_rss_mb", "ladder/wall_s"]
    assert rows["wall_s"]["regression"] and rows["peak_rss_mb"]["regression"]
    assert not rows["pass_ratio"]["regression"] and not rec["claim"]["met"]
    _runs(tmp_path / "c.jsonl", [100.0] * 10, [2.5] * 10, "b")
    bench_record.main([str(tmp_path / "p.jsonl"), str(tmp_path / "c.jsonl"), "--change", "x",
                       "--claim", "ladder/wall_s", "--out", str(out)])
    assert json.loads(out.read_text())["regressions"] == []


def test_unpaired_runs_are_refused(tmp_path):
    _runs(tmp_path / "p.jsonl", [1.0] * 10, [1.0] * 10, "a")
    _runs(tmp_path / "c.jsonl", [1.0] * 9, [1.0] * 9, "b")
    with pytest.raises(SystemExit, match="unpaired"):
        bench_record.main([str(tmp_path / "p.jsonl"), str(tmp_path / "c.jsonl"), "--change",
                           "x", "--claim", "ladder/wall_s", "--out", str(tmp_path / "o.json")])


def test_direction_comes_from_the_spec(tmp_path, monkeypatch):
    # the same runs judged by a spec in which a larger wall_s is better
    spec = json.loads(pathlib.Path(bench_record.SPEC).read_text())
    wall = next(m for m in spec["end_to_end"] if m["name"] == "wall_s")
    assert wall["better"] == "lower"
    wall["better"] = "higher"
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(bench_record, "SPEC", str(tmp_path / "BENCHMARK.json"))
    _runs(tmp_path / "p.jsonl", [1.0] * 10, [3.0] * 10, "a")
    _runs(tmp_path / "c.jsonl", [1.0] * 10, [3.1] * 10, "b")
    out = tmp_path / "bench.json"
    assert bench_record.main([str(tmp_path / "p.jsonl"), str(tmp_path / "c.jsonl"), "--change",
                              "x", "--claim", "ladder/wall_s", "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["end_to_end"]["ladder"]["wall_s"]["change_wins"] == 10 and rec["claim"]["met"]
