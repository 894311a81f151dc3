"""scripts/bench_pairs.py: the pair summary, and one smoke pair end to end."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "scripts" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load()


def _pair(parent, change):
    return {"parent": {"metrics": parent}, "change": {"metrics": change}}


def test_summary_of_synthetic_pairs():
    walls = [(1, 0.5), (2, 2.5), (3, 2), (4, 3), (5, 4)]
    passed = [(1, 1), (1, 1), (0.9, 0.95), (1, 1), (1, 0.9)]
    pairs = [_pair({"wall_s": pw, "passed_frac": pp}, {"wall_s": cw, "passed_frac": cp})
             for (pw, cw), (pp, cp) in zip(walls, passed)]
    summary = bench_pairs.summarize(pairs, {"wall_s": "lower", "passed_frac": "higher"})
    wall = summary["wall_s"]
    assert wall["parent"] == {"median": 3, "q1": 2, "q3": 4}
    assert wall["change"] == {"median": 2.5, "q1": 2, "q3": 3}
    assert (wall["change_wins"], wall["ties"], wall["pairs"]) == (4, 0, 5)
    assert wall["relative_change"] == pytest.approx(2.5 / 3 - 1)
    frac = summary["passed_frac"]
    assert (frac["change_wins"], frac["ties"], frac["better"]) == (1, 3, "higher")
    assert frac["parent"] == {"median": 1, "q1": 1, "q3": 1}


def test_label_summary_keeps_the_labels_every_run_has():
    def run(**ms):
        return {"label_p50_ms": ms}

    pairs = [
        {"parent": run(scan=10.0, edge=2.0, rare=1.0), "change": run(scan=8.0, edge=2.0)},
        {"parent": run(scan=12.0, edge=3.0), "change": run(scan=9.0, edge=2.5)},
        {"parent": run(scan=11.0, edge=2.0), "change": run(scan=10.0, edge=2.0, rare=5.0)},
    ]
    labels = bench_pairs.label_summary(pairs)
    assert list(labels) == ["edge", "scan"]
    scan = labels["scan"]
    assert scan["parent"]["median"] == 11.0 and scan["change"]["median"] == 9.0
    assert (scan["change_wins"], scan["ties"], scan["better"]) == (3, 0, "lower")
    assert scan["relative_change"] == pytest.approx(9 / 11 - 1)
    assert (labels["edge"]["change_wins"], labels["edge"]["ties"]) == (1, 2)


def _rows(parent, change, better="lower", bound=0.25):
    pairs = [_pair({"m": p}, {"m": c}) for p, c in zip(parent, change)]
    return bench_pairs.summarize(pairs, {"m": better}, bounds={"m": bound})["m"]


def test_verdict_applies_the_rule_to_synthetic_pairs():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    # median 10, interquartile range 0.175: a gain needs 9/10 wins and a
    # median more than 0.175 better
    assert _rows(parent, [p - 1 for p in parent])["verdict"] == "gain"
    assert _rows(parent, [p - 0.15 for p in parent])["verdict"] == "none"
    nine = [p - 1 for p in parent[:9]] + [parent[9] + 1]
    assert _rows(parent, nine)["verdict"] == "gain"
    eight = [p - 1 for p in parent[:8]] + [p + 1 for p in parent[8:]]
    assert _rows(parent, eight)["verdict"] == "none"
    # a regression also has to pass the bound: +30% does, +10% does not
    assert _rows(parent, [1.3 * p for p in parent])["verdict"] == "regression"
    assert _rows(parent, [1.1 * p for p in parent])["verdict"] == "none"
    assert _rows(parent, [1.1 * p for p in parent], bound=0.05)["verdict"] == "regression"
    # higher is better: a fall is the regression, a rise the gain
    assert _rows(parent, [0.7 * p for p in parent], "higher")["verdict"] == "regression"
    assert _rows(parent, [p + 1 for p in parent], "higher")["verdict"] == "gain"
    # ties are neither wins nor losses
    assert _rows(parent, parent)["verdict"] == "none"


def test_label_rows_take_the_bound_given():
    pairs = [{"parent": {"label_p50_ms": {"scan": p}}, "change": {"label_p50_ms": {"scan": c}}}
             for p, c in zip([1.0, 1.1, 0.9, 1.0], [1.2, 1.3, 1.1, 1.2])]
    assert bench_pairs.label_summary(pairs)["scan"]["verdict"] == "regression"
    assert bench_pairs.label_summary(pairs, 0.25)["scan"]["verdict"] == "none"
    assert bench_pairs.label_summary(pairs, 0.15)["scan"]["verdict"] == "regression"


def test_one_pair_spread_and_seed_ranges():
    assert bench_pairs.spread([0.25]) == {"median": 0.25, "q1": 0.25, "q3": 0.25}
    assert bench_pairs._seeds("3-5,8") == [3, 4, 5, 8]


@pytest.mark.skipif(shutil.which("git") is None or not (REPO / ".git").exists(),
                    reason="needs git and the repository's history")
def test_smoke_pair_on_exact_seq(tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", "HEAD", "--workload", "exact_seq",
         "--seeds", "1", "--passes", "1", "--setup-reps", "1", "--label", "smoke",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    names = {m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]}
    run = result["workloads"]["exact_seq"]
    assert result["label"] == "smoke" and set(run["summary"]) == names
    lines = result["provenance"]["src_lines"]
    assert all(type(lines[side]) is int and lines[side] > 0 for side in ("parent", "change"))
    ((pair),) = run["pairs"]
    for side in ("parent", "change"):
        assert pair[side]["passes"] == 1 and pair[side]["correct"]
        assert set(pair[side]["metrics"]) == names
    assert run["labels"] and set(run["labels"]) == set(pair["change"]["label_p50_ms"])
    assert {row["verdict"] for row in [*run["summary"].values(), *run["labels"].values()]} <= {
        "gain", "regression", "none"}
    assert pair["parent"]["inputs_sha256"] == pair["change"]["inputs_sha256"]
    assert run["identical_failures"]
