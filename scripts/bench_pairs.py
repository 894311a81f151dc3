#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs at a fixed pass count.

    python3 scripts/bench_pairs.py --parent HEAD --change WORKTREE \\
        --workload boundary --seeds 17100-17109 --passes 40 \\
        --label 17_boundary --claim "boundary wall_s falls by ..."

Each side runs from its own checkout in a scratch directory: a local clone
at the given commit, or, for --change WORKTREE, a copy of the working
tree's tracked and untracked files that git does not ignore. Every run is
one fresh python process inside its checkout. It imports that checkout's
perfbench/run.py, times setup_s as run.py does, makes run_loop(...,
passes=N) and reduces the records by end_to_end. A time-bounded run makes
as many passes as fit, so the faster side would draw later passes, and
their ledgered misses, that the other side never reaches; a fixed pass
count compares both sides on the same inputs. Pairs alternate, and
even-indexed pairs run the parent first.

The result, BENCH_<label>.json, holds every run's metrics and failure
list, each side's `wc -l src/freeconv/*.py` and, per end-to-end metric,
each side's median and quartiles, the change's wins and ties, the
relative change of the medians, and the verdict of RULE: "gain",
"regression" (the same test the other way, and a worsening beyond the
metric's bound in BENCHMARK.json), or "none". Each run also records the
median time of each task label, scaled as task_p50_ms is; "labels"
summarizes these the same way, under task_p50_ms's bound, so a file
shows which tasks moved, and the ten labels that moved most are printed.
"one_sided_failures" counts, per side, the failed runs of each task label
that never fails on the other side, beside "identical_failures", so a file
shows which known misses a change removed or added; both are printed.
A run of another workload with the same --out is added to the
file's workloads.

With --trace K the script also makes K alternating traced pairs on the
first seed, over the same --passes: each run is a fresh process that installs
perfbench/tracer.py's Tracer around run_loop, as run.py --trace 1 does, and
then times perfbench/layers.py's roadmap rows. The file's "traced_run" block
holds every run's per-layer metrics and, per metric, both sides' medians
and the number of pairs in which the change's value is lower; a later
--trace run replaces the block.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKTREE = "WORKTREE"
RULE = ("a gain counts when the change wins at least 9 of 10 pairs and the medians "
        "differ by more than the parent's interquartile range")

# one run in a fresh process, from the root of a checkout; prints one JSON line
CHILD = r"""
import json, os, statistics, sys
sys.path.insert(0, os.path.abspath("perfbench"))
import run
run._import_library()
import workloads
workload, seed, passes, reps = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
fp = run.fingerprint(workloads, workload, seed)
setup = run.setup_times(workload, seed, fp, reps)
records, _ = run.run_loop(workloads, workload, seed, passes=passes)
metrics, extra = run.end_to_end(records, setup, workload)
by_label = {}
for r, t in zip(records, run.scaled(records)):
    by_label.setdefault(r.label, []).append(t)
print(json.dumps({
    "label_p50_ms": {label: 1e3 * statistics.median(ts) for label, ts in by_label.items()},
    "metrics": {name: value for name, (value, _) in metrics.items()},
    "correct": extra["failed_unexpected"] == 0, "attempted": len(records),
    "failed": extra["failed_unexpected"], "failed_known": extra["failed_known"],
    "passes": passes, "failures": [[r.label, r.k] for r in records if not r.ok],
    "inputs_sha256": fp}))
"""


# one traced run in a fresh process: per-layer metrics of the same fixed
# passes, then the roadmap rows; prints one JSON line
TRACED_CHILD = r"""
import json, os, sys
sys.path.insert(0, os.path.abspath("perfbench"))
import run
run._import_library()
import layers, tracer, workloads
workload, seed, passes = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
tr = tracer.Tracer()
tr.install()
try:
    records, _ = run.run_loop(workloads, workload, seed, passes=passes, tr=tr)
finally:
    tr.uninstall()
metrics = tracer.layer_metrics(tr.spans)
roadmap, roadmap_failed = layers.roadmap(run._env())
print(json.dumps({
    "passes": passes, "tasks": len(records),
    "failed": sum(not r.ok and not r.known for r in records) + roadmap_failed,
    "metrics": {**metrics, **roadmap}}))
"""


def _git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def checkout(rev: str, dest: Path) -> str:
    """Put the tree of rev (or the working tree) at dest; return what it is."""
    if rev == WORKTREE:
        files = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for name in filter(None, files.split("\0")):
            src = ROOT / name
            if src.is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, dest / name)
        return f"working tree on {_git('rev-parse', 'HEAD')}"
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(ROOT), str(dest)],
                   check=True)
    _git("checkout", "--quiet", "--detach", sha, cwd=dest)
    return sha


def src_lines(tree: Path) -> int:
    """wc -l src/freeconv/*.py, counted in the checkout at tree."""
    return sum(path.read_bytes().count(b"\n") for path in tree.glob("src/freeconv/*.py"))


def run_once(tree: Path, workload: str, seed: int, passes: int, setup_reps: int | None) -> dict:
    """One run in a fresh process; a traced run when setup_reps is None."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    child = [CHILD, workload, str(seed), str(passes), str(setup_reps)]
    if setup_reps is None:
        child = [TRACED_CHILD, workload, str(seed), str(passes)]
    proc = subprocess.run([sys.executable, "-c", *child],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: run in {tree} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> dict:
    """Median and quartiles (inclusive method) of a sample."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(row: dict, bound: float) -> str:
    """RULE applied to a summarize row: "gain" when the change wins at least
    9 of 10 pairs and its median is better than the parent's by more than
    the parent's interquartile range; "regression" when the parent wins as
    often and the change's median is worse by more than that range and by
    more than bound relative to the parent's median; "none" otherwise."""
    sign = 1 if row["better"] == "higher" else -1
    base, pairs = row["parent"], row["pairs"]
    iqr = base["q3"] - base["q1"]
    gained = sign * (row["change"]["median"] - base["median"])
    losses = pairs - row["change_wins"] - row["ties"]
    if 10 * row["change_wins"] >= 9 * pairs and gained > iqr:
        return "gain"
    if 10 * losses >= 9 * pairs and -gained > max(iqr, bound * abs(base["median"])):
        return "regression"
    return "none"


def summarize(pairs, better: dict, key: str = "metrics", bounds=None) -> dict:
    """Per metric: both sides' spread, the change's wins and ties over the
    pairs, the relative change of the medians and the verdict. better maps
    each metric of the runs' key entry to "lower" or "higher", and bounds
    maps a metric to the relative worsening a regression exceeds (0 if
    absent)."""
    out = {}
    for name, direction in better.items():
        parent = [p["parent"][key][name] for p in pairs]
        change = [p["change"][key][name] for p in pairs]
        sign = 1 if direction == "higher" else -1
        base, new = spread(parent), spread(change)
        row = out[name] = {
            "better": direction, "parent": base, "change": new,
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "ties": sum(c == p for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "relative_change": (new["median"] / base["median"] - 1 if base["median"]
                                else 0.0),
        }
        row["verdict"] = verdict(row, (bounds or {}).get(name, 0.0))
    return out


def label_summary(pairs, bound: float = 0.0) -> dict:
    """summarize over each task label's median time in a run (scaled like
    task_p50_ms, in ms), for the labels that every run has; bound is the
    regression bound of every label, task_p50_ms's in main."""
    runs = [p[side] for p in pairs for side in ("parent", "change")]
    labels = sorted(set.intersection(*(set(r["label_p50_ms"]) for r in runs)))
    return summarize(pairs, dict.fromkeys(labels, "lower"), key="label_p50_ms",
                     bounds=dict.fromkeys(labels, bound))


def traced_summary(pairs) -> dict:
    """Per metric that every traced run has: each side's median and the
    pairs in which the change's value is lower."""
    runs = [p[side] for p in pairs for side in ("parent", "change")]
    names = sorted(set.intersection(*(set(r["metrics"]) for r in runs)))
    return {name: {
        "parent_median": statistics.median(p["parent"]["metrics"][name] for p in pairs),
        "change_median": statistics.median(p["change"]["metrics"][name] for p in pairs),
        "change_lower_in": sum(p["change"]["metrics"][name] < p["parent"]["metrics"][name]
                               for p in pairs),
        "pairs": len(pairs),
    } for name in names}


def one_sided_failures(pairs) -> dict:
    """Per side, {label: failures over its runs} for each failed task label
    that no run of the other side fails."""
    counts = {side: collections.Counter(label for p in pairs for label, _ in p[side]["failures"])
              for side in ("parent", "change")}
    return {side: {label: n for label, n in sorted(counts[side].items())
                   if label not in counts[other]}
            for side, other in (("parent", "change"), ("change", "parent"))}


def alternate(trees, seeds, run, done) -> list:
    """One pair per seed, each side by run(tree, seed), and done(pair) after
    each; even-indexed pairs run the parent first."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run(trees[side], seed)
        pairs.append(pair)
        done(pair)
    return pairs


def _seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def _version(name: str) -> str:
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return "absent"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="parent commit")
    parser.add_argument("--change", default=WORKTREE,
                        help=f"change commit, or {WORKTREE} (default) for the working tree")
    parser.add_argument("--workload", required=True,
                        choices=("exact_seq", "float_seq", "boundary", "cli_cold"))
    parser.add_argument("--seeds", required=True, help="one seed per pair: 1-10 or 3,5,8")
    parser.add_argument("--passes", type=int, required=True, help="passes per run")
    parser.add_argument("--setup-reps", type=int, default=5,
                        help="fresh interpreters timed for setup_s per run")
    parser.add_argument("--label", required=True)
    parser.add_argument("--claim", help="the gain claimed; kept from --out if not given")
    parser.add_argument("--out", type=Path, help="default: BENCH_<label>.json in the repository")
    parser.add_argument("--trace", type=int, default=0, metavar="K",
                        help="alternating traced pairs on the first seed (default 0)")
    args = parser.parse_args(argv)
    out = args.out or ROOT / f"BENCH_{args.label}.json"

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}
    bounds = {m["name"]: m["bound"] for m in metrics}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as work:
        trees = {side: Path(work, side) for side in ("parent", "change")}
        for tree in trees.values():
            tree.mkdir()
        revs = {side: checkout(rev, trees[side])
                for side, rev in (("parent", args.parent), ("change", args.change))}
        lines = {side: src_lines(tree) for side, tree in trees.items()}
        seeds = _seeds(args.seeds)

        def untraced(tree, seed):
            return run_once(tree, args.workload, seed, args.passes, args.setup_reps)

        def shown(pair):
            print(f"seed {pair['seed']}: wall_s parent {pair['parent']['metrics']['wall_s']:.4f} "
                  f"change {pair['change']['metrics']['wall_s']:.4f}", flush=True)

        pairs = alternate(trees, seeds, untraced, shown)
        traced_pairs = alternate(
            trees, seeds[:1] * args.trace,
            lambda tree, seed: run_once(tree, args.workload, seed, args.passes, None),
            lambda pair: print(f"traced pair on seed {pair['seed']} done", flush=True))

    summary = summarize(pairs, better, bounds=bounds)
    labels = label_summary(pairs, bounds["task_p50_ms"])
    result = json.loads(out.read_text()) if out.exists() else {}
    if result.get("label") != args.label:
        result = {"label": args.label, "claim": "no gain is claimed", "workloads": {}}
    result["claim"] = args.claim or result["claim"]
    result["provenance"] = {
        "parent": revs["parent"], "change": revs["change"],
        "checkouts": "each side ran from its own checkout: a local clone at the commit, "
                     "or a copy of the working tree's files that git does not ignore",
        "command": "scripts/bench_pairs.py: one fresh process per run imported the "
                   "checkout's perfbench/run.py and ran fingerprint, setup_times, "
                   "run_loop(workloads, workload, seed, passes=N) and end_to_end",
        "src_lines": {**lines, "counted": "wc -l src/freeconv/*.py in each side's checkout"},
        "passes": {**result.get("provenance", {}).get("passes", {}),
                   args.workload: args.passes},
        "setup_reps": args.setup_reps,
        "env": "PYTHONDONTWRITEBYTECODE=1",
        "order": "pairs alternate; even-indexed pairs ran the parent first",
        "host": f"{os.cpu_count()}-CPU {platform.system()} host, {platform.machine()}",
        "python": platform.python_version(),
        "numpy": _version("numpy"), "scipy": _version("scipy"),
        "rule": RULE,
    }
    one_sided = one_sided_failures(pairs)
    result["workloads"][args.workload] = {
        "pairs": pairs, "summary": summary, "labels": labels,
        "identical_failures": all(p["parent"]["failures"] == p["change"]["failures"]
                                  for p in pairs),
        "one_sided_failures": one_sided,
    }
    if traced_pairs:
        result["traced_run"] = {
            "workload": args.workload, "seed": seeds[0], "passes": args.passes,
            "note": "per-layer metrics from perfbench/tracer.py (tracer.Tracer installed "
                    "around run.run_loop(workloads, workload, seed, passes=N), the traced "
                    "loop of perfbench/run.py), then perfbench/layers.py's roadmap rows, "
                    "one fresh process per run in each side's checkout; pairs alternate, "
                    "even-indexed pairs ran the parent first",
            "fixed_passes": {
                "summary": traced_summary(traced_pairs),
                "runs": {side: [{key: value for key, value in p[side].items() if key != "metrics"}
                                | p[side]["metrics"] for p in traced_pairs]
                         for side in ("parent", "change")},
            },
        }
    out.write_text(json.dumps(result, indent=1) + "\n")

    for name, row in summary.items():
        base = row["parent"]
        print(f"{name:<14} {base['median']:.4g} [{base['q1']:.4g}, {base['q3']:.4g}] -> "
              f"{row['change']['median']:.4g}; wins {row['change_wins']}/{row['pairs']}; "
              f"{row['verdict']}")
    moved = sorted(labels.items(), key=lambda item: -abs(item[1]["relative_change"]))
    for name, row in moved[:10]:
        print(f"{name:<40} {row['parent']['median']:.4g} ms -> "
              f"{row['change']['median']:.4g} ms ({row['relative_change']:+.1%}); "
              f"wins {row['change_wins']}/{row['pairs']}; {row['verdict']}")
    for side, failed in one_sided.items():
        listed = ", ".join(f"{label} x{n}" for label, n in failed.items()) or "none"
        print(f"failures only in {side}: {listed}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
