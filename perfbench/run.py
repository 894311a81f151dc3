"""freeconv benchmark: four seeded workloads, closed loop, one client.

    python3 perfbench/run.py --workload exact_seq --seed 1 --seconds 15 --trace 0

Run from the repository root; freeconv is imported from ./src. Passes of
the workload's seeded task list run one task at a time until --seconds
have elapsed (the pass in progress is finished), each task checked against
its reference after the timed call. Times are scaled to a reference host
speed by a probe (see README, "Noise"). --trace 0 prints the end-to-end
metrics, --trace 1 reruns the same passes with spans around freeconv's
public functions and prints the per-layer metrics. The last stdout line is
one JSON object; a result file with provenance goes to perfbench/out/.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from importlib import metadata
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPS = 5           # fresh interpreters timed for setup_s
FINGERPRINT_PASSES = 4   # passes hashed into the input fingerprint
CHILD_TIMEOUT = 120
TAIL_LADDER = (99, 95, 90, 75, 50, 25)
# every run makes at least this many passes; the tail percentile is the one
# these passes support, so it does not depend on how many passes a run fits
MIN_PASSES = {"cli_cold": 1}
DEFAULT_MIN_PASSES = 4
# probe() time on the 2-vCPU Xeon host the benchmark was built on, when fast;
# each task's time is scaled by PROBE_REF_S / the probes around it
# (README, "Noise"); setup_s is not scaled
PROBE_REF_S = 0.6e-3


def _env():
    env = dict(os.environ)
    paths = [str(SRC), str(ROOT / "perfbench")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _import_library():
    """Import freeconv from ./src; refuse any other copy."""
    sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]
    try:
        import freeconv
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import freeconv from {SRC}: {exc}")
    if Path(freeconv.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: freeconv resolved to {freeconv.__file__}, not {SRC}")


def fingerprint(workloads, workload, seed) -> str:
    digest = hashlib.sha256()
    for k in range(FINGERPRINT_PASSES):
        for task in workloads.make_pass(workload, seed, k):
            digest.update(task.fingerprint().encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# children


def run_child(argv, env):
    """Run argv to completion; return (seconds, returncode, stdout, peak RSS MiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=env, cwd=ROOT, text=True)
    timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        # wait4, not Popen.wait, to get this child's own peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, out, usage.ru_maxrss / 1024


def setup_times(workload, seed, expected, reps):
    """Fresh interpreter to ready: import freeconv and generate the inputs."""
    samples = []
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
            "--workload", workload, "--seed", str(seed)]
    for _ in range(reps):
        elapsed, code, out, _ = run_child(argv, _env())
        if code != 0 or out.strip() != expected:
            sys.exit(f"perfbench: setup child failed or generated other inputs ({code})")
        samples.append(elapsed)
    return samples


def setup_child(workload, seed):
    _import_library()
    import workloads
    print(fingerprint(workloads, workload, seed), flush=True)


def cli_child(argv_json, spans_path):
    """Run cli.main traced; write its spans, exit with its status."""
    _import_library()
    import tracer
    from freeconv import cli
    tr = tracer.Tracer()
    tr.install()
    tr.enabled = True
    try:
        code = cli.main(json.loads(argv_json))
    finally:
        tr.uninstall()
        tr.dump(spans_path)
    sys.stdout.flush()
    os._exit(code)


# ---------------------------------------------------------------------------
# the closed loop


class Record:
    """One task's outcome; speed is the mean of the probes around its call."""
    __slots__ = ("k", "label", "seconds", "speed", "ok", "known", "err", "rss")

    def __init__(self, k, label, seconds, speed, ok, known, err, rss=0.0):
        self.k, self.label, self.seconds, self.speed = k, label, seconds, speed
        self.ok, self.known, self.err, self.rss = ok, known, err, rss


_BIG_A = (1 << 4000) // 3 | 1
_BIG_B = (1 << 3999) // 7 | 1
_PROBE_Z = np.linspace(0.0, 1.0, 400) + 0.1j


def probe():
    """Time a fixed ~1 ms mix of the work freeconv does, without freeconv:
    small-Fraction arithmetic, 4000-bit integer products and gcds, and
    numpy on a 400-point complex grid, about a third each.

    On a shared host the CPU can run this, and the library, 1.6-2x slower
    for seconds to minutes at a time; a pass's median probe measures the
    speed the pass ran at."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(1, i)
    x = _BIG_A
    for _ in range(3):
        x = (x * _BIG_B) % _BIG_A + math.gcd(x, _BIG_B)
    z = _PROBE_Z
    for _ in range(15):
        z = np.sqrt(z * z + 1.0) / (z + 2.0)
    return time.perf_counter() - start


def _call(task, tr):
    """Time one library call; return (seconds, output, exception or None)."""
    if tr is not None:
        tr.enabled = True
    start = time.perf_counter()
    try:
        out = task.call(*task.args)
    except Exception as exc:          # judged after the pass
        return time.perf_counter() - start, None, exc
    finally:
        if tr is not None:
            tr.enabled = False
    return time.perf_counter() - start, out, None


def _call_cli(task, tr, task_id):
    """Time one cold CLI child; its output is (returncode, stdout)."""
    if tr is None:
        argv = [sys.executable, "-m", "freeconv.cli", *task.args]
    else:
        spans_path = OUT / f"cli-child-{os.getpid()}.jsonl"
        argv = [sys.executable, str(Path(__file__).resolve()), "--cli-child",
                json.dumps(list(task.args)), str(spans_path)]
    elapsed, code, out, rss = run_child(argv, _env())
    if tr is not None:
        _merge_child_spans(tr, spans_path, task_id)
    return elapsed, (code, out), None, rss


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def _merge_child_spans(tr, path, task_id):
    if not path.exists():             # the child died before writing its spans
        return
    base = len(tr.spans)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            s = json.loads(line)
            parent = None if s["parent"] is None else s["parent"] + base
            tr.spans.append([s["name"], s["start"], s["end"], parent, task_id,
                             _tuples(s["info"])])
    path.unlink()


def run_loop(workloads, workload, seed, seconds=None, passes=None, tr=None):
    """Closed loop over passes 0, 1, ...; stop after `passes`, or once
    `seconds` have passed and at least the workload's MIN_PASSES are done.

    A pass's calls run back to back with a probe() before each and after
    the last; its outputs are checked after the pass. Returns the task
    records and each pass's probe times."""
    records, pass_probes = [], []
    least = MIN_PASSES.get(workload, DEFAULT_MIN_PASSES)
    start = time.perf_counter()
    k = 0
    while (k < passes) if passes is not None else (
            k < least or time.perf_counter() - start < seconds):
        tasks = workloads.make_pass(workload, seed, k)
        gc.collect()    # the previous pass's checks leave garbage; collect it untimed
        probes, results = [], []
        for i, task in enumerate(tasks):
            probes.append(probe())
            if tr is not None:
                tr.task = f"{k}:{i}"
            if workload == "cli_cold":
                results.append(_call_cli(task, tr, f"{k}:{i}"))
            else:
                results.append(_call(task, tr) + (0.0,))
        probes.append(probe())
        for i, (task, (elapsed, out, exc, rss)) in enumerate(zip(tasks, results)):
            ok, known, err = workloads.judge(task, out, exc)
            speed = (probes[i] + probes[i + 1]) / 2
            records.append(Record(k, task.label, elapsed, speed, bool(ok), known, err, rss))
        pass_probes.append(probes)
        k += 1
    return records, pass_probes


# ---------------------------------------------------------------------------
# metrics


def tail_percentile(n):
    """Highest ladder percentile with at least 10 of n samples beyond it."""
    for p in TAIL_LADDER:
        if n - max(0, -(-p * n // 100) - 1) - 1 >= 10:
            return p
    return 100


def percentile(samples, p):
    """Nearest-rank percentile p and the number of samples beyond it."""
    ordered = sorted(samples)
    idx = max(0, -(-p * len(ordered) // 100) - 1)
    return ordered[idx], len(ordered) - idx - 1


def scaled(records):
    """Each task's seconds at the reference speed, PROBE_REF_S / its speed."""
    return [r.seconds * PROBE_REF_S / r.speed for r in records]


def pass_walls(records, times):
    walls = {}
    for r, t in zip(records, times):
        walls[r.k] = walls.get(r.k, 0.0) + t
    return list(walls.values())


def end_to_end(records, setup, workload):
    """End-to-end metrics over every pass, scaled by the probes (README, "Noise")."""
    times = scaled(records)
    least = MIN_PASSES.get(workload, DEFAULT_MIN_PASSES)
    pct = tail_percentile(least * sum(r.k == 0 for r in records))
    tail_s, beyond = percentile(times, pct)
    if workload == "cli_cold":
        rss = max(r.rss for r in records)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    unexpected = sum(not r.ok and not r.known for r in records)
    known = sum(not r.ok and r.known for r in records)
    failed_frac = (unexpected + known) / len(records)
    metrics = {
        "wall_s": (statistics.median(pass_walls(records, times)), "s"),
        "task_p50_ms": (1e3 * statistics.median(times), "ms"),
        "task_tail_ms": (1e3 * tail_s, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (rss, "MiB"),
        "passed_frac": (1 - failed_frac, "ratio"),
    }
    extra = {
        "failed_frac": failed_frac,
        "failed_unexpected": unexpected,
        "failed_known": known,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "samples": len(times),
    }
    return metrics, extra


def ledger(records):
    """Per task kind with a measured error: misses, known misses, worst error."""
    kinds = {}
    for r in records:
        if isinstance(r.err, float):
            row = kinds.setdefault(r.label, {"tasks": 0, "misses": 0, "known": 0,
                                             "max_err": 0.0})
            row["tasks"] += 1
            row["misses"] += not r.ok
            row["known"] += r.known
            row["max_err"] = max(row["max_err"], r.err)
    return kinds


def provenance(args):
    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():      # never report an enclosing repository's commit
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "freeconv").glob("*.py")):
        src.update(path.read_bytes())
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("exact_seq", "float_seq", "boundary", "cli_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--cli-child"]:
        return cli_child(argv[1], argv[2])
    args = parser.parse_args(argv)
    if args.setup_child:
        return setup_child(args.workload, args.seed)

    _import_library()
    import workloads

    OUT.mkdir(exist_ok=True)
    fp = fingerprint(workloads, args.workload, args.seed)
    # a traced run prints no setup_s, so one sample only checks the inputs
    setup = setup_times(args.workload, args.seed, fp, 1 if args.trace else SETUP_REPS)
    print(f"workload {args.workload}  seed {args.seed}  inputs sha256 {fp}", flush=True)

    records, pass_probes = run_loop(workloads, args.workload, args.seed, seconds=args.seconds)
    passes = len(pass_probes)
    metrics, extra = end_to_end(records, setup, args.workload)
    failed = extra["failed_unexpected"]
    result = {"provenance": provenance(args), "inputs_sha256": fp, "passes": passes,
              "pass_walls_s": pass_walls(records, [r.seconds for r in records]),
              "pass_probes_ms": [[1e3 * v for v in p] for p in pass_probes],
              "tasks": [(r.k, r.label, r.seconds) for r in records],
              "setup_samples_s": setup, "end_to_end": {k: v[0] for k, v in metrics.items()},
              **extra, "ledger": ledger(records),
              "failures": [(r.label, str(r.err)) for r in records if not r.ok and not r.known]}

    if args.trace:
        import layers
        import tracer
        tr = tracer.Tracer()
        tr.install()
        try:
            traced, _ = run_loop(workloads, args.workload, args.seed, passes=passes, tr=tr)
        finally:
            tr.uninstall()
        tr.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        per_layer = tracer.layer_metrics(tr.spans)
        per_layer["trace.overhead_frac"] = (
            statistics.median(pass_walls(traced, scaled(traced)))
            / metrics["wall_s"][0] - 1)
        failed += sum(not r.ok and not r.known for r in traced)
        cli_lists = [workloads.make_pass("cli_cold", args.seed, 0)]
        for part, fails in (layers.verify_checks(args.seed), layers.cli_import(_env()),
                            layers.cli_main(cli_lists), layers.roadmap(_env())):
            per_layer.update(part)
            failed += fails
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            units = json.load(fh)["per_layer"]
        shown = {m["name"]: {"value": per_layer[m["name"]], "unit": m["unit"]} for m in units}
        result["per_layer"] = per_layer
        attempted = len(records) + len(traced)
    else:
        shown = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
        attempted = len(records)

    result["failed"] = failed
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=str)

    for key, (value, unit) in metrics.items():
        print(f"{key:<14} {value:12.4f} {unit}")
    print(f"{'failed_frac':<14} {extra['failed_frac']:12.4f} ratio  "
          f"(unexpected {extra['failed_unexpected']}, known ledger {extra['failed_known']}, "
          f"of {len(records)})")
    print(f"task_tail_ms is p{extra['tail_percentile']} with {extra['tail_samples_beyond']} "
          f"samples beyond; {passes} passes, median probe "
          f"{1e3 * statistics.median(r.speed for r in records):.3f} ms "
          f"(reference {1e3 * PROBE_REF_S:.3f} ms)")
    for label, err in result["failures"][:10]:
        print(f"FAILED {label}: {err}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
