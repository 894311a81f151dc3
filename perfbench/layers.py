"""Per-layer cases that do not depend on the workload, timed untraced.

They run at the end of every traced run: the ROADMAP baseline table, the
verify registry check by check, the CLI import, and cli.main in-process
over the cli_cold task list. Each function returns (metrics, failures).
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from freeconv import catalog, cli, conv, idclass, ncpart, verify
from freeconv.catalog import MeasureSpec


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def verify_checks(seed: int):
    """Each registry check with its own random.Random(f"{seed}:{name}")."""
    metrics, failures = {}, 0
    suites = {}
    for check in verify.CHECKS:
        dev, dt = _timed(check.fn, random.Random(f"{seed}:{check.name}"), 1)
        failures += not float(dev) <= check.tolerance
        metrics[f"verify.check.{check.name}_ms"] = 1e3 * dt
        suites[check.suite] = suites.get(check.suite, 0.0) + dt
    for suite in ("identities", "densities", "regularity"):
        metrics[f"verify.{suite}_s"] = suites[suite]
    return metrics, failures


def _importtime(env):
    """Cumulative import time of freeconv.cli and scipy.integrate, in s."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import freeconv.cli"],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S.*)$", line)
        if m:
            cumulative[m.group(2).strip()] = int(m.group(1)) / 1e6
    return cumulative.get("freeconv.cli", 0.0), cumulative.get("scipy.integrate", 0.0)


def cli_import(env):
    cli_s, scipy_s = _importtime(env)
    return {"cli.import_s": cli_s, "cli.import_scipy_s": scipy_s}, 0


def cli_main(task_lists):
    """cli.main in-process over the cli_cold invocations; median per call."""
    times, failures = [], 0
    for tasks in task_lists:
        for task in tasks:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code, dt = _timed(cli.main, list(task.args))
            times.append(dt)
            ok, _ = task.check((code, out.getvalue()))
            failures += not ok
    return {"cli.main_ms_p50": 1e3 * statistics.median(times)}, failures


def _wall(argv, env):
    start = time.perf_counter()
    subprocess.run(argv, capture_output=True, env=env, timeout=120, check=True)
    return time.perf_counter() - start


def roadmap(env):
    """The ROADMAP baseline table, with the arguments documented in README."""
    W = MeasureSpec.from_law("semicircle", (0, 1))
    M = MeasureSpec.from_law("marchenko_pastur", (1,))
    kappa = [Fraction(1, n) for n in range(1, 21)]
    a = catalog.moments_of(MeasureSpec.atomic(
        [(Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 2), Fraction(2, 3))]), 16)
    b = catalog.moments_of(MeasureSpec.atomic(
        [(Fraction(1), Fraction(1, 2)), (Fraction(5, 2), Fraction(1, 2))]), 16)
    model = idclass.RModel.semicircle(2, 1)
    ts = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0]
    out = {}
    _, out["roadmap.catalog_semicircle_64_s"] = _timed(
        catalog.catalog_moments, "semicircle", (0, 1), 64)
    _, out["roadmap.catalog_semicircle_32_s"] = _timed(
        catalog.catalog_moments, "semicircle", (0, 1), 32)
    _, out["roadmap.catalog_marchenko_pastur_32_s"] = _timed(
        catalog.catalog_moments, "marchenko_pastur", (1,), 32)
    _, dt = _timed(ncpart._moments_from_free, tuple(kappa))
    out["roadmap.moments_from_free_20_fraction_ms"] = 1e3 * dt
    _, dt = _timed(ncpart._moments_from_free, tuple(float(k) for k in kappa))
    out["roadmap.moments_from_free_20_float_ms"] = 1e3 * dt
    _, dt = _timed(ncpart.free_mult_moments, a, b, 16)
    out["roadmap.free_mult_moments_16_exact_ms"] = 1e3 * dt
    res, dt = _timed(conv.free_add_density, W, W, np.linspace(-3.2, 3.2, 321))
    out["roadmap.free_add_density_w_w_321_ms"] = 1e3 * dt
    out["roadmap.free_add_density_w_w_321_iterations"] = res.iterations
    res, dt = _timed(conv.free_add_density, M, catalog.reflect(M), np.linspace(-3.6, 3.6, 361))
    out["roadmap.free_add_density_m_reflect_m_361_ms"] = 1e3 * dt
    out["roadmap.free_add_density_m_reflect_m_361_iterations"] = res.iterations
    edge, dt = _timed(conv.support_edge, W, W, inner=2.0, outer=3.2)
    out["roadmap.support_edge_w_w_ms"] = 1e3 * dt
    failures = not abs(edge - 2 * math.sqrt(2)) <= 2e-2
    for jobs in (1, 4):
        _, dt = _timed(idclass.positivity_scan, model, ts, jobs=jobs)
        out[f"roadmap.positivity_scan_8t_jobs{jobs}_ms"] = 1e3 * dt
    for suite in ("identities", "densities", "regularity"):
        report, dt = _timed(verify.run_verify, suite)
        out[f"roadmap.run_verify_{suite}_s"] = dt
        failures += not report.ok
    out["roadmap.import_cli_wall_s"] = _wall([sys.executable, "-c", "import freeconv.cli"], env)
    spec = '{"type": "law", "name": "semicircle", "params": [2, 1]}'
    out["roadmap.cli_scan_wall_s"] = _wall(
        [sys.executable, "-m", "freeconv.cli", "scan", spec, "--t", "0.5,2"], env)
    return out, int(failures)
