"""Seeded task lists for the four workloads and the check of each task.

A pass is one task list drawn from random.Random(f"{workload}:{seed}:{k}")
for pass index k; a run executes passes 0, 1, 2, ... in order, so two runs
with one seed see identical inputs pass by pass. The library receives only
the generated arguments; each task's output is checked after the timed
call, against a reference from refs.py (exact, closed form, or modular) or,
for float tasks, against freeconv's exact route run on Fraction(x) of the
same floats.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import refs
from freeconv import catalog, cli, conv, idclass, ncpart, transforms, verify
from freeconv.catalog import MeasureSpec
from freeconv.ncpart import SeqN

# Float sequence results must match the exact route on the same floats to
# this relative error, max_n |float_n - exact_n| / max(1, |exact_n|).
FLOAT_REL_TOL = 1e-6

# Known-failure ledger (README): task kind -> the worst error measured on it.
# A miss is known while its error stays within LEDGER_SLACK times that
# figure; a larger error, non-finite output or an exception is unexpected.
LEDGER = {
    "float.law_free_cumulants.quarter_circle.16": 4.1e-7,
    "float.law_free_cumulants.quarter_circle.20": 3.3e-4,
    "float.law_free_cumulants.beta_1a.20": 2.3e-15,
    "float.commutator.16": 3.8e6,
    "float.commutator.12": 5.3,
    "float.commutator.8": 7.2e-6,
    "float.free_from_moments.20": 5.1e-3,
    "float.free_from_moments.16": 5.5e-6,
    "float.series_inversion.20": 2.2e-2,
    "float.series_inversion.16": 1.4e-5,
    "float.boolean_from_moments.20": 2.8e-7,
    "boundary.invert.marchenko_pastur": 1.8e-3,
}
LEDGER_SLACK = 10

# free_mult(method="both") compares its two routes with an absolute
# tolerance, so on float input it raises; the routes are checked untimed
KNOWN_RAISES = {f"float.free_mult_both.{order}": ArithmeticError for order in (8, 12, 16)}


@dataclass
class Task:
    """One library call. check(output) returns (ok, error); error is the
    measured error for float tasks and density windows, None otherwise."""

    label: str
    call: object
    args: tuple
    check: object

    def fingerprint(self) -> str:
        return f"{self.label}{self.args!r}"


def judge(task, out, exc):
    """Return (ok, known, error) for one task's output or exception.

    known marks a failure the ledger expects: a miss within LEDGER_SLACK
    times the kind's worst recorded error, or a KNOWN_RAISES exception
    whose untimed route check passes."""
    try:
        if exc is not None:
            if not isinstance(exc, KNOWN_RAISES.get(task.label, ())):
                return False, False, f"raised {type(exc).__name__}: {exc}"
            ok, err = task.check(None)
            return False, ok, err
        ok, err = task.check(out)
    except Exception as check_exc:    # malformed output fails its check
        return False, False, f"check raised {type(check_exc).__name__}: {check_exc}"
    if ok:
        return True, False, err
    worst = LEDGER.get(task.label)
    known = worst is not None and isinstance(err, float) and err <= LEDGER_SLACK * worst
    return False, known, err


def _exact(ok: bool):
    return bool(ok), None


# ---------------------------------------------------------------------------
# random inputs


def _frac(rng, lo, hi, den):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _atoms(rng, positive=False, n=3):
    """Three rational atoms; locations in (0, 3] when positive, else [-3, 3]."""
    locs = set()
    while len(locs) < n:
        loc = Fraction(rng.randint(1 if positive else -36, 36), 12)
        if loc != 0:
            locs.add(loc)
    weights = [rng.randint(1, 6) for _ in locs]
    total = sum(weights)
    return tuple((loc, Fraction(w, total)) for loc, w in zip(sorted(locs), weights))


def _atomic_moments(atoms, order):
    return [sum(w * x**n for x, w in atoms) for n in range(1, order + 1)]


def _semicircle_params(rng):
    return (_frac(rng, -6, 6, 6), _frac(rng, 1, 12, 6))


def _to_float(values):
    return tuple(float(v) for v in values)


def _rel_err(got, exact, floor) -> float:
    return max(abs(float(g) - float(e)) / max(floor, abs(float(e)), 1e-300)
               for g, e in zip(got, exact))


def _norm_err(got, exact, floor) -> float:
    scale = max([floor] + [abs(float(e)) for e in exact])
    return max(abs(float(g) - float(e)) for g, e in zip(got, exact)) / max(scale, 1e-300)


def _float_check(exact_fn, floor=1.0):
    """Check against the exact route; exact_fn runs outside the timed call.

    A task passes when every entry's error relative to max(floor, |exact|)
    is within FLOAT_REL_TOL: floor 1 for random inputs, whose entries can
    cancel to near 0, and 0 for the law cumulants, which are nonzero and
    whose relative error is the documented defect. The reported error, which
    the ledger bounds, is the largest entry error relative to
    max(floor, max |exact|): an entry near 0 makes the first measure
    swing by orders of magnitude between inputs, but not this one."""
    def check(values):
        values = tuple(values)
        if not all(math.isfinite(v) for v in values):
            return False, math.inf
        exact = exact_fn()
        return _rel_err(values, exact, floor) <= FLOAT_REL_TOL, _norm_err(values, exact, floor)
    return check


def _series_values(series, order):
    return tuple(series.coeff(n) for n in range(1, order + 1))


# ---------------------------------------------------------------------------
# exact_seq and float_seq


TABLE_ORDERS = (("semicircle", 16), ("semicircle", 24), ("marchenko_pastur", 20),
                ("commutator_ww", 28))


def _conversion_tasks(rng, prefix, cast):
    """moment <-> free/boolean cumulant conversions and series inversion at
    the CONVERSION_CAP orders, on the moments of a random atomic measure
    and on random cumulant sequences. cast maps exact inputs to the tested
    arithmetic; the float variants carry exact references."""
    tasks = []
    for order in (8, 16, 20):
        m = _atomic_moments(_atoms(rng), order)
        kappa = [_frac(rng, -4, 4, 6) for _ in range(order)]
        eta = [_frac(rng, -4, 4, 6) for _ in range(order)]
        mc, kc, ec = cast(m), cast(kappa), cast(eta)
        exact = cast is tuple
        mx = tuple(Fraction(v) for v in mc)
        kx = tuple(Fraction(v) for v in kc)
        ex = tuple(Fraction(v) for v in ec)
        if exact:
            free_ref = lambda out, mx=mx: _exact(refs.nc_relation_holds(mx, out))
            series_ref = lambda out, mx=mx: _exact(refs.nc_relation_holds(mx, out))
            fwd_ref = lambda out, kx=kx: _exact(refs.nc_relation_holds(out, kx))
            bool_ref = lambda out, mx=mx: _exact(refs.boolean_relation_holds(mx, out))
            bfwd_ref = lambda out, ex=ex: _exact(refs.boolean_relation_holds(out, ex))
        else:
            free_ref = _float_check(lambda mx=mx: ncpart.free_cumulants_from_moments(mx).values)
            series_ref = free_ref
            fwd_ref = _float_check(lambda kx=kx: ncpart.moments_from_free_cumulants(kx).values)
            bool_ref = _float_check(lambda mx=mx: ncpart.boolean_cumulants_from_moments(mx).values)
            bfwd_ref = _float_check(lambda ex=ex: ncpart.moments_from_boolean_cumulants(ex).values)
        seq_m = SeqN("moment", mc)
        tasks += [
            Task(f"{prefix}.free_from_moments.{order}",
                 lambda s: ncpart.free_cumulants_from_moments(s).values, (seq_m,),
                 free_ref),
            Task(f"{prefix}.series_inversion.{order}",
                 lambda s, o=order: _series_values(
                     transforms.free_cumulant_series_via_inversion(s, o), o),
                 (seq_m,), series_ref),
            Task(f"{prefix}.moments_from_free.{order}",
                 lambda s: ncpart.moments_from_free_cumulants(s).values,
                 (SeqN("free_cumulant", kc),), fwd_ref),
            Task(f"{prefix}.boolean_from_moments.{order}",
                 lambda s: ncpart.boolean_cumulants_from_moments(s).values, (seq_m,),
                 bool_ref),
            Task(f"{prefix}.moments_from_boolean.{order}",
                 lambda s: ncpart.moments_from_boolean_cumulants(s).values,
                 (SeqN("boolean_cumulant", ec),), bfwd_ref),
        ]
    return tasks


def _product_tasks(rng, prefix, cast):
    tasks = []
    for order in (8, 12, 16):
        a, b = _atoms(rng, positive=True), _atoms(rng, positive=True)
        if cast is tuple:
            mu, nu = MeasureSpec.atomic(a), MeasureSpec.atomic(b)
            ma, mb = _atomic_moments(a, order), _atomic_moments(b, order)
            check = lambda out, ma=ma, mb=mb: _exact(refs.product_relation_holds(ma, mb, out))
        else:
            fa = tuple((float(x), float(w)) for x, w in a)
            fb = tuple((float(x), float(w)) for x, w in b)
            mu, nu = MeasureSpec.atomic(fa), MeasureSpec.atomic(fb)
            exact_a = [(Fraction(x), Fraction(w)) for x, w in fa]
            exact_b = [(Fraction(x), Fraction(w)) for x, w in fb]
            ref = lambda o=order, ea=exact_a, eb=exact_b: ncpart.free_mult_moments(
                _atomic_moments(ea, o), _atomic_moments(eb, o), o).values
            check = lambda out, x=mu, y=nu, o=order, ref=ref: _float_mult_check(
                x, y, o, _float_check(ref), out)
        tasks.append(Task(
            f"{prefix}.free_mult_both.{order}",
            lambda x, y, o=order: conv.free_mult(x, y, o, method="both").seq.values,
            (mu, nu), check))
    return tasks


def _float_mult_check(mu, nu, order, check, out):
    """Each route of free_mult_report against the exact one, and the timed
    output too when free_mult returned one (None when it raised)."""
    report = conv.free_mult_report(mu, nu, order)
    results = [check(report.dp.values), check(report.series.values)]
    if out is not None:
        results.append(check(out))
    return all(ok for ok, _ in results), max(err for _, err in results)


def _commutator_tasks(rng, prefix, cast):
    tasks = []
    for order in (8, 12, 16):
        (a1, v1), (a2, v2) = _semicircle_params(rng), _semicircle_params(rng)
        p1, p2 = cast((a1, v1)), cast((a2, v2))
        w1 = MeasureSpec.from_law("semicircle", p1)
        w2 = MeasureSpec.from_law("semicircle", p2)
        want = refs.semicircle_commutator_cumulants(
            Fraction(p1[1]), Fraction(p2[1]), order)
        if cast is tuple:
            check = lambda out, want=want: _exact(list(out) == want)
        else:
            check = _float_check(lambda want=want: want)
        # the commutator ends in a float moment -> cumulant inversion
        tasks.append(Task(f"{prefix}.commutator.{order}",
                          lambda x, y, o=order: conv.commutator(x, y, o).seq.values,
                          (w1, w2), check))
    return tasks


def _table_tasks(rng, prefix, cast):
    """Catalog moment tables; after the fresh requests, all but the order-24
    semicircle are requested again, so a memo of catalog_moments serves
    about half."""
    fresh = []
    for law, order in TABLE_ORDERS:
        if law == "semicircle":
            params = _semicircle_params(rng)
            want = lambda p, o: refs.semicircle_moments(*p, o)
        elif law == "marchenko_pastur":
            params = (_frac(rng, 1, 12, 6),)
            want = lambda p, o: refs.marchenko_pastur_moments(p[0], o)
        else:
            params = ()
            want = lambda p, o: refs.commutator_ww_moments(o)
        if cast is not tuple and not params:
            continue                       # commutator_ww has no float form
        fresh.append((law, cast(params), order, want))
    requests = fresh + [r for r in fresh if (r[0], r[2]) != ("semicircle", 24)]
    tasks = []
    for law, params, order, want in requests:
        exact_params = tuple(Fraction(p) for p in params)
        if cast is tuple:
            check = lambda out, w=want, p=exact_params, o=order: _exact(list(out) == w(p, o))
        else:
            check = _float_check(lambda w=want, p=exact_params, o=order: w(p, o))
        tasks.append(Task(f"{prefix}.table.{law}.{order}",
                          lambda name, p, o: catalog.catalog_moments(name, p, o).values,
                          (law, params, order), check))
    return tasks


def _float_law_tasks(rng):
    """Laws whose moments are floats: tables, then their free cumulants.

    The exact reference is the exact recursion on Fraction(m_n) of the float
    moments, so it measures the recursion's error, not the moments'."""
    sigma = rng.uniform(0.5, 2.0)
    a = rng.uniform(0.15, 0.85)
    tasks = []
    for law, params, order in (("quarter_circle", (sigma,), 16),
                               ("quarter_circle", (sigma,), 24),
                               ("beta_1a", (a,), 20)):
        tasks.append(Task(f"float.table.{law}.{order}",
                          lambda name, p, o: catalog.catalog_moments(name, p, o).values,
                          (law, params, order),
                          _float_check(lambda w=_LAW_MOMENTS[law], p=params, o=order: w(*p, o))))
    for law, params, order in (("quarter_circle", (sigma,), 16),
                               ("quarter_circle", (sigma,), 20),
                               ("beta_1a", (a,), 20)):
        mu = MeasureSpec.from_law(law, params)
        tasks.append(Task(
            f"float.law_free_cumulants.{law}.{order}",
            lambda x, o: catalog.free_cumulants_of(x, o).values, (mu, order),
            _float_check(lambda x=mu, o=order: _exact_cumulants_of_float_moments(x, o),
                         floor=0.0)))
    return tasks


def _exact_cumulants_of_float_moments(mu, order):
    moments = catalog.moments_of(mu, order).values
    return ncpart.free_cumulants_from_moments([Fraction(v) for v in moments]).values


_LAW_MOMENTS = {"quarter_circle": refs.quarter_circle_moments,
                "beta_1a": refs.beta_1a_moments}


def exact_seq_pass(rng):
    return (_conversion_tasks(rng, "exact", tuple) + _product_tasks(rng, "exact", tuple)
            + _commutator_tasks(rng, "exact", tuple) + _table_tasks(rng, "exact", tuple))


def float_seq_pass(rng):
    return (_conversion_tasks(rng, "float", _to_float)
            + _product_tasks(rng, "float", _to_float)
            + _commutator_tasks(rng, "float", _to_float)
            + _table_tasks(rng, "float", _to_float) + _float_law_tasks(rng))


# ---------------------------------------------------------------------------
# boundary


def _window_check(want_fn, lo, hi, tol):
    """Density result within tol of a closed form on the window [lo, hi];
    the error is the largest absolute deviation there."""
    def check(result):
        xs, dens = result
        if not np.all(np.isfinite(dens)):
            return False, math.inf
        window = (xs >= lo) & (xs <= hi)
        err = float(np.max(np.abs(dens - want_fn(xs))[window]))
        return err <= tol, err
    return check


def _density(result):
    return np.asarray(result.xs), np.asarray(result.density)


def _w(rng, lo_var=1.0, hi_var=3.0):
    mean = round(rng.uniform(-1, 1), 3)
    var = round(rng.uniform(lo_var, hi_var), 3)
    return mean, var


def boundary_pass(rng):
    """Grid sizes are fixed per task, so pass costs differ by the random
    parameters only."""
    tasks = []
    # law pair: W(a1, v1) + W(a2, v2) = W(a1 + a2, v1 + v2)
    (a1, v1), (a2, v2) = _w(rng), _w(rng)
    a, v = a1 + a2, v1 + v2
    r = 2 * math.sqrt(v)
    grid = (a - r - 0.4, a + r + 0.4, 321)
    tasks.append(Task(
        "boundary.add_density.w_w",
        lambda x, y, g: _density(conv.free_add_density(x, y, np.linspace(*g))),
        (MeasureSpec.from_law("semicircle", (a1, v1)),
         MeasureSpec.from_law("semicircle", (a2, v2)), grid),
        _window_check(lambda xs, a=a, v=v: refs.semicircle_density(a, v, xs),
                      a - r + 0.15, a + r - 0.15, 1e-3)))
    # M + reflect(M) is the free commutator of two standard semicircles
    m = MeasureSpec.from_law("marchenko_pastur", (1,))
    span_m = round(rng.uniform(3.5, 3.8), 3)   # the support edge is 3.33
    tasks.append(Task(
        "boundary.add_density.m_reflect_m",
        lambda x, y, g: _density(conv.free_add_density(x, y, np.linspace(*g))),
        (m, catalog.reflect(m), (-span_m, span_m, 361)),
        _window_check(refs.commutator_ww_density, -2.2, 2.2, 2e-3)))
    # atomic + W: no closed form; mass, mean and variance must add up
    atoms = tuple((float(x), float(wt)) for x, wt in _atoms(rng))
    (a3, v3) = _w(rng)
    mean = sum(x * wt for x, wt in atoms) + a3
    var = sum(x * x * wt for x, wt in atoms) - (mean - a3) ** 2 + v3
    span = max(abs(x) for x, _ in atoms) + 2 * math.sqrt(v3) + 0.6
    tasks.append(Task(
        "boundary.add_density.atomic_w",
        lambda x, y, g: _density(conv.free_add_density(x, y, np.linspace(*g))),
        (MeasureSpec.atomic(atoms), MeasureSpec.from_law("semicircle", (a3, v3)),
         (a3 - span, a3 + span, 401)),
        lambda out, mean=mean, var=var: _moment_check(out, mean, var)))
    # grid spec of a discretized W(0, v4) plus W(a5, v5) = W(a5, v4 + v5)
    v4 = round(rng.uniform(0.5, 1.5), 3)
    (a5, v5) = _w(rng)
    edge4 = 2 * math.sqrt(v4)
    gx = np.linspace(-edge4, edge4, 601)
    gd = refs.semicircle_density(0.0, v4, gx)
    gspec = MeasureSpec.grid(gx, gd / np.trapezoid(gd, gx))
    vt = v4 + v5
    rt = 2 * math.sqrt(vt)
    tasks.append(Task(
        "boundary.add_density.w_grid",
        lambda x, y, g: _density(conv.free_add_density(x, y, np.linspace(*g))),
        (MeasureSpec.from_law("semicircle", (a5, v5)), gspec,
         (a5 - rt - 0.4, a5 + rt + 0.4, 301)),
        _window_check(lambda xs, a=a5, v=vt: refs.semicircle_density(a, v, xs),
                      a5 - rt + 0.2, a5 + rt - 0.2, 5e-3)))
    # Stieltjes inversion of catalog transforms; quarter_circle is quad-backed.
    # For rates near 1.2 the MP inversion misses by up to 1.8e-3 (ledger)
    rate = round(rng.uniform(1.2, 3.0), 3)
    lo, hi = (1 - math.sqrt(rate)) ** 2, (1 + math.sqrt(rate)) ** 2
    tasks.append(Task(
        "boundary.invert.marchenko_pastur",
        lambda x, g: _density(transforms.stieltjes_invert(
            lambda z: transforms.cauchy(x, z), np.linspace(*g))),
        (MeasureSpec.from_law("marchenko_pastur", (rate,)),
         (lo - 0.4, hi + 0.4, 481)),
        _window_check(lambda xs, r=rate: refs.marchenko_pastur_density(r, xs),
                      lo + 0.1, hi - 0.1, 1e-3)))
    (a6, v6) = _w(rng)
    r6 = 2 * math.sqrt(v6)
    tasks.append(Task(
        "boundary.invert.semicircle",
        lambda x, g: _density(transforms.stieltjes_invert(
            lambda z: transforms.cauchy(x, z), np.linspace(*g))),
        (MeasureSpec.from_law("semicircle", (a6, v6)),
         (a6 - r6 - 0.4, a6 + r6 + 0.4, 441)),
        _window_check(lambda xs, a=a6, v=v6: refs.semicircle_density(a, v, xs),
                      a6 - r6 + 0.15, a6 + r6 - 0.15, 1e-3)))
    sigma = round(rng.uniform(0.8, 1.6), 3)
    tasks.append(Task(
        "boundary.invert.quarter_circle",
        lambda x, g: _density(transforms.stieltjes_invert(
            lambda z: transforms.cauchy(x, z), np.linspace(*g))),
        (MeasureSpec.from_law("quarter_circle", (sigma,)),
         (-0.2 * sigma, 2.2 * sigma, 61)),
        _window_check(lambda xs, s=sigma: refs.quarter_circle_density(s, xs),
                      0.2 * sigma, 1.8 * sigma, 2e-3)))
    # right support edge of W(a7, v7) + W(a8, v8)
    (a7, v7), (a8, v8) = _w(rng), _w(rng)
    edge = a7 + a8 + 2 * math.sqrt(v7 + v8)
    tasks.append(Task(
        "boundary.support_edge.w_w",
        lambda x, y, inner, outer: conv.support_edge(x, y, inner, outer),
        (MeasureSpec.from_law("semicircle", (a7, v7)),
         MeasureSpec.from_law("semicircle", (a8, v8)), edge - 0.5, edge + 0.5),
        lambda out, e=edge: (abs(out - e) <= 2e-2, None)))
    # positivity scans at jobs=1, and two at jobs=2 (README documents --jobs 2);
    # with 13 tasks a pass's median is one task, not the gap between two
    for kind, model, ts, want in _scan_inputs(rng):
        tasks.append(_scan_task(kind, model, ts, want, 1))
    for kind, model, ts, want in _scan_inputs(rng)[:2]:
        tasks.append(_scan_task(kind, model, ts, want, 2))
    return tasks


def _t_list(rng, lo, hi, n=4):
    """One random t in each of n equal parts of [lo, hi]: a scan's cost
    depends on its t values, and stratifying keeps the spread of that cost
    across passes small."""
    step = (hi - lo) / n
    return tuple(round(lo + (i + rng.random()) * step, 3) for i in range(n))


def _scan_inputs(rng):
    mean, var = round(rng.uniform(0.5, 2.5), 3), round(rng.uniform(0.5, 1.5), 3)
    rate = round(rng.uniform(1.2, 2.5), 3)
    jump, crate = round(rng.uniform(0.5, 1.5), 3), round(rng.uniform(1.2, 2.5), 3)
    t_sc, t_fp, t_cp = _t_list(rng, 0.25, 3.0), _t_list(rng, 1.0, 2.5), _t_list(rng, 1.0, 2.5)
    return [
        ("semicircle", ("semicircle", (mean, var)), t_sc,
         lambda t, m=mean, v=var: refs.semicircle_left_edge(m, v, t)),
        ("free_poisson", ("free_poisson", (rate,)), t_fp,
         lambda t, r=rate: refs.compound_poisson_left_edge(r, 1.0, t)),
        ("compound_poisson", ("cfp", (crate, jump)), t_cp,
         lambda t, r=crate, j=jump: refs.compound_poisson_left_edge(r, j, t)),
    ]


def _model(spec):
    kind, params = spec
    if kind == "semicircle":
        return idclass.RModel.semicircle(*params)
    if kind == "free_poisson":
        return idclass.RModel.free_poisson(*params)
    rate, jump = params
    return idclass.RModel.cfp_atomic(rate, [(jump, 1)])


def _scan_task(kind, model, ts, want, jobs):
    def check(result):
        ok = all(p.left_edge is not None and abs(p.left_edge - want(p.t)) <= 1e-3
                 for p in result.points)
        return ok and len(result.points) == len(ts), None
    return Task(f"boundary.scan.{kind}.jobs{jobs}",
                lambda spec, t, j: idclass.positivity_scan(_model(spec), t, jobs=j),
                (model, ts, jobs), check)


def _moment_check(result, mean, var):
    xs, dens = result
    if not np.all(np.isfinite(dens)):
        return False, None
    mass = np.trapezoid(dens, xs)
    m1 = np.trapezoid(xs * dens, xs) / mass
    m2 = np.trapezoid((xs - m1) ** 2 * dens, xs) / mass
    ok = abs(mass - 1) <= 1e-2 and abs(m1 - mean) <= 2e-2 and abs(m2 - var) <= 5e-2 * var
    return bool(ok), None


# ---------------------------------------------------------------------------
# cli_cold


def _spec(mu) -> str:
    return json.dumps(cli.serialize_measure_spec(mu))


def _json_values(stdout):
    return [Fraction(v) if isinstance(v, str) else v for v in json.loads(stdout)["values"]]


def _same_json(expected_fn):
    return lambda code, out: (code == 0 and json.loads(out) == expected_fn(), None)


def cli_pass(rng, seed):
    """One cold invocation per subcommand family, plus the three verify suites.

    Each task is (argv, check(returncode, stdout)); expected values are
    computed in-process after the invocation."""
    p1, p2 = _semicircle_params(rng), _semicircle_params(rng)
    w1, w2 = MeasureSpec.from_law("semicircle", p1), MeasureSpec.from_law("semicircle", p2)
    at1 = MeasureSpec.atomic(_atoms(rng))
    pos1, pos2 = MeasureSpec.atomic(_atoms(rng, True)), MeasureSpec.atomic(_atoms(rng, True))
    sym = MeasureSpec.atomic([(s * x, w / 2) for x, w in _atoms(rng, True) for s in (-1, 1)])
    n = rng.randint(4, 10)
    t = _frac(rng, 3, 12, 4) + 1
    a, v = p1
    triplet = idclass.FreeTriplet(_frac(rng, 0, 6, 4), 0, idclass.LevyMeasure(
        atoms=tuple((x, w) for x, w in _atoms(rng, True))))
    qc = MeasureSpec.from_law("quarter_circle", (Fraction(rng.randint(2, 8), 4),))
    scan_mean, scan_var = rng.randint(1, 4), rng.randint(1, 2)
    scan_ts = sorted({Fraction(rng.randint(2, 12), 4) for _ in range(2)})
    zx, zy = rng.randint(-20, 20) / 10, rng.randint(5, 20) / 10
    dv = float(p1[1] + p2[1])
    dm = float(p1[0] + p2[0])
    dr = 2 * math.sqrt(dv)
    grid = f"{dm - dr - 0.4:.3f}:{dm + dr + 0.4:.3f}:{rng.randint(101, 201)}"
    r1 = 2 * math.sqrt(float(v))
    w1_grid = f"{float(a) - r1 - 0.4:.3f}:{float(a) + r1 + 0.4:.3f}:{rng.randint(101, 201)}"

    tasks = [
        (["nc", "--count", str(n)],
         lambda code, out, n=n: (code == 0 and out.strip() == str(refs.catalan(n)), None)),
        (["law", "semicircle", f"--params={a},{v}"],
         _same_json(lambda: cli.serialize_measure_spec(w1))),
        (["moments", _spec(w1), "--order", "8", "--out", "json"],
         lambda code, out: (code == 0 and _json_values(out)
                            == refs.semicircle_moments(a, v, 8), None)),
        (["cumulants", _spec(at1), "--order", "8", "--kind", "free", "--out", "json"],
         lambda code, out: (code == 0 and refs.nc_relation_holds(
             catalog.moments_of(at1, 8).values, _json_values(out)), None)),
        (["cumulants", _spec(at1), "--order", "8", "--kind", "boolean", "--out", "json"],
         lambda code, out: (code == 0 and refs.boolean_relation_holds(
             catalog.moments_of(at1, 8).values, _json_values(out)), None)),
        (["convolve", "--op", "add", "--a", _spec(w1), "--b", _spec(w2), "--order", "8"],
         lambda code, out: (code == 0 and _json_values(out) == [
             p1[0] + p2[0], p1[1] + p2[1]] + [0] * 6, None)),
        (["convolve", "--op", "mult", "--a", _spec(pos1), "--b", _spec(pos2), "--order", "6"],
         lambda code, out: (code == 0 and refs.product_relation_holds(
             catalog.moments_of(pos1, 6).values, catalog.moments_of(pos2, 6).values,
             _json_values(out)), None)),
        (["convolve", "--op", "boolean", "--a", _spec(at1), "--b", _spec(pos1),
          "--order", "6"],
         _same_json(lambda: cli.serialize_measure_spec(conv.boolean_add(at1, pos1, 6)))),
        (["convolve", "--op", "add", "--a", _spec(w1), "--b", _spec(w2), "--density",
          f"--grid={grid}"],
         lambda code, out: _csv_density_check(code, out, dm, dv)),
        (["power", _spec(at1), "--t", f"{t.numerator}/{t.denominator}", "--order", "8"],
         _same_json(lambda: cli.serialize_measure_spec(conv.free_power(at1, t, 8)))),
        (["power", _spec(at1), "--t", f"{t.numerator}/{t.denominator}", "--order", "8",
          "--conv", "boolean"],
         _same_json(lambda: cli.serialize_measure_spec(conv.boolean_power(at1, t, 8)))),
        (["density", _spec(w1), f"--grid={w1_grid}"],
         lambda code, out: _csv_density_check(code, out, float(a), float(v))),
        (["commutator", "--a", _spec(w1), "--b", _spec(w2), "--order", "8"],
         lambda code, out: (code == 0 and _json_values(out)
                            == refs.semicircle_commutator_cumulants(p1[1], p2[1], 8), None)),
        (["square", _spec(at1), "--order", "8"],
         _same_json(lambda: cli.serialize_measure_spec(catalog.push_square(at1, 8)))),
        (["factor-main3", _spec(sym), "--order", "8"],
         lambda code, out: (code == 0 and tuple(_json_values(out)) == idclass.main3_factor(
             catalog.free_cumulants_of(sym, 8)).values, None)),
        (["check", "--kurtosis", _spec(qc)],
         lambda code, out: (code == (0 if idclass.kurtosis_check(qc).passed else 1)
                            and json.loads(out)["verdict"]
                            == idclass.kurtosis_check(qc).verdict, None)),
        (["check", "--regular", json.dumps(cli.serialize_triplet(triplet))],
         lambda code, out: _regular_check(code, out, triplet)),
        (["scan", _spec(MeasureSpec.from_law("semicircle", (scan_mean, scan_var))),
          "--t", ",".join(str(float(s)) for s in scan_ts)],
         lambda code, out: _scan_table_check(code, out, scan_mean, scan_var)),
        (["transform", _spec(w1), "--which", "G", f"--at={zx},{zy}"],
         lambda code, out: (code == 0 and out.strip() == _fmt_complex(
             transforms.cauchy(w1, complex(zx, zy))), None)),
    ]
    for suite in ("identities", "densities", "regularity"):
        names = [c.name for c in verify.CHECKS if c.suite == suite]
        tasks.append((["verify", "--suite", suite, "--seed", str(seed)],
                      lambda code, out, names=names: _verify_check(code, out, names)))
    return [Task(f"cli.{argv[0]}", None, tuple(argv), lambda result, c=check: c(*result))
            for argv, check in tasks]


def _regular_check(code, out, triplet):
    form = idclass.to_regular_form(triplet)
    got = json.loads(out)
    ok = (code == (0 if form.is_free_regular else 1)
          and got["free_regular"] == form.is_free_regular
          and got["drift"] == cli._num_to_json(form.drift))
    return ok, None


def _fmt_complex(z):
    return f"{z.real:.12g},{z.imag:.12g}"


def _csv_density_check(code, out, mean, var):
    lines = out.strip().splitlines()
    if code != 0 or lines[0] != "x,density":
        return False, None
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    xs, dens = rows[:, 0], rows[:, 1]
    r = 2 * math.sqrt(var)
    window = np.abs(xs - mean) <= r - 0.2
    err = np.max(np.abs(dens - refs.semicircle_density(mean, var, xs))[window])
    return bool(err <= 2e-3), None


def _scan_table_check(code, out, mean, var):
    lines = out.strip().splitlines()
    if code != 0 or lines[0] != "t,left_edge,atoms,converged":
        return False, None
    ok = True
    for line in lines[1:-1]:
        t, edge, _, converged = line.split(",")
        ok &= abs(float(edge) - refs.semicircle_left_edge(mean, var, float(t))) <= 1e-3
        ok &= converged == "True"
    return bool(ok), None


def _verify_check(code, out, names):
    lines = out.strip().splitlines()
    rows = {line.split()[0]: line.split()[-1] for line in lines[1:-1]}
    ok = (code == 0 and sorted(rows) == sorted(names)
          and all(status == "pass" for status in rows.values())
          and lines[-1] == f"summary: {len(names)}/{len(names)} checks passed")
    return ok, None


PASSES = {
    "exact_seq": lambda rng, k, seed: exact_seq_pass(rng),
    "float_seq": lambda rng, k, seed: float_seq_pass(rng),
    "boundary": lambda rng, k, seed: boundary_pass(rng),
    "cli_cold": lambda rng, k, seed: cli_pass(rng, seed),
}


def make_pass(workload: str, seed: int, k: int) -> list:
    """Task list of pass k; depends only on (workload, seed, k)."""
    return PASSES[workload](random.Random(f"{workload}:{seed}:{k}"), k, seed)
