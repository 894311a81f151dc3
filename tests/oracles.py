"""Reference routes that the package does not run, kept to check it.

Each is a second derivation of something freeconv computes another way:
adaptive quadrature of a catalog law's density for its moment table and
Cauchy transform, the Kreweras-complement and NC(n) enumeration sums for
the moment-cumulant recursion and the product DP (Nica-Speicher, Lectures
on the Combinatorics of Free Probability, Lect. 9 and 14) with the stack
test of non-crossing they need, the product DP as the per-term loop that
fixes its float bits, the boolean pair and the Lagrange reversion on plain
Fraction arithmetic, the grid Cauchy transform by complex
division, the batched edge bisection on per-bracket heaps, the
subordination solve that starts each cold point with damped Picard
warm-up steps, adaptive quadrature of the free Meixner Levy measure's
integrals, and the density scan of mu^{boxplus t}, which solves
z = 1/w + t R(w) for w = G(z) by damped Newton down an imaginary ladder
and bisects a density threshold.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from freeconv import catalog, conv, transforms
from freeconv.idclass import RModel, _scan_times, _with_atom
from freeconv.ncpart import SeqN, SetPartition, _values, enumerate_nc
from freeconv.transforms import _bisect_edge, _richardson

MOMENT_CAP_QUAD = 32

# scipy quad settings of every catalog-law integral, moments and transforms
QUAD_SETTINGS = {"epsrel": 1e-10, "epsabs": 1e-13, "limit": 400}


def _beta_substitution(params):
    # x = u^p with p = 1/(1-a): the Jacobian p u^(p-1) cancels x^(-a) at 0
    p = 1 / (1 - float(params[0]))
    return lambda u: (u**p, p * u ** (p - 1)), 0.0, 1.0


def _chi_substitution(params):
    # x = u^2: the Jacobian 2u cancels x^(-1/2) at 0
    return lambda u: (u * u, 2 * u), 0.0, math.inf


# law name -> params -> (u -> (x, dx/du), lo, hi): quadrature runs in u over (lo, hi)
SUBSTITUTIONS = {"beta_1a": _beta_substitution, "chi_squared_1": _chi_substitution}


def law_quad(law: str, params, f) -> float:
    """Integral of f(x, w) over the unshifted law's density, where w is the
    density times the Jacobian of the law's substitution; 0 without a density.

    A substitution (chi_squared_1 under x = u^2, beta_1a under x = u^{1/(1-a)})
    tames an endpoint singularity. A support that straddles 0 is split there,
    which keeps the origin (a kink or an inverse square root) at an interval
    endpoint where the quadrature handles it.
    """
    spec = catalog.LAWS[law]
    if spec.density is None:
        return 0.0
    if law in SUBSTITUTIONS:
        to_x, lo, hi = SUBSTITUTIONS[law](params)
        cuts = (lo, hi)

        def g(u):
            x, jac = to_x(u)
            return f(x, jac * spec.density(params, x))
    else:
        lo, hi = spec.support(params)
        cuts = (lo, 0.0, hi) if lo < 0 < hi else (lo, hi)
        g = lambda x: f(x, spec.density(params, x))
    return sum(quad(g, a, b, **QUAD_SETTINGS)[0] for a, b in zip(cuts, cuts[1:]))


def law_moments_quadrature(law: str, params, order: int) -> SeqN:
    """Adaptive-quadrature moments, as floats; never calls the closed forms
    it checks."""
    if order > MOMENT_CAP_QUAD:
        raise ValueError(f"quadrature moments capped at order {MOMENT_CAP_QUAD}")
    spec, params = catalog._law_entry(law, params)
    out = []
    for n in range(1, order + 1):
        atoms = sum(w * loc**n for loc, w in spec.atoms(params))
        out.append(float(atoms) + law_quad(law, params, lambda x, w: x**n * w))
    return SeqN("moment", out)


def law_cauchy_quad(law: str, params, pts):
    """Cauchy transform of an unshifted law at pts: quadrature of its density
    plus the sum over its atoms; never calls the closed form it checks."""
    vals = np.empty_like(pts)
    for i, z in enumerate(pts.ravel()):
        re = law_quad(law, params, lambda x, w: (w / (z - x)).real)
        im = law_quad(law, params, lambda x, w: (w / (z - x)).imag)
        vals.ravel()[i] = re + 1j * im
    for loc, w in catalog.LAWS[law].atoms(params):
        vals += float(w) / (pts - float(loc))
    return vals


def grid_cauchy_reference(mu, z, derivative=False):
    """(G, G') of a grid spec by complex division, with G' = 0 without
    derivative: the trapezoid sum of w_k d_k/(z - x_k) and of its square,
    512 points at a time, as transforms._grid_cauchy computed it before it
    ran in real arithmetic. It has no near-axis guard."""
    xs = np.asarray(mu.xs)
    dens = np.asarray(mu.densities)
    weights = np.zeros_like(xs)
    weights[:-1] += np.diff(xs) / 2
    weights[1:] += np.diff(xs) / 2
    wd = weights * dens
    flat = z.ravel()
    out = np.zeros((2, flat.size), dtype=complex)
    for start in range(0, flat.size, 512):
        gaps = flat[start : start + 512, None] - xs
        terms = wd / gaps
        out[0, start : start + 512] = terms.sum(axis=-1)
        if derivative:
            out[1, start : start + 512] = -np.divide(terms, gaps, out=terms).sum(axis=-1)
    return out.reshape(2, *z.shape) + transforms._atomic_cauchy(mu.atoms, z, derivative)


# ---------------------------------------------------------------------------
# batched edge bisection on per-bracket heaps


def bisect_edge_reference(above, brackets, xtol):
    """transforms._bisect_edge as it was built before the dyadic partition:
    each round fills, per bracket, a 63-node heap of sub-brackets in Python.
    It has no float-spacing stop, so it can halve forever a bracket whose
    midpoint rounds to an end while wider than xtol."""
    brackets = list(brackets)
    while trees := {b: [(ins, out)] for b, (ins, out) in enumerate(brackets)
                    if abs(out - ins) > xtol}:
        # each tree holds a bracket's sub-brackets in heap order: k splits
        # at its midpoint into 2k + 1 (midpoint above) and 2k + 2 (not above)
        mids = {}
        for b, tree in trees.items():
            for k in range(2**transforms._EDGE_DEPTH - 1):
                if tree[k] is None or abs(tree[k][1] - tree[k][0]) <= xtol:
                    tree += [None, None]
                    continue
                ins, out = tree[k]
                mids[b, k] = mid = (ins + out) / 2
                tree += [(mid, out), (ins, mid)]
        owner = np.array([b for b, _ in mids])
        flags = dict(zip(mids, above(np.array(list(mids.values())), owner)))
        for b, tree in trees.items():
            k = 0
            while (b, k) in flags:
                k = 2 * k + (1 if flags[b, k] else 2)
            brackets[b] = tree[k]
    return [(ins + out) / 2 for ins, out in brackets]


# ---------------------------------------------------------------------------
# the subordination solve with a Picard warm-up

# damped Picard steps that start each cold point of subordination_reference
_WARMUP = 3


def subordination_reference(mu, nu, z, seed=None):
    """conv.subordination as it was when each cold point took _WARMUP
    damped Picard steps before its first Newton round; a seeded point took
    none. A warm-up round leaves omega' NaN. Each round enters np.errstate,
    forms the Newton trial, omega' and the acceptance test whether or not
    any point has left its warm-up, and takes |step| twice. It reads conv's
    other _SUB_* constants when called, and it has no refusal of non-finite
    points nor an empty-input return."""
    zarr = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(zarr.imag <= 0):
        raise ValueError("subordination points must lie in the upper half plane")

    def h(spec, w, slope):
        g, dg = transforms._cauchy_pair(spec, w, slope)
        return 1 / g - w, -dg / g**2 - 1

    omega, warmup = zarr.copy(), np.full(zarr.shape, _WARMUP)
    if seed is not None:
        with np.errstate(all="ignore"):
            start = seed.omega + seed.domega * (zarr - seed.z)
        good = np.isfinite(start) & (start.imag >= zarr.imag)
        start = np.where(good, start, seed.omega + (zarr - seed.z))
        omega = np.where(seed.converged, start, omega)
        warmup[seed.converged] = 0
    idx = np.arange(zarr.size)
    residual, converged = np.full(zarr.shape, np.inf), np.zeros(zarr.shape, bool)
    domega = np.full(zarr.shape, np.nan + 0j)
    for its in range(1, conv._SUB_MAX_ITER + 1):
        w, zs, newton = omega[idx], zarr[idx], its > warmup[idx]
        h_w, dh_w = h(mu, w, newton.any())
        h_u, dh_u = h(nu, zs + h_w, newton.any())
        step = zs + h_u - w
        with np.errstate(all="ignore"):
            trial = w - step / (dh_u * dh_w - 1)
            domega[idx] = np.where(newton, (1 + dh_u) / (1 - dh_u * dh_w), np.nan)
        ok = newton & np.isfinite(trial) & (trial.imag >= zs.imag)
        ok &= np.abs(step) < residual[idx]
        residual[idx] = np.abs(step)
        omega[idx] = np.where(ok, trial, w + conv._SUB_DAMPING * step)
        converged[idx] = residual[idx] < conv._SUB_TOL
        idx = idx[~converged[idx]]
        if not idx.size:
            break
    return conv.SubordinationResult(omega, its, float(residual.max()), converged, zarr, domega)


# ---------------------------------------------------------------------------
# free Meixner Levy measures by quadrature


def levy_meixner_quadrature(a, b, c):
    """(int min(1,x) dnu, total mass) of the Levy density
    c sqrt(4b - (x-a)^2) / (pi x^2) by adaptive quadrature, inf where
    divergent; never calls idclass.levy_meixner's closed forms."""
    a, b, c = float(a), float(b), float(c)
    lo, hi = a - 2 * math.sqrt(b), a + 2 * math.sqrt(b)

    def density(x):
        inside = 4 * b - (x - a) ** 2
        if inside <= 0 or x == 0:
            return 0.0
        return c * math.sqrt(inside) / (math.pi * x * x)

    min1 = _quad_weighted(density, lambda t: min(1, t) if t > 0 else 0, lo, hi)
    return min1, _quad_weighted(density, lambda t: 1, lo, hi)


def _quad_weighted(fn, weight, lo, hi):
    """Integrate weight*fn over (lo,hi), splitting at -1, 0, 1.

    Divergence at 0 is probed by a local power fit before handing the
    panel to quad, whose error estimate can be fooled by nonintegrable
    endpoint singularities; anything divergent comes back as inf.
    """
    cuts = sorted({float(lo), float(hi)} | {p for p in (-1.0, 0.0, 1.0)
                                            if lo < p < hi})

    def g(x):
        return weight(x) * fn(x)

    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in zip(cuts, cuts[1:]):
            if a == 0.0 and _diverges_at_zero(g, +1, b - a):
                return math.inf
            if b == 0.0 and _diverges_at_zero(g, -1, b - a):
                return math.inf
            val, err = quad(g, a, b, limit=200)
            if not math.isfinite(val) or err > max(1e-8, 1e-6 * abs(val)):
                return math.inf
            total += val
    return total


def _diverges_at_zero(g, direction, width) -> bool:
    """Whether g(x) ~ C |x|^{-p} with p >= 1 as x -> 0 from one side."""
    es = [min(width, 1.0) * 10.0 ** (-k) for k in (3, 5, 7)]
    vals = []
    for e in es:
        v = abs(g(direction * e))
        if not math.isfinite(v):
            return True
        vals.append(v)
    if vals[-1] <= 1e-300:
        return False
    powers = [
        math.log(v2 / v1) / math.log(e1 / e2)
        for v1, v2, e1, e2 in zip(vals, vals[1:], es, es[1:])
        if v1 > 0
    ]
    return bool(powers) and min(powers) >= 1 - 1e-6


# ---------------------------------------------------------------------------
# sums over NC(n)


def is_noncrossing(p: SetPartition) -> bool:
    """True iff no a < b < c < d has a,c in one block and b,d in another.

    Scans left to right with a stack: a partition is non-crossing exactly
    when every revisited block is the innermost open one.
    """
    owner = {}
    for i, b in enumerate(p.blocks):
        for e in b:
            owner[e] = i
    last = {i: b[-1] for i, b in enumerate(p.blocks)}
    seen = set()
    stack = []
    for e in range(1, p.n + 1):
        i = owner[e]
        if i not in seen:
            seen.add(i)
            stack.append(i)
        elif stack[-1] != i:
            return False
        if last[i] == e:
            stack.pop()
    return True


def kreweras(p: SetPartition) -> SetPartition:
    """Kreweras complement on the interleaving 1,1',2,2',...,n,n'.

    i' and j' (i < j) share a block exactly when every block of p meeting
    the window {i+1,...,j} is contained in it; the relation is transitive,
    so its classes are the complement's blocks.  |p| + |K(p)| = n + 1.
    """
    if not is_noncrossing(p):
        raise ValueError("Kreweras complement requires a non-crossing partition")
    n = p.n
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    spans = [(b[0], b[-1]) for b in p.blocks]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            lo, hi = i + 1, j
            ok = True
            for (bmin, bmax), block in zip(spans, p.blocks):
                if bmax < lo or bmin > hi:
                    continue
                if bmin < lo or bmax > hi:
                    if any(lo <= e <= hi for e in block):
                        ok = False
                        break
            if ok:
                parent[find(j)] = find(i)
    groups = {}
    for e in range(1, n + 1):
        groups.setdefault(find(e), []).append(e)
    return SetPartition(n, tuple(tuple(g) for g in groups.values()))


def partition_weight(values, p: SetPartition):
    """prod over blocks V of values[|V| - 1]; exact for exact inputs."""
    out = 1
    for b in p.blocks:
        if len(b) > len(values):
            raise ValueError(
                f"block of size {len(b)} exceeds sequence order {len(values)}"
            )
        out = out * values[len(b) - 1]
    return out


def moments_from_free_cumulants_reference(kappa, n: int):
    """The n-th moment as the sum over NC(n) of kappa_pi."""
    vals = _values(kappa, "free_cumulant", "reference conversion")
    return sum(partition_weight(vals, p) for p in enumerate_nc(n))


def free_mult_moments_reference(mu_moments, nu_moments, order: int) -> SeqN:
    """Product moments as the Kreweras sum over NC(n) of
    kappa_pi(mu) m_{K(pi)}(nu), the cumulants by enumeration too."""
    mv = _values(mu_moments, "moment", "free_mult_moments_reference")
    nv = _values(nu_moments, "moment", "free_mult_moments_reference")
    kappa, out = [], []
    for n in range(1, order + 1):
        others = (p for p in enumerate_nc(n) if len(p) > 1)   # all but 1_n
        kappa.append(mv[n - 1] - sum(partition_weight(kappa, p) for p in others))
        total = 0
        for p in enumerate_nc(n):
            total += partition_weight(kappa, p) * partition_weight(
                nv, kreweras(p)
            )
        out.append(total)
    return SeqN("moment", out)


def alternating_product_moments_reference(ka, kb, order: int) -> list:
    """The product DP of ncpart._alternating_product_moments as a per-term
    loop over rows blk[c][l][k]: each term is added to its sum on its own,
    from int 0, and terms with a zero factor are skipped, so float outputs
    fix the bits, signed zeros and types the kernel must keep."""
    L = 2 * order
    kappa = {0: ka, 1: kb}
    mom = {0: [1] + [0] * L, 1: [1] + [0] * L}
    blk = {c: [[0] * (order + 1) for _ in range(L + 1)] for c in (0, 1)}
    for c in (0, 1):
        if L >= 1:
            blk[c][1][1] = 1
    for ell in range(1, L + 1):
        for c in (0, 1):
            if ell >= 3 and ell % 2 == 1:
                row = blk[c][ell]
                for q in range(1, ell - 1, 2):
                    gap = mom[1 - c][ell - 1 - q]
                    if gap == 0:
                        continue
                    prev = blk[c][q]
                    for k in range(2, (ell + 1) // 2 + 1):
                        if prev[k - 1] != 0:
                            row[k] += prev[k - 1] * gap
            total = 0
            for j in range(1, ell + 1, 2):
                tail = mom[1 - c][ell - j]
                if tail == 0:
                    continue
                row = blk[c][j]
                for k in range(1, (j + 1) // 2 + 1):
                    if row[k] != 0 and k <= len(kappa[c]):
                        total += row[k] * kappa[c][k - 1] * tail
            mom[c][ell] = total
    return mom[0][2 : L + 1 : 2]


# ---------------------------------------------------------------------------
# the exact kernels on plain Fraction arithmetic


def moments_from_boolean_reference(r) -> list:
    """m_n = sum_k r_k m_{n-k}, m_0 = 1, one Python operation per term."""
    m = [1]
    for n in range(1, len(r) + 1):
        m.append(sum(r[k - 1] * m[n - k] for k in range(1, n + 1)))
    return m[1:]


def boolean_from_moments_reference(m) -> list:
    """The inverse of moments_from_boolean_reference, term by term."""
    mm = [1] + list(m)
    r = []
    for n in range(1, len(m) + 1):
        r.append(mm[n] - sum(r[k - 1] * mm[n - k] for k in range(1, n)))
    return r


def reverted_reference(f):
    """Lagrange inversion of an exact series of valuation 1, with 1/u = V/L
    over the lcm L of its denominators: the k-th power is V^k over L^k."""
    v = transforms.FormalSeries.poly([1], f.top - 1) / f.shifted(-1)
    den = math.lcm(*(c.denominator for c in v.coeffs))
    nums = [c.numerator * (den // c.denominator) for c in v.coeffs]
    power, scale, d = nums, den, [Fraction(nums[0], den)]
    for k in range(2, f.top + 1):
        power = [sum(power[i] * nums[j - i] for i in range(j + 1))
                 for j in range(len(nums))]
        scale *= den
        d.append(Fraction(power[k - 1], scale * k))
    return transforms.FormalSeries(1, d, f.top)


# ---------------------------------------------------------------------------
# the density scan of mu^{boxplus t}: G on the real axis by damped Newton


# Newton for G stops at residual _SOLVE_TOL or after _SOLVE_MAX_ITER steps;
# a point counts as converged at residual sqrt(_SOLVE_TOL) and 1e-3 Im z
_SOLVE_TOL = 1e-14
_SOLVE_MAX_ITER = 100


def solve_g(model: RModel, t, z, w0=None):
    """Solve z = 1/w + t R(w) for w = G(z) by damped Newton on F = 1/w.

    t is one scalar time for every point; each point's solution does not
    depend on the others solved with it.
    Returns (w, converged mask); a residual near Im z solves another z,
    so the mask also bounds it by 1e-3 Im z. Without a seed w0 the solve
    starts cold, from F = z; pass the solution at a nearby z to continue
    along a path.
    """
    return _newton_g(model, t, z, w0, _SOLVE_TOL)


def _newton_g(model: RModel, t, z, w0, tol):
    """solve_g, with Newton stopping at residual tol instead of _SOLVE_TOL.

    The unknown is F = 1/w, the fixed point of F = z - t R(1/F), with
    residual g = z - t R(1/F) - F = -(1/w + t R(w) - z). In free
    Levy-Khintchine form R(1/F) lies in the closed lower half plane when
    F lies in the upper one (Bercovici-Voiculescu 1993), so the solution
    has Im F >= Im z. A Newton step g/(1 - t R'(w) w^2) is halved until it
    lowers |g| and keeps Im F >= Im z, and is not taken otherwise. As
    |F| >= Im F >= Im z > 0, that keeps Im w <= 0 and |w| <= 1/Im z, and
    keeps w off R's real poles. A cold solve (w0 None) warms up by damped
    Picard steps from F = z, which stay in the half plane and pull F into
    Newton's basin.
    """
    def residual(f, zs):
        return zs - t * model.r(1 / f) - f

    z = np.atleast_1d(np.asarray(z, dtype=complex))
    with np.errstate(all="ignore"):
        if w0 is None:
            f = z
            for _ in range(10):
                f = 0.5 * f + 0.5 * (z - t * model.r(1 / f))
        else:
            f = 1 / np.asarray(w0, dtype=complex)
        if f.shape != z.shape:
            raise ValueError("seed shape does not match z")
        resid = residual(f, z)
        for _ in range(_SOLVE_MAX_ITER):
            active = ~(np.abs(resid) <= tol)
            if not active.any():
                break
            fa, za, ga = f[active], z[active], resid[active]
            wa = 1 / fa
            step = ga / (1 - t * model.dr(wa) * wa * wa)
            for _ in range(31):
                new_f = fa + step
                new_g = residual(new_f, za)
                ok = (np.abs(new_g) <= np.abs(ga)) & (new_f.imag >= za.imag)
                if ok.all():
                    break
                step = np.where(ok, step, step / 2)
            f[active] = np.where(ok, new_f, fa)
            resid[active] = np.where(ok, new_g, ga)
        size = np.abs(resid)
        return 1 / f, (size <= math.sqrt(_SOLVE_TOL)) & (size <= 1e-3 * z.imag)


_EPS = 4e-9  # boundary densities extrapolate over heights _EPS, _EPS/2, _EPS/4
_IMAG_LADDER = (1.0, 0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3, 3e-4, 1e-4,
                1e-5, 1e-6, 1e-7, 1e-8, _EPS)
_RUNG_RESIDUAL = 0.1  # a ladder rung above _EPS stops at residual this times its height
# the grid scan's density level at the edge and its grid points per t
_GRID_THRESHOLD = 1e-6
_GRID_POINTS = 601


def _extrapolated_density(model: RModel, t, xs, seed=None):
    """Boundary density by Richardson extrapolation over the three heights.

    Cancels the terms linear in the height, so Lorentzian shoulders of
    nearby atoms drop out instead of polluting edge detection. t is one
    scalar time for every point. The solve at _EPS starts from seed (else
    the imaginary ladder) and seeds the next height; points a seed leaves
    unconverged are solved from the ladder. A ladder rung above _EPS only
    seeds the next one, so its Newton stops once the residual
    g = z - t R(1/F) - F is at most _RUNG_RESIDUAL times its height d: F
    then solves the equation exactly at z - g, whose height is still at
    least 0.9 d, so w = 1/F stays on the sheet of G that the ladder follows
    down from i. The heights _EPS, _EPS/2 and _EPS/4 are solved to
    _SOLVE_TOL.
    Returns the density, where it converged, and w at height _EPS.
    """
    if seed is not None:
        w, conv = solve_g(model, t, xs + 1j * _EPS, w0=seed)
    else:
        w = None
        for d in _IMAG_LADDER[:-1]:
            tol = max(_SOLVE_TOL, _RUNG_RESIDUAL * d)
            w = _newton_g(model, t, xs + 1j * d, w, tol)[0]
        w, conv = solve_g(model, t, xs + 1j * _EPS, w0=w)
    ws = [w]
    for k in (2, 4):
        w, c = solve_g(model, t, xs + 1j * _EPS / k, w0=w)
        ws, conv = ws + [w], conv & c
    dens = _richardson([-w.imag / math.pi for w in ws])
    if seed is not None and not conv.all():
        redo = ~conv
        dens[redo], conv[redo], ws[0][redo] = _extrapolated_density(model, t, xs[redo])
    return dens, conv, ws[0]


def grid_scan(model: RModel, ts):
    """idclass.positivity_scan by a density threshold, as scan ran before
    the critical value replaced it: the smallest of _GRID_POINTS grid
    points per t where the extrapolated density (_extrapolated_density)
    exceeds _GRID_THRESHOLD, or the atom if further left; converged means
    every grid point's solve converged and the density does not already
    exceed the threshold at the grid's left end, which then stands as the
    edge but only bounds it.

    Each t is solved on its own grid, and its grid crossing is bisected to
    2e-5 in batches (transforms._bisect_edge), each batch seeded by
    interpolating w at height _EPS between the bracket's grid ends. The
    times must be finite and positive.
    """
    k1, k2 = float(model.r(0.0)), float(model.dr(0.0))
    points = []
    for t in _scan_times(ts):
        spread = 4 * math.sqrt(max(t * k2, 1e-6)) + 0.5
        xs = np.linspace(t * k1 - spread, t * k1 + spread, _GRID_POINTS)
        dens, conv, w_eps = _extrapolated_density(model, t, xs)
        above = np.flatnonzero(dens > _GRID_THRESHOLD)
        edge, converged = None, bool(conv.all())
        if above.size and above[0] == 0:
            # the window's left end only bounds the edge
            edge, converged = float(xs[0]), False
        elif above.size:
            i = above[0]
            ends = xs[i - 1 : i + 1], w_eps[i - 1 : i + 1]

            def inside(mids, _):
                seed = np.interp(mids, *ends)
                return _extrapolated_density(model, t, mids, seed)[0] > _GRID_THRESHOLD

            (edge,) = _bisect_edge(inside, [(float(xs[i]), float(xs[i - 1]))], 2e-5)
        points.append(_with_atom(model, t, edge, converged))
    return tuple(points)
