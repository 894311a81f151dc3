"""Reference routes that the package does not run, kept to check it.

Each is a second derivation of something freeconv computes another way:
adaptive quadrature of a catalog law's density for its moment table and
Cauchy transform, the Kreweras-complement and NC(n) enumeration sums for
the moment-cumulant recursion and the product DP (Nica-Speicher, Lectures
on the Combinatorics of Free Probability, Lect. 9 and 14) with the stack
test of non-crossing they need, the grid Cauchy transform by complex
division, and adaptive quadrature of the free Meixner Levy measure's
integrals.
"""

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from freeconv import catalog, transforms
from freeconv.ncpart import SeqN, SetPartition, _values, enumerate_nc

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
