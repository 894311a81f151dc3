"""Additive, multiplicative, and boolean convolutions, with densities.

Sequence-level operations work on truncated cumulant/moment data and stay
exact for exact inputs. The density route for additive convolution solves
the subordination fixed point on a complex grid by Newton's method from
the first round, with a damped Picard step wherever Newton misbehaves,
and hands transforms G_mu(omega) to read on the real axis, each call of
it seeded by the solve before it along its tangent omega'.

The multiplicative product keeps two independent routes, the alternating
word recursion (ncpart) and the S-transform series route, and can be asked
to run both and compare. numpy is imported by the density functions only,
so the sequence-level operations never load it; transforms is imported
by the same functions and by the series route of the product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from . import catalog, ncpart
from .catalog import MeasureSpec
from .ncpart import SeqN

MULT_AGREEMENT_TOL = 1e-9

# subordination solve: damping of a Picard step, the residual that counts
# as settled, and the iteration cap
_SUB_DAMPING = 0.5
_SUB_TOL = 1e-10
_SUB_MAX_ITER = 500

# support_edge's density level at the edge and its bracket width
_EDGE_THRESHOLD = 1e-4
_EDGE_XTOL = 1e-4


def _number(t):
    if not isinstance(t, (int, Fraction, float)):
        raise ValueError(f"t must be a real number, got {type(t).__name__}")
    if not catalog._finite(t):
        raise ValueError(f"t must be finite, got {t}")
    return t


# ---------------------------------------------------------------------------
# sequence-level convolutions


def free_add(mu: MeasureSpec, nu: MeasureSpec, order: int) -> MeasureSpec:
    """Additive free convolution: free cumulants add order by order."""
    ka = catalog.free_cumulants_of(mu, order)
    kb = catalog.free_cumulants_of(nu, order)
    return MeasureSpec.from_free_cumulants(
        [a + b for a, b in zip(ka.values, kb.values)]
    )


def free_power(mu: MeasureSpec, t, order: int) -> MeasureSpec:
    """Free convolution power for t >= 1 (valid for every measure)."""
    t = _number(t)
    if t < 1:
        raise ValueError(
            "free_power needs t >= 1; for 0 < t < 1 the power only exists "
            "for infinitely divisible input, use free_power_fid"
        )
    return free_power_fid(mu, t, order)


def free_power_fid(mu: MeasureSpec, t, order: int) -> MeasureSpec:
    """Scale free cumulants by t > 0.

    Below t = 1 this is a formal operation at sequence level; it is the
    convolution power of an actual measure only on the infinitely divisible
    class.
    """
    t = _number(t)
    if t <= 0:
        raise ValueError(f"free power needs t > 0, got {t}")
    kappa = catalog.free_cumulants_of(mu, order)
    return MeasureSpec.from_free_cumulants([t * k for k in kappa.values])


def boolean_add(mu: MeasureSpec, nu: MeasureSpec, order: int) -> MeasureSpec:
    """Boolean convolution: boolean cumulants add order by order."""
    ra = catalog.boolean_cumulants_of(mu, order)
    rb = catalog.boolean_cumulants_of(nu, order)
    summed = SeqN("boolean_cumulant", [a + b for a, b in zip(ra.values, rb.values)])
    return MeasureSpec.from_moments(ncpart.moments_from_boolean_cumulants(summed))


def boolean_power(mu: MeasureSpec, t, order: int) -> MeasureSpec:
    """Boolean convolution power; defined for every t >= 0."""
    t = _number(t)
    if t < 0:
        raise ValueError(f"boolean power needs t >= 0, got {t}")
    r = catalog.boolean_cumulants_of(mu, order)
    scaled = SeqN("boolean_cumulant", [t * v for v in r.values])
    return MeasureSpec.from_moments(ncpart.moments_from_boolean_cumulants(scaled))


# ---------------------------------------------------------------------------
# multiplicative convolution, two routes


@dataclass(frozen=True)
class MultReport:
    """Moments of a multiplicative product by each available route."""

    dp: SeqN
    series: SeqN | None
    max_dev: float

    @property
    def compared(self) -> bool:
        return self.series is not None


def _series_product(ma: SeqN, mb: SeqN, order: int) -> SeqN:
    """Product moments by the S-transform route: S_{mu x nu} = S_mu S_nu."""
    from . import transforms

    sa = transforms.s_series(ma, order)
    sb = transforms.s_series(mb, order)
    return transforms.moments_from_s_series(sa * sb, order)


def free_mult_report(mu: MeasureSpec, nu: MeasureSpec, order: int) -> MultReport:
    ma = catalog.moments_of(mu, order)
    mb = catalog.moments_of(nu, order)
    dp = ncpart.free_mult_moments(ma, mb, order)
    if ma.at(1) == 0 or mb.at(1) == 0:
        return MultReport(dp, None, 0.0)
    series = _series_product(ma, mb, order)
    dev = max(abs(float(x - y)) for x, y in zip(dp.values, series.values))
    return MultReport(dp, series, dev)


def free_mult(
    mu: MeasureSpec, nu: MeasureSpec, order: int, method: str = "both"
) -> MeasureSpec:
    """Multiplicative free convolution at moment level.

    method 'dp' runs the alternating word recursion (capped at
    ncpart.PRODUCT_CAP), 'series' multiplies S-transforms alone (needs both
    first moments nonzero; capped at ncpart.CONVERSION_CAP), 'both' runs
    whichever are available and insists they agree: exactly (==) when both
    routes' moments are exact, else to 1e-9.
    """
    if method not in ("dp", "series", "both"):
        raise ValueError(f"unknown method {method!r}; use dp, series, or both")
    if method == "both":
        report = free_mult_report(mu, nu, order)
        if not report.compared:
            return MeasureSpec.from_moments(report.dp)
        dp, series = report.dp.values, report.series.values
        if ncpart._is_exact(*dp, *series):
            diff = next((n for n, (x, y) in enumerate(zip(dp, series), 1) if x != y), None)
            if diff is not None:
                raise ArithmeticError(
                    f"exact product routes disagree at order {diff}: the DP's moment "
                    "and the series' are unequal"
                )
        elif report.max_dev > MULT_AGREEMENT_TOL:
            raise ArithmeticError(
                f"product routes disagree by {report.max_dev:.3e} "
                f"(tolerance {MULT_AGREEMENT_TOL:.0e})"
            )
        return MeasureSpec.from_moments(report.dp)
    if method == "series":
        ncpart._check_cap(order, ncpart.CONVERSION_CAP, "free_mult(method='series')")
    ma = catalog.moments_of(mu, order)
    mb = catalog.moments_of(nu, order)
    if method == "dp":
        return MeasureSpec.from_moments(ncpart.free_mult_moments(ma, mb, order))
    if ma.at(1) == 0 or mb.at(1) == 0:
        raise ValueError("S-transform route needs nonzero first moments; use method='dp'")
    return MeasureSpec.from_moments(_series_product(ma, mb, order))


# ---------------------------------------------------------------------------
# subordination and densities


@dataclass(frozen=True)
class SubordinationResult:
    omega: np.ndarray
    iterations: int
    max_residual: float
    converged: np.ndarray
    z: np.ndarray
    domega: np.ndarray  # omega' at the last iterate


def subordination(mu: MeasureSpec, nu: MeasureSpec, z, seed=None) -> SubordinationResult:
    """Solve omega(z) = z + h_nu(z + h_mu(omega)) on the upper half plane.

    h denotes F - id with F the reciprocal Cauchy transform; the resulting
    omega subordinates the sum: G_{mu plus nu}(z) = G_mu(omega(z)). omega is
    the Denjoy-Wolff point of the right side Phi, an analytic self-map of
    the upper half plane, so it is the only fixed point there and the start
    only decides how fast it is reached. A point starts at omega = z. A
    seed, the result of a solve at other points of z's shape, starts each
    point that converged there at the tangent step
    seed.omega + seed.domega (z - seed.z) where that is finite with
    Im omega >= Im z, else at seed.omega + (z - seed.z), which keeps
    Im omega >= Im z. Every round is a Newton step on Phi(omega) - omega = 0
    (Phi' = h_nu'(u) h_mu'(omega), h' = -G'/G^2 - 1), or a damped Picard
    step where the Newton step is not finite, leaves {Im omega >= Im z}, or
    follows a step that did not lower the residual |Phi(omega) - omega|. A
    point settles once its residual is below _SUB_TOL, with that last step
    taken. domega is omega' = (1 + h_nu'(u))/(1 - h_nu'(u) h_mu'(omega)) at
    the last round's iterate, from the same h' terms.

    A round reads (G, G') of mu at omega and of nu at u = z + h_mu(omega),
    one transforms._cauchy_pair call each, over the points not yet settled,
    and forms |step| once for the acceptance test, the residual and the
    settling test. Non-finite points are refused, as are points off the
    upper half plane, before any solve; an empty z gives empty arrays,
    iterations 0 and max_residual 0.0.
    """
    import numpy as np

    from . import transforms

    zarr = np.atleast_1d(np.asarray(z, dtype=complex))
    bad = int(np.count_nonzero(~np.isfinite(zarr)))
    if bad:
        raise ValueError(f"subordination points must be finite; {bad} of {zarr.size} are not")
    if np.any(zarr.imag <= 0):
        raise ValueError("subordination points must lie in the upper half plane")

    def h(spec, w):
        g, dg = transforms._cauchy_pair(spec, w, True)
        return 1 / g - w, -dg / g**2 - 1

    omega = zarr.copy()
    residual, converged = np.full(zarr.shape, np.inf), np.zeros(zarr.shape, bool)
    domega = np.full(zarr.shape, np.nan + 0j)
    if not zarr.size:
        return SubordinationResult(omega, 0, 0.0, converged, zarr, domega)
    with np.errstate(all="ignore"):
        if seed is not None:
            start = seed.omega + seed.domega * (zarr - seed.z)
            good = np.isfinite(start) & (start.imag >= zarr.imag)
            start = np.where(good, start, seed.omega + (zarr - seed.z))
            omega = np.where(seed.converged, start, omega)
        idx = np.arange(zarr.size)
        for its in range(1, _SUB_MAX_ITER + 1):
            w, zs = omega[idx], zarr[idx]
            h_w, dh_w = h(mu, w)
            h_u, dh_u = h(nu, zs + h_w)
            step = zs + h_u - w
            size = np.abs(step)
            trial = w - step / (dh_u * dh_w - 1)
            domega[idx] = (1 + dh_u) / (1 - dh_u * dh_w)
            ok = np.isfinite(trial) & (trial.imag >= zs.imag) & (size < residual[idx])
            omega[idx] = np.where(ok, trial, w + _SUB_DAMPING * step)
            residual[idx] = size
            settled = size < _SUB_TOL
            converged[idx] = settled
            idx = idx[~settled]
            if not idx.size:
                break
    return SubordinationResult(omega, its, float(residual.max()), converged, zarr, domega)


def _seeded_cauchy(mu: MeasureSpec, nu: MeasureSpec, solves: list):
    """G of mu plus nu as a callable for transforms' boundary read. Each
    call solves subordination at its z, seeded by the last solve in solves,
    and appends its own solve there."""
    from . import transforms

    def g(z):
        solves.append(subordination(mu, nu, z, solves[-1] if solves else None))
        return transforms.cauchy(mu, solves[-1].omega)

    return g


def free_add_density(mu: MeasureSpec, nu: MeasureSpec, xs) -> transforms.InversionResult:
    """Density of the additive free convolution on the grid xs, by Stieltjes
    inversion of G_mu(omega). Each height after the first starts each point
    from its omega one height up, or cold if it did not settle there. The
    result carries the solves' largest iteration count and residual and
    smallest converged fraction; a warning counts the unsettled points."""
    import numpy as np

    from . import transforms

    solves = []
    inv = transforms._invert(_seeded_cauchy(mu, nu, solves), xs)
    resid = max(s.max_residual for s in solves)
    conv = min(float(np.mean(s.converged)) for s in solves) if inv.xs.size else 1.0
    warnings = inv.warnings
    if conv < 1:
        bad = np.logical_or.reduce([~s.converged for s in solves])
        warnings += (f"subordination left {int(bad.sum())} of {bad.size} points "
                     f"unconverged (worst residual {resid:.2e})",)
    return replace(inv, warnings=warnings, iterations=max(s.iterations for s in solves),
                   max_residual=resid, converged_fraction=conv)


def density_at_points(mu: MeasureSpec, nu: MeasureSpec, xs):
    """Pointwise extrapolated density of mu plus nu, no renormalization."""
    from . import transforms

    return transforms._boundary_density(_seeded_cauchy(mu, nu, []), xs)


def support_edge(mu: MeasureSpec, nu: MeasureSpec, inner: float, outer: float) -> float:
    """Locate the support edge of mu plus nu by bisecting the density.

    inner must be a point where the density exceeds _EDGE_THRESHOLD and
    outer one where it falls below; the returned edge is where the
    extrapolated density crosses that level, accurate in position to
    max(_EDGE_XTOL, the float spacing there). Both ends must be finite,
    and a NaN density at either end straddles nothing. The bisection
    evaluates its midpoints in batches (transforms._bisect_edge) with the
    same edge as one-point bisection, and its first batch carries the two
    bracket ends ahead of its 63 midpoints; density_at_points treats each
    point alone, so the ends' densities are those of a solve of their own.
    From a bracket as wide as (2, 3.2) that is three density solves. A
    bracket no wider than _EDGE_XTOL starts no round, and its ends are
    checked in a solve of their own.
    """
    import numpy as np

    from . import transforms

    if not (math.isfinite(inner) and math.isfinite(outer)):
        raise ValueError(f"bracket ends must be finite, got {inner} and {outer}")

    def f(xs):
        return density_at_points(mu, nu, xs) - _EDGE_THRESHOLD

    def check(fi, fo):
        if not (fi > 0 and fo < 0):
            raise ValueError(
                f"bracket does not straddle the edge: d(inner)-t={fi:.2e}, "
                f"d(outer)-t={fo:.2e}"
            )

    ends = [inner, outer]

    def above(xs, _):
        # the first call also solves the bracket ends, ahead of its points
        nonlocal ends
        if ends is None:
            return f(xs) > 0
        v, ends = f(np.concatenate([ends, xs])), None
        check(*v[:2])
        return v[2:] > 0

    edge = transforms._bisect_edge(above, [(inner, outer)], _EDGE_XTOL)[0]
    if ends is not None:  # a bracket no wider than xtol never calls above
        check(*f(ends))
    return edge


# ---------------------------------------------------------------------------
# free commutator


def commutator(mu1: MeasureSpec, mu2: MeasureSpec, order: int) -> MeasureSpec:
    """Free cumulants of the antisymmetrized product i(xy - yx).

    The law depends only on the even free cumulant halves of the inputs, so
    odd cumulants are projected away first. The construction squares each
    input at cumulant level, multiplies the squares, takes the symmetric
    square root, and doubles its cumulants.
    """
    if order % 2:
        raise ValueError(f"commutator order must be even, got {order}")
    half = order // 2
    k1 = catalog.free_cumulants_of(mu1, order)
    k2 = catalog.free_cumulants_of(mu2, order)

    squares = []
    for kappa in (k1, k2):
        alpha = SeqN("free_cumulant", [kappa.at(2 * n) for n in range(1, half + 1)])
        sq_kappa = ncpart.square_cumulants(alpha)
        squares.append(ncpart.moments_from_free_cumulants(sq_kappa))

    rho = ncpart.free_mult_moments(squares[0], squares[1], half)
    sym = catalog.symmetric_sqrt_moments(rho)
    kappa_sym = ncpart.free_cumulants_from_moments(sym)
    return MeasureSpec.from_free_cumulants([2 * v for v in kappa_sym.values])
