"""Additive, multiplicative, and boolean convolutions, with densities.

Sequence-level operations work on truncated cumulant/moment data and stay
exact for exact inputs. The density route for additive convolution solves
the subordination fixed point on a complex grid by Newton's method, with a
damped Picard step wherever Newton misbehaves, and feeds the subordinated
transform to Stieltjes inversion. It solves the inversion's three heights
in turn, each seeded by the solve one height up.

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

# subordination solve: damping of a Picard step, the Picard warm-up steps
# before Newton, the residual that counts as settled, and the iteration cap
_SUB_DAMPING = 0.5
_SUB_WARMUP = 3
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
    whichever are available and insists they agree to 1e-9.
    """
    if method not in ("dp", "series", "both"):
        raise ValueError(f"unknown method {method!r}; use dp, series, or both")
    if method == "both":
        report = free_mult_report(mu, nu, order)
        if report.compared and report.max_dev > MULT_AGREEMENT_TOL:
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


def subordination(mu: MeasureSpec, nu: MeasureSpec, z, seed=None) -> SubordinationResult:
    """Solve omega(z) = z + h_nu(z + h_mu(omega)) on the upper half plane.

    h denotes F - id with F the reciprocal Cauchy transform; the resulting
    omega subordinates the sum: G_{mu plus nu}(z) = G_mu(omega(z)). A point
    starts at omega = z with _SUB_WARMUP damped Picard steps. A seed, the
    result of a solve at other points of z's shape, starts each point that
    converged there at seed.omega + (z - seed.z) with no warm-up, which
    keeps Im omega >= Im z. Then each point takes Newton steps on
    Phi(omega) - omega = 0 (Phi the right side, Phi' = h_nu'(u) h_mu'(omega),
    h' = -G'/G^2 - 1), or a damped Picard step where the Newton step is not
    finite, leaves {Im omega >= Im z}, or follows a step that did not lower
    the residual |Phi(omega) - omega|. A point settles once its residual is
    below _SUB_TOL, with that last step taken.
    """
    import numpy as np

    from . import transforms

    zarr = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(zarr.imag <= 0):
        raise ValueError("subordination points must lie in the upper half plane")

    def h(spec, w, slope):
        g, dg = transforms._cauchy_pair(spec, w, slope)
        return 1 / g - w, -dg / g**2 - 1

    omega, warmup = zarr.copy(), np.full(zarr.shape, _SUB_WARMUP)
    if seed is not None:
        omega = np.where(seed.converged, seed.omega + (zarr - seed.z), omega)
        warmup[seed.converged] = 0
    idx = np.arange(zarr.size)
    residual, converged = np.full(zarr.shape, np.inf), np.zeros(zarr.shape, bool)
    for its in range(1, _SUB_MAX_ITER + 1):
        w, zs, newton = omega[idx], zarr[idx], its > warmup[idx]
        h_w, dh_w = h(mu, w, newton.any())
        h_u, dh_u = h(nu, zs + h_w, newton.any())
        step = zs + h_u - w
        with np.errstate(all="ignore"):
            trial = w - step / (dh_u * dh_w - 1)
        ok = newton & np.isfinite(trial) & (trial.imag >= zs.imag)
        ok &= np.abs(step) < residual[idx]
        residual[idx] = np.abs(step)
        omega[idx] = np.where(ok, trial, w + _SUB_DAMPING * step)
        converged[idx] = residual[idx] < _SUB_TOL
        idx = idx[~converged[idx]]
        if not idx.size:
            break
    return SubordinationResult(omega, its, float(residual.max()), converged, zarr)


def _boundary_cauchy(mu: MeasureSpec, nu: MeasureSpec, xs):
    """G of mu plus nu at xs + i h for each height h of transforms._HEIGHTS,
    in order, and the subordination solves behind it. Each height after the
    first starts from the solve one height up."""
    from . import transforms

    solves = []
    for h in transforms._HEIGHTS:
        solves.append(subordination(mu, nu, xs + 1j * h, solves[-1] if solves else None))
    return [transforms.cauchy(mu, s.omega) for s in solves], solves


@dataclass(frozen=True)
class AddDensityResult:
    inversion: transforms.InversionResult
    iterations: int
    max_residual: float
    converged_fraction: float

    @property
    def xs(self):
        return self.inversion.xs

    @property
    def density(self):
        return self.inversion.density

    @property
    def atoms(self):
        return self.inversion.atoms

    @property
    def warnings(self):
        return self.inversion.warnings


def free_add_density(mu: MeasureSpec, nu: MeasureSpec, xs) -> AddDensityResult:
    """Density of the additive free convolution on the grid xs. At the
    heights eps/2 and eps/4 each point starts from its omega one height up,
    or cold if it did not converge there. A warning counts the grid points
    where a subordination solve did not settle."""
    import numpy as np

    from . import transforms

    xs = np.asarray(xs, dtype=float)
    values, diagnostics = _boundary_cauchy(mu, nu, xs)
    inv = transforms._invert(values, xs)
    iters = max(s.iterations for s in diagnostics)
    resid = max(s.max_residual for s in diagnostics)
    conv = min(float(np.mean(s.converged)) for s in diagnostics)
    if conv < 1:
        bad = np.logical_or.reduce([~s.converged for s in diagnostics])
        inv = replace(inv, warnings=inv.warnings + (
            f"subordination left {int(bad.sum())} of {bad.size} points "
            f"unconverged (worst residual {resid:.2e})",))
    return AddDensityResult(inv, iters, resid, conv)


def density_at_points(mu: MeasureSpec, nu: MeasureSpec, xs):
    """Pointwise extrapolated density of mu plus nu, no renormalization."""
    import numpy as np

    from . import transforms

    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    values = _boundary_cauchy(mu, nu, xs)[0]
    return transforms._richardson(transforms._boundary_densities(values))


def support_edge(mu: MeasureSpec, nu: MeasureSpec, inner: float, outer: float) -> float:
    """Locate the support edge of mu plus nu by bisecting the density.

    inner must be a point where the density exceeds _EDGE_THRESHOLD and
    outer one where it falls below; the returned edge is where the
    extrapolated density crosses that level, accurate to _EDGE_XTOL in
    position. Both ends must be finite, and a NaN density at either end
    straddles nothing. Both bracket ends are checked in one solve, and the
    bisection evaluates its midpoints in batches (transforms._bisect_edge)
    with the same edge as one-point bisection.
    """
    from . import transforms

    if not (math.isfinite(inner) and math.isfinite(outer)):
        raise ValueError(f"bracket ends must be finite, got {inner} and {outer}")

    def f(xs):
        return density_at_points(mu, nu, xs) - _EDGE_THRESHOLD

    fi, fo = f([inner, outer])
    if not (fi > 0 and fo < 0):
        raise ValueError(
            f"bracket does not straddle the edge: d(inner)-t={fi:.2e}, "
            f"d(outer)-t={fo:.2e}"
        )
    return transforms._bisect_edge(
        lambda xs, _: f(xs) > 0, [(inner, outer)], _EDGE_XTOL
    )[0]


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
