"""Additive, multiplicative, and boolean convolutions, with densities.

Sequence-level operations work on truncated cumulant/moment data and stay
exact for exact inputs. The density route for additive convolution solves
the subordination fixed point on a complex grid and feeds the subordinated
transform to Stieltjes inversion.

The multiplicative product keeps two independent routes, the alternating
word recursion (ncpart) and the S-transform series route, and can be asked
to run both and compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import catalog, ncpart, transforms
from .catalog import MeasureSpec
from .ncpart import SeqN

MULT_AGREEMENT_TOL = 1e-9

# subordination iteration: step damping, the heavier damping of the one
# restart, the residual that counts as settled, and the iteration cap per run
_SUB_DAMPING = 0.5
_SUB_RESTART_DAMPING = 0.25
_SUB_TOL = 1e-10
_SUB_MAX_ITER = 500

# support_edge's density level at the edge and its bracket width; the
# tolerances of check_1418 and boolean_free_power_identity_check
_EDGE_THRESHOLD = 1e-4
_EDGE_XTOL = 1e-4
_1418_TOL = 1e-9
_BOOLEAN_FREE_POWER_TOL = 1e-10


def _number(t, name="t"):
    if isinstance(t, (int, Fraction, float)):
        return t
    raise ValueError(f"{name} must be a real number, got {type(t).__name__}")


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


def free_mult_report(mu: MeasureSpec, nu: MeasureSpec, order: int) -> MultReport:
    ma = catalog.moments_of(mu, order)
    mb = catalog.moments_of(nu, order)
    dp = ncpart.free_mult_moments(ma, mb, order)
    if ma.at(1) == 0 or mb.at(1) == 0:
        return MultReport(dp, None, 0.0)
    sa = transforms.s_series(ma, order)
    sb = transforms.s_series(mb, order)
    series = transforms.moments_from_s_series(sa * sb, order)
    dev = max(abs(float(x - y)) for x, y in zip(dp.values, series.values))
    return MultReport(dp, series, dev)


def free_mult(
    mu: MeasureSpec, nu: MeasureSpec, order: int, method: str = "both"
) -> MeasureSpec:
    """Multiplicative free convolution at moment level.

    method 'dp' runs the alternating word recursion, 'series' multiplies
    S-transforms (needs both first moments nonzero), 'both' runs whichever
    are available and insists they agree to 1e-9.
    """
    if method not in ("dp", "series", "both"):
        raise ValueError(f"unknown method {method!r}; use dp, series, or both")
    if method == "dp":
        ma = catalog.moments_of(mu, order)
        mb = catalog.moments_of(nu, order)
        return MeasureSpec.from_moments(ncpart.free_mult_moments(ma, mb, order))
    report = free_mult_report(mu, nu, order)
    if method == "series":
        if report.series is None:
            raise ValueError(
                "S-transform route needs nonzero first moments; use method='dp'"
            )
        return MeasureSpec.from_moments(report.series)
    if report.compared and report.max_dev > MULT_AGREEMENT_TOL:
        raise ArithmeticError(
            f"product routes disagree by {report.max_dev:.3e} "
            f"(tolerance {MULT_AGREEMENT_TOL:.0e})"
        )
    return MeasureSpec.from_moments(report.dp)


# ---------------------------------------------------------------------------
# subordination and densities


@dataclass(frozen=True)
class SubordinationResult:
    omega: np.ndarray
    iterations: int
    max_residual: float
    converged: np.ndarray

    @property
    def all_converged(self) -> bool:
        return bool(np.all(self.converged))


def subordination(mu: MeasureSpec, nu: MeasureSpec, z) -> SubordinationResult:
    """Solve omega(z) = z + h_nu(z + h_mu(omega)) on the upper half plane.

    h denotes F - id with F the reciprocal Cauchy transform; the resulting
    omega subordinates the sum: G_{mu plus nu}(z) = G_mu(omega(z)). The
    damped iteration contracts on the upper half plane; points that fail to
    settle inside _SUB_MAX_ITER steps are restarted once with heavier damping.
    """

    def h_mu(w):
        return 1 / transforms.cauchy(mu, w) - w

    def h_nu(w):
        return 1 / transforms.cauchy(nu, w) - w

    zarr = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(zarr.imag <= 0):
        raise ValueError("subordination points must lie in the upper half plane")

    def run(points, d):
        omega = points.copy()
        active = np.ones(points.shape, dtype=bool)
        residual = np.full(points.shape, np.inf)
        its = 0
        for its in range(1, _SUB_MAX_ITER + 1):
            w = omega[active]
            target = points[active] + h_nu(points[active] + h_mu(w))
            step = target - w
            residual[active] = np.abs(step)
            omega[active] = w + d * step
            settled = residual[active] < _SUB_TOL
            if np.any(settled):
                idx = np.flatnonzero(active)
                active[idx[settled]] = False
            if not active.any():
                break
        return omega, residual, ~active, its

    omega, residual, conv, its = run(zarr, _SUB_DAMPING)
    if not np.all(conv):
        bad = ~conv
        omega2, residual2, conv2, its2 = run(zarr[bad], _SUB_RESTART_DAMPING)
        omega[bad] = omega2
        residual[bad] = residual2
        conv = conv.copy()
        conv[bad] = conv2
        its += its2
    return SubordinationResult(omega, its, float(residual.max()), conv)


def free_add_cauchy(mu: MeasureSpec, nu: MeasureSpec, z):
    """Cauchy transform of the additive convolution via subordination."""
    sub = subordination(mu, nu, z)
    g = transforms.cauchy(mu, sub.omega)
    return (g[0] if np.isscalar(z) else g), sub


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
    """Density of the additive free convolution on the grid xs."""
    diagnostics = []

    def g(z):
        value, sub = free_add_cauchy(mu, nu, z)
        diagnostics.append(sub)
        return value

    inv = transforms.stieltjes_invert(g, xs)
    iters = max(s.iterations for s in diagnostics)
    resid = max(s.max_residual for s in diagnostics)
    conv = min(float(np.mean(s.converged)) for s in diagnostics)
    return AddDensityResult(inv, iters, resid, conv)


def density_at_points(mu: MeasureSpec, nu: MeasureSpec, xs):
    """Pointwise extrapolated density of mu plus nu, no renormalization."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    d = transforms._boundary_densities(lambda z: free_add_cauchy(mu, nu, z)[0], xs)
    return transforms._richardson(d)


def support_edge(mu: MeasureSpec, nu: MeasureSpec, inner: float, outer: float) -> float:
    """Locate the support edge of mu plus nu by bisecting the density.

    inner must be a point where the density exceeds _EDGE_THRESHOLD and
    outer one where it falls below; the returned edge is where the
    extrapolated density crosses that level, accurate to _EDGE_XTOL in
    position. Both bracket ends are checked in one solve, and the bisection
    evaluates its midpoints in batches (transforms._bisect_edge) with the
    same edge as one-point bisection.
    """

    def f(xs):
        return density_at_points(mu, nu, xs) - _EDGE_THRESHOLD

    fi, fo = f([inner, outer])
    if fi <= 0 or fo >= 0:
        raise ValueError(
            f"bracket does not straddle the edge: d(inner)-t={fi:.2e}, "
            f"d(outer)-t={fo:.2e}"
        )
    return transforms._bisect_edge(lambda xs: f(xs) > 0, inner, outer, _EDGE_XTOL)


# ---------------------------------------------------------------------------
# iterated identities


def _iterated_mult(m: SeqN, copies: int, order: int) -> SeqN:
    out = m
    for _ in range(copies - 1):
        out = ncpart.free_mult_moments(out, m, order)
    return out


@dataclass(frozen=True)
class IdentityReport:
    lhs: SeqN
    rhs: SeqN
    max_dev: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_dev <= self.tol


def _compare(lhs: SeqN, rhs: SeqN, tol: float) -> IdentityReport:
    dev = max(abs(float(a - b)) for a, b in zip(lhs.values, rhs.values))
    return IdentityReport(lhs, rhs, dev, tol)


def check_1418(mu: MeasureSpec, s: int, t, order: int) -> IdentityReport:
    """Power-dilation identity for mixed convolution powers.

    Compares the moments of the dilation by t^(s-1) of (mu^{x s})^{+ t}
    with those of (mu^{+ t})^{x s}, where x is the multiplicative and + the
    additive convolution power.
    """
    if not isinstance(s, int) or s < 1:
        raise ValueError(f"s must be a positive integer, got {s}")
    t = _number(t)
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    m = catalog.moments_of(mu, order)

    prod = _iterated_mult(m, s, order)
    kappa = ncpart.free_cumulants_from_moments(prod)
    powered = ncpart.moments_from_free_cumulants(
        SeqN("free_cumulant", [t * k for k in kappa.values])
    )
    factor = t ** (s - 1)
    lhs = SeqN("moment", [factor**n * v for n, v in enumerate(powered.values, 1)])

    kappa_mu = ncpart.free_cumulants_from_moments(m)
    mu_t = ncpart.moments_from_free_cumulants(
        SeqN("free_cumulant", [t * k for k in kappa_mu.values])
    )
    rhs = _iterated_mult(mu_t, s, order)
    return _compare(lhs, rhs, _1418_TOL)


def boolean_free_power_identity_check(mu: MeasureSpec, t, order: int) -> IdentityReport:
    """Power identity linking boolean and free convolution for 0 < t < 1.

    The boolean-to-free lift of (mu^{+ (1-t)})^{u t/(1-t)} has the law of
    mu^{u t} (u the boolean power); checked at moment level.
    """
    t = _number(t)
    if not 0 < t < 1:
        raise ValueError(f"identity needs 0 < t < 1, got {t}")
    sigma = free_power_fid(mu, 1 - t, order)
    tau = boolean_power(sigma, t / (1 - t), order)
    r_tau = catalog.boolean_cumulants_of(tau, order)
    lifted = ncpart.moments_from_free_cumulants(
        SeqN("free_cumulant", r_tau.values)
    )
    rhs = catalog.moments_of(boolean_power(mu, t, order), order)
    return _compare(lifted, rhs, _BOOLEAN_FREE_POWER_TOL)


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
