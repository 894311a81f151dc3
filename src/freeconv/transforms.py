"""Analytic transforms: formal series algebra, Cauchy-type maps, inversion.

Two layers live here. The formal layer (FormalSeries) manipulates truncated
power series with exact truncation bookkeeping, and carries the series route
from moments to free cumulants (functional inversion of u -> u * (1 + sum
m_n u^n)) that cross-checks the lattice recursion in ncpart. Reversion is
Lagrange inversion in O(n^3) coefficient operations, built from the series
product and quotient only, so the route shares no code with ncpart; on
exact coefficients these run on int numerators over one denominator. The
numeric layer evaluates Cauchy transforms of concrete measures, a law's by
its closed form, and recovers densities by Stieltjes inversion with
Richardson extrapolation in the regularization parameter. Only the numeric
layer imports numpy, inside its functions, so the formal layer never loads it.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import catalog
from .catalog import LAWS, MeasureSpec
from .ncpart import SeqN


# ---------------------------------------------------------------------------
# formal series


class FormalSeries:
    """Truncated series sum_{k=lo}^{top} c_k z^k + O(z^{top+1}).

    lo may be negative. Every operation tracks how far the result is
    trustworthy: e.g. a product is exact only up to min(a.top + v(b),
    b.top + v(a)) because the unknown tail of one factor multiplies the
    lowest term of the other. Coefficients may be Fraction, int, float or
    complex; exact inputs stay exact. On exact operands products and
    quotients sum int numerators over one denominator; a product coefficient
    is a Fraction exactly when a Fraction enters one of its terms, and every
    quotient coefficient is one. Float or complex operands take per-term loops.
    """

    __slots__ = ("lo", "coeffs", "top")

    def __init__(self, lo: int, coeffs, top: int | None = None):
        coeffs = list(coeffs)
        if top is None:
            if not coeffs:
                raise ValueError("empty series needs an explicit truncation order")
            top = lo + len(coeffs) - 1
        if lo + len(coeffs) - 1 > top:
            coeffs = coeffs[: top - lo + 1]
        while len(coeffs) < top - lo + 1:
            coeffs.append(0)
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            lo += 1
        if not coeffs:
            lo = top + 1
        self.lo = lo
        self.coeffs = tuple(coeffs)
        self.top = top

    # -- builders --------------------------------------------------------

    @staticmethod
    def zero(top: int) -> "FormalSeries":
        return FormalSeries(top + 1, (), top)

    @staticmethod
    def identity(top: int) -> "FormalSeries":
        return FormalSeries(1, (1,), top)

    @staticmethod
    def poly(coeffs, top: int) -> "FormalSeries":
        """Polynomial sum coeffs[k] z^k regarded as known through z^top."""
        return FormalSeries(0, coeffs, top)

    @staticmethod
    def from_seq(seq: SeqN, top: int | None = None) -> "FormalSeries":
        """Generating series sum_{n>=1} a_n z^n of a 1-indexed sequence."""
        return FormalSeries(1, seq.values, top if top is not None else seq.order)

    # -- bookkeeping -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int):
        if k > self.top:
            raise ValueError(f"coefficient {k} is beyond truncation order {self.top}")
        if k < self.lo:
            return 0
        return self.coeffs[k - self.lo]

    def truncated(self, top: int) -> "FormalSeries":
        if top > self.top:
            raise ValueError(f"cannot extend truncation {self.top} to {top}")
        return FormalSeries(self.lo, self.coeffs, top)

    def shifted(self, k: int) -> "FormalSeries":
        """Multiply by z^k (k may be negative)."""
        return FormalSeries(self.lo + k, self.coeffs, self.top + k)

    def __repr__(self):
        terms = ", ".join(
            f"z^{k}: {c}" for k, c in zip(range(self.lo, self.top + 1), self.coeffs)
        )
        return f"FormalSeries({terms or '0'} + O(z^{self.top + 1}))"

    def __eq__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return (
            self.top == other.top
            and self.lo == other.lo
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.lo, self.coeffs, self.top))

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, FormalSeries):
            top = min(self.top, other.top)
            lo = min(self.lo, other.lo, top + 1)
            vals = [0] * (top - lo + 1)
            for s in (self, other):
                for k in range(s.lo, min(s.top, top) + 1):
                    vals[k - lo] = vals[k - lo] + s.coeff(k)
            return FormalSeries(lo, vals, top)
        if self.top < 0:
            raise ValueError("scalar addition needs the z^0 coefficient in range")
        lo = min(self.lo, 0)
        vals = [self.coeff(k) for k in range(lo, self.top + 1)]
        vals[0 - lo] = vals[0 - lo] + other
        return FormalSeries(lo, vals, self.top)

    __radd__ = __add__

    def __neg__(self):
        return FormalSeries(self.lo, [-c for c in self.coeffs], self.top)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, FormalSeries):
            return FormalSeries(self.lo, [c * other for c in self.coeffs], self.top)
        # for a truncation-zero factor lo is top+1, so the same bound applies
        top = min(self.top + other.lo, other.top + self.lo)
        if self.is_zero or other.is_zero:
            return FormalSeries.zero(top)
        lo = self.lo + other.lo
        if _exact(self.coeffs) and _exact(other.coeffs):
            vals = _exact_product(self.coeffs, other.coeffs, top - lo + 1)
            return FormalSeries(lo, vals, top)
        vals = [0] * (top - lo + 1)
        for i, a in enumerate(self.coeffs):
            ka = self.lo + i
            if ka + other.lo > top:
                break
            for j, b in enumerate(other.coeffs):
                k = ka + other.lo + j
                if k > top:
                    break
                vals[k - lo] = vals[k - lo] + a * b
        return FormalSeries(lo, vals, top)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, FormalSeries):
            return FormalSeries(
                self.lo, [_divide(c, other) for c in self.coeffs], self.top
            )
        if other.is_zero:
            raise ZeroDivisionError("division by a series with no known nonzero term")
        vb = other.lo
        va = self.lo if not self.is_zero else self.top + 1
        top = min(self.top - vb, other.top + va - 2 * vb)
        if self.is_zero:
            return FormalSeries.zero(top)
        lo = va - vb
        n = top - lo + 1
        b = [other.coeff(vb + i) for i in range(top - lo + 1)]
        a = [self.coeff(va + i) if va + i <= self.top else 0 for i in range(n)]
        if _exact(a) and _exact(b):
            return FormalSeries(lo, _exact_quotient(a, b), top)
        q = [0] * n
        for i in range(n):
            acc = a[i]
            for j in range(i):
                acc = acc - q[j] * b[i - j]
            q[i] = _divide(acc, b[0])
        return FormalSeries(lo, q, top)

    def __rtruediv__(self, other):
        return FormalSeries.poly([other], self.top + 2 * self.lo) / self

    # -- reversion -------------------------------------------------------

    def reverted(self) -> "FormalSeries":
        """Compositional inverse by Lagrange inversion; needs valuation exactly 1.

        With self = z u(z), [z^k] self^{-1} = [w^{k-1}] u(w)^{-k} / k
        (Flajolet-Sedgewick, Analytic Combinatorics, Thm A.2): one series
        division and a running power of 1/u, O(n^3) coefficient operations.
        On exact coefficients 1/u = V/D with int V, and the k-th power stays
        V^k over D^k, so the loop builds one Fraction per output coefficient.
        """
        if self.is_zero or self.lo != 1:
            raise ValueError("reversion needs a series of valuation exactly 1")
        v = 1 / self.shifted(-1)
        if _exact(v.coeffs):
            # v_0 != 0, so v has all the self.top coefficients that d needs
            nums, den = _scaled(v.coeffs)
            power, scale, d = nums, den, [Fraction(nums[0], den)]
            for k in range(2, self.top + 1):
                power, scale = _convolve(power, nums, len(nums)), scale * den
                d.append(Fraction(power[k - 1], scale * k))
            return FormalSeries(1, d, self.top)
        power = FormalSeries.poly([1], v.top)
        d = []
        for k in range(1, self.top + 1):
            power = power * v
            d.append(_divide(power.coeff(k - 1), k))
        return FormalSeries(1, d, self.top)

    def evaluate(self, z):
        """Numeric evaluation of the known part (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * z + c
        if self.is_zero:
            # z is no ndarray unless numpy is loaded; do not load it to check
            np = sys.modules.get("numpy")
            return 0 * z if np and isinstance(z, np.ndarray) else 0
        return acc * z**self.lo if self.lo != 0 else acc


def _divide(a, b):
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return Fraction(a) / Fraction(b)
    return a / b


_EXACT = frozenset((int, Fraction))


def _exact(coeffs) -> bool:
    """Whether every coefficient is an int or a Fraction (not a subclass)."""
    return _EXACT.issuperset(map(type, coeffs))


def _scaled(coeffs):
    """Int numerators of exact coeffs over the lcm of their denominators; the lcm."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _convolve(a, b, n):
    """The first n coefficients of the product of int sequences a and b."""
    rev = b[n - 1 :: -1]  # b_{n-1}, ..., b_0
    return [sum(map(operator.mul, a[: k + 1], rev[n - 1 - k :])) for k in range(n)]


def _exact_product(a, b, n):
    """The first n product coefficients of exact a and b; output k sums a_i
    b_{k-i} over all i <= k, so it is a Fraction from the first one in a or b on."""
    (na, da), (nb, db) = _scaled(a), _scaled(b)
    sums, den = _convolve(na, nb, n), da * db
    cut = next((k for k in range(n) if Fraction in (type(a[k]), type(b[k]))), n)
    return [c // den for c in sums[:cut]] + [Fraction(c, den) for c in sums[cut:]]


def _exact_quotient(a, b):
    """Fractions q_i = (a_i - sum_{j<i} q_j b_{i-j}) / b_0 for exact a and b,
    summed on the numerators of q_0..q_{i-1} over their common denominator e."""
    (na, da), (nb, db) = _scaled(a), _scaled(b)
    q, nums, e = [], [], 1
    for i, ai in enumerate(na):
        acc = sum(map(operator.mul, nums, nb[i:0:-1]))
        qi = Fraction(ai * e * db - da * acc, da * e * nb[0])
        grow = qi.denominator // math.gcd(e, qi.denominator)
        if grow != 1:
            e *= grow
            nums = [x * grow for x in nums]
        nums.append(qi.numerator * (e // qi.denominator))
        q.append(qi)
    return q


# ---------------------------------------------------------------------------
# moment generating series and cumulant extraction


def _moments_arg(mu, order: int) -> SeqN:
    if isinstance(mu, MeasureSpec):
        return catalog.moments_of(mu, order)
    if isinstance(mu, SeqN):
        if mu.kind != "moment":
            raise ValueError(f"expected moments, got {mu.kind!r}")
        if mu.order < order:
            raise ValueError(f"need {order} moments, have {mu.order}")
        return mu.truncated(order)
    return SeqN("moment", list(mu)[:order])


def free_cumulant_series_via_inversion(mu, order: int) -> FormalSeries:
    """Free cumulant series by functional inversion.

    With Psiic(u) = u * (1 + sum m_n u^n), the cumulant series is
    z / Psiic^{-1}(z) - 1. This route never touches the partition lattice,
    so it is an independent check of the recursion in ncpart.
    """
    m = _moments_arg(mu, order)
    m_tilde = FormalSeries.poly([1, *m.values], order)
    psi_hat = m_tilde.shifted(1)
    inv = psi_hat.reverted()
    quotient = FormalSeries.identity(order + 1) / inv
    c = quotient - 1
    return c.truncated(order)


def s_series(mu, order: int) -> FormalSeries:
    """S-transform as a series in z, known through z^{order-1}.

    S(z) = chi(z) (1+z)/z with Psi(chi(z)) = z; the first moment must be
    nonzero for chi to exist as a power series.
    """
    m = _moments_arg(mu, order)
    if m.at(1) == 0:
        raise ValueError("S-transform series needs a nonzero first moment")
    chi = FormalSeries.from_seq(m).reverted()
    return chi.shifted(-1) * FormalSeries.poly([1, 1], order)


def moments_from_s_series(s: FormalSeries, order: int) -> SeqN:
    """Invert s_series: recover m_1..m_order from S known through z^{order-1}."""
    if s.top < order - 1:
        raise ValueError(f"need S through z^{order - 1}, have z^{s.top}")
    if s.lo != 0 or s.coeff(0) == 0:
        raise ValueError("S series must have a nonzero constant term")
    chi = s.shifted(1) / FormalSeries.poly([1, 1], order + 1)
    psi = chi.truncated(order).reverted()
    return SeqN("moment", [psi.coeff(n) for n in range(1, order + 1)])


# ---------------------------------------------------------------------------
# numeric maps on the upper half plane


def _atomic_cauchy(atoms, z, derivative=False):
    """(G, G') of the atoms at z, with G' = 0 without derivative."""
    import numpy as np

    # G' = -sum q/d with q = w/d, which never squares d: d^2 overflows
    # past |z - a| ~ 1e154
    gaps = [z - float(loc) for loc, _ in atoms]
    qs = [float(w) / d for (_, w), d in zip(atoms, gaps)]
    dg = sum((-q / d for q, d in zip(qs, gaps)), np.zeros_like(z)) if derivative else 0 * z
    return sum(qs, np.zeros_like(z)), dg


_GRID_BLOCK = 1 << 14  # most points x knots one block of _grid_cauchy holds


def _grid_cauchy(mu: MeasureSpec, z, derivative=False):
    """(G, G') at z, with G' = 0 without derivative.

    The trapezoid sum of w_k d_k/(z - x_k), in real arithmetic. With
    a = Re z - x_k, y = Im z and u = 1/(a^2 + y^2), 1/(z - x_k) = (a - iy)u,
    so G = sum wd a u - iy sum wd u and
    G' = -sum wd (a - iy)^2 u^2 = 2y^2 sum wd u^2 - sum wd u + 2iy sum wd a u^2.
    A point whose largest |a| or |y| lies outside 2^-200 .. 2^200 has a and y
    scaled by a power of two that brings it near 1, which is exact and keeps
    a^2 + y^2 and u^2 from overflowing or underflowing; G takes the scale
    back once and G' twice. Points go in blocks of at most
    _GRID_BLOCK elements (one row at least), and every row is summed on its
    own, so a point's value does not depend on the others.
    """
    import numpy as np

    xs = np.asarray(mu.xs)
    step = float(np.max(np.diff(xs)))
    near = (np.abs(z.imag) < step / 10) & (
        (z.real > xs[0] - step) & (z.real < xs[-1] + step)
    )
    if np.any(near):
        raise ValueError(
            f"evaluation point within {step / 10:.3g} of the grid's real axis; "
            "refine the grid or move away from the support"
        )
    dens = np.asarray(mu.densities)
    weights = np.zeros_like(xs)
    weights[:-1] += np.diff(xs) / 2
    weights[1:] += np.diff(xs) / 2
    wd = weights * dens
    flat = z.ravel()
    re, y = flat.real, flat.imag
    widest = np.maximum(np.maximum(np.abs(re - xs[0]), np.abs(re - xs[-1])), np.abs(y))
    exp = np.frexp(widest)[1]
    scale = np.where(np.abs(exp) > 200, np.ldexp(1.0, -exp), 1.0)
    y = y * scale
    out = np.zeros((2, flat.size), dtype=complex)
    rows = max(1, _GRID_BLOCK // xs.size)
    a_buf, u_buf, wu_buf = (np.empty((min(rows, flat.size), xs.size)) for _ in range(3))
    for start in range(0, flat.size, rows):
        part = slice(start, start + rows)
        s, yp = scale[part], y[part]
        a = np.subtract(re[part, None], xs, out=a_buf[: s.size])
        if np.any(s != 1):
            a *= s[:, None]
        u = np.multiply(a, a, out=u_buf[: s.size])
        u += (yp * yp)[:, None]
        np.reciprocal(u, out=u)
        wu = np.multiply(u, wd, out=wu_buf[: s.size])
        awu = np.multiply(a, wu, out=a)
        sum_wu = wu.sum(axis=-1)
        out.real[0, part] = awu.sum(axis=-1) * s
        out.imag[0, part] = -(yp * sum_wu) * s
        if derivative:
            sum_wu2 = np.multiply(wu, u, out=wu).sum(axis=-1)
            sum_awu2 = np.multiply(awu, u, out=awu).sum(axis=-1)
            out.real[1, part] = (2 * yp * yp * sum_wu2 - sum_wu) * s * s
            out.imag[1, part] = 2 * yp * sum_awu2 * s * s
    return out.reshape(2, *z.shape) + _atomic_cauchy(mu.atoms, z, derivative)


def _cauchy_pair(mu: MeasureSpec, z, derivative):
    """(G, G') of mu on the array z, in both half planes. Without derivative
    the atoms' and a grid's G' are 0; a law's closed form gives it anyway,
    so every caller states which it needs.
    Moment-type representations carry no global transform and are refused.
    """
    import numpy as np

    if mu.kind == "atomic":
        return _atomic_cauchy(mu.atoms, z, derivative)
    if mu.kind == "grid":
        return _grid_cauchy(mu, z, derivative)
    if mu.kind == "law":
        # the closed form of the law X, for Im w >= 0, at w = (z - c)/s, reflected
        # by G(conj w) = conj G(w); s X + c has G_X(w)/s and G_X'(w)/s^2
        s, c = float(mu.scale), float(mu.offset)
        w = (z - c) / s
        lower = w.imag < 0
        vals = LAWS[mu.law].cauchy(mu.params, np.where(lower, np.conj(w), w))
        g, dg = (np.where(lower, np.conj(v), v) for v in vals)
        return g / s, dg / (s * s)
    raise ValueError(
        f"no global Cauchy transform for a {mu.kind!r} representation; "
        "convert to atomic, grid, or law form"
    )


def cauchy(mu: MeasureSpec, z):
    """Cauchy transform G(z) = integral of 1/(z-x); scalar or array z,
    off the real axis (both half planes)."""
    import numpy as np

    zarr = np.asarray(z, dtype=complex)
    out = _cauchy_pair(mu, np.atleast_1d(zarr), False)[0]
    return complex(out[0]) if zarr.ndim == 0 else out


def f_transform(mu: MeasureSpec, z):
    """Reciprocal Cauchy transform F = 1/G."""
    g = cauchy(mu, z)
    return 1 / g


def boolean_k(mu: MeasureSpec, z):
    """Boolean shift K(z) = z - F(z); additive under boolean convolution."""
    return z - f_transform(mu, z)


_S_SEED_ORDER = 16


def s_numeric(mu: MeasureSpec, z):
    """S-transform at a point: S(z) = (1+z)/z * u where Psi(u) = z.

    The inversion is seeded from the series to order _S_SEED_ORDER and
    polished by Newton on Psi(u) = G(1/u)/u - 1, with
    Psi'(u) = -(G(1/u) + G'(1/u)/u)/u^2 from the same _cauchy_pair call.
    It is only as good as the point is reachable from the series domain;
    nonconvergence raises.
    """
    import numpy as np

    m1 = catalog.moments_of(mu, 1).at(1)
    if m1 == 0:
        raise ValueError("S-transform needs a nonzero first moment")
    series = s_series(mu, _S_SEED_ORDER)
    z = complex(z)
    if z == 0:
        return complex(series.coeff(0))

    def residual(u):
        """Psi(u) - z and Psi'(u)."""
        g, dg = (complex(v[0]) for v in _cauchy_pair(mu, np.array([1 / u]), True))
        return g / u - 1 - z, -(g + dg / u) / u**2

    u = z / (1 + z) * complex(series.evaluate(z))
    fu, dfu = residual(u)
    for _ in range(80):
        if abs(fu) <= 1e-12 * max(1.0, abs(z)):
            break
        if dfu == 0 or not cmath.isfinite(dfu):
            raise ValueError(f"S-transform inversion stalled at z = {z}")
        step = -fu / dfu
        for _ in range(25):
            new_u = u + step
            new_f, new_df = residual(new_u)
            if cmath.isfinite(new_f) and abs(new_f) <= abs(fu):
                break
            step /= 2
        u, fu, dfu = new_u, new_f, new_df
    if not abs(fu) <= 1e-9 * max(1.0, abs(z)):
        raise ValueError(
            f"S-transform inversion did not converge at z = {z} "
            f"(residual {abs(fu):.2e})"
        )
    return (1 + z) / z * u


# ---------------------------------------------------------------------------
# Stieltjes inversion


def _richardson(f):
    """Extrapolate values f at heights eps, eps/2, eps/4 to height 0."""
    return (8 * f[2] - 6 * f[1] + f[0]) / 3


# heights eps, eps/2, eps/4 (eps = 1e-2) of every extrapolated boundary density
_HEIGHTS = (1e-2, 1e-2 / 2, 1e-2 / 4)


def _boundary_values(g, xs):
    """g(x + i h) on xs at each height h of _HEIGHTS, in order."""
    import numpy as np

    return [np.asarray(g(xs + 1j * h), dtype=complex) for h in _HEIGHTS]


def _boundary_densities(values):
    """-Im g / pi of each array of _boundary_values."""
    return [-v.imag / math.pi for v in values]


_EDGE_DEPTH = 6  # bisection steps resolved per call of the predicate


def _bisect_edge(above, brackets, xtol):
    """Bisect each bracket (inside, outside), above holding at inside and not
    at outside, to width xtol; returns the edges in bracket order.

    above maps an array of points, and the indices of their brackets, to a
    boolean array. Each round evaluates, in one call, every midpoint that
    the next _EDGE_DEPTH steps of one-point bisection could visit in every
    bracket wider than xtol, then follows the path those steps take. Each
    edge is therefore that of one-point bisection, bit for bit, as long as
    above judges each point independently of the others in its batch.
    """
    import numpy as np

    brackets = list(brackets)
    while trees := {b: [(ins, out)] for b, (ins, out) in enumerate(brackets)
                    if abs(out - ins) > xtol}:
        # each tree holds a bracket's sub-brackets in heap order: k splits
        # at its midpoint into 2k + 1 (midpoint above) and 2k + 2 (not above)
        mids = {}
        for b, tree in trees.items():
            for k in range(2**_EDGE_DEPTH - 1):
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


@dataclass(frozen=True)
class InversionResult:
    xs: np.ndarray
    density: np.ndarray
    atoms: tuple
    renorm: float
    min_density: float  # lowest extrapolated density (0 if none), before the clip
    warnings: tuple

    @property
    def total_mass(self) -> float:
        import numpy as np

        return float(np.trapezoid(self.density, self.xs)) + sum(
            w for _, w in self.atoms
        )


# Stieltjes inversion: the most negative density accepted without a warning,
# and the mass proxy and its eps/4-to-eps ratio above which a point is an atom
_NEGATIVE_TOL = 1e-6
_ATOM_MASS_TOL = 1e-3
_ATOM_RATIO = 0.6


def stieltjes_invert(g, xs) -> InversionResult:
    """Recover a density on xs from a Cauchy transform g.

    Evaluates -Im g(x + i h)/pi at the _HEIGHTS h = eps, eps/2, eps/4 and
    removes the O(eps) and O(eps^2) errors by quadratic extrapolation to
    h -> 0 (_richardson). Grid points where the mass proxy -h Im g fails to
    shrink with h are flagged as atoms: a continuous density shrinks it by
    4 per halving pair, an atom keeps it constant. g is called once per
    height, in that order; the atoms' poles are peeled off those values.
    """
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    return _invert(_boundary_values(g, xs), xs)


def _invert(values, xs) -> InversionResult:
    """stieltjes_invert from the values of g at xs + i h, one array per
    height h of _HEIGHTS, in order, on the float array xs."""
    import numpy as np

    warnings = []
    d = _boundary_densities(values)
    density = _richardson(d)

    mass = [math.pi * h * dk for h, dk in zip(_HEIGHTS, d)]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(mass[0] > 0, mass[2] / np.where(mass[0] > 0, mass[0], 1), 0.0)
    flagged = (mass[2] > _ATOM_MASS_TOL) & (ratio > _ATOM_RATIO)

    atoms = []
    if np.any(flagged):
        idx = np.flatnonzero(flagged)
        groups = np.split(idx, np.where(np.diff(idx) > 1)[0] + 1)
        for grp in groups:
            j = grp[int(np.argmax(mass[2][grp]))]
            w = _richardson([m[j] for m in mass])
            atoms.append((float(xs[j]), float(max(w, 0.0))))
        warnings.append(
            f"detected {len(atoms)} atom(s); re-extracting density with "
            "their poles subtracted"
        )
        # second pass: peel the detected poles off the first pass's values;
        # their slowly decaying extrapolation residue pollutes the density
        peeled = []
        for h, value in zip(_HEIGHTS, values):
            out = value.copy()
            for loc, w in atoms:
                out -= w / (xs + 1j * h - loc)
            peeled.append(out)
        density = _richardson(_boundary_densities(peeled))
        for grp in groups:
            density[grp] = 0.0

    worst = float(density.min(initial=0.0))
    if worst < -_NEGATIVE_TOL:
        warnings.append(
            f"negative density {worst:.3e} exceeded tolerance {_NEGATIVE_TOL:.1e}; "
            "negative values clipped to 0"
        )
    density = np.clip(density, 0.0, None)

    renorm = 1.0
    target = 1.0 - sum(w for _, w in atoms)
    got = float(np.trapezoid(density, xs))
    if got > 0 and target > 0:
        factor = target / got
        # a small factor corrects quadrature drift; a large one means
        # the grid missed mass (uncovered support, unresolved edge
        # spike) and scaling would corrupt the resolved interior
        if abs(factor - 1) <= 5e-3:
            renorm = factor
            density = density * renorm
        else:
            warnings.append(
                f"grid mass {got:.4f} vs target {target:.4f}; "
                "renormalization skipped, grid may not resolve the support"
            )
    return InversionResult(xs, density, tuple(atoms), renorm, worst, tuple(warnings))
