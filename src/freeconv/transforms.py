"""Analytic transforms: formal series algebra, Cauchy-type maps, inversion.

Two layers live here. The formal layer (FormalSeries) manipulates truncated
power series with exact truncation bookkeeping, and carries the series route
from moments to free cumulants (functional inversion of u -> u * (1 + sum
m_n u^n)) that cross-checks the lattice recursion in ncpart. Reversion is
Lagrange inversion in O(n^3) coefficient operations, built from a series
reciprocal and coefficients of its powers only, so the route shares no code
with ncpart. A series has product, reciprocal (of a series with a nonzero
constant term) and reversion, and no quotient. Products of every
coefficient type run one convolution (_convolve), on int numerators over
one denominator when exact; exact reciprocals run on such numerators too,
and reversion on the ints (u_i/u_0) D^i for a base D that divides the lcm
of the denominators (_graded), reading the one coefficient of each power
it needs by Miller's recurrence, about n^3/6 int products against the
n^3/2 of a running power, with one exact int division per coefficient.
Outputs follow the type rule stated in ncpart's docstring. The numeric
layer evaluates Cauchy transforms of concrete measures, a law's by its
closed form, and recovers densities by Stieltjes inversion with Richardson
extrapolation in the regularization parameter; only it knows the heights
and their order, also for free sums (conv hands it their transform). Only
the numeric layer imports numpy, inside its functions, so the formal layer
never loads it.
"""

from __future__ import annotations

import cmath
import math
import operator
import warnings
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
    complex; exact inputs stay exact. A product sums a_i b_{k-i} in one
    convolution for every type, on int numerators over one denominator for
    exact operands; an exact reciprocal does the same and reversion runs on
    graded ints. Exact outputs follow ncpart's type rule: a product
    coefficient is a Fraction exactly when a Fraction enters one of its
    terms, and every reciprocal and reversion coefficient is one. Any other
    coefficient makes a product, reciprocal or reversion convert all of them
    once to float, or complex (_operands), so no Fraction comes out. * takes
    only series, and there is no /: a quotient a/b is a * b.reciprocal().
    """

    __slots__ = ("lo", "coeffs", "top")

    def __init__(self, lo: int, coeffs, top: int | None = None):
        coeffs = list(coeffs)
        if top is None:
            if not coeffs:
                raise ValueError("empty series needs an explicit truncation order")
            top = lo + len(coeffs) - 1
        if lo + len(coeffs) - 1 > top:
            coeffs = coeffs[: max(top - lo + 1, 0)]
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

    def __mul__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        # for a truncation-zero factor lo is top+1, so the same bound applies
        top = min(self.top + other.lo, other.top + self.lo)
        if self.is_zero or other.is_zero:
            return FormalSeries.zero(top)
        lo = self.lo + other.lo
        exact, (a, b) = _operands(self.coeffs, other.coeffs)
        product = _exact_product if exact else _convolve
        return FormalSeries(lo, product(a, b, top - lo + 1), top)

    def reciprocal(self) -> "FormalSeries":
        """1/self, known through the same order; needs a nonzero constant term."""
        if self.is_zero or self.lo != 0:
            raise ValueError("reciprocal needs a series with a nonzero constant term")
        exact, (b,) = _operands(self.coeffs)
        return FormalSeries(0, (_exact_reciprocal if exact else _reciprocal)(b), self.top)

    # -- reversion -------------------------------------------------------

    def reverted(self) -> "FormalSeries":
        """Compositional inverse by Lagrange inversion; needs valuation exactly 1.

        With self = z u(z), [z^k] self^{-1} = [w^{k-1}] u(w)^{-k} / k
        (Flajolet-Sedgewick, Analytic Combinatorics, Thm A.2): one series
        reciprocal and a coefficient of each power of 1/u, O(n^3) coefficient
        operations. On exact coefficients u_i / u_0 = g_i / D^i with ints g_i
        and g_0 = 1 (_graded), so 1/g is an int series h and [w^{k-1}] u^{-k}
        = [w^{k-1}] h^k / (D^{k-1} u_0^k). Only that coefficient of h^k is
        needed, so it comes from Miller's power recurrence (Knuth, TAOCP
        vol. 2, 4.7): P_0 = 1 and m P_m = sum_{i=1}^{m} ((k+1) i - m) h_i
        P_{m-i} for m < k, about k^2/2 int products, where a running power
        spends n^2/2 per k. The P_m are the int coefficients of h^k, so the
        division by m is exact int division, and the loop builds one Fraction
        per output coefficient. Float or complex u run a running power of 1/u
        from the power 1, keeping term-wise NaNs if 1/u overflows.
        """
        if self.is_zero or self.lo != 1:
            raise ValueError("reversion needs a series of valuation exactly 1")
        # u = self / z; u_0 != 0, so u has all self.top coefficients d needs
        exact, (u,) = _operands(self.coeffs)
        if exact:
            g, u0, base = _graded(u)
            h = [1]  # 1 / sum g_i w^i, an int series since g_0 = 1
            for i in range(1, len(g)):
                h.append(-sum(map(operator.mul, g[1 : i + 1], reversed(h))))
            # num / den = 1 / (D^{k-1} u_0^k)
            num, den, d = u0.denominator, u0.numerator, []
            for k in range(1, self.top + 1):
                if k > 1:
                    num, den = num * u0.denominator, den * u0.numerator * base
                # p = [w^0..w^{k-1}] h^k by Miller's recurrence: the weights
                # (k + 1) i - m, i = 1..m, run in steps of k + 1
                p = [1]
                for m in range(1, k):
                    terms = map(operator.mul, h[1 : m + 1], reversed(p))
                    weights = range(k + 1 - m, k * m + 1, k + 1)
                    p.append(sum(map(operator.mul, weights, terms)) // m)
                d.append(Fraction(p[k - 1] * num, den * k))
            return FormalSeries(1, d, self.top)
        v, d = _reciprocal(u), []
        power = [1] + [0] * (self.top - 1)  # ints act as 1.0 and 0.0 would, to the bit
        for k in range(1, self.top + 1):
            power = _convolve(power, v, len(v))
            d.append(power[k - 1] / k)
        return FormalSeries(1, d, self.top)

    def evaluate(self, z):
        """Numeric evaluation of the known part (Horner)."""
        if self.is_zero:
            return 0 * z
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc * z**self.lo if self.lo != 0 else acc


_EXACT = frozenset((int, Fraction))


def _operands(*seqs):
    """(True, seqs) when every coefficient is an int or a Fraction (not a
    subclass); else (False, seqs with each coefficient converted once, by
    float(), or by complex() when any is complex). Python computes Fraction
    * float as float(Fraction) * float, so a term with an inexact factor
    keeps its bits; only exact-by-exact terms turn inexact."""
    if all(_EXACT.issuperset(map(type, s)) for s in seqs):
        return True, seqs
    cast = complex if any(isinstance(c, complex) for s in seqs for c in s) else float
    return False, [list(map(cast, s)) for s in seqs]


def _scaled(coeffs):
    """Int numerators of exact coeffs over the lcm of their denominators; the lcm."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _graded(coeffs):
    """Ints g_i = (c_i / c_0) D^i of exact coeffs with c_0 != 0, so g_0 = 1;
    c_0 as a Fraction; and D. D grows order by order, by e_i / gcd(e_i, D^i)
    with e_i the denominator of c_i / c_0, so it divides their lcm."""
    c0 = Fraction(coeffs[0])
    # c_i / c_0 = (p_i q_0) / (q_i p_0) in lowest terms, the sign of p_0 on top
    sign, p0, q0 = (1 if c0 > 0 else -1), abs(c0.numerator), c0.denominator
    ratios = []
    for c in coeffs[1:]:
        num, den = sign * c.numerator * q0, c.denominator * p0
        common = math.gcd(num, den)
        ratios.append((num // common, den // common))
    d = 1
    for i, (_, den) in enumerate(ratios, 1):
        d *= den // math.gcd(den, d**i)
    g, di = [1], 1
    for num, den in ratios:
        di *= d
        g.append(num * (di // den))
    return g, c0, d


def _convolve(a, b, n):
    """The first n coefficients of the product of sequences a and b, each of
    length >= n; output k sums a_i b_{k-i} from int 0 in ascending i."""
    rev = b[n - 1 :: -1]  # b_{n-1}, ..., b_0
    return [sum(map(operator.mul, a[: k + 1], rev[n - 1 - k :])) for k in range(n)]


def _reciprocal(b):
    """q_0 = 1 / b_0 and q_i = (0 - sum_{j<i} q_j b_{i-j}) / b_0 for float or
    complex b, one operation per term from int 0, the j ascending."""
    q = [1 / b[0]]
    for i in range(1, len(b)):
        acc = 0
        for j in range(i):
            acc = acc - q[j] * b[i - j]
        q.append(acc / b[0])
    return q


def _exact_product(a, b, n):
    """The first n product coefficients of exact a and b; output k sums a_i
    b_{k-i} over all i <= k, so it is a Fraction from the first one in a or b on."""
    (na, da), (nb, db) = _scaled(a), _scaled(b)
    sums, den = _convolve(na, nb, n), da * db
    cut = next((k for k in range(n) if Fraction in (type(a[k]), type(b[k]))), n)
    return [c // den for c in sums[:cut]] + [Fraction(c, den) for c in sums[cut:]]


def _exact_reciprocal(b):
    """Fractions q_0 = 1 / b_0 and q_i = -sum_{j<i} q_j b_{i-j} / b_0 for exact
    b, summed on the numerators of q_0..q_{i-1} over their common denominator e."""
    nb, db = _scaled(b)
    q, nums, e = [], [], 1
    for i in range(len(nb)):
        acc = sum(map(operator.mul, nums, nb[i:0:-1]))
        qi = Fraction(db if i == 0 else -acc, e * nb[0])
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
    psi_hat = FormalSeries.poly([1, *m.values], order).shifted(1)
    inv = psi_hat.reverted()
    q0, *rest = inv.shifted(-1).reciprocal().coeffs  # q0 is 1
    return FormalSeries(0, [q0 - 1, *rest], order)


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


# ---------------------------------------------------------------------------
# numeric maps on the upper half plane


def _atomic_cauchy(atoms, z):
    """(G, G') of the atoms at z."""
    import numpy as np

    # G' = -sum q/d with q = w/d, which never squares d: d^2 overflows
    # past |z - a| ~ 1e154; within ~1e-154 of an atom G' is inf or nan, unwarned
    gaps = [z - float(loc) for loc, _ in atoms]
    qs = [float(w) / d for (_, w), d in zip(atoms, gaps)]
    g, dg = sum(qs, np.zeros_like(z)), np.zeros_like(z)
    with np.errstate(over="ignore", invalid="ignore"):
        for q, d in zip(qs, gaps):
            dg -= np.divide(q, d, out=d)
    return g, dg


_GRID_BLOCK = 1 << 14  # most points x knots one block of _grid_cauchy holds


def _grid_cauchy(mu: MeasureSpec, z):
    """(G, G') at z: the trapezoid sum of w_k d_k/(z - x_k) in real arithmetic.
    With a = Re z - x_k, y = Im z and u = 1/(a^2 + y^2), 1/(z - x_k) = (a - iy)u,
    so G = sum wd a u - iy sum wd u and
    G' = -sum wd (a - iy)^2 u^2 = 2y^2 sum wd u^2 - sum wd u + 2iy sum wd a u^2.
    A point whose largest |a| or |y| lies outside 2^-200 .. 2^200 has a and y
    scaled by a power of two that brings it near 1, which is exact and keeps
    a^2 + y^2 and u^2 from overflowing or underflowing; G takes the scale
    back once and G' twice. Points go in blocks of at most
    _GRID_BLOCK elements (one row at least). Each sum is one BLAS dot per
    row (np.vecdot) against wd, or wd u for G', so a point's value does not
    depend on its block, as it would through a matrix-vector product. The
    blocks form the sums alone; G and G' are assembled from them once, for
    all points. The knots, wd and the largest spacing are built once per
    spec (MeasureSpec._knots).
    """
    import numpy as np

    xs, wd, step = mu._knots
    near = (np.abs(z.imag) < step / 10) & (
        (z.real > xs[0] - step) & (z.real < xs[-1] + step)
    )
    if np.any(near):
        raise ValueError(
            f"evaluation point within {step / 10:.3g} of the grid's real axis; "
            "refine the grid or move away from the support"
        )
    flat = z.ravel()
    re, y = flat.real, flat.imag
    widest = np.maximum(np.maximum(np.abs(re - xs[0]), np.abs(re - xs[-1])), np.abs(y))
    exp = np.frexp(widest)[1]
    scale = np.where(np.abs(exp) > 200, np.ldexp(1.0, -exp), 1.0)
    y = y * scale
    scaled, y2 = np.any(scale != 1), y * y
    # per point: sum wd u, sum wd a u, sum wd u^2 and sum wd a u^2
    sums = np.empty((4, flat.size))
    rows = max(1, _GRID_BLOCK // xs.size)
    a_buf, u_buf, wu_buf = (np.empty((min(rows, flat.size), xs.size)) for _ in range(3))
    for start in range(0, flat.size, rows):
        part = slice(start, start + rows)
        n = re[part].size
        a = np.subtract(re[part, None], xs, out=a_buf[:n])
        if scaled:
            a *= scale[part, None]  # exact, also where the scale is 1
        u = np.square(a, out=u_buf[:n])
        u += y2[part, None]
        np.reciprocal(u, out=u)
        au = np.multiply(a, u, out=a)
        np.vecdot(u, wd, out=sums[0, part])
        np.vecdot(au, wd, out=sums[1, part])
        wu = np.multiply(u, wd, out=wu_buf[:n])
        np.vecdot(wu, u, out=sums[2, part])
        np.vecdot(wu, au, out=sums[3, part])
    out = np.zeros((2, flat.size), dtype=complex)
    out.real[0] = sums[1] * scale
    out.imag[0] = -(y * sums[0]) * scale
    out.real[1] = (2 * y * y * sums[2] - sums[0]) * scale * scale
    out.imag[1] = 2 * y * sums[3] * scale * scale
    return out.reshape(2, *z.shape) + _atomic_cauchy(mu.atoms, z)


def _cauchy_pair(mu: MeasureSpec, z):
    """(G, G') of mu on the array z, in both half planes: every kind forms
    both in one evaluation, and a read for G alone takes the first.
    Moment-type representations carry no global transform and are refused.

    A law spec with scale 1 and offset 0 hands z to its closed form as it
    is, with no affine arithmetic. A point whose imaginary part has its
    sign bit set, -0.0 included, is read on the upper side and conjugated
    back; only when some point is such are copies made and conjugated in
    place there. z itself is never written.
    """
    import numpy as np

    if mu.kind == "atomic":
        return _atomic_cauchy(mu.atoms, z)
    if mu.kind == "grid":
        return _grid_cauchy(mu, z)
    if mu.kind == "law":
        # the closed form of the law X, for Im w >= 0, at w = (z - c)/s, reflected
        # by G(conj w) = conj G(w); s X + c has G_X(w)/s and G_X'(w)/s^2
        s, c = float(mu.scale), float(mu.offset)
        moved = s != 1 or c != 0
        w = (z - c) / s if moved else z
        lower = np.signbit(w.imag)
        flip = lower.any()
        if flip:
            w = np.conjugate(w, out=w.copy() if w is z else w, where=lower)
        g, dg = LAWS[mu.law].cauchy(mu.params, w)
        if flip:
            np.conjugate(g, out=g, where=lower)
            np.conjugate(dg, out=dg, where=lower)
        return (g / s, dg / (s * s)) if moved else (g, dg)
    raise ValueError(
        f"no global Cauchy transform for a {mu.kind!r} representation; "
        "convert to atomic, grid, or law form"
    )


def cauchy(mu: MeasureSpec, z):
    """Cauchy transform G(z) = integral of 1/(z-x), _cauchy_pair's G to the bit,
    at scalar or array z in both half planes. Im z = +0.0 or -0.0 reads a law
    from above or below, atoms as their real sum, and a grid is refused near
    its support. Non-finite points are refused before any evaluation. G'
    may divide by zero where G is finite (a law's support edge on the axis),
    so the pair's floating-point warnings are muted, and one RuntimeWarning
    counts the points where G itself is not finite."""
    import numpy as np

    zarr = np.asarray(z, dtype=complex)
    if not np.isfinite(zarr).all():
        bad = int(np.count_nonzero(~np.isfinite(zarr)))
        raise ValueError(f"cauchy points must be finite; {bad} of {zarr.size} are not")
    with np.errstate(all="ignore"):
        out = _cauchy_pair(mu, np.atleast_1d(zarr))[0]
    if bad := int(np.count_nonzero(~np.isfinite(out))):
        warnings.warn(f"G is not finite at {bad} of {out.size} points", RuntimeWarning, 2)
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
    nonconvergence raises, and so does a z outside the range of Psi on the
    principal sheet, where no root exists: for Marchenko-Pastur the quadratic
    fixes w = 1/u = (1+z)(z+rate)/z, and at rate 0.5, z = 1+i the principal
    G gives wG(w) = 1.25-0.25i, not 1+z. The seed divides by 1 + z, so
    z = -1 is refused; Psi' divides by u^2, so a seed with u^2 = 0 gives
    the series value where 1 + |z| rounds to 1 and is refused elsewhere.
    At a zero of the truncated series (MP(1)'s 1 - z + ... - z^15 vanishes
    at z = 1 and +-i) the seed is the partial sum one order lower. A root is
    returned only where its residual bounds S's relative error by 1e-9, so
    points near z = -1, where u grows as 1/(1 + z)^2, are refused, as is any
    point where a step overflows or divides by zero.
    """
    import numpy as np

    series = s_series(mu, _S_SEED_ORDER)  # refuses a zero first moment
    z = complex(z)
    if z == 0:
        return complex(series.coeff(0))
    if z == -1:
        raise ValueError(f"S-transform inversion divides by 1 + z; z = {z} is refused")

    def residual(u):
        """Psi(u) - z and Psi'(u)."""
        g, dg = (complex(v[0]) for v in _cauchy_pair(mu, np.array([1 / u])))
        if not cmath.isfinite(dg):  # an atom's G' overflows without a warning
            raise FloatingPointError(f"G' overflows at 1/u = {1 / u}")
        return g / u - 1 - z, -(g + dg / u) / u**2

    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if series.evaluate(z) == 0:  # a zero seed leaves Newton no step
                series = series.truncated(series.top - 1)
            u = seed = z / (1 + z) * complex(series.evaluate(z))
            if u * u == 0 and 1 + abs(z) == 1:
                return complex(series.evaluate(z))
            fu, dfu = residual(u)  # divides by u^2: elsewhere u^2 = 0 is refused
            for _ in range(80):
                if abs(fu) <= 1e-12 * max(1.0, abs(z)):
                    break
                if dfu == 0 or not cmath.isfinite(dfu):
                    raise ValueError(f"S-transform inversion stalled at z = {z}; "
                                     "z may lie outside the range of Psi")
                step = -fu / dfu
                for _ in range(25):
                    new_u = u + step
                    new_f, new_df = residual(new_u)
                    if cmath.isfinite(new_f) and abs(new_f) <= abs(fu):
                        break
                    step /= 2
                u, fu, dfu = new_u, new_f, new_df
            # S errs as u, by about |Psi(u) - z| / |u Psi'(u)| plus ulp(1) (1 + |1 + z|)
            # of rounding in Psi; near 0 a seed Newton kept errs as the series' last term
            bound = (abs(fu) + math.ulp(1.0) * (1 + abs(1 + z))) / abs(u * dfu)
            if u == seed and abs(z) < 1:
                top = series.top
                bound = min(bound, abs(series.coeff(top) * z**top / series.evaluate(z)))
    except ArithmeticError as exc:
        raise ValueError(f"S-transform inversion overflows or divides by zero at z = {z} "
                         f"({exc})") from None
    if not abs(fu) <= 1e-9 * max(1.0, abs(z)):
        raise ValueError(
            f"S-transform inversion did not converge at z = {z} "
            f"(residual {abs(fu):.2e}); z may lie outside the range of Psi"
        )
    if not bound <= 1e-9:
        raise ValueError(f"S-transform inversion is ill-conditioned at z = {z}: its residual "
                         f"{abs(fu):.2e} bounds S's relative error by {bound:.2e} only")
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


def _boundary_density(g, xs):
    """The extrapolated density -Im g / pi on xs, point by point: no atom
    search, clip or renormalization."""
    import numpy as np

    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    return _richardson(_boundary_densities(_boundary_values(g, xs)))


_EDGE_DEPTH = 6  # bisection steps resolved per call of the predicate
_EDGE_SPAN = 2**_EDGE_DEPTH  # a round's dyadic partition has points 0.._EDGE_SPAN
# heap node k as positions (ins, mid, out); its upper half is 2k + 1, lower 2k + 2
_EDGE_INS, _EDGE_MID, _EDGE_OUT = (list(col) for col in zip(*(
    (mid - s // 2, mid, mid + s // 2) for s in (_EDGE_SPAN >> d for d in range(_EDGE_DEPTH))
    for mid in range(_EDGE_SPAN - s // 2, 0, -s))))


def _bisect_edge(above, brackets, xtol):
    """Bisect each bracket (inside, outside), above holding at inside and not
    at outside, to width xtol or until its midpoint rounds to an end;
    returns the edges in bracket order.

    above maps an array of points, and the indices of their brackets, to a
    boolean array. Each round evaluates, in one call, every midpoint that
    the next _EDGE_DEPTH steps of one-point bisection could visit in every
    open bracket, a dyadic partition built a level at a time for all of
    them, each point (ins + out) / 2 of the two it halves, then follows the
    path those steps take. Each edge is therefore that of one-point
    bisection, bit for bit, as long as above judges each point
    independently of the others in its batch.
    """
    import numpy as np

    brackets = list(brackets)
    while opened := [b for b, (ins, out) in enumerate(brackets)
                     if abs(out - ins) > xtol and ins != (ins + out) / 2 != out]:
        p = np.empty((len(opened), _EDGE_SPAN + 1))
        p[:, ::_EDGE_SPAN] = [brackets[b] for b in opened]
        for s in (_EDGE_SPAN >> d for d in range(_EDGE_DEPTH)):
            p[:, s // 2 : _EDGE_SPAN : s] = (p[:, 0:_EDGE_SPAN:s] + p[:, s::s]) / 2
        # no node is wider than its parent: those wider than xtol are reachable
        live = np.abs(p.take(_EDGE_OUT, axis=1) - p.take(_EDGE_INS, axis=1)) > xtol
        flags = np.zeros(live.shape, dtype=bool)
        flags[live] = above(p.take(_EDGE_MID, axis=1)[live], np.array(opened)[live.nonzero()[0]])
        for b, row, live_b, flags_b in zip(opened, p.tolist(), live.tolist(), flags.tolist()):
            k, ins, out = 0, 0, _EDGE_SPAN
            while k < len(live_b) and live_b[k]:
                ins, out, k = ((_EDGE_MID[k], out, 2 * k + 1) if flags_b[k]
                               else (ins, _EDGE_MID[k], 2 * k + 2))
            brackets[b] = (row[ins], row[out])
    return [(ins + out) / 2 for ins, out in brackets]


@dataclass(frozen=True)
class InversionResult:
    xs: np.ndarray
    density: np.ndarray
    atoms: tuple
    renorm: float
    min_density: float  # lowest extrapolated density (0 if none), before the clip
    warnings: tuple
    # the solves behind g (conv.free_add_density); a closed-form g has none
    iterations: int = 0
    max_residual: float = 0.0
    converged_fraction: float = 1.0


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
    return _invert(g, xs)


def _invert(g, xs) -> InversionResult:
    """stieltjes_invert for library callers, whose calls perfbench's tracer leaves out."""
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    values = _boundary_values(g, xs)
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
