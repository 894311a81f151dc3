"""Measure representations and the catalog of model laws.

A measure is one of five representations: a finite atomic measure, a
piecewise-linear density grid (plus optional atoms), a named law from the
catalog (with an affine pushforward x -> scale*x + offset attached), a
truncated moment sequence, or a truncated free cumulant sequence.

Catalog moments come as whole tables, and a bounded memo serves a table
asked for again. Semicircle, Marchenko-Pastur and commutator_ww are stated
once, by the R-transform record (drift, variance, jumps) of their free
Levy-Khintchine form, whose coefficients are their free cumulants (Nica
and Speicher, Lect. 16): their table is the NC recursion of those, and
free_cumulants_of reads them through levy_khintchine, the one pushforward
of a record, which idclass's scans also read. The other laws have
closed-form moments, and their cumulants are the inversion of those.
Every law's Cauchy transform G is a closed form too, and the same hook
returns G' from that form's intermediates. The tests check them against
adaptive quadrature of the densities, a route this module does not
carry, and the records against the closed-form G.
Rational parameters give exact rational moments for the laws whose moments
are rational (semicircle, Marchenko-Pastur, Bernoulli, symmetric beta,
power beta, chi-squared, the semicircle commutator), and exact atoms give
exact moments, summed on ints over one denominator per order.

numpy is imported only inside the functions that evaluate densities and
Cauchy transforms or square a grid, so moment tables never load it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from . import ncpart
from .ncpart import SeqN, _is_exact

MOMENT_CAP_CLOSED = 64

def _exact_or_float(x):
    return Fraction(x) if isinstance(x, int) else x


def _double_factorial_odd(n: int) -> int:
    """(2n-1)!! = 1*3*5*...*(2n-1)."""
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out


# ---------------------------------------------------------------------------
# catalog laws


def _sc_density(params, x):
    mean, var = float(params[0]), float(params[1])
    r2 = 4 * var - (x - mean) ** 2
    if r2 <= 0:
        return 0.0
    return math.sqrt(r2) / (2 * math.pi * var)


def _sc_support(params):
    mean, var = float(params[0]), float(params[1])
    half = 2 * math.sqrt(var)
    return (mean - half, mean + half)


def _sc_cauchy(params, z):
    import numpy as np

    # branch with G ~ 1/z at infinity and Im G < 0 on the upper half plane:
    # take sqrt((z-a)(z-b)) as the product of principal square roots
    mean, var = float(params[0]), float(params[1])
    half = 2 * math.sqrt(var)
    zc = z - mean
    root = np.sqrt(zc - half) * np.sqrt(zc + half)
    g = 2 / (zc + root)  # (zc - root)/(2 var), without its cancellation
    return g, -g / root


def _mp_density(params, x):
    rate = float(params[0])
    a = (1 - math.sqrt(rate)) ** 2
    b = (1 + math.sqrt(rate)) ** 2
    if x <= a or x >= b or x <= 0:
        return 0.0
    return math.sqrt((x - a) * (b - x)) / (2 * math.pi * x)


def _mp_atoms(params):
    rate = params[0]
    if rate < 1:
        return ((0, 1 - _exact_or_float(rate)),)
    return ()


def _mp_support(params):
    rate = float(params[0])
    return ((1 - math.sqrt(rate)) ** 2, (1 + math.sqrt(rate)) ** 2)


def _mp_cauchy(params, z):
    import numpy as np

    rate = float(params[0])
    a = (1 - math.sqrt(rate)) ** 2
    b = (1 + math.sqrt(rate)) ** 2
    root = np.sqrt(z - a) * np.sqrt(z - b)
    # the atom at 0 plus the density of mass min(rate, 1): (z + 1 - rate - root)/(2z)
    # without that quotient's cancellation far out and, at rate > 1, at 0; with
    # root' = (z - 1 - rate)/root the density part's derivative is -ac (1 - ac)/root
    ac = 2 * min(rate, 1) / (z - abs(1 - rate) + root)
    if rate >= 1:  # no atom
        return ac, -ac * (1 - ac) / root
    atom = (1 - rate) / z
    return atom + ac, -atom / z - ac * (1 - ac) / root


def _bern_moment(params, n):
    return Fraction(0) if n % 2 else Fraction(1)


def _sbeta_density(params, x):
    # Sym(marchenko_pastur): (1/4pi) |x|^{-1/2} (4-|x|)^{1/2} on |x| < 4
    ax = abs(x)
    if ax >= 4 or ax == 0:
        return 0.0
    return math.sqrt((4 - ax) / ax) / (4 * math.pi)


def _sbeta_cauchy(params, z):
    # the law is Sym(MP(1)), so G(z) = (G_1(z) - G_1(-z))/2 with G_1 that of MP(1)
    (g1, d1), (g2, d2) = _mp_cauchy((1,), z), _mp_cauchy((1,), -z)
    return (g1 - g2) / 2, (d1 + d2) / 2


def _sbeta_moment(params, n):
    return Fraction(0) if n % 2 else Fraction(ncpart.catalan(n))


def _qc_density(params, x):
    sigma = float(params[0])
    if x <= 0 or x >= 2 * sigma:
        return 0.0
    return math.sqrt(4 * sigma**2 - x * x) / (math.pi * sigma**2)


# the modulus past which a closed form switches to its far-field rule; beyond
# this |r|, _qc_cauchy sums the series of 4 - 2r arctan(2/r) in
# u = (2/r)^2 <= 1/16, whose _QC_SERIES_TERMS terms reach u^14 < 1e-16
_FAR = 8.0
_QC_SERIES_TERMS = 14


def _qc_cauchy(params, z):
    import numpy as np

    # the quarter circle is |W| for W the semicircle(0, sigma^2); at
    # w = z/sigma, G_sigma(z) = (G_W(w) + G_odd(w))/sigma, where the
    # transform of sign(x) rho_W(x) is G_odd = (4 - 2r arctan(2/r))/(2 pi) and
    # r = sqrt(w - 2) sqrt(w + 2) is _sc_cauchy's root; G_W = 2/(w + r) is
    # (w - r)/2 without its cancellation at large |w|, and G_W' = -G_W/r.
    # odd' = 4/w - 2 (w/r) arctan(2/r) is (w odd - 16/w)/(w^2 - 4) far out and
    # 4/w + i w log(rho)/r nearer, clear of that quotient's 0/0 at w = +-2
    sigma = float(params[0])
    w = z / sigma
    r = np.sqrt(w - 2) * np.sqrt(w + 2)
    odd, dodd = np.empty_like(w), np.empty_like(w)
    far = np.abs(r) > _FAR
    # far out, 4 - 2r arctan(2/r) = 4u (1/3 - u/5 + u^2/7 - ...), u = (2/r)^2
    u = (2 / r[far]) ** 2
    tail = np.zeros_like(u)
    for k in reversed(range(_QC_SERIES_TERMS)):
        tail = (-1) ** k / (2 * k + 3) + u * tail
    odd[far] = 4 * u * tail
    dodd[far] = (w[far] * odd[far] - 16 / w[far]) / (w[far] ** 2 - 4)
    # nearer, arctan(2/r) = log(rho)/2i with rho = (r + 2i)/(r - 2i); since
    # (r + 2i)(r - 2i) = w^2, squaring the larger factor over w keeps rho
    # free of the cancellation that np.arctan meets near w = 0
    rn, wn = r[~far], w[~far]
    up, down = rn + 2j, rn - 2j
    rho = np.where(np.abs(up) >= np.abs(down), (up / wn) ** 2, (wn / down) ** 2)
    log = np.log(rho)
    # on the axis over (-2, 0) rho is real and negative, and the limit from
    # above, where G is real, takes arg rho = -pi, whatever the sign of zero
    cut = (wn.imag == 0) & (wn.real > -2) & (wn.real < 0)
    log[cut] = log[cut].real - 1j * np.pi
    odd[~far] = 4 + 1j * rn * log
    dodd[~far] = 4 / wn + 1j * wn * log / rn
    g_w = 2 / (w + r)
    return (g_w + odd / (2 * math.pi)) / sigma, (dodd / (2 * math.pi) - g_w / r) / sigma**2


def _qc_moment(params, n):
    sigma = params[0]
    if n % 2 == 0:
        k = n // 2
        return ncpart.catalan(k) * _exact_or_float(sigma) ** n
    k = (n - 1) // 2
    return (
        float(sigma) ** n
        * 2 ** (3 * k + 3)
        * math.factorial(k)
        / (math.pi * _double_factorial_odd(k + 2))
    )


def _beta_density(params, x):
    a = float(params[0])
    if x <= 0 or x >= 1:
        return 0.0
    return math.sin(math.pi * a) / (math.pi * a) * x ** (-a) * (1 - x) ** a


def _beta_cauchy(params, z):
    import numpy as np

    # G(z) = (1 - (1 - 1/z)^a)/a = -expm1(a L)/a with L = log(1 - 1/z), taken
    # as log(z - 1) - log(z) near the support and, far out where that
    # difference cancels, as the series -(u + u^2/2 + u^3/3 + ...), u = 1/z,
    # whose 18 terms at |u| < 1/_FAR leave out less than 1e-17 of the sum;
    # G' = -(1 - 1/z)^a/(z (z - 1))
    a = float(params[0])
    log = np.log(z - 1) - np.log(z)
    far = np.abs(z) > _FAR
    u = 1 / z[far]
    tail = np.zeros_like(u)
    for k in range(18, 0, -1):
        tail = 1 / k + u * tail
    log[far] = -u * tail
    return -np.expm1(a * log) / a, -np.exp(a * log) / (z * (z - 1))


def _beta_moment(params, n):
    # Beta(1-a, 1+a): m_n = prod_{j<n} (1-a+j)/(2+j); exact for rational a
    a = _exact_or_float(params[0])
    out = Fraction(1) if isinstance(a, Fraction) else 1.0
    for j in range(n):
        out = out * (1 - a + j) / (2 + j)
    return out


def _chi_density(params, x):
    if x <= 0:
        return 0.0
    return math.exp(-x / 2) / math.sqrt(2 * math.pi * x)


# chi^2(1) is N^2, so G(z) = G_N(a)/a with a = i sqrt(-z), and the Gaussian's
# G_N(a) = -i sqrt(pi/2) w(c) at c = a/sqrt(2), w(c) = exp(-c^2) erfc(-ic). By
# Weideman's rational form of degree N (SIAM J. Numer. Anal. 31, 1994),
# w = (2 p(Z)/D + 1/sqrt(pi))/D with D = L - ic, Z = (L + ic)/D, L = sqrt(N/sqrt(2))
# and p's N coefficients from one FFT, and w' = 4iL p'(Z)/D^4 + 4i p(Z)/D^3 +
# i/(sqrt(pi) D^2), which does not cancel far out as -2cw + 2i/sqrt(pi) would;
# nor does G' = (G_N'(a) - G)/(2z), G_N'(a) = -i (sqrt(pi)/2) w'(c). Against
# 30-digit mpmath, G and G' err by under 2.5e-15 relative out to |z| = 3e4
_WEIDEMAN_N = 48


@cache
def _weideman():
    import numpy as np

    n, m = _WEIDEMAN_N, 2 * _WEIDEMAN_N
    big_l = math.sqrt(n / math.sqrt(2))
    t = big_l * np.tan(np.arange(1 - m, m) * math.pi / (2 * m))
    f = np.concatenate(([0.0], np.exp(-t * t) * (big_l**2 + t * t)))
    p = np.fft.fft(np.fft.fftshift(f)).real[n:0:-1] / (2 * m)
    # p over p', whose one coefficient fewer is made up by a leading 0, as
    # complex numbers, so that the Horner loop casts none of them
    return big_l, np.stack([p, np.concatenate(([0.0], np.polyder(p)))]).astype(complex)


def _chi_cauchy(params, z):
    import numpy as np

    big_l, coefficients = _weideman()
    c = 1j * np.sqrt(-z) / math.sqrt(2)
    d = big_l - 1j * c
    u = (big_l + 1j * c) / d
    # p(u) and p'(u) by one Horner loop, with the steps of np.polyval and so
    # its bits: that loop's leading 0 only multiplies 0 by u
    acc = np.zeros((2, *u.shape), dtype=complex)
    for column in coefficients.T.reshape(-1, 2, *(1,) * u.ndim):
        acc *= u
        acc += column
    (p, dp), s = acc, 1 / math.sqrt(math.pi)
    g = -0.5j * math.sqrt(math.pi) * (2 * p / d + s) / (d * c)
    dw = 1j * ((4 * big_l * dp / d + 4 * p) / d + s) / (d * d)
    return g, (-0.5j * math.sqrt(math.pi) * dw - g) / (2 * z)


def _chi_moment(params, n):
    return Fraction(_double_factorial_odd(n))


_COMM_EDGE = math.sqrt((11 + 5 * math.sqrt(5)) / 2)


def _comm_density(params, x):
    """Density of the free commutator of two standard semicircles.

    The two real cube roots h+(t), h-(t) of the resolvent cubic satisfy
    h+ h- = (3t^2+1)/9; the density is sqrt(3)/(2 pi |t|) (h+ - h-), with
    limit 1/pi at t = 0 (series used below 1e-6 to dodge cancellation).
    """
    t = abs(x)
    if t >= _COMM_EDGE:
        return 0.0
    if t < 1e-6:
        return (1 - t * t / 2) / math.pi
    inner = (18 * t * t + 1) / 27
    disc = math.sqrt(t * t * (1 + 11 * t * t - t**4) / 27)
    hp = (inner + disc) ** (1.0 / 3.0)
    hm = (inner - disc) ** (1.0 / 3.0)
    return math.sqrt(3) / (2 * math.pi * t) * (hp - hm)


def _comm_cauchy(params, z):
    import numpy as np

    # R(w) = 2w/(1 - w^2), so G is a root of z G^3 + G^2 - z G + 1, found as
    # an eigenvalue of its companion matrix and polished by one Newton step.
    # For z in C+ it is the one root in C-; off the support's strip and far
    # out, where all three imaginary parts can sink to rounding, it is the
    # root of least modulus instead. G' = (G - G^3)/P_G, P_G = (3zG + 2)G - z,
    # by implicit differentiation at the polished root. At +-_COMM_EDGE two
    # roots meet and P_G -> 0: G errs by 1.8e-11 relative at _COMM_EDGE + 1e-12i
    # and 6e-16 from 1e-2 away; G' by about 1e-16/|z -+ _COMM_EDGE| (1e-13,
    # 2e-10 and 3.5e-5 at the edge, heights 1e-3, 1e-6 and 1e-12), 2e-14 from
    # 1e-2 away
    comp = np.zeros(z.shape + (3, 3), dtype=complex)
    comp[..., 0, :] = np.stack([-1 / z, np.ones_like(z), -1 / z], axis=-1)
    comp[..., 1, 0] = comp[..., 2, 1] = 1
    roots = np.linalg.eigvals(comp)
    far = (np.abs(z) > _FAR) | (np.abs(z.real) > _COMM_EDGE)
    pick = np.where(far, np.argmin(np.abs(roots), -1), np.argmin(roots.imag, -1))
    g = np.take_along_axis(roots, pick[..., None], -1)[..., 0]
    g = g - (((z * g + 1) * g - z) * g + 1) / ((3 * z * g + 2) * g - z)
    return g, (g - g**3) / ((3 * z * g + 2) * g - z)


def _no_atoms(params):
    return ()


def _no_check(params):
    return None


def _positive(what, x):
    return None if x > 0 else f"{what} must be positive, got {x}"


def _beta_check(params):
    a = params[0]
    return None if 0 < a < 1 else f"exponent must lie in (0,1), got {a}"


def _each_order(moment):
    """The whole-table hook of a law whose closed form gives one order."""
    return lambda params, order: [moment(params, n) for n in range(1, order + 1)]


@dataclass(frozen=True)
class _Law:
    """Everything freeconv knows of one catalog law; each hook takes the
    law's parameters, and support is that of the density."""

    name: str
    density: callable | None
    moments: callable | None  # (params, order) -> [m_1, ..., m_order]; None with a record
    support: callable | None
    cauchy: callable         # (params, z) -> (G(z), G'(z)), atoms included, for Im z >= 0
    param_names: tuple = ()
    check: callable = _no_check  # params -> what is wrong with them, or None
    default: tuple = ()          # the parameters of a spec that gives none
    atoms: callable = _no_atoms
    # (params, scale^2) -> the catalog spec of (scale X)^2, or None
    square: callable = lambda params, s2: None
    # params -> (drift, variance, jumps) of the free Levy-Khintchine form
    # R(w) = drift + variance*w + sum of l*a/(1 - a*w) over the jumps (a, l)
    # of a law with a closed-form R-transform, or None: then the one source
    # of its cumulants and moment table
    r_transform: callable | None = None


LAWS = {
    law.name: law
    for law in (
        _Law("semicircle", _sc_density, None, _sc_support, _sc_cauchy,
             param_names=("mean", "variance"),
             check=lambda p: _positive("variance", p[1]),
             square=lambda p, s2: MeasureSpec.from_law("marchenko_pastur", (), scale=s2 * p[1])
             if p[0] == 0 else None,
             r_transform=lambda p: (p[0], p[1], ())),
        _Law("marchenko_pastur", _mp_density, None, _mp_support, _mp_cauchy,
             param_names=("rate",), check=lambda p: _positive("rate", p[0]),
             default=(1,), atoms=_mp_atoms, r_transform=lambda p: (0, 0, ((1, p[0]),))),
        _Law("symmetric_bernoulli", None, _each_order(_bern_moment), None,
             # G' divides by each gap twice, never by its square, which overflows
             lambda p, z: (0.5 / (z + 1) + 0.5 / (z - 1),
                           -0.5 / (z + 1) / (z + 1) - 0.5 / (z - 1) / (z - 1)),
             atoms=lambda p: ((-1, Fraction(1, 2)), (1, Fraction(1, 2))),
             square=lambda p, s2: MeasureSpec.atomic([(s2, 1)])),
        # the square of symmetric_beta, w^4 for a semicircle w, has no catalog name
        _Law("symmetric_beta", _sbeta_density, _each_order(_sbeta_moment),
             lambda p: (-4.0, 4.0), _sbeta_cauchy),
        _Law("quarter_circle", _qc_density, _each_order(_qc_moment),
             lambda p: (0.0, 2 * float(p[0])), _qc_cauchy, param_names=("sigma",),
             check=lambda p: _positive("sigma", p[0]),
             square=lambda p, s2: MeasureSpec.from_law("marchenko_pastur", (),
                                                       scale=s2 * p[0] ** 2)),
        _Law("beta_1a", _beta_density, _each_order(_beta_moment), lambda p: (0.0, 1.0),
             _beta_cauchy, param_names=("a",), check=_beta_check),
        _Law("chi_squared_1", _chi_density, _each_order(_chi_moment),
             lambda p: (0.0, math.inf), _chi_cauchy),
        _Law("commutator_ww", _comm_density, None,
             lambda p: (-_COMM_EDGE, _COMM_EDGE), _comm_cauchy,
             r_transform=lambda p: (0, 0, ((-1, 1), (1, 1)))),
    )
}


# ---------------------------------------------------------------------------
# measure specification


ATOM_NORM_TOL = 1e-12


@dataclass(frozen=True)
class MeasureSpec:
    """Tagged union of the five measure representations.

    Law variants carry an affine pushforward: the represented measure is the
    law of scale*X + offset for X distributed by the named base law.
    """

    kind: str
    atoms: tuple = ()
    xs: tuple = ()
    densities: tuple = ()
    law: str | None = None
    params: tuple = ()
    scale: object = 1
    offset: object = 0
    seq: SeqN | None = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def atomic(atoms) -> "MeasureSpec":
        merged = {}
        for loc, w in atoms:
            if not _finite(w):
                raise ValueError(f"atom weight must be finite, got {w}")
            if w < 0:
                raise ValueError(f"atom weight must be nonnegative, got {w}")
            if not _finite(loc):
                raise ValueError(f"atom location must be finite, got {loc}")
            merged[loc] = merged.get(loc, 0) + w
        total = sum(merged.values())
        if abs(total - 1) > ATOM_NORM_TOL:
            raise ValueError(f"atomic weights sum to {total}, expected 1")
        cleaned = tuple(sorted((loc, w) for loc, w in merged.items() if w != 0))
        return MeasureSpec(kind="atomic", atoms=cleaned)

    @staticmethod
    def grid(xs, densities, atoms=(), norm_tol: float = 1e-6) -> "MeasureSpec":
        if len(xs) != len(densities) or len(xs) < 2:
            raise ValueError("grid needs matching xs/densities of length >= 2")
        xs, densities = _grid_values(xs, densities)
        atoms = tuple(sorted((loc, w) for loc, w in atoms))
        if not _finite(*(v for atom in atoms for v in atom)):
            raise ValueError("grid atom locations and weights must be finite")
        if any(w < 0 for _, w in atoms):
            raise ValueError("atom weights must be nonnegative")
        total = _trapezoid(xs, densities) + sum(w for _, w in atoms)
        if abs(total - 1) > norm_tol:
            raise ValueError(
                f"grid mass {total} deviates from 1 beyond tolerance {norm_tol}"
            )
        return MeasureSpec(kind="grid", xs=xs, densities=densities, atoms=atoms)

    @staticmethod
    def from_law(name: str, params=(), scale=1, offset=0) -> "MeasureSpec":
        _, params = _law_entry(name, params)
        if not _finite(scale, offset):
            raise ValueError(f"law scale and offset must be finite, got {scale}, {offset}")
        if scale == 0:
            raise ValueError("law scale must be nonzero")
        return MeasureSpec(
            kind="law", law=name, params=params, scale=scale, offset=offset
        )

    @staticmethod
    def from_moments(values) -> "MeasureSpec":
        seq = values if isinstance(values, SeqN) else SeqN("moment", values)
        if seq.kind != "moment":
            raise ValueError(f"expected moment sequence, got {seq.kind!r}")
        return MeasureSpec(kind="moments", seq=seq)

    @staticmethod
    def from_free_cumulants(values) -> "MeasureSpec":
        seq = values if isinstance(values, SeqN) else SeqN("free_cumulant", values)
        if seq.kind != "free_cumulant":
            raise ValueError(f"expected free cumulant sequence, got {seq.kind!r}")
        return MeasureSpec(kind="free_cumulants", seq=seq)

    # -- queries -------------------------------------------------------

    @cached_property
    def _knots(self):
        """A grid spec's knots, trapezoid weights times densities, and largest
        spacing, as numpy values, built on first use. It is no field, so
        ==, hash, replace and serialization never see it."""
        import numpy as np

        xs = np.asarray(self.xs)
        gaps = np.diff(xs)
        weights = np.zeros_like(xs)
        weights[:-1] += gaps / 2
        weights[1:] += gaps / 2
        return xs, weights * np.asarray(self.densities), float(np.max(gaps))

    @property
    def mass_at_zero(self):
        """Mass of {0} where the representation carries it, else None.

        Densities never charge a point, so only the atoms matter; every
        atom at 0 counts (grid atoms are not merged).
        """
        if self.kind in ("moments", "free_cumulants"):
            return None
        return sum(w for loc, w in atoms_of(self) if loc == 0)


def _finite(*xs) -> bool:
    return all(_is_exact(x) or math.isfinite(x) for x in xs)


def _float_or_inf(x) -> float:
    """float(x), or inf for an exact x beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _grid_values(xs, densities):
    """Grid abscissas and densities as float tuples, checked finite, strictly
    increasing and nonnegative; each caller checks their lengths."""
    xs, densities = tuple(map(_float_or_inf, xs)), tuple(map(_float_or_inf, densities))
    if not all(map(math.isfinite, xs + densities)):  # floats by now
        raise ValueError("grid abscissas and densities must be finite")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("grid abscissas must be strictly increasing")
    if any(d < 0 for d in densities):
        raise ValueError("grid densities must be nonnegative")
    return xs, densities


def _trapezoid(xs, ys) -> float:
    return sum(
        (ys[i] + ys[i + 1]) * (xs[i + 1] - xs[i]) / 2 for i in range(len(xs) - 1)
    )


# ---------------------------------------------------------------------------
# densities, atoms, moments


def _law_entry(law: str, params):
    """The registry entry of a law and its checked parameters."""
    if law not in LAWS:
        raise ValueError(f"unknown law {law!r}; known: {sorted(LAWS)}")
    spec = LAWS[law]
    params = tuple(params) or spec.default
    if len(params) != len(spec.param_names):
        takes = f"({', '.join(spec.param_names)})" if spec.param_names else "no parameters"
        raise ValueError(f"{law} takes {takes}")
    problem = spec.check(params)
    if problem is not None:
        raise ValueError(f"{law} {problem}")
    return spec, params


def catalog_density(law: str, params, x):
    """Density of a catalog law at x (0 outside the support).

    Accepts a scalar or anything array-like; array-like input returns a
    numpy array of the same shape.
    """
    import numpy as np

    spec, params = _law_entry(law, params)
    fn = spec.density
    if np.isscalar(x):
        return fn(params, float(x)) if fn else 0.0
    arr = np.asarray(x, dtype=float)
    if fn is None:
        return np.zeros_like(arr)
    flat = np.array([fn(params, t) for t in arr.ravel()])
    return flat.reshape(arr.shape)


def catalog_atoms(law: str, params):
    spec, params = _law_entry(law, params)
    return tuple(spec.atoms(params))


def atoms_of(mu: MeasureSpec) -> tuple:
    """Atoms (location, weight) of an atomic, grid or law spec; a law's are
    moved by its pushforward x -> scale*x + offset, exactly for exact data."""
    if mu.kind in ("atomic", "grid"):
        return mu.atoms
    if mu.kind == "law":
        return tuple(
            (mu.scale * loc + mu.offset, w)
            for loc, w in catalog_atoms(mu.law, mu.params)
        )
    raise ValueError(f"a {mu.kind!r} spec carries no atoms")


def support_of(mu: MeasureSpec):
    """(lo, hi) of a law spec's density support after its pushforward
    x -> scale*x + offset; None for other specs and for a law without a density."""
    law = LAWS.get(mu.law)
    if law is None or law.support is None:
        return None
    s, c = float(mu.scale), float(mu.offset)
    return tuple(sorted(s * float(e) + c for e in law.support(mu.params)))


def support_low(mu: MeasureSpec) -> float:
    """Lowest atom or density point of a spec, after a law's pushforward."""
    ends = support_of(mu) or ()
    return min([loc for loc, _ in atoms_of(mu)] + list(mu.xs[:1]) + list(ends))


def density_of(mu: MeasureSpec, x):
    """Density at x (scalar or array-like) of a law spec, through its
    pushforward, or of a grid spec, linear between its abscissas and 0
    outside; other forms carry no density."""
    import numpy as np

    if mu.kind == "law":
        s = float(mu.scale)
        x = x if np.isscalar(x) else np.asarray(x, dtype=float)
        return catalog_density(mu.law, mu.params, (x - float(mu.offset)) / s) / abs(s)
    if mu.kind == "grid":
        return np.interp(x, np.asarray(mu.xs, dtype=float),
                         np.asarray(mu.densities, dtype=float), left=0.0, right=0.0)
    raise ValueError(f"a {mu.kind!r} spec carries no density; use a law or grid spec")


def catalog_moments(law: str, params, order: int) -> SeqN:
    """Moments of a catalog law to the requested order, as one table: its
    moments hook, or the NC recursion of its R-transform record's cumulants.

    Tables are kept in a memo of at most _TABLE_MEMO_SIZE entries, the
    least recently used dropped first. Its key holds the law's record, the
    order and each parameter's type and repr, so 1, 1.0 and Fraction(1),
    and 0.0 and -0.0, never share a table, nor does a record put in the
    place of another in LAWS; parameters and order are checked first.
    """
    spec, params = _law_entry(law, params)
    ncpart._check_cap(order, MOMENT_CAP_CLOSED, "catalog_moments")
    key = (spec, *((type(v), repr(v)) for v in (order, *params)))
    table = _table_memo.pop(key, None)
    if table is None:
        if spec.moments is None:
            kappa = _record_cumulants(spec.r_transform(params), order)
            table = SeqN("moment", ncpart._moments_from_free(tuple(kappa)))
        else:
            table = SeqN("moment", spec.moments(params, order))
        if len(_table_memo) >= _TABLE_MEMO_SIZE:
            del _table_memo[next(iter(_table_memo))]
    _table_memo[key] = table
    return table


# catalog_moments' memo: key -> table, in order of last use
_TABLE_MEMO_SIZE = 64
_table_memo: dict = {}


def moments_of(mu: MeasureSpec, order: int) -> SeqN:
    """Moment sequence of any representation, exact where the data is exact.

    Computed moments are capped at MOMENT_CAP_CLOSED; a moment spec is only
    truncated, so its own order bounds it.
    """
    _check_moment_order(mu, order)
    if mu.kind == "atomic":
        return SeqN("moment", _atomic_moments(mu.atoms, order))
    if mu.kind == "law":
        base = catalog_moments(mu.law, mu.params, order).values
        return SeqN("moment", _affine_moments(base, mu.scale, mu.offset, order))
    if mu.kind == "grid":
        vals = _piecewise_linear_moments(mu.xs, mu.densities, order)
        return SeqN("moment", list(map(operator.add, vals, _atomic_moments(mu.atoms, order))))
    if mu.kind == "moments":
        if order > mu.seq.order:
            raise ValueError(
                f"moment representation holds order {mu.seq.order}, need {order}"
            )
        return mu.seq.truncated(order)
    if mu.kind == "free_cumulants":
        return ncpart.moments_from_free_cumulants(free_cumulants_of(mu, order))
    raise ValueError(f"unknown representation {mu.kind!r}")


def _check_moment_order(mu: MeasureSpec, order: int) -> None:
    ncpart._check_order(order, "moments_of")
    if mu.kind != "moments" and order > MOMENT_CAP_CLOSED:
        raise ncpart.CapError(f"moments_of capped at order {MOMENT_CAP_CLOSED}, got {order}")


def _atomic_moments(atoms, order):
    """Moments 1..order of the atoms (location, weight) of an atomic or grid
    spec, or of an R-transform record's jumps (a, l), sum of w x^n, and
    int 0 where there are none.

    Exact atoms run on ints: with the locations k/L and the weights q/T over
    one denominator each, m_n = sum of q k^n over T L^n, from running int
    products and one Fraction per order. m_n is a Fraction iff some atom
    holds one, as the Fraction power sums are. Other atoms take those sums
    as they are."""
    if not atoms:
        return [0] * order
    values = [v for atom in atoms for v in atom]
    if not _is_exact(*values):
        return [sum(w * loc**n for loc, w in atoms) for n in range(1, order + 1)]
    big_l = math.lcm(*(loc.denominator for loc, _ in atoms))
    big_t = math.lcm(*(w.denominator for _, w in atoms))
    ks = [loc.numerator * (big_l // loc.denominator) for loc, _ in atoms]
    terms = [w.numerator * (big_t // w.denominator) for _, w in atoms]
    frac = any(isinstance(v, Fraction) for v in values)
    out, den = [], big_t
    for _ in range(order):
        terms = list(map(operator.mul, terms, ks))
        den *= big_l
        out.append(Fraction(sum(terms), den) if frac else sum(terms))
    return out


def _piecewise_linear_moments(xs, ds, order):
    """Moments 1..order of the density that is linear between the points
    (xs, ds), exact on exact data. On [a, b] with end values p, q the n-th
    moment is (b - a) (p A_n + q B_n) / ((n + 1)(n + 2)), where
    A_n = sum_k (k + 1) a^k b^(n-k) = b A_(n-1) + (n + 1) a^n and B_n is
    A_n with a and b swapped. Where a and b share a sign, the terms of each
    sum do too, so nothing cancels within a segment."""
    vals = [0] * order
    for a, b, p, q in zip(xs, xs[1:], ds, ds[1:]):
        an = bn = sa = sb = 1
        for n in range(1, order + 1):
            an, bn = an * a, bn * b
            sa, sb = b * sa + (n + 1) * an, a * sb + (n + 1) * bn
            vals[n - 1] += (b - a) * (p * sa + q * sb) / ((n + 1) * (n + 2))
    return vals


def _affine_moments(base, scale, offset, order):
    """Moments of scale*X + offset from the moments of X (binomial sums)."""
    scale = _exact_or_float(scale)
    offset = _exact_or_float(offset)
    if scale == 1 and offset == 0:
        return list(base[:order])
    full = [1] + list(base[:order])
    out = []
    try:
        for n in range(1, order + 1):
            s = 0
            for k in range(0, n + 1):
                s += math.comb(n, k) * scale**k * offset ** (n - k) * full[k]
            out.append(s)
    except OverflowError:
        # a float power past the float range raises rather than giving inf
        raise ValueError(
            f"moments of the law spec's pushforward overflow a float at order {n} "
            f"(scale {scale}, offset {offset})"
        ) from None
    return out


def free_cumulants_of(mu: MeasureSpec, order: int) -> SeqN:
    if mu.kind == "free_cumulants":
        if order > mu.seq.order:
            raise ValueError(
                f"cumulant representation holds order {mu.seq.order}, need {order}"
            )
        return mu.seq.truncated(order)
    if mu.kind == "law" and LAWS[mu.law].r_transform is not None:
        # the checks, and their messages, of the moment route below
        _check_moment_order(mu, order)
        record = levy_khintchine(mu)
        ncpart._check_cap(order, ncpart.CONVERSION_CAP, "free_cumulants_from_moments")
        kappa = _record_cumulants(record, order)
        bad = [n for n, v in enumerate(kappa, 1) if isinstance(v, float) and not math.isfinite(v)]
        if bad:
            raise ValueError(
                f"free cumulants of the law spec's pushforward overflow a float at order "
                f"{bad[0]} (scale {mu.scale}, offset {mu.offset})")
        return SeqN("free_cumulant", kappa)
    return ncpart.free_cumulants_from_moments(moments_of(mu, order))


def levy_khintchine(mu: MeasureSpec):
    """(drift, variance, jumps) of a catalog law spec's R-transform.

    R(w) = drift + variance*w + sum of l*a/(1 - a*w) over the jumps (a, l)
    (Bercovici-Voiculescu 1993), from the law's r_transform record and
    pushed forward exactly: scale*X + offset has drift scale*drift +
    offset, variance scale^2*variance and jumps (scale*a, l). Laws without
    a closed-form R-transform, and other representations, are refused.
    """
    if mu.kind != "law":
        raise ValueError("closed-form R-transforms exist only for catalog laws")
    law, params = _law_entry(mu.law, mu.params)
    if law.r_transform is None:
        raise ValueError(f"no closed-form R-transform for law {mu.law!r}")
    drift, variance, jumps = law.r_transform(params)
    s, c = mu.scale, mu.offset
    return s * drift + c, s * s * variance, tuple((s * a, l) for a, l in jumps)


def _record_cumulants(record, order: int) -> list:
    """Free cumulants 1..order of an R-transform record (drift, variance, jumps).

    R(w) = drift + variance*w + sum of l*a/(1 - a*w) is sum of kappa_n
    w^(n-1), so kappa_1 = drift + sum l*a, kappa_2 = variance + sum l*a^2
    and kappa_n = sum l*a^n beyond. An exact record gives all Fractions,
    its sums over the jumps taken on ints by _atomic_moments; any float
    gives all floats, from running products added to drift or variance."""
    drift, variance, jumps = record
    starts = (drift, variance)
    if _is_exact(*starts, *(v for jump in jumps for v in jump)):
        sums = _atomic_moments(jumps, order)
        sums[:2] = map(operator.add, sums, starts)
        return [v if isinstance(v, Fraction) else Fraction(v) for v in sums]
    sizes, terms, out = [float(a) for a, _ in jumps], [float(l) for _, l in jumps], []
    for n in range(order):
        terms = list(map(operator.mul, terms, sizes))
        out.append(sum(terms, float(starts[n]) if n < 2 else 0.0))
    return out


def boolean_cumulants_of(mu: MeasureSpec, order: int) -> SeqN:
    return ncpart.boolean_cumulants_from_moments(moments_of(mu, order))


# ---------------------------------------------------------------------------
# pushforwards


def push_square(mu: MeasureSpec, order: int | None = None) -> MeasureSpec:
    """Pushforward by x -> x^2; m_n of the image is m_{2n} of the input."""
    if mu.kind == "atomic":
        return MeasureSpec.atomic([(loc * loc, w) for loc, w in mu.atoms])
    if mu.kind == "grid":
        return _grid_square(mu)
    if mu.kind == "moments":
        n = mu.seq.order
        if n % 2:
            raise ValueError(
                f"moment order {n} is odd; need order 2N to supply order-N output"
            )
        return MeasureSpec.from_moments([mu.seq.values[2 * k - 1] for k in range(1, n // 2 + 1)])
    if mu.kind == "free_cumulants":
        return push_square(
            MeasureSpec.from_moments(moments_of(mu, mu.seq.order)), order
        )
    if mu.kind == "law":
        # the law's own image under x -> x^2 where it has one; offsets get none
        mapped = LAWS[mu.law].square(mu.params, mu.scale * mu.scale) if mu.offset == 0 else None
        if mapped is not None:
            return mapped
        n = 2 * (order or 16)
        return push_square(MeasureSpec.from_moments(moments_of(mu, n)))
    raise ValueError(f"unknown representation {mu.kind!r}")


def _grid_square(mu: MeasureSpec) -> MeasureSpec:
    import numpy as np

    # sqrt-spaced ordinates resolve the 1/(2 sqrt(y)) factor near 0
    atoms = {}
    for loc, w in mu.atoms:
        key = loc * loc
        atoms[key] = atoms.get(key, 0) + w
    top = max(abs(mu.xs[0]), abs(mu.xs[-1]))
    n = max(4 * len(mu.xs), 512)
    u = top * np.arange(1, n + 1) / n
    ys = (u * u).tolist()
    dens = ((density_of(mu, u) + density_of(mu, -u)) / (2 * u)).tolist()
    ac_mass = 1 - sum(atoms.values())
    mass = _trapezoid(ys, dens)
    if ac_mass > 0:
        if abs(mass - ac_mass) > 0.05 * max(ac_mass, 1e-9):
            raise ValueError(
                f"grid too coarse for push_square (mass {mass} vs {ac_mass})"
            )
        dens = [d * ac_mass / mass for d in dens]
    return MeasureSpec.grid(ys, dens, tuple(sorted(atoms.items())), norm_tol=1e-2)


def symmetric_sqrt_moments(m: SeqN) -> SeqN:
    """Moments of Sym(sqrt(mu)) from the moments of mu: m_{2n} maps back."""
    if m.kind != "moment":
        raise ValueError(f"expected moment sequence, got {m.kind!r}")
    out = []
    for n in range(1, 2 * m.order + 1):
        out.append(m.values[n // 2 - 1] if n % 2 == 0 else 0)
    return SeqN("moment", out)


def dilate(mu: MeasureSpec, a) -> MeasureSpec:
    """Pushforward by x -> a*x (a finite and nonzero)."""
    if not _finite(a):
        raise ValueError(f"dilation factor must be finite, got {a}")
    if a == 0:
        raise ValueError("dilation factor must be nonzero")
    if mu.kind == "atomic":
        return MeasureSpec.atomic([(a * loc, w) for loc, w in mu.atoms])
    if mu.kind == "grid":
        af = float(a)
        pts = sorted((af * x, d / abs(af)) for x, d in zip(mu.xs, mu.densities))
        xs, dens = zip(*pts)
        atoms = [(af * loc, w) for loc, w in mu.atoms]
        # dilation keeps the trapezoid mass, which grid() checked on mu
        return MeasureSpec.grid(xs, dens, atoms, norm_tol=math.inf)
    if mu.kind == "law":
        return MeasureSpec.from_law(mu.law, mu.params, a * mu.scale, a * mu.offset)
    if mu.kind == "moments":
        vals = [a**n * v for n, v in enumerate(mu.seq.values, start=1)]
        return MeasureSpec.from_moments(vals)
    if mu.kind == "free_cumulants":
        vals = [a**n * v for n, v in enumerate(mu.seq.values, start=1)]
        return MeasureSpec.from_free_cumulants(vals)
    raise ValueError(f"unknown representation {mu.kind!r}")


def reflect(mu: MeasureSpec) -> MeasureSpec:
    return dilate(mu, -1)
