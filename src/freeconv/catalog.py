"""Measure representations and the catalog of model laws.

A measure is one of five representations: a finite atomic measure, a
piecewise-linear density grid (plus optional atoms), a named law from the
catalog (with an affine pushforward x -> scale*x + offset attached), a
truncated moment sequence, or a truncated free cumulant sequence.

Catalog moments come as whole tables: one NC recursion per table for the
laws given by free cumulants (semicircle, Marchenko-Pastur, commutator_ww)
and closed forms for the rest. Every law's Cauchy transform G is a closed
form too, and the same hook returns G' from that form's intermediates. The
tests check them against adaptive quadrature of the densities, a route
this module does not carry.
Rational parameters give exact rational moments for the laws whose moments
are rational (semicircle, Marchenko-Pastur, Bernoulli, symmetric beta,
power beta, chi-squared, the semicircle commutator).

numpy is imported only inside the functions that evaluate densities and
Cauchy transforms, so moment tables never load it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

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


def _sc_moments(params, order):
    mean, var = (_exact_or_float(p) for p in params)
    kappa = [mean, var] + [0] * max(0, order - 2)
    return ncpart._moments_from_free(tuple(kappa[:order]))


def _sc_cauchy(params, z):
    import numpy as np

    # branch with G ~ 1/z at infinity and Im G < 0 on the upper half plane:
    # take sqrt((z-a)(z-b)) as the product of principal square roots
    mean, var = float(params[0]), float(params[1])
    half = 2 * math.sqrt(var)
    root = np.sqrt(z - mean - half) * np.sqrt(z - mean + half)
    g = 2 / (z - mean + root)  # (z - mean - root)/(2 var), without its cancellation
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


def _mp_moments(params, order):
    rate = _exact_or_float(params[0])
    return ncpart._moments_from_free((rate,) * order)


def _mp_cauchy(params, z):
    import numpy as np

    rate = float(params[0])
    a = (1 - math.sqrt(rate)) ** 2
    b = (1 + math.sqrt(rate)) ** 2
    root = np.sqrt(z - a) * np.sqrt(z - b)
    # the atom at 0 plus the density of mass min(rate, 1): (z + 1 - rate - root)/(2z)
    # without that quotient's cancellation far out and, at rate > 1, at 0; with
    # root' = (z - 1 - rate)/root the density part's derivative is -ac (1 - ac)/root
    atom, ac = max(1 - rate, 0) / z, 2 * min(rate, 1) / (z - abs(1 - rate) + root)
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


# chi^2(1)'s (G, G') sum the continued fraction of w from depth 200 where
# |z| >= 100 or Im sqrt(z) >= 1.5; there the tail left out, and the Gaussian
# mass near the axis that it cannot see, weigh under 3e-16 relative. The
# difference form serves the rest, a parabola round [0, 100), and errs by
# up to 5e-13 relative past |z| = 25
_CHI_CF_DEPTH, _CHI_CF_FAR, _CHI_CF_IMAG = 200, 100.0, 1.5


def _chi_cauchy(params, z):
    import numpy as np
    from scipy.special import wofz

    # chi^2(1) is N^2, so G(z) = G_N(a)/a with a^2 = z and Im a >= 0 (the
    # root i sqrt(-z)); the Gaussian's G_N(a) = -i sqrt(pi/2) w(a/sqrt(2)),
    # with w the Faddeeva function. From G_N'(a) = 1 - a G_N(a),
    # G'(z) = (1 - (z + 1) G)/(2z) = -(1 + P) G/(2z) with P = z - 1/G. That
    # difference cancels far out; there P is the product sqrt(2) a K, with
    # K = (1/2)/(c - 1/(c - (3/2)/(c - 2/(c - ...)))) at c = a/sqrt(2) the
    # tail of w's Laplace continued fraction w(c) = (i/sqrt(pi))/(c - K),
    # and G = 1/(z - P)
    a = 1j * np.sqrt(-z)
    g = -1j * math.sqrt(math.pi / 2) * wofz(a / math.sqrt(2)) / a
    p = z - 1 / g
    far = (np.abs(z) >= _CHI_CF_FAR) | (a.imag >= _CHI_CF_IMAG)
    c = a[far] / math.sqrt(2)
    k = np.zeros_like(c)
    for j in range(_CHI_CF_DEPTH, 0, -1):
        k = (j / 2) / (c - k)
    p[far] = math.sqrt(2) * a[far] * k
    g[far] = 1 / (z[far] - p[far])
    return g, -(1 + p) * g / (2 * z)


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


def _comm_moments(params, order):
    kappa = tuple(Fraction(0) if k % 2 else Fraction(2) for k in range(1, order + 1))
    return ncpart._moments_from_free(kappa)


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
    moments: callable        # (params, order) -> [m_1, ..., m_order]
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
    # of a law with a closed-form R-transform, or None
    r_transform: callable | None = None


LAWS = {
    law.name: law
    for law in (
        _Law("semicircle", _sc_density, _sc_moments, _sc_support, _sc_cauchy,
             param_names=("mean", "variance"),
             check=lambda p: _positive("variance", p[1]),
             square=lambda p, s2: MeasureSpec.from_law("marchenko_pastur", (), scale=s2 * p[1])
             if p[0] == 0 else None,
             r_transform=lambda p: (p[0], p[1], ())),
        _Law("marchenko_pastur", _mp_density, _mp_moments, _mp_support, _mp_cauchy,
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
        _Law("commutator_ww", _comm_density, _comm_moments,
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
    norm_tol: float = 1e-6

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
        xs = tuple(float(x) for x in xs)
        densities = tuple(float(d) for d in densities)
        if len(xs) != len(densities) or len(xs) < 2:
            raise ValueError("grid needs matching xs/densities of length >= 2")
        if not all(map(math.isfinite, xs + densities)):  # floats by now
            raise ValueError("grid abscissas and densities must be finite")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("grid abscissas must be strictly increasing")
        if any(d < 0 for d in densities):
            raise ValueError("grid densities must be nonnegative")
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
        return MeasureSpec(
            kind="grid", xs=xs, densities=densities, atoms=atoms, norm_tol=norm_tol
        )

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
    """Moments of a catalog law to the requested order, as one table."""
    spec, params = _law_entry(law, params)
    ncpart._check_cap(order, MOMENT_CAP_CLOSED, "catalog_moments")
    return SeqN("moment", spec.moments(params, order))


def moments_of(mu: MeasureSpec, order: int) -> SeqN:
    """Moment sequence of any representation, exact where the data is exact.

    Computed moments are capped at MOMENT_CAP_CLOSED; a moment spec is only
    truncated, so its own order bounds it.
    """
    ncpart._check_order(order, "moments_of")
    if mu.kind != "moments" and order > MOMENT_CAP_CLOSED:
        raise ValueError(f"moments_of capped at order {MOMENT_CAP_CLOSED}, got {order}")
    if mu.kind == "atomic":
        vals = []
        for n in range(1, order + 1):
            vals.append(sum(w * loc**n for loc, w in mu.atoms))
        return SeqN("moment", vals)
    if mu.kind == "law":
        base = catalog_moments(mu.law, mu.params, order).values
        return SeqN("moment", _affine_moments(base, mu.scale, mu.offset, order))
    if mu.kind == "grid":
        vals = _piecewise_linear_moments(mu.xs, mu.densities, order)
        return SeqN("moment", [
            m + sum(w * loc**n for loc, w in mu.atoms) for n, m in enumerate(vals, 1)
        ])
    if mu.kind == "moments":
        if order > mu.seq.order:
            raise ValueError(
                f"moment representation holds order {mu.seq.order}, need {order}"
            )
        return mu.seq.truncated(order)
    if mu.kind == "free_cumulants":
        return ncpart.moments_from_free_cumulants(free_cumulants_of(mu, order))
    raise ValueError(f"unknown representation {mu.kind!r}")


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
    return ncpart.free_cumulants_from_moments(moments_of(mu, order))


def boolean_cumulants_of(mu: MeasureSpec, order: int) -> SeqN:
    return ncpart.boolean_cumulants_from_moments(moments_of(mu, order))


# ---------------------------------------------------------------------------
# pushforwards


def _interp(mu: MeasureSpec, x: float) -> float:
    xs, ds = mu.xs, mu.densities
    if x <= xs[0] or x >= xs[-1]:
        if x == xs[0]:
            return ds[0]
        if x == xs[-1]:
            return ds[-1]
        return 0.0
    i = bisect.bisect_right(xs, x) - 1
    t = (x - xs[i]) / (xs[i + 1] - xs[i])
    return ds[i] * (1 - t) + ds[i + 1] * t


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
    # sqrt-spaced ordinates resolve the 1/(2 sqrt(y)) factor near 0
    atoms = {}
    for loc, w in mu.atoms:
        key = loc * loc
        atoms[key] = atoms.get(key, 0) + w
    top = max(abs(mu.xs[0]), abs(mu.xs[-1]))
    n = max(4 * len(mu.xs), 512)
    us = [top * (i + 1) / n for i in range(n)]
    ys = [u * u for u in us]
    dens = [(_interp(mu, u) + _interp(mu, -u)) / (2 * u) for u in us]
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
        return MeasureSpec.grid(xs, dens, atoms, norm_tol=mu.norm_tol)
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
