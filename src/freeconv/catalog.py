"""Measure representations and the catalog of model laws.

A measure is one of five representations: a finite atomic measure, a
piecewise-linear density grid (plus optional atoms), a named law from the
catalog (with an affine pushforward x -> scale*x + offset attached), a
truncated moment sequence, or a truncated free cumulant sequence.

Catalog moments come as whole tables: one NC recursion per table for the
laws given by free cumulants (semicircle, Marchenko-Pastur, commutator_ww)
and closed forms for the rest; the adaptive quadrature path is kept
alongside and the two are compared in the tests.
Rational parameters give exact rational moments for the laws whose moments
are rational (semicircle, Marchenko-Pastur, Bernoulli, symmetric beta,
power beta, chi-squared, the semicircle commutator).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import ncpart
from .ncpart import SeqN, _is_exact

MOMENT_CAP_CLOSED = 64
MOMENT_CAP_QUAD = 32

# scipy quad settings of every catalog-law integral, moments and transforms
_QUAD_SETTINGS = {"epsrel": 1e-10, "epsabs": 1e-13, "limit": 400}

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


def _sc_validate(params):
    if len(params) != 2:
        raise ValueError("semicircle takes (mean, variance)")
    mean, var = params
    if var <= 0:
        raise ValueError(f"semicircle variance must be positive, got {var}")
    return (mean, var)


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
    # branch with G ~ 1/z at infinity and Im G < 0 on the upper half plane:
    # take sqrt((z-a)(z-b)) as the product of principal square roots
    mean, var = float(params[0]), float(params[1])
    half = 2 * math.sqrt(var)
    root = np.sqrt(z - mean - half) * np.sqrt(z - mean + half)
    return (z - mean - root) / (2 * var)


def _mp_validate(params):
    if len(params) == 0:
        return (1,)
    if len(params) != 1:
        raise ValueError("marchenko_pastur takes an optional (rate,)")
    rate = params[0]
    if rate <= 0:
        raise ValueError(f"marchenko_pastur rate must be positive, got {rate}")
    return (rate,)


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
    rate = float(params[0])
    a = (1 - math.sqrt(rate)) ** 2
    b = (1 + math.sqrt(rate)) ** 2
    root = np.sqrt(z - a) * np.sqrt(z - b)
    return (z + 1 - rate - root) / (2 * z)


def _bern_moment(params, n):
    return Fraction(0) if n % 2 else Fraction(1)


def _sbeta_density(params, x):
    # Sym(marchenko_pastur): (1/4pi) |x|^{-1/2} (4-|x|)^{1/2} on |x| < 4
    ax = abs(x)
    if ax >= 4 or ax == 0:
        return 0.0
    return math.sqrt((4 - ax) / ax) / (4 * math.pi)


def _sbeta_moment(params, n):
    return Fraction(0) if n % 2 else Fraction(ncpart.catalan(n))


def _qc_validate(params):
    if len(params) != 1:
        raise ValueError("quarter_circle takes (sigma,)")
    if params[0] <= 0:
        raise ValueError(f"quarter_circle sigma must be positive, got {params[0]}")
    return tuple(params)


def _qc_density(params, x):
    sigma = float(params[0])
    if x <= 0 or x >= 2 * sigma:
        return 0.0
    return math.sqrt(4 * sigma**2 - x * x) / (math.pi * sigma**2)


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


def _beta_validate(params):
    if len(params) != 1:
        raise ValueError("beta_1a takes (a,)")
    a = params[0]
    if not 0 < a < 1:
        raise ValueError(f"beta_1a exponent must lie in (0,1), got {a}")
    return (a,)


def _beta_density(params, x):
    a = float(params[0])
    if x <= 0 or x >= 1:
        return 0.0
    return math.sin(math.pi * a) / (math.pi * a) * x ** (-a) * (1 - x) ** a


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


def _comm_moments(params, order):
    kappa = tuple(Fraction(0) if k % 2 else Fraction(2) for k in range(1, order + 1))
    return ncpart._moments_from_free(kappa)


def _no_atoms(params):
    return ()


def _each_order(moment):
    """The whole-table hook of a law whose closed form gives one order."""
    return lambda params, order: [moment(params, n) for n in range(1, order + 1)]


@dataclass(frozen=True)
class _Law:
    name: str
    validate: callable
    density: callable | None
    moments: callable        # (params, order) -> [m_1, ..., m_order]
    support: callable | None
    atoms: callable = _no_atoms
    cauchy: callable | None = None


LAWS = {
    law.name: law
    for law in (
        _Law(
            "semicircle",
            _sc_validate,
            _sc_density,
            _sc_moments,
            _sc_support,
            cauchy=_sc_cauchy,
        ),
        _Law(
            "marchenko_pastur",
            _mp_validate,
            _mp_density,
            _mp_moments,
            _mp_support,
            atoms=_mp_atoms,
            cauchy=_mp_cauchy,
        ),
        _Law(
            "symmetric_bernoulli",
            lambda p: tuple(p) if not p else _err("symmetric_bernoulli takes no parameters"),
            None,
            _each_order(_bern_moment),
            None,
            atoms=lambda p: ((-1, Fraction(1, 2)), (1, Fraction(1, 2))),
        ),
        _Law(
            "symmetric_beta",
            lambda p: tuple(p) if not p else _err("symmetric_beta takes no parameters"),
            _sbeta_density,
            _each_order(_sbeta_moment),
            lambda p: (-4.0, 4.0),
        ),
        _Law("quarter_circle", _qc_validate, _qc_density, _each_order(_qc_moment),
             lambda p: (0.0, 2 * float(p[0]))),
        _Law("beta_1a", _beta_validate, _beta_density, _each_order(_beta_moment),
             lambda p: (0.0, 1.0)),
        _Law(
            "chi_squared_1",
            lambda p: tuple(p) if not p else _err("chi_squared_1 takes no parameters"),
            _chi_density,
            _each_order(_chi_moment),
            lambda p: (0.0, math.inf),
        ),
        _Law(
            "commutator_ww",
            lambda p: tuple(p) if not p else _err("commutator_ww takes no parameters"),
            _comm_density,
            _comm_moments,
            lambda p: (-_COMM_EDGE, _COMM_EDGE),
        ),
    )
}


def _err(msg):
    raise ValueError(msg)


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
            if w < 0:
                raise ValueError(f"atom weight must be nonnegative, got {w}")
            if not _is_exact(loc) and not math.isfinite(loc):
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
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("grid abscissas must be strictly increasing")
        if any(d < 0 for d in densities):
            raise ValueError("grid densities must be nonnegative")
        atoms = tuple(sorted((loc, w) for loc, w in atoms))
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

    def describe(self) -> str:
        if self.kind == "law":
            extra = ""
            if self.scale != 1 or self.offset != 0:
                extra = f" (pushforward x -> {self.scale}*x + {self.offset})"
            return f"law {self.law}{tuple(self.params)}{extra}"
        if self.kind == "atomic":
            return f"atomic with {len(self.atoms)} atoms"
        if self.kind == "grid":
            return f"grid on [{self.xs[0]}, {self.xs[-1]}] ({len(self.xs)} points)"
        return f"{self.kind} to order {self.seq.order}"


def _trapezoid(xs, ys) -> float:
    return sum(
        (ys[i] + ys[i + 1]) * (xs[i + 1] - xs[i]) / 2 for i in range(len(xs) - 1)
    )


# ---------------------------------------------------------------------------
# densities, atoms, moments


def _law_entry(law: str, params):
    """The registry entry of a law and its validated parameters."""
    if law not in LAWS:
        raise ValueError(f"unknown law {law!r}; known: {sorted(LAWS)}")
    return LAWS[law], LAWS[law].validate(tuple(params))


def catalog_density(law: str, params, x):
    """Density of a catalog law at x (0 outside the support).

    Accepts a scalar or anything array-like; array-like input returns a
    numpy array of the same shape.
    """
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


def density_of(mu: MeasureSpec, x):
    """Density at x (scalar or array-like) of a law spec, through its
    pushforward, or of a grid spec, linear between its abscissas and 0
    outside; other forms carry no density."""
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
    if order > MOMENT_CAP_CLOSED:
        raise ValueError(f"catalog_moments capped at order {MOMENT_CAP_CLOSED}")
    return SeqN("moment", spec.moments(params, order))


_SYMMETRIC_LAWS = {"symmetric_bernoulli", "symmetric_beta", "commutator_ww"}


def law_moments_quadrature(law: str, params, order: int) -> SeqN:
    """Adaptive-quadrature moments; the validation path for the closed forms.

    chi_squared_1 integrates under x = u^2 and beta_1a under x = u^{1/(1-a)}
    to tame the endpoint singularities; symmetric laws integrate one half
    line and double, which keeps the origin (a kink or an inverse square
    root) at an interval endpoint where the quadrature handles it.
    """
    from scipy.integrate import quad

    if order > MOMENT_CAP_QUAD:
        raise ValueError(f"quadrature moments capped at order {MOMENT_CAP_QUAD}")
    spec, params = _law_entry(law, params)
    out = []
    for n in range(1, order + 1):
        total = sum(w * loc**n for loc, w in spec.atoms(params))
        if spec.density is not None:
            fn = lambda x: x**n * spec.density(params, x)
            if law == "chi_squared_1":
                gn = lambda u: 2 * u * u ** (2 * n) * spec.density(params, u * u)
                val, _ = quad(gn, 0, math.inf, **_QUAD_SETTINGS)
            elif law == "beta_1a":
                p = 1 / (1 - float(params[0]))
                gn = lambda u: p * u ** (p * (n + 1) - 1) * spec.density(params, u**p)
                val, _ = quad(gn, 0, 1, **_QUAD_SETTINGS)
            elif law in _SYMMETRIC_LAWS or (law == "semicircle" and params[0] == 0):
                if n % 2:
                    val = 0.0
                else:
                    _, hi = spec.support(params)
                    half, _ = quad(fn, 0, hi, **_QUAD_SETTINGS)
                    val = 2 * half
            else:
                lo, hi = spec.support(params)
                val, _ = quad(fn, lo, hi, **_QUAD_SETTINGS)
            total = float(total) + val
        out.append(total)
    return SeqN("moment", out)


def moments_of(mu: MeasureSpec, order: int) -> SeqN:
    """Moment sequence of any representation, exact where the data is exact."""
    if mu.kind == "atomic":
        vals = []
        for n in range(1, order + 1):
            vals.append(sum(w * loc**n for loc, w in mu.atoms))
        return SeqN("moment", vals)
    if mu.kind == "law":
        base = catalog_moments(mu.law, mu.params, order).values
        return SeqN("moment", _affine_moments(base, mu.scale, mu.offset, order))
    if mu.kind == "grid":
        vals = []
        for n in range(1, order + 1):
            ys = [x**n * d for x, d in zip(mu.xs, mu.densities)]
            vals.append(
                _trapezoid(mu.xs, ys) + sum(w * loc**n for loc, w in mu.atoms)
            )
        return SeqN("moment", vals)
    if mu.kind == "moments":
        if order > mu.seq.order:
            raise ValueError(
                f"moment representation holds order {mu.seq.order}, need {order}"
            )
        return mu.seq.truncated(order)
    if mu.kind == "free_cumulants":
        return ncpart.moments_from_free_cumulants(free_cumulants_of(mu, order))
    raise ValueError(f"unknown representation {mu.kind!r}")


def _affine_moments(base, scale, offset, order):
    """Moments of scale*X + offset from the moments of X (binomial sums)."""
    scale = _exact_or_float(scale)
    offset = _exact_or_float(offset)
    if scale == 1 and offset == 0:
        return list(base[:order])
    full = [1] + list(base[:order])
    out = []
    for n in range(1, order + 1):
        s = 0
        for k in range(0, n + 1):
            s += math.comb(n, k) * scale**k * offset ** (n - k) * full[k]
        out.append(s)
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


def _half(w):
    return Fraction(w, 2) if isinstance(w, int) else w / 2


def symmetrize(mu: MeasureSpec) -> MeasureSpec:
    """Sym(mu) = (mu + reflect(mu)) / 2."""
    if mu.kind == "atomic":
        atoms = []
        for loc, w in mu.atoms:
            atoms.append((loc, _half(w)))
            atoms.append((-loc, _half(w)))
        return MeasureSpec.atomic(atoms)
    if mu.kind == "grid":
        xs = sorted({*mu.xs, *(-x for x in mu.xs)})
        half = [0.5 * (_interp(mu, x) + _interp(mu, -x)) for x in xs]
        merged = {}
        for loc, w in mu.atoms:
            for s in (loc, -loc):
                merged[s] = merged.get(s, 0) + w / 2
        return MeasureSpec.grid(xs, half, tuple(sorted(merged.items())),
                                norm_tol=max(mu.norm_tol, 1e-6))
    if mu.kind == "moments":
        vals = [0 if n % 2 else v for n, v in enumerate(mu.seq.values, start=1)]
        return MeasureSpec.from_moments(vals)
    if mu.kind == "law":
        if mu.law in _SYMMETRIC_LAWS and mu.offset == 0:
            return replace(mu, scale=abs(mu.scale))
        if mu.law == "semicircle" and mu.params[0] == 0 and mu.offset == 0:
            return replace(mu, scale=abs(mu.scale))
        if (
            mu.law == "marchenko_pastur"
            and mu.params[0] == 1
            and mu.offset == 0
            and mu.scale in (1, -1)
        ):
            return MeasureSpec.from_law("symmetric_beta")
        raise ValueError(
            f"no symmetrization rule for law {mu.law!r}; convert first"
        )
    raise ValueError(f"no symmetrization rule for {mu.kind!r} form; convert first")


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
        mapped = _law_square(mu)
        if mapped is not None:
            return mapped
        n = 2 * (order or 16)
        return push_square(MeasureSpec.from_moments(moments_of(mu, n)))
    raise ValueError(f"unknown representation {mu.kind!r}")


def _law_square(mu: MeasureSpec):
    if mu.offset != 0:
        return None
    s2 = mu.scale * mu.scale
    if mu.law == "semicircle" and mu.params[0] == 0:
        return MeasureSpec.from_law(
            "marchenko_pastur", (), scale=s2 * mu.params[1]
        )
    if mu.law == "quarter_circle":
        return MeasureSpec.from_law(
            "marchenko_pastur", (), scale=s2 * mu.params[0] ** 2
        )
    if mu.law == "symmetric_bernoulli":
        return MeasureSpec.atomic([(s2, 1)])
    # symmetric_beta: (b_s)^2 = w^4 has no catalog name; go through moments
    return None


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


def push_sqrt(mu: MeasureSpec) -> MeasureSpec:
    """Pushforward by x -> sqrt(x) for measures supported on [0, inf)."""
    if mu.kind == "atomic":
        if any(loc < 0 for loc, _ in mu.atoms):
            raise ValueError("push_sqrt needs support in [0, inf)")
        return MeasureSpec.atomic([(_sqrt_exact(loc), w) for loc, w in mu.atoms])
    if mu.kind == "grid":
        if mu.xs[0] < 0 or any(loc < 0 for loc, _ in mu.atoms):
            raise ValueError("push_sqrt needs support in [0, inf)")
        ys = [math.sqrt(x) for x in mu.xs]
        ys, dens = zip(*sorted(
            (y, 2 * y * d) for y, d in zip(ys, mu.densities)
        ))
        atoms = [(math.sqrt(loc), w) for loc, w in mu.atoms]
        return MeasureSpec.grid(ys, dens, atoms, norm_tol=max(mu.norm_tol, 1e-2))
    if mu.kind == "law":
        if (
            mu.law == "marchenko_pastur"
            and mu.params[0] == 1
            and mu.offset == 0
            and mu.scale > 0
        ):
            return MeasureSpec.from_law(
                "quarter_circle", (_sqrt_exact(mu.scale),)
            )
        raise ValueError(
            f"no square-root rule for law {mu.law!r}; convert to a grid first"
        )
    raise ValueError(
        "push_sqrt is underdetermined on moment-type representations; "
        "use symmetric_sqrt_moments for the symmetrized square root"
    )


def _sqrt_exact(x):
    if _is_exact(x):
        frac = Fraction(x)
        rn, rd = math.isqrt(frac.numerator), math.isqrt(frac.denominator)
        if rn * rn == frac.numerator and rd * rd == frac.denominator:
            return Fraction(rn, rd)
    return math.sqrt(x)


def symmetric_sqrt_moments(m: SeqN) -> SeqN:
    """Moments of Sym(sqrt(mu)) from the moments of mu: m_{2n} maps back."""
    if m.kind != "moment":
        raise ValueError(f"expected moment sequence, got {m.kind!r}")
    out = []
    for n in range(1, 2 * m.order + 1):
        out.append(m.values[n // 2 - 1] if n % 2 == 0 else 0)
    return SeqN("moment", out)


def dilate(mu: MeasureSpec, a) -> MeasureSpec:
    """Pushforward by x -> a*x (a nonzero)."""
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
        return replace(mu, scale=a * mu.scale, offset=a * mu.offset)
    if mu.kind == "moments":
        vals = [a**n * v for n, v in enumerate(mu.seq.values, start=1)]
        return MeasureSpec.from_moments(vals)
    if mu.kind == "free_cumulants":
        vals = [a**n * v for n, v in enumerate(mu.seq.values, start=1)]
        return MeasureSpec.from_free_cumulants(vals)
    raise ValueError(f"unknown representation {mu.kind!r}")


def shift(mu: MeasureSpec, c) -> MeasureSpec:
    """Pushforward by x -> x + c; at cumulant level only kappa_1 moves."""
    if mu.kind == "atomic":
        return MeasureSpec.atomic([(loc + c, w) for loc, w in mu.atoms])
    if mu.kind == "grid":
        cf = float(c)
        return MeasureSpec.grid(
            [x + cf for x in mu.xs],
            mu.densities,
            [(loc + cf, w) for loc, w in mu.atoms],
            norm_tol=mu.norm_tol,
        )
    if mu.kind == "law":
        return replace(mu, offset=mu.offset + c)
    if mu.kind == "moments":
        vals = _affine_moments(mu.seq.values, 1, c, mu.seq.order)
        return MeasureSpec.from_moments(vals)
    if mu.kind == "free_cumulants":
        vals = list(mu.seq.values)
        vals[0] = vals[0] + c
        return MeasureSpec.from_free_cumulants(vals)
    raise ValueError(f"unknown representation {mu.kind!r}")


def reflect(mu: MeasureSpec) -> MeasureSpec:
    return dilate(mu, -1)
