"""Infinite-divisibility machinery: triplets, regularity, and scans.

Triplets are stored in the truncated form (compensation of jumps in
[-1, 1]); the regular form compensates nothing and carries the drift of
measures on the positive half line. Conversions between the two are
explicit and exact for atomic Levy measures.

Positivity scans find the left support edge of mu^{boxplus t} for R in
free Levy-Khintchine form (RModel: drift, semicircular variance, finitely
many jumps) as the critical value of z(w) = 1/w + t R(w) on the negative
axis, one bisection per t. The second route, the grid scan, solves
z = 1/w + t R(w) for w = G(z) by damped Newton on F = 1/w in the half
plane Im F >= Im z, with downward continuation in the imaginary part, and
bisects a density threshold; a verify check compares the two. A catalog
law gives its own R-transform data (levy_khintchine), another spec only
an exact semicircular or single-jump cumulant pattern; the atom of
mu^{boxplus t} comes from the model by rule. Scans and the kurtosis
statistic are evidence or necessary conditions; regularity proper is
decided at the representation level (triplet support and drift), never
from finitely many moments. The test at the origin (thm110_check) reads
int dmu/x off the real part of the Cauchy transform on the negative axis,
in one transforms.cauchy call, with no integrator. Levy measures are
atoms plus grid densities; the free Meixner Levy measure's total mass and
int min(1,x) dnu (levy_meixner) are closed forms, so nothing here loads
scipy. numpy is imported by the numeric functions only, so the
sequence-level checks (main3_factor, kurtosis_check, regular forms of
atomic triplets) never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import catalog
from .catalog import MeasureSpec
from .ncpart import SeqN
from .transforms import _bisect_edge, _richardson

# main3_factor's largest odd cumulant taken for zero, the relative tolerance
# of a geometric cumulant pattern in RModel.from_cumulants, and the dyadic
# shells k that thm110_check probes
_SYMMETRY_TOL = 1e-12
_GEOMETRIC_TOL = 1e-12
_SHELL_K_MIN, _SHELL_K_MAX = 2, 14


# ---------------------------------------------------------------------------
# Levy measures


@dataclass(frozen=True)
class LevyMeasure:
    """A nonnegative measure with no mass at 0, finite int min(1,t^2).

    Carried as finitely many atoms plus an optional grid density, which
    integrals read by the trapezoid rule; every entry must be finite. The
    grid is stored in floats, so its entries must also lie in float range.
    """

    atoms: tuple = ()
    xs: tuple = ()
    densities: tuple = ()

    def __post_init__(self):
        atoms = tuple(sorted((loc, m) for loc, m in self.atoms))
        for loc, m in atoms:
            if not catalog._finite(loc, m):
                raise ValueError(f"atoms must be finite, got ({loc}, {m})")
            if loc == 0:
                raise ValueError("Levy measure cannot charge 0")
            if m <= 0:
                raise ValueError(f"atom masses must be positive, got {m}")
        object.__setattr__(self, "atoms", atoms)
        if len(self.xs) != len(self.densities):
            raise ValueError("grid abscissas and densities differ in length")
        if self.xs:
            try:
                xs, densities = tuple(map(float, self.xs)), tuple(map(float, self.densities))
            except OverflowError:  # an exact entry beyond the float range
                xs = densities = (math.inf,)
            if not catalog._finite(*xs, *densities):
                raise ValueError("grid abscissas and densities must be finite")
            if any(b <= a for a, b in zip(xs, xs[1:])):
                raise ValueError("grid abscissas must be strictly increasing")
            if any(d < 0 for d in densities):
                raise ValueError("grid densities must be nonnegative")
            for x, d in zip(xs, densities):
                if abs(x) < 1e-12 and d > 0:
                    raise ValueError("grid density must vanish at 0")
            object.__setattr__(self, "xs", xs)
            object.__setattr__(self, "densities", densities)

    def integral(self, f):
        """Integrate f against the measure; exact over exact atoms."""
        total = sum(m * f(loc) for loc, m in self.atoms)
        if self.xs:
            import numpy as np

            ys = [f(x) * d for x, d in zip(self.xs, self.densities)]
            total += float(np.trapezoid(ys, self.xs))
        return total

    def truncated_mean(self):
        """int_(0,1] t dnu(t), the drift correction between conventions."""
        return self.integral(lambda t: t if 0 < t <= 1 else 0 * t)

    def min1_t_integral(self):
        """int_(0,oo) min(1,t) dnu(t); finiteness gates the regular form."""
        return self.integral(lambda t: min(1, t) if t > 0 else 0)

    def charges_nonpositive(self) -> bool:
        """Whether any mass sits on (-oo, 0]."""
        if any(loc <= 0 for loc, _ in self.atoms):
            return True
        return any(x <= 0 and d > 0 for x, d in zip(self.xs, self.densities))

    def moment(self, n: int):
        return self.integral(lambda t: t**n)


# ---------------------------------------------------------------------------
# triplets


@dataclass(frozen=True)
class FreeTriplet:
    """Characteristic triplet of a freely infinitely divisible law."""

    eta: object
    a: object
    levy: LevyMeasure = field(default_factory=LevyMeasure)

    def __post_init__(self):
        if self.a < 0:
            raise ValueError(f"Gaussian/semicircular part must be >= 0, got {self.a}")


@dataclass(frozen=True)
class RegularForm:
    """Drift plus Levy measure on (0, oo) with int min(1,t) finite.

    The law it represents has free cumulant transform
    drift*z + int (1/(1-zt) - 1) dnu(t); it is free regular exactly when
    the drift is nonnegative.
    """

    drift: object
    levy: LevyMeasure = field(default_factory=LevyMeasure)

    def __post_init__(self):
        if self.levy.charges_nonpositive():
            raise ValueError("regular form needs the Levy measure on (0, oo)")
        m1 = self.levy.min1_t_integral()
        if not catalog._finite(m1):
            raise ValueError("int min(1,t) dnu diverges; no regular form exists")

    @property
    def is_free_regular(self) -> bool:
        return self.drift >= 0

    def free_cumulants(self, order: int) -> SeqN:
        """kappa_1 = drift + int t dnu, kappa_n = int t^n dnu for n >= 2."""
        vals = [self.drift + self.levy.moment(1)]
        vals += [self.levy.moment(n) for n in range(2, order + 1)]
        return SeqN("free_cumulant", vals)


def to_regular_form(t: FreeTriplet) -> RegularForm:
    """Rewrite a free triplet without jump compensation.

    Only triplets with no semicircular part and a Levy measure on (0, oo)
    admit the reduced representation; the drift picks up the compensation
    of the small jumps: drift = eta - int_(0,1] t dnu.
    """
    if t.a > 0:
        raise ValueError(
            f"semicircular part a = {t.a} > 0: not representable in regular form"
        )
    if t.levy.charges_nonpositive():
        raise ValueError("Levy measure charges (-oo, 0]: no regular form")
    correction = t.levy.truncated_mean()
    if not catalog._finite(correction):
        raise ValueError("int min(1,t) dnu diverges; no regular form exists")
    return RegularForm(t.eta - correction, t.levy)


def from_regular_form(r: RegularForm) -> FreeTriplet:
    """Exact inverse of to_regular_form."""
    return FreeTriplet(r.drift + r.levy.truncated_mean(), 0, r.levy)


# ---------------------------------------------------------------------------
# compound Poisson


def cfp(lam, rho: MeasureSpec, order: int) -> SeqN:
    """Free cumulants of the compound free Poisson: kappa_n = lam m_n(rho)."""
    if not lam > 0:
        raise ValueError(f"rate must be positive, got {lam}")
    m = catalog.moments_of(rho, order)
    return SeqN("free_cumulant", [lam * v for v in m.values])


def cfp_regular_form(lam, rho: MeasureSpec) -> RegularForm:
    """Regular form (drift 0, Levy measure lam*rho) for atomic jump laws.

    A jump atom at 0 contributes nothing to any cumulant, so it is dropped;
    the remaining atoms must sit in (0, oo).
    """
    if not lam > 0:
        raise ValueError(f"rate must be positive, got {lam}")
    if rho.kind != "atomic":
        raise ValueError("regular form construction needs an atomic jump law")
    atoms = [(loc, lam * w) for loc, w in rho.atoms if loc != 0 and w > 0]
    return RegularForm(0, LevyMeasure(atoms=tuple(atoms)))


# ---------------------------------------------------------------------------
# symmetric factorization


def main3_factor(kappa: SeqN) -> SeqN:
    """Halve a symmetric free cumulant sequence: kappa_n(sigma) = kappa_2n(mu).

    The output determines the factor sigma in the square decomposition of a
    symmetric freely infinitely divisible mu: the moments of mu^2 coincide
    with those of m (x) sigma, m the standard free Poisson. Odd cumulants
    above _SYMMETRY_TOL in absolute value raise ValueError.
    """
    if kappa.kind != "free_cumulant":
        raise ValueError(f"expected free cumulants, got {kappa.kind!r}")
    for n in range(1, kappa.order + 1, 2):
        if abs(float(kappa.at(n))) > _SYMMETRY_TOL:
            raise ValueError(
                f"input is not symmetric: cumulant {n} is {kappa.at(n)}"
            )
    half = kappa.order // 2
    return SeqN("free_cumulant", [kappa.at(2 * n) for n in range(1, half + 1)])


# ---------------------------------------------------------------------------
# kurtosis


@dataclass(frozen=True)
class KurtosisResult:
    value: object
    verdict: str  # pass | fail | degenerate

    @property
    def passed(self) -> bool:
        return self.verdict != "fail"


def kurtosis_check(m) -> KurtosisResult:
    """Necessary condition for free infinite divisibility: m4~/m2~^2 - 2 >= 0.

    m~ are central moments; the statistic equals kappa_4/kappa_2^2. A
    negative value rules the measure out; a nonnegative one is
    inconclusive (pass). Point masses are vacuously divisible. Only m_1..m_4
    are read.
    """
    if isinstance(m, MeasureSpec):
        m = catalog.moments_of(m, 4)
    if not isinstance(m, SeqN) or m.kind != "moment":
        raise ValueError("kurtosis_check takes a moment sequence or MeasureSpec")
    if m.order < 4:
        raise ValueError(f"kurtosis needs moments to order 4, got {m.order}")
    m1, m2, m3, m4 = (m.at(n) for n in range(1, 5))
    c2 = m2 - m1 * m1
    c4 = m4 - 4 * m1 * m3 + 6 * m1 * m1 * m2 - 3 * m1**4
    if c2 == 0:
        return KurtosisResult(None, "degenerate")
    if c2 < 0:
        raise ValueError(f"not a moment sequence: central m2 = {c2} < 0")
    value = c4 / (c2 * c2) - 2
    return KurtosisResult(value, "fail" if value < 0 else "pass")


# ---------------------------------------------------------------------------
# analytic R-transform models and positivity scans


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
    data = catalog.LAWS[mu.law].r_transform
    if data is None:
        raise ValueError(f"no closed-form R-transform for law {mu.law!r}")
    drift, variance, jumps = data(mu.params)
    s, c = mu.scale, mu.offset
    return s * drift + c, s * s * variance, tuple((s * a, l) for a, l in jumps)


@dataclass(frozen=True)
class RModel:
    """R(w) = drift + variance*w + sum of l*a/(1 - a*w) over jumps (a, l).

    The free Levy-Khintchine form of a semicircular part plus a compound
    free Poisson part with finitely many jump sizes a and masses l >= 0,
    in floats.
    """

    drift: float
    variance: float = 0.0
    jumps: tuple = ()

    def __post_init__(self):
        if not catalog._finite(self.drift, self.variance, *(v for j in self.jumps for v in j)):
            raise ValueError("drift, variance and jumps must be finite")
        if self.variance < 0:
            raise ValueError("variance must be >= 0")
        if any(l < 0 for _, l in self.jumps):
            raise ValueError("jump masses must be nonnegative")
        object.__setattr__(self, "drift", float(self.drift))
        object.__setattr__(self, "variance", float(self.variance))
        object.__setattr__(self, "jumps", tuple((float(a), float(l)) for a, l in self.jumps))

    @staticmethod
    def semicircle(mean, var) -> "RModel":
        return RModel(mean, var)

    @staticmethod
    def free_poisson(rate) -> "RModel":
        return RModel.cfp_atomic(rate, [(1, 1)])

    @staticmethod
    def cfp_atomic(lam, jump_atoms, drift=0) -> "RModel":
        """Rate lam and a jump law of atoms (a, p): jump masses l = lam*p."""
        if not lam > 0:
            raise ValueError(f"rate must be positive, got {lam}")
        return RModel(drift, 0, tuple((a, float(lam) * float(p)) for a, p in jump_atoms))

    @staticmethod
    def from_cumulants(kappa: SeqN) -> "RModel":
        """Recognize exact semicircular or geometric (single-jump compound
        Poisson, to _GEOMETRIC_TOL relative to the largest cumulant)
        cumulant patterns; refuse any other."""
        if kappa.kind != "free_cumulant":
            raise ValueError(f"expected free cumulants, got {kappa.kind!r}")
        vals = [float(v) for v in kappa.values]
        if len(vals) >= 2 and all(v == 0 for v in vals[2:]) and vals[1] >= 0:
            return RModel.semicircle(vals[0], vals[1])
        if len(vals) >= 4 and vals[1] != 0 and vals[2] != 0:
            a = vals[2] / vals[1]
            bound = _GEOMETRIC_TOL * max(abs(v) for v in vals) * max(1, abs(a))
            if all(abs(vals[j + 1] - a * vals[j]) <= bound for j in range(1, len(vals) - 1)):
                lam = vals[1] / (a * a)
                drift = vals[0] - lam * a
                return RModel.cfp_atomic(lam, [(a, 1)], drift)
        raise ValueError(f"{len(vals)} free cumulants match neither a semicircle nor a "
                         "single-jump compound free Poisson law")

    @staticmethod
    def of_spec(mu: MeasureSpec, order: int) -> "RModel":
        """A catalog law's own R-transform, else from_cumulants of the
        spec's first order free cumulants."""
        if mu.kind == "law":
            return RModel(*levy_khintchine(mu))
        return RModel.from_cumulants(catalog.free_cumulants_of(mu, order))

    def r(self, w):
        total = self.drift + self.variance * w
        for a, l in self.jumps:
            total = total + l * a / (1 - a * w)
        return total

    def dr(self, w):
        total = self.variance + 0 * w
        for a, l in self.jumps:
            total = total + l * a * a / (1 - a * w) ** 2
        return total

    def atom(self, t):
        """(location, mass) of the atom of mu^{boxplus t}, or None.

        As G -> oo, z = 1/G + t R(G) = t*drift + t*variance*G
        + (1 - t*L)/G + O(1/G^2), L the jump mass off 0: mu^{boxplus t} has
        an atom exactly when the variance is 0 and t*L < 1, at t*drift
        with mass 1 - t*L.
        """
        mass = 1 - t * sum(l for a, l in self.jumps if a != 0)
        if self.variance == 0 and mass > 0:
            return t * self.drift, mass
        return None

    @property
    def kappa1(self) -> float:
        return float(self.r(0.0))

    @property
    def kappa2(self) -> float:
        return float(self.dr(0.0))


# Newton for G stops at residual _SOLVE_TOL or after _SOLVE_MAX_ITER steps;
# a point counts as converged at residual sqrt(_SOLVE_TOL) and 1e-3 Im z
_SOLVE_TOL = 1e-14
_SOLVE_MAX_ITER = 100


def solve_g(model: RModel, t, z, w0=None):
    """Solve z = 1/w + t R(w) for w = G(z) by damped Newton on F = 1/w.

    t is a scalar or an array shaped like z (one time per point); each
    point's solution does not depend on the others solved with it.
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
    import numpy as np

    def residual(f, zs, ts):
        return zs - ts * model.r(1 / f) - f

    z = np.atleast_1d(np.asarray(z, dtype=complex))
    t = np.broadcast_to(np.asarray(t, dtype=float), z.shape)
    with np.errstate(all="ignore"):
        if w0 is None:
            f = z
            for _ in range(10):
                f = 0.5 * f + 0.5 * (z - t * model.r(1 / f))
        else:
            f = 1 / np.asarray(w0, dtype=complex)
        if f.shape != z.shape:
            raise ValueError("seed shape does not match z")
        resid = residual(f, z, t)
        for _ in range(_SOLVE_MAX_ITER):
            active = ~(np.abs(resid) <= tol)
            if not active.any():
                break
            fa, za, ta, ga = f[active], z[active], t[active], resid[active]
            wa = 1 / fa
            step = ga / (1 - ta * model.dr(wa) * wa * wa)
            for _ in range(31):
                new_f = fa + step
                new_g = residual(new_f, za, ta)
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
_SCAN_POINTS = 8192  # most grid points one scan solve holds (at least one t)


def _extrapolated_density(model: RModel, t, xs, seed=None):
    """Boundary density by Richardson extrapolation over the three heights.

    Cancels the terms linear in the height, so Lorentzian shoulders of
    nearby atoms drop out instead of polluting edge detection. t is a
    scalar or one time per point. The solve at _EPS starts from seed (else
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
    import numpy as np

    t = np.broadcast_to(np.asarray(t, dtype=float), np.shape(xs))
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
        dens[redo], conv[redo], ws[0][redo] = _extrapolated_density(
            model, t[redo], xs[redo])
    return dens, conv, ws[0]


@dataclass(frozen=True)
class ScanPoint:
    t: float
    left_edge: float
    atoms: tuple
    converged: bool


@dataclass(frozen=True)
class ScanResult:
    points: tuple
    edge_tol: float

    @property
    def regular_evidence(self) -> bool:
        """All scanned left edges clear of the negative axis."""
        return all(
            p.left_edge is not None and p.left_edge >= -self.edge_tol
            for p in self.points
        )


def _with_atom(model: RModel, t, edge, converged) -> ScanPoint:
    """The scan point of time t: the edge, or the atom (RModel.atom) if
    further left."""
    atom = model.atom(t)
    atoms = () if atom is None else (atom[0],)
    if atoms:
        edge = atoms[0] if edge is None else min(edge, atoms[0])
    return ScanPoint(t, edge, atoms, converged)


# the critical point is bisected in v = u/(s + u) in (0, 1), u = -w, to
# this width: z is stationary there, so the edge's error is quadratic in it
_CRITICAL_XTOL = 2.0**-36


def _critical_bracket(model: RModel, t):
    """(s, v_hi) of the bisection for t q(u) = 1, or None if it has no root.

    q(u) = w^2 R'(w) at w = -u is variance*u^2 + sum of l (a u/(1 + a u))^2
    over the jumps, and each term increases on (0, u_pole), u_pole =
    1/max|a| over the negative jumps (oo if none). So t q = 1 has at most
    one root there, and it has one unless the variance is 0, no jump is
    negative and t q stays below its limit t L+ <= 1, L+ the positive
    jumps' mass. With s = 1/sqrt(t kappa_2), the root's scale near 0, the
    map u = s v/(1 - v) takes it into (0, v_hi), v_hi = u_pole/(s + u_pole).
    """
    jumps = [(a, l) for a, l in model.jumps if a != 0 and l > 0]
    negative = [-a for a, _ in jumps if a < 0]
    if model.variance == 0 and not negative and t * sum(l for _, l in jumps) <= 1:
        return None
    s = 1 / math.sqrt(t * (model.variance + sum(l * a * a for a, l in jumps)))
    u_pole = 1 / max(negative) if negative else math.inf
    return s, (1.0 if u_pole == math.inf else u_pole / (s + u_pole))


def _critical_scan(model: RModel, ts):
    """Scan points of the times ts by the critical value of z(w) = 1/w + tR(w).

    Left of the support of mu^{boxplus t}, w = G(x) is negative and
    x = z(w); G falls from 0- as x rises, so the left edge is z(w*), w* the
    zero of z'(w) = (t w^2 R'(w) - 1)/w^2 nearest 0- (Biane 1997; Huang
    2015). Its u* = -w* solves t q(u) = 1 (_critical_bracket), bisected for
    every t at once by transforms._bisect_edge. Without a root, z rises to
    its limit t*drift as w -> -oo, and that is the left end.
    """
    import numpy as np

    brackets = [_critical_bracket(model, t) for t in ts]
    rooted = [j for j, b in enumerate(brackets) if b is not None]
    scale = np.array([brackets[j][0] for j in rooted])
    times = np.array([ts[j] for j in rooted])

    def above(v, owner):
        w = -scale[owner] * v / (1 - v)
        return times[owner] * w * w * model.dr(w) >= 1

    vs = np.array(_bisect_edge(above, [(brackets[j][1], 0.0) for j in rooted],
                               _CRITICAL_XTOL))
    with np.errstate(all="ignore"):
        w = -scale * vs / (1 - vs)
        edges = dict(zip(rooted, (1 / w + times * model.r(w)).tolist()))
    points = []
    for j, t in enumerate(ts):
        edge = edges.get(j, t * model.drift)
        points.append(_with_atom(model, t, edge, math.isfinite(edge)))
    return points


def positivity_scan(
    model: RModel,
    ts,
    edge_tol: float = 1e-3,
    jobs: int | None = None,
) -> ScanResult:
    """The left support edge of mu^{boxplus t} for each t: the critical
    value of z(w) = 1/w + tR(w) (_critical_scan), or the atom (RModel.atom)
    if further left.

    converged means the critical point was bracketed and bisected, or the
    limit t*drift applied, and the edge is finite. Every t is bisected in
    one batch, each independently, so a scan equals the scans of its t
    values one by one. The grid scan (_grid_scan) is the second route;
    verify's scan_edge_routes compares the two. jobs is ignored; it stays
    because perfbench's scans pass it. ts must not be empty: no scanned
    point is no evidence. The times must be finite and positive, and so
    must edge_tol, how far below 0 an edge may sit as regular evidence.
    """
    if not (math.isfinite(edge_tol) and edge_tol > 0):
        raise ValueError(f"scan edge_tol must be finite and positive, got {edge_tol}")
    ts = _scan_times(ts)
    return ScanResult(tuple(_critical_scan(model, ts)), edge_tol)


def _scan_times(ts):
    ts = [float(t) for t in ts]
    if not ts:
        raise ValueError("scan needs at least one time")
    if not all(math.isfinite(t) and t > 0 for t in ts):
        raise ValueError(f"scan times must be finite and positive, got {ts}")
    return ts


def _scan_group(model: RModel, ts, threshold, grid_points):
    """Grid scan points of the times ts, their grids solved as one batch."""
    import numpy as np

    k1, k2 = model.kappa1, model.kappa2
    spreads = [4 * math.sqrt(max(t * k2, 1e-6)) + 0.5 for t in ts]
    grids = [np.linspace(t * k1 - s, t * k1 + s, grid_points)
             for t, s in zip(ts, spreads)]
    solved = _extrapolated_density(model, np.repeat(ts, grid_points),
                                   np.concatenate(grids))
    dens_t, conv_t, w_t = (np.split(a, len(ts)) for a in solved)
    edges, brackets, ends = {}, [], []
    for j, (xs, dens, w_eps) in enumerate(zip(grids, dens_t, w_t)):
        above = np.flatnonzero(dens > threshold)
        if above.size and above[0] == 0:
            edges[j] = float(xs[0])
        elif above.size:
            i = above[0]
            brackets.append((float(xs[i]), float(xs[i - 1])))
            ends.append((j, xs[i - 1 : i + 1], w_eps[i - 1 : i + 1]))

    def inside(mids, owner):
        # each bracket's midpoints are seeded by interpolating w at height
        # _EPS between its grid ends, not from the imaginary ladder
        seed = np.empty(mids.shape, dtype=complex)
        for b in np.unique(owner):
            seed[owner == b] = np.interp(mids[owner == b], *ends[b][1:])
        t_mid = np.array([ts[ends[b][0]] for b in owner])
        return _extrapolated_density(model, t_mid, mids, seed)[0] > threshold

    edges.update(zip([j for j, _, _ in ends], _bisect_edge(inside, brackets, 2e-5)))
    return [_with_atom(model, t, edges.get(j), bool(np.all(conv)))
            for j, (t, conv) in enumerate(zip(ts, conv_t))]


def _grid_scan(model: RModel, ts, threshold: float = 1e-6, grid_points: int = 601):
    """The scan's second route: the smallest point where the extrapolated
    density (_extrapolated_density) exceeds the threshold, or the atom if
    further left; converged means every grid point's solve converged.

    Each t's grid crossing is bisected to 2e-5 in batches
    (transforms._bisect_edge), each batch seeded by interpolating w at
    height _EPS between the bracket's grid ends. The t values are solved
    together, in groups of at most _SCAN_POINTS points (at least one t
    each), every point independently, so a scan equals the scans of its t
    values one by one. The times and threshold must be finite and
    positive, and grid_points at least 2.
    """
    if not (math.isfinite(threshold) and threshold > 0):
        raise ValueError(f"scan threshold must be finite and positive, got {threshold}")
    ts = _scan_times(ts)
    if grid_points < 2:
        raise ValueError(f"scan needs at least 2 grid points, got {grid_points}")
    size = max(1, _SCAN_POINTS // grid_points)
    points = []
    for k in range(0, len(ts), size):
        points += _scan_group(model, ts[k : k + size], threshold, grid_points)
    return tuple(points)


# ---------------------------------------------------------------------------
# divergence test near zero


@dataclass(frozen=True)
class Thm110Result:
    condition: str  # atom_at_zero | integral_divergent | integral_convergent | inconclusive
    regular: object  # True / False / None
    shells: tuple
    ratios: tuple


def thm110_check(mu: MeasureSpec) -> Thm110Result:
    """Classify a positive FID measure by its behavior at 0.

    Mass at 0 or a divergent int_0^1 dmu(x)/x certifies free regularity.
    For y > 0, -G(-y) = int dmu(x)/(x + y) grows to int dmu/x as y -> 0.
    One transforms.cauchy call takes it at y = 2^-k, k from _SHELL_K_MIN to
    _SHELL_K_MAX + 1; the atoms off 0, which add a finite amount, are
    removed exactly. The shells are the increments of what is left from
    2^-k to 2^-(k+1): they weigh dmu(x) by (y/2)/((x + y/2)(x + y)), which
    peaks at x ~ y, so their ratios follow the density's power law at 0.
    Growing or flat shells (tail ratio >= 0.95) indicate divergence;
    decisively shrinking ones (<= 0.8) convergence; anything between, or
    fewer than two shells, is reported as inconclusive rather than
    guessed. The criterion is one-directional: a convergent integral
    implies nothing, so those verdicts carry regular = None.
    """
    import numpy as np

    from . import transforms

    mass0 = mu.mass_at_zero
    if mass0 is None:
        raise ValueError("cannot resolve mass at 0 for this measure form")
    if catalog.support_low(mu) < (0 if mu.kind == "atomic" else -1e-12):
        raise ValueError("measure must live on [0, oo)")
    if mass0 > 0:
        return Thm110Result("atom_at_zero", True, (), ())

    k_max = _SHELL_K_MAX
    if mu.kind == "grid":
        # shells narrower than the grid spacing carry no information; the
        # largest spacing is also the step of the grid kernel's refusal near
        # its real axis, so every y probed stays clear of it
        spacing = float(np.max(np.diff(mu.xs)))
        while k_max >= _SHELL_K_MIN and 2.0 ** -(k_max + 1) < 4 * spacing:
            k_max -= 1
    if k_max <= _SHELL_K_MIN:  # one shell at most: no ratio to judge
        return Thm110Result("inconclusive", None, (), ())
    z = -(2.0 ** -np.arange(_SHELL_K_MIN, k_max + 2)) + 0j
    # only Re G is read: cauchy is defined off the real axis, and on it the
    # quarter circle's closed form gives a wrong Im G. An atomic spec's G is
    # the atoms' own sum, so its shells are exact zeros
    atoms = transforms._atomic_cauchy(catalog.atoms_of(mu), z)[0]
    s = (atoms - transforms.cauchy(mu, z)).real
    shells = (s[1:] - s[:-1]).tolist()
    floor = 1e-300
    if all(v <= floor for v in shells[-4:]):
        return Thm110Result("integral_convergent", None, tuple(shells), ())
    ratios = [
        b / a for a, b in zip(shells, shells[1:]) if a > floor and b > floor
    ]
    tail = ratios[-4:]
    if not tail:
        return Thm110Result("inconclusive", None, tuple(shells), ())
    score = float(np.median(tail))
    if score >= 0.95:
        return Thm110Result("integral_divergent", True, tuple(shells), tuple(ratios))
    if score <= 0.8:
        return Thm110Result("integral_convergent", None, tuple(shells), tuple(ratios))
    return Thm110Result("inconclusive", None, tuple(shells), tuple(ratios))


# ---------------------------------------------------------------------------
# free Meixner Levy measures


@dataclass(frozen=True)
class MeixnerResult:
    support: tuple
    regular: bool
    min1_integral: float
    total_mass: float


def levy_meixner(a, b, c) -> MeixnerResult:
    """Levy measure with density c sqrt(R) / (pi x^2), R = 4b - (x-a)^2.

    It lives on [lo, hi] = [a - r, a + r], r = 2 sqrt(b), and fits the
    regular form exactly when lo >= 0 (at lo = 0, min(1,x) dnu ~ x^(-1/2)).
    With s = sqrt(lo hi) = sqrt((a - r)(a + r)), the total mass is
    4bc/(s(|a| + s)), inf when lo <= 0 <= hi. int min(1,x) dnu is 0 for
    hi <= 0, inf for lo < 0 < hi, the total mass for lo >= 1 and
    4bc/(a + s) = c int x dnu for hi <= 1; otherwise x = a + r cos(t) gives
    sqrt(R)/x dx and sqrt(R)/x^2 dx the t-antiderivatives
    a t - r sin t - s A(t) and -t + a A(t)/s + r sin(t)/x, where
    A(t) = 2 atan(k tan(t/2)), k = sqrt(lo/hi) (a A/s = tan(t/2) at s = 0),
    taken at the angle t1 of x = 1, with q = r sin t1:
        pi/c int min(1,x) dnu = a (pi - t1) + q - s (pi - A(t1))
                                + q - t1 + a A(t1)/s.
    Against 40-digit mpmath at the exact float inputs, both err by under
    3e-15 relative on the tested sets (lo = 1e-12 included) and on 300
    random ones; the tests hold them to 1e-14.
    """
    a, b, c = float(a), float(b), float(c)
    if not all(map(math.isfinite, (a, b, c))):
        raise ValueError(f"parameters must be finite, got {(a, b, c)}")
    if not b > 0:
        raise ValueError(f"b must be positive, got {b}")
    if not c > 0:
        raise ValueError(f"c must be positive, got {c}")
    r = 2 * math.sqrt(b)
    # r's rounding error (4b - r^2)/2r, found exactly, keeps the endpoint
    # next to 0 accurate where a -+ r cancels
    dr = float(4 * Fraction(b) - Fraction(r) ** 2) / (2 * r)
    lo, hi = a - r - dr, a + r + dr
    s = math.sqrt(max(lo * hi, 0.0))  # 0 when the support meets 0
    total = math.inf if lo <= 0 <= hi else 4 * b * c / (s * (abs(a) + s))
    if hi <= 0:
        min1 = 0.0
    elif lo < 0:
        min1 = math.inf
    elif lo >= 1:
        min1 = total
    elif hi <= 1:
        min1 = 4 * b * c / (a + s)
    else:
        # tan(t1/2) = sqrt((hi - 1)/(1 - lo)), so A(t1) = 2 alpha
        q = math.sqrt((1 - lo) * (hi - 1))
        alpha = math.atan2(math.sqrt(lo * (hi - 1)), math.sqrt(hi * (1 - lo)))
        # a A(t1)/s, which is tan(t1/2) at s = 0
        a_a_s = 2 * a * alpha / s if s > 0 else math.sqrt((hi - 1) / (1 - lo))
        small = a * math.atan2(q, a - 1) + q - 2 * s * (math.pi / 2 - alpha)
        large = q - math.atan2(q, 1 - a) + a_a_s
        min1 = c * (small + large) / math.pi
    return MeixnerResult((lo, hi), lo >= 0, min1, total)


# ---------------------------------------------------------------------------
# Voiculescu generating pairs (closed forms only)


@dataclass(frozen=True)
class VoiculescuPair:
    """(gamma, tau): phi(z) = gamma + int (1+xz)/(z-x) dtau(x), tau finite."""

    gamma: object
    tau_atoms: tuple = ()

    def __post_init__(self):
        if any(m < 0 for _, m in self.tau_atoms):
            raise ValueError("tau must be nonnegative")


def voiculescu_pair(mu: MeasureSpec) -> VoiculescuPair:
    """Generating pair of a catalog law with a closed-form R-transform.

    phi(z) = R(1/z): the law's levy_khintchine jumps (a, l) give the
    compound Poisson pair at rate 1, shifted by the drift, and the
    variance is an atom of tau at 0. Other laws and other representations
    are refused.
    """
    drift, variance, jumps = levy_khintchine(mu)
    pair = voiculescu_pair_cfp(1, jumps, shift=drift)
    if variance == 0:
        return pair
    return VoiculescuPair(pair.gamma, tuple(sorted(pair.tau_atoms + ((0, variance),))))


def voiculescu_pair_cfp(lam, jump_atoms, shift=0) -> VoiculescuPair:
    """Pair of a compound free Poisson with an atomic jump law.

    gamma_j = lam p_j a_j/(1+a_j^2) and tau = sum lam p_j a_j^2/(1+a_j^2)
    at the jump locations; exact for exact inputs.
    """
    if not lam > 0:
        raise ValueError(f"rate must be positive, got {lam}")
    gamma = shift
    atoms = []
    for a, p in jump_atoms:
        if p < 0:
            raise ValueError("jump weights must be nonnegative")
        if p == 0 or a == 0:
            continue
        gamma = gamma + lam * p * a / (1 + a * a)
        atoms.append((a, lam * p * a * a / (1 + a * a)))
    return VoiculescuPair(gamma, tuple(sorted(atoms)))


@dataclass(frozen=True)
class Prop345Result:
    left_extremity: object
    phi_at_zero: object
    passed: bool


def prop345_check(pair: VoiculescuPair) -> Prop345Result:
    """Regularity test on the generating pair: a(tau) >= 0 and phi(-0) >= 0.

    phi(-0) = gamma - sum tau_j/x_j over the atoms; an atom of tau at 0
    sends the limit to -infinity.
    """
    if not pair.tau_atoms:
        return Prop345Result(math.inf, pair.gamma, pair.gamma >= 0)
    left = min(x for x, _ in pair.tau_atoms)
    if any(x == 0 and m > 0 for x, m in pair.tau_atoms):
        phi0 = -math.inf
    else:
        phi0 = pair.gamma - sum(m / x for x, m in pair.tau_atoms)
    passed = left >= 0 and phi0 >= 0
    return Prop345Result(left, phi0, passed)
