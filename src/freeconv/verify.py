"""Built-in identity checks with a deterministic pass/fail report.

Every check computes a deviation and compares it against a fixed
tolerance; randomized checks draw from a per-check generator seeded by
(seed, check name), so a report depends only on the seed, never on
execution order. numpy is imported by the three density checks only, so
the identities suite never loads it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import DEFAULT_SEED, SUITES, catalog, conv, idclass, ncpart, transforms
from .catalog import MeasureSpec
from .ncpart import SeqN

W = MeasureSpec.from_law("semicircle", (0, 1))
M = MeasureSpec.from_law("marchenko_pastur", (1,))
B = MeasureSpec.from_law("symmetric_bernoulli")

LAW_CASES = [
    ("semicircle", (0, 1)),
    ("semicircle", (Fraction(1, 2), Fraction(3, 2))),
    ("marchenko_pastur", (1,)),
    ("marchenko_pastur", (Fraction(7, 4),)),
    ("symmetric_bernoulli", ()),
    ("symmetric_beta", ()),
    ("quarter_circle", (1,)),
    ("beta_1a", (Fraction(7, 10),)),
    ("chi_squared_1", ()),
    ("commutator_ww", ()),
]


# ---------------------------------------------------------------------------
# seeded random inputs


def _fraction(rng, lo, hi, den=12):
    return Fraction(rng.randint(lo * den, hi * den), den)


def _positive_atomic(rng, max_atoms=3):
    n = rng.randint(1, max_atoms)
    locs = sorted({_fraction(rng, 1, 36) / 12 for _ in range(n)})
    weights = [rng.randint(1, 6) for _ in locs]
    total = sum(weights)
    return MeasureSpec.atomic(
        [(loc, Fraction(w, total)) for loc, w in zip(locs, weights)]
    )


def _symmetric_atomic(rng, max_atoms=3):
    n = rng.randint(1, max_atoms)
    locs = sorted({_fraction(rng, 1, 30) / 10 for _ in range(n)})
    weights = [rng.randint(1, 6) for _ in locs]
    total = 2 * sum(weights)
    atoms = []
    for loc, w in zip(locs, weights):
        atoms.append((loc, Fraction(w, total)))
        atoms.append((-loc, Fraction(w, total)))
    return MeasureSpec.atomic(atoms)


def _even_cumulants(rng, order=16):
    vals = [
        _fraction(rng, -2, 2) if n % 2 == 0 else Fraction(0)
        for n in range(1, order + 1)
    ]
    return SeqN("free_cumulant", vals)


# ---------------------------------------------------------------------------
# deviations


def _seq_dev(a: SeqN, b: SeqN) -> float:
    return max(abs(float(x - y)) for x, y in zip(a.values, b.values))


def _w2_equals_m(rng, jobs):
    # from W's own moments: push_square(W) maps W to the catalog's m itself
    w = MeasureSpec.from_moments(catalog.moments_of(W, 20))
    got = catalog.moments_of(catalog.push_square(w), 10)
    want = catalog.moments_of(M, 10)
    return _seq_dev(got, want)


def _square_product_sides(mu, nu):
    """Even moments of mu x nu and the moments of mu x mu x nu^2, orders 1..8."""
    prod = ncpart.free_mult_moments(
        catalog.moments_of(mu, 16), catalog.moments_of(nu, 16), 16
    )
    lhs = SeqN("moment", [prod.at(2 * n) for n in range(1, 9)])
    rhs = ncpart.free_mult_moments(
        ncpart.free_mult_moments(
            catalog.moments_of(mu, 8), catalog.moments_of(mu, 8), 8
        ),
        catalog.moments_of(catalog.push_square(nu), 8),
        8,
    )
    return lhs, rhs


def _square_product(rng, jobs):
    dev = 0.0
    for _ in range(10):
        mu = _positive_atomic(rng)
        nu = _symmetric_atomic(rng)
        dev = max(dev, _seq_dev(*_square_product_sides(mu, nu)))
    return dev


def _commutator_mm_cfp_sides():
    """Free cumulants of m [] m and of cfp(2, m x b), orders 1..10."""
    box = catalog.free_cumulants_of(conv.commutator(M, M, 20), 10)
    mb = ncpart.free_mult_moments(
        catalog.moments_of(M, 10), catalog.moments_of(B, 10), 10
    )
    return box, idclass.cfp(2, MeasureSpec.from_moments(mb), 10)


def _commutator_mm_cfp(rng, jobs):
    return _seq_dev(*_commutator_mm_cfp_sides())


def _commutator_square_route_sides(kappa):
    """Free cumulants of mu [] mu and of (mu^2 x b)^{+2}, orders 1..8, for
    the mu with free cumulants kappa."""
    mu = MeasureSpec.from_free_cumulants(kappa)
    box = catalog.free_cumulants_of(conv.commutator(mu, mu, 16), 8)
    mu2 = MeasureSpec.from_moments(
        catalog.moments_of(catalog.push_square(mu, 16), 8)
    )
    routed = conv.free_power_fid(conv.free_mult(mu2, B, 8, method="dp"), 2, 8)
    return box, catalog.free_cumulants_of(routed, 8)


def _commutator_square_route(rng, jobs):
    dev = 0.0
    for _ in range(5):
        dev = max(dev, _seq_dev(*_commutator_square_route_sides(_even_cumulants(rng))))
    return dev


def _odd_perturbation(rng, base):
    """base with a random shift added to each odd-order cumulant."""
    return SeqN("free_cumulant", [
        v + (_fraction(rng, -2, 2) if n % 2 == 1 else 0)
        for n, v in enumerate(base.values, 1)
    ])


def _commutator_odd_invariance_sides(base, perturbed):
    """For each sequence in perturbed, the order-12 commutator of its measure
    with the measure mu of base, paired with mu [] mu."""
    mu = MeasureSpec.from_free_cumulants(base)
    reference = conv.commutator(mu, mu, 12).seq
    return [
        (conv.commutator(MeasureSpec.from_free_cumulants(kappa), mu, 12).seq, reference)
        for kappa in perturbed
    ]


def _commutator_odd_invariance(rng, jobs):
    base = _even_cumulants(rng)
    perturbed = [_odd_perturbation(rng, base) for _ in range(5)]
    dev = 0.0
    for got, reference in _commutator_odd_invariance_sides(base, perturbed):
        dev = max(dev, _seq_dev(got, reference))
    return dev


def _dilation_mult_power_dev(mu, s, t, order):
    """D_{t^{s-1}}((mu^{x s})^{+ t}) against (mu^{+ t})^{x s}, moment by
    moment, with x the multiplicative and + the additive power."""

    def mult_power(m):
        out = m
        for _ in range(s - 1):
            out = ncpart.free_mult_moments(out, m, order)
        return out

    def add_power(m):
        spec = conv.free_power_fid(MeasureSpec.from_moments(m), t, order)
        return catalog.moments_of(spec, order)

    m = catalog.moments_of(mu, order)
    factor = t ** (s - 1)
    powered = add_power(mult_power(m))
    lhs = SeqN("moment", [factor**n * v for n, v in enumerate(powered.values, 1)])
    return _seq_dev(lhs, mult_power(add_power(m)))


def _eq_1418(rng, jobs):
    dev = 0.0
    for s in (2, 3):
        for t in (Fraction(1, 2), 2):
            dev = max(dev, _dilation_mult_power_dev(M, s, t, 8))
    return dev


def _boolean_free_power_dev(mu, t, order):
    """Moments of the boolean-to-free lift of (mu^{+(1-t)})^{u t/(1-t)}
    against those of mu^{u t}, u the boolean power, for 0 < t < 1."""
    sigma = conv.free_power_fid(mu, 1 - t, order)
    tau = conv.boolean_power(sigma, t / (1 - t), order)
    lifted = ncpart.moments_from_free_cumulants(
        SeqN("free_cumulant", catalog.boolean_cumulants_of(tau, order).values)
    )
    rhs = catalog.moments_of(conv.boolean_power(mu, t, order), order)
    return _seq_dev(lifted, rhs)


def _boolean_free_power(rng, jobs):
    dev = 0.0
    for mu in (W, M):
        for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            dev = max(dev, _boolean_free_power_dev(mu, t, 8))
    return dev


def _s_product_rule(rng, jobs, reps=10):
    dev = 0.0
    for _ in range(reps):
        mu = _positive_atomic(rng)
        nu = _positive_atomic(rng)
        prod = ncpart.free_mult_moments(
            catalog.moments_of(mu, 8), catalog.moments_of(nu, 8), 8
        )
        lhs = transforms.s_series(prod, 8)
        rhs = (transforms.s_series(mu, 8) * transforms.s_series(nu, 8)).truncated(7)
        dev = max(dev, max(abs(float(lhs.coeff(n) - rhs.coeff(n))) for n in range(8)))
    return dev


def _cumulant_inversion_routes(rng, jobs):
    dev = 0.0
    for law, params in LAW_CASES:
        m = catalog.catalog_moments(law, params, 10)
        via_inv = transforms.free_cumulant_series_via_inversion(m, 10)
        got = SeqN("free_cumulant", [via_inv.coeff(n) for n in range(1, 11)])
        dev = max(dev, _seq_dev(got, ncpart.free_cumulants_from_moments(m)))
    return dev


def _round_trip_dev(m):
    """Deviation of the moments m from their two cumulant round trips."""
    back_free = ncpart.moments_from_free_cumulants(
        ncpart.free_cumulants_from_moments(m)
    )
    back_bool = ncpart.moments_from_boolean_cumulants(
        ncpart.boolean_cumulants_from_moments(m)
    )
    return max(_seq_dev(back_free, m), _seq_dev(back_bool, m))


def _round_trips(rng, jobs):
    dev = 0.0
    for _ in range(40):
        vals = [_fraction(rng, -2, 2) for _ in range(rng.randint(1, 10))]
        dev = max(dev, _round_trip_dev(SeqN("moment", vals)))
    return dev


def _random_triplet(rng):
    """A triplet with no semicircular part and 0-3 exact jumps in (0, 3]."""
    atoms = {}
    for _ in range(rng.randint(0, 3)):
        loc = _fraction(rng, 1, 36) / 12
        atoms[loc] = atoms.get(loc, 0) + _fraction(rng, 1, 24) / 12
    levy = idclass.LevyMeasure(atoms=tuple(atoms.items()))
    return idclass.FreeTriplet(_fraction(rng, -3, 3), 0, levy)


def _triplet_round_trip_dev(triplet):
    """0 if the triplet round-trips exactly through its regular form, else 1."""
    form = idclass.to_regular_form(triplet)
    back = idclass.from_regular_form(form)
    return 0.0 if back == triplet and idclass.to_regular_form(back) == form else 1.0


def _triplet_round_trip(rng, jobs):
    return max(_triplet_round_trip_dev(_random_triplet(rng)) for _ in range(20))


def _main3_dev(kappa):
    """Even moments of the symmetric mu with free cumulants kappa, i.e. the
    moments of mu^2, against the moments of m x sigma for the halved factor."""
    sigma = idclass.main3_factor(kappa)
    half = sigma.order
    mu_moments = ncpart.moments_from_free_cumulants(kappa)
    lhs = SeqN("moment", [mu_moments.at(2 * n) for n in range(1, half + 1)])
    rhs = ncpart.free_mult_moments(
        catalog.moments_of(M, half), ncpart.moments_from_free_cumulants(sigma), half
    )
    return _seq_dev(lhs, rhs)


def _main3_cfp_dev(lam, nu):
    """The halved factor of cfp(lam, nu) against cfp(lam, nu^2); _main3_dev."""
    kappa = idclass.cfp(lam, nu, 16)
    sigma = idclass.main3_factor(kappa)
    expected = idclass.cfp(lam, catalog.push_square(nu), 8)
    return max(_seq_dev(sigma, expected), _main3_dev(kappa))


def _main3_factorization(rng, jobs):
    dev = 0.0
    for _ in range(10):
        lam = _fraction(rng, 1, 36) / 12
        dev = max(dev, _main3_cfp_dev(lam, _symmetric_atomic(rng)))
    return dev


def _commutator_ww_density(rng, jobs):
    import numpy as np

    # grid covers the support (edges near +-3.3302) so renormalization is
    # meaningful; accuracy is judged on the inner window
    xs = np.linspace(-3.6, 3.6, 361)
    result = conv.free_add_density(M, catalog.reflect(M), xs)
    want = catalog.catalog_density("commutator_ww", (), xs)
    window = np.abs(xs) <= 2.2
    return float(np.max(np.abs(result.density - want)[window]))


def _semicircle_add_density(rng, jobs):
    import numpy as np

    edge = 2 * math.sqrt(2)
    xs = np.linspace(-3.2, 3.2, 321)
    result = conv.free_add_density(W, W, xs)
    want = catalog.catalog_density("semicircle", (0, 2), xs)
    window = np.abs(xs) <= edge - 0.15
    return float(np.max(np.abs(result.density - want)[window]))


def _stieltjes_inversion_mp(rng, jobs):
    import numpy as np

    xs = np.linspace(-0.4, 4.4, 481)
    inv = transforms.stieltjes_invert(lambda z: transforms.cauchy(M, z), xs)
    want = catalog.catalog_density("marchenko_pastur", (1,), xs)
    window = (xs >= 0.1) & (xs <= 3.9)
    return float(np.max(np.abs(inv.density - want)[window]))


def _quarter_circle_kurtosis(rng, jobs):
    dev = 0.0
    for s in (0.5, 1, 2):
        res = idclass.kurtosis_check(MeasureSpec.from_law("quarter_circle", (s,)))
        dev = max(dev, abs(res.value - (-0.0233443)))
    return dev


def _wplus_regular_form(rng, jobs):
    try:
        idclass.to_regular_form(idclass.FreeTriplet(2, 1))
    except ValueError as exc:
        return 0.0 if "semicircular part" in str(exc) else 1.0
    return 1.0


def _cfp_regular_form(rng, jobs):
    rho = MeasureSpec.atomic([(Fraction(1, 2), Fraction(2, 5)), (3, Fraction(3, 5))])
    form = idclass.cfp_regular_form(Fraction(3, 2), rho)
    ok = (
        form.drift == 0
        and form.is_free_regular
        and form.free_cumulants(6).values == idclass.cfp(Fraction(3, 2), rho, 6).values
    )
    return 0.0 if ok else 1.0


def _wplus_scan_edges(rng, jobs):
    return _wplus_scan_dev([0.5, 2])


def _wplus_scan_dev(ts):
    """Largest distance of the scanned left edges of (w+)^{boxplus t}, t in
    ts, from 2t - 2 sqrt(t)."""
    return _scan_dev(idclass.RModel.semicircle(2, 1), ts, lambda t: 2 * t - 2 * math.sqrt(t))


def _scan_dev(model, ts, exact):
    """Largest distance of positivity_scan's left edges of model's
    mu^{boxplus t}, t in ts, from exact(t); inf for a missing or NaN edge,
    which max() would skip."""
    dev = 0.0
    for point in idclass.positivity_scan(model, ts).points:
        if point.left_edge is None or math.isnan(point.left_edge):
            return math.inf
        dev = max(dev, abs(point.left_edge - exact(point.t)))
    return dev


def _scan_edge_routes(rng, jobs):
    """Largest distance of the critical-value edges of positivity_scan from
    their closed forms, one t each: t mean - 2 sqrt(t var) for a
    semicircle, (1 - sqrt(rate t))^2 for a free Poisson law and
    a (1 - sqrt(lam t))^2 for a compound Poisson law with one jump a."""
    return max(
        _scan_dev(idclass.RModel.semicircle(2, 1), [0.5], lambda t: t * 2 - 2 * math.sqrt(t * 1)),
        _scan_dev(idclass.RModel.free_poisson(1), [2.0], lambda t: (1 - math.sqrt(1 * t)) ** 2),
        _scan_dev(idclass.RModel.cfp_atomic(2.0, [(0.5, 1)]), [1.5],
                  lambda t: 0.5 * (1 - math.sqrt(2.0 * t)) ** 2),
    )


def _origin_divergence_m(rng, jobs):
    res = idclass.thm110_check(M)
    return 0.0 if (res.condition == "integral_divergent" and res.regular) else 1.0


def _meixner_support_rule(rng, jobs):
    inside = idclass.levy_meixner(3, 1, 1)
    crossing = idclass.levy_meixner(0, 1, 1)
    return 0.0 if (inside.regular and not crossing.regular) else 1.0


def _voiculescu_pair_boundary(rng, jobs):
    good = idclass.prop345_check(idclass.voiculescu_pair(M))
    bad = idclass.prop345_check(idclass.voiculescu_pair(W))
    ok = good.passed and good.phi_at_zero == 0 and not bad.passed
    return 0.0 if ok else 1.0


# ---------------------------------------------------------------------------
# registry and report


@dataclass(frozen=True)
class Check:
    name: str
    suite: str
    anchor: str
    tolerance: float
    fn: object


CHECKS = (
    Check("w2_equals_m", "identities",
          "push_square(w) = m", 1e-12, _w2_equals_m),
    Check("square_product", "identities",
          "(mu x nu)^2 = mu x mu x nu^2", 1e-12, _square_product),
    Check("commutator_mm_cfp", "identities",
          "m [] m = cfp(2, m x b)", 1e-12, _commutator_mm_cfp),
    Check("commutator_square_route", "identities",
          "(mu^2 x b)^{+2} = mu [] mu", 1e-12, _commutator_square_route),
    Check("commutator_odd_invariance", "identities",
          "commutator ignores odd cumulants", 1e-12, _commutator_odd_invariance),
    Check("dilation_mult_power", "identities",
          "D_{t^{s-1}}((mu^{xs})^{+t}) = (mu^{+t})^{xs}", 1e-9, _eq_1418),
    Check("boolean_free_power", "identities",
          "lift((mu^{+(1-t)})^{u t/(1-t)}) = mu^{u t}", 1e-10,
          _boolean_free_power),
    Check("s_product_rule", "identities",
          "S_{mu x nu} = S_mu S_nu", 1e-9, _s_product_rule),
    Check("cumulant_inversion_routes", "identities",
          "series inversion = NC recursion", 1e-10, _cumulant_inversion_routes),
    Check("conversion_round_trips", "identities",
          "moments <-> cumulants round trips", 1e-12, _round_trips),
    Check("triplet_round_trip", "identities",
          "regular form <-> triplet drift", 1e-12, _triplet_round_trip),
    Check("main3_factorization", "identities",
          "kappa_n(sigma) = kappa_{2n}(mu), mu^2 = m x sigma", 1e-12,
          _main3_factorization),
    Check("commutator_ww_density", "densities",
          "density of m + reflect(m) matches the closed form", 2e-3,
          _commutator_ww_density),
    Check("semicircle_add_density", "densities",
          "w + w = semicircle(0,2) away from the edges", 1e-3,
          _semicircle_add_density),
    Check("stieltjes_inversion_mp", "densities",
          "invert(cauchy(m)) = density(m) away from the edges", 1e-3,
          _stieltjes_inversion_mp),
    Check("quarter_circle_kurtosis", "regularity",
          "kurtosis statistic of the quarter circle", 1e-6,
          _quarter_circle_kurtosis),
    Check("wplus_regular_form", "regularity",
          "to_regular_form refuses a > 0", 0.0, _wplus_regular_form),
    Check("cfp_regular_form", "regularity",
          "compound Poisson jumps give drift 0 on (0, oo)", 0.0,
          _cfp_regular_form),
    Check("wplus_scan_edges", "regularity",
          "left edge of (w+)^{+t} = 2t - 2 sqrt(t)", 1e-3, _wplus_scan_edges),
    Check("scan_edge_routes", "regularity",
          "critical-value scan edge = closed-form edge", 1e-4, _scan_edge_routes),
    Check("origin_divergence_m", "regularity",
          "int dm/x diverges at 0", 0.0, _origin_divergence_m),
    Check("meixner_support_rule", "regularity",
          "meixner levy fits (0, oo) iff a >= 2 sqrt(b)", 0.0,
          _meixner_support_rule),
    Check("voiculescu_pair_boundary", "regularity",
          "phi(-0) = 0 for m, -inf for w", 0.0, _voiculescu_pair_boundary),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    anchor: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return math.isfinite(self.deviation) and self.deviation <= self.tolerance


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    seed: int
    results: tuple

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def render(self) -> str:
        lines = [f"freeconv verify  suite={self.suite}  seed={self.seed}"]
        name_w = max(len(r.name) for r in self.results)
        anchor_w = max(len(r.anchor) for r in self.results)
        for r in self.results:
            status = "pass" if r.passed else "FAIL"
            dev = f"{r.deviation:.3e}" if math.isfinite(r.deviation) else "non-finite"
            lines.append(
                f"{r.name:<{name_w}}  {r.anchor:<{anchor_w}}  "
                f"dev={dev}  tol={r.tolerance:.1e}  {status}"
            )
        passed = sum(r.passed for r in self.results)
        lines.append(f"summary: {passed}/{len(self.results)} checks passed")
        return "\n".join(lines)


def run_verify(suite: str = "all", seed: int = DEFAULT_SEED) -> VerifyReport:
    """Run the named check suite; deterministic for a fixed seed. Checks run
    as fn(rng, 1): none uses jobs, which stays for perfbench's calls."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    results = []
    for check in CHECKS:
        if suite != "all" and check.suite != suite:
            continue
        rng = random.Random(f"{seed}:{check.name}")
        deviation = check.fn(rng, 1)
        results.append(
            CheckResult(check.name, check.anchor, float(deviation), check.tolerance)
        )
    return VerifyReport(suite, seed, tuple(results))
