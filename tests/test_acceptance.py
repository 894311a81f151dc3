"""Acceptance gate: one test per shipped guarantee.

Each test prints a single line with the measured deviation, the declared
tolerance, and the runtime, then asserts both. Exact checks compare
rational values with == and report a deviation of 0.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from freeconv import catalog, conv, idclass, ncpart
from freeconv.catalog import MeasureSpec
from freeconv.ncpart import SeqN
from freeconv.verify import (
    M,
    W,
    _boolean_free_power_dev,
    _commutator_mm_cfp_sides,
    _commutator_odd_invariance_sides,
    _commutator_square_route_sides,
    _cumulant_inversion_routes,
    _dilation_mult_power_dev,
    _even_cumulants,
    _fraction,
    _odd_perturbation,
    _positive_atomic,
    _s_product_rule,
    _seq_dev,
    _square_product_sides,
    _symmetric_atomic,
)


def _report(num, name, dev, tol, elapsed, budget):
    ok = dev <= tol and elapsed < budget
    print(
        f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}  "
        f"dev={float(dev):.3e}  tol={tol:.1e}  time={elapsed:.2f}s/{budget:.0f}s"
    )
    assert dev <= tol, f"{name}: deviation {dev} exceeds {tol}"
    assert elapsed < budget, f"{name}: took {elapsed:.2f}s, budget {budget}s"


def test_01_quarter_circle_kurtosis():
    t0 = time.perf_counter()
    dev = 0.0
    for sigma in (0.5, 1, 2):
        res = idclass.kurtosis_check(
            MeasureSpec.from_law("quarter_circle", (sigma,))
        )
        dev = max(dev, abs(float(res.value) - (-0.0233443)))
    _report(1, "quarter_circle_kurtosis", dev, 1e-6, time.perf_counter() - t0, 1)


def test_02_free_difference_density_and_edge():
    t0 = time.perf_counter()
    xs = np.linspace(-3.6, 3.6, 361)
    result = conv.free_add_density(M, catalog.reflect(M), xs)
    want = catalog.catalog_density("commutator_ww", (), xs)
    window = np.abs(xs) <= 2.2
    dev = float(np.max(np.abs(result.density - want)[window]))

    edge = conv.support_edge(M, catalog.reflect(M), 3.0, 3.8)
    target = math.sqrt((11 + 5 * math.sqrt(5)) / 2)
    assert abs(edge - target) <= 5e-2, f"edge {edge} vs {target}"
    _report(2, "free_difference_density", dev, 2e-3,
            time.perf_counter() - t0, 30)


def test_03_semicircle_square_moments():
    t0 = time.perf_counter()
    got = catalog.moments_of(catalog.push_square(W), 10)
    dev = 0.0
    for n in range(1, 11):
        if got.at(n) != ncpart.catalan(n):
            dev = 1.0
    _report(3, "square_of_semicircle", dev, 0.0, time.perf_counter() - t0, 1)


def test_04_symmetric_cfp_factorization():
    t0 = time.perf_counter()
    rng = random.Random("acceptance:main3")
    dev = 0.0
    for _ in range(50):
        lam = Fraction(rng.randint(1, 36), 12)
        rho = _symmetric_atomic(rng)
        kappa = idclass.cfp(lam, rho, 16)
        sigma = idclass.main3_factor(kappa)
        expected = idclass.cfp(lam, catalog.push_square(rho), 8)
        if sigma.values != expected.values:
            dev = max(dev, _seq_dev(sigma, expected))
        mu2 = catalog.moments_of(
            catalog.push_square(MeasureSpec.from_free_cumulants(kappa), 16), 8
        )
        routed = catalog.moments_of(
            conv.free_mult(M, MeasureSpec.from_free_cumulants(sigma), 8), 8
        )
        if mu2.values != routed.values:
            dev = max(dev, _seq_dev(mu2, routed))
    _report(4, "symmetric_cfp_factorization", dev, 0.0,
            time.perf_counter() - t0, 10)


def test_05_square_of_product():
    t0 = time.perf_counter()
    rng = random.Random("acceptance:square-product")
    dev = 0.0
    for _ in range(100):
        lhs, rhs = _square_product_sides(_positive_atomic(rng), _symmetric_atomic(rng))
        if lhs.values != rhs.values:
            dev = 1.0
    _report(5, "square_of_product", dev, 0.0, time.perf_counter() - t0, 10)


def test_06_power_dilation_identity():
    t0 = time.perf_counter()
    dev = 0.0
    for s in (2, 3):
        for t in (Fraction(1, 2), 1, 2, Fraction(7, 2)):
            dev = max(dev, _dilation_mult_power_dev(M, s, t, 8))
    _report(6, "power_dilation_identity", dev, 1e-9,
            time.perf_counter() - t0, 5)


def test_07_commutator_identities():
    t0 = time.perf_counter()
    dev = 0.0

    box, want = _commutator_mm_cfp_sides()
    if box.values != want.values:
        dev = max(dev, _seq_dev(box, want))

    rng = random.Random("acceptance:commutator")
    for _ in range(20):
        lhs, rhs = _commutator_square_route_sides(_even_cumulants(rng))
        if lhs.values != rhs.values:
            dev = max(dev, _seq_dev(lhs, rhs))

    base = _even_cumulants(rng)
    perturbed = [_odd_perturbation(rng, base) for _ in range(20)]
    for got, reference in _commutator_odd_invariance_sides(base, perturbed):
        if got.values != reference.values:
            dev = max(dev, _seq_dev(got, reference))

    _report(7, "commutator_identities", dev, 0.0, time.perf_counter() - t0, 10)


def test_08_regular_form_and_scan_edges():
    t0 = time.perf_counter()
    dev = 1.0
    try:
        idclass.to_regular_form(idclass.FreeTriplet(2, 1))
    except ValueError as exc:
        if "semicircular part" in str(exc):
            dev = 0.0

    rho = MeasureSpec.atomic([(Fraction(1, 2), Fraction(2, 5)), (3, Fraction(3, 5))])
    form = idclass.cfp_regular_form(Fraction(3, 2), rho)
    if not (form.drift == 0 and form.is_free_regular):
        dev = max(dev, 1.0)

    scan = idclass.positivity_scan(
        idclass.RModel.semicircle(2, 1), [0.25, 0.5, 1, 2]
    )
    edge_dev = max(
        abs(p.left_edge - (2 * p.t - 2 * math.sqrt(p.t))) for p in scan.points
    )
    _report(8, "regular_form_and_scan", max(dev, edge_dev), 1e-3,
            time.perf_counter() - t0, 20)


def test_09_cumulant_routes_and_s_product():
    t0 = time.perf_counter()
    dev = _cumulant_inversion_routes(None, 1)
    assert dev <= 1e-10
    s_dev = _s_product_rule(random.Random("acceptance:s-product"), 1, reps=50)
    _report(9, "cumulant_routes_and_s_product", max(dev, s_dev), 1e-9,
            time.perf_counter() - t0, 10)


def test_10_conversion_round_trips():
    t0 = time.perf_counter()
    rng = random.Random("acceptance:roundtrip")
    dev = 0.0
    for i in range(200):
        if i % 2:
            # arbitrary exact sequences: the conversions are polynomial
            # identities, so rationals must round trip with zero error
            vals = [_fraction(rng, -2, 2) for _ in range(rng.randint(1, 10))]
        else:
            # float sequences must be moments of an actual measure; on
            # [-1, 1] the round trip is well conditioned
            n = rng.randint(1, 4)
            locs = [rng.uniform(-1, 1) for _ in range(n)]
            ws = [rng.random() for _ in range(n)]
            tot = sum(ws)
            vals = [
                sum(w / tot * loc**k for loc, w in zip(locs, ws))
                for k in range(1, 11)
            ]
        m = SeqN("moment", vals)
        back_free = ncpart.moments_from_free_cumulants(
            ncpart.free_cumulants_from_moments(m)
        )
        back_bool = ncpart.moments_from_boolean_cumulants(
            ncpart.boolean_cumulants_from_moments(m)
        )
        dev = max(dev, _seq_dev(back_free, m), _seq_dev(back_bool, m))

    for _ in range(25):
        atoms = {}
        for _ in range(rng.randint(0, 3)):
            loc = _fraction(rng, 1, 36) / 12
            atoms[loc] = atoms.get(loc, 0) + _fraction(rng, 1, 24) / 12
        levy = idclass.LevyMeasure(atoms=tuple(atoms.items()))
        triplet = idclass.FreeTriplet(_fraction(rng, -3, 3), 0, levy)
        form = idclass.to_regular_form(triplet)
        if idclass.from_regular_form(form) != triplet:
            dev = max(dev, 1.0)
        if idclass.to_regular_form(idclass.from_regular_form(form)) != form:
            dev = max(dev, 1.0)

    _report(10, "conversion_round_trips", dev, 1e-12,
            time.perf_counter() - t0, 5)


def test_11_boolean_free_power_identity():
    t0 = time.perf_counter()
    dev = 0.0
    for mu in (W, M):
        for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            dev = max(dev, _boolean_free_power_dev(mu, t, 8))
    _report(11, "boolean_free_power", dev, 1e-10, time.perf_counter() - t0, 2)
