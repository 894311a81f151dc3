"""Acceptance gate: one test per shipped guarantee.

Each test prints a single line with the measured deviation, the declared
tolerance, and the runtime, then asserts both. Exact checks compare
rational values with == and report a deviation of 0.
"""

import math
import random
import time
from fractions import Fraction

from freeconv import catalog, conv
from freeconv.ncpart import SeqN
from freeconv.verify import (
    M,
    W,
    _boolean_free_power_dev,
    _cfp_regular_form,
    _commutator_mm_cfp_sides,
    _commutator_odd_invariance_sides,
    _commutator_square_route_sides,
    _commutator_ww_density,
    _cumulant_inversion_routes,
    _dilation_mult_power_dev,
    _even_cumulants,
    _fraction,
    _main3_cfp_dev,
    _odd_perturbation,
    _positive_atomic,
    _quarter_circle_kurtosis,
    _random_triplet,
    _round_trip_dev,
    _s_product_rule,
    _seq_dev,
    _square_product_sides,
    _symmetric_atomic,
    _triplet_round_trip_dev,
    _w2_equals_m,
    _wplus_regular_form,
    _wplus_scan_dev,
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
    dev = _quarter_circle_kurtosis(None, 1)
    _report(1, "quarter_circle_kurtosis", dev, 1e-6, time.perf_counter() - t0, 1)


def test_02_free_difference_density_and_edge():
    t0 = time.perf_counter()
    dev = _commutator_ww_density(None, 1)
    edge = conv.support_edge(M, catalog.reflect(M), 3.0, 3.8)
    target = math.sqrt((11 + 5 * math.sqrt(5)) / 2)
    assert abs(edge - target) <= 5e-2, f"edge {edge} vs {target}"
    _report(2, "free_difference_density", dev, 2e-3,
            time.perf_counter() - t0, 30)


def test_03_semicircle_square_moments():
    # exact moments of w^2 against those of m, the Catalan numbers
    t0 = time.perf_counter()
    dev = _w2_equals_m(None, 1)
    _report(3, "square_of_semicircle", dev, 0.0, time.perf_counter() - t0, 1)


def test_04_symmetric_cfp_factorization():
    t0 = time.perf_counter()
    rng = random.Random("acceptance:main3")
    dev = 0.0
    for _ in range(50):
        lam = Fraction(rng.randint(1, 36), 12)
        dev = max(dev, _main3_cfp_dev(lam, _symmetric_atomic(rng)))
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
    dev = max(_wplus_regular_form(None, 1), _cfp_regular_form(None, 1))
    edge_dev = _wplus_scan_dev([0.25, 0.5, 1, 2])
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
        dev = max(dev, _round_trip_dev(SeqN("moment", vals)))

    for _ in range(25):
        dev = max(dev, _triplet_round_trip_dev(_random_triplet(rng)))

    _report(10, "conversion_round_trips", dev, 1e-12,
            time.perf_counter() - t0, 5)


def test_11_boolean_free_power_identity():
    t0 = time.perf_counter()
    dev = 0.0
    for mu in (W, M):
        for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            dev = max(dev, _boolean_free_power_dev(mu, t, 8))
    _report(11, "boolean_free_power", dev, 1e-10, time.perf_counter() - t0, 2)
