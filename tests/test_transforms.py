"""Formal series algebra, cumulant extraction routes, numeric transforms."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeconv import conv, ncpart, transforms
from freeconv.catalog import MeasureSpec, catalog_density, catalog_moments
from freeconv.ncpart import SeqN, catalan
from freeconv.transforms import (
    FormalSeries,
    boolean_k,
    cauchy,
    eta_series,
    f_transform,
    free_cumulant_series,
    free_cumulant_series_via_inversion,
    moments_from_s_series,
    psi_series,
    s_series,
    s_square_relation_check,
    stieltjes_invert,
    transform_map,
)

# ---------------------------------------------------------------------------
# FormalSeries algebra


def test_constructor_normalizes_and_pads():
    f = FormalSeries(0, [0, 0, 3, 1])
    assert f.lo == 2 and f.coeffs == (3, 1) and f.top == 3
    g = FormalSeries(1, [2], top=4)
    assert g.coeffs == (2, 0, 0, 0)
    z = FormalSeries.zero(5)
    assert z.is_zero and z.top == 5 and z.coeff(3) == 0


def test_coeff_access_and_truncation_guard():
    f = FormalSeries(1, [1, 2, 3])
    assert f.coeff(0) == 0 and f.coeff(2) == 2
    with pytest.raises(ValueError, match="beyond truncation"):
        f.coeff(4)
    with pytest.raises(ValueError, match="cannot extend"):
        f.truncated(7)
    assert f.truncated(2).coeffs == (1, 2)


def test_add_tracks_minimum_truncation():
    a = FormalSeries(0, [1, 1, 1])  # top 2
    b = FormalSeries(0, [1, 1, 1, 1, 1])  # top 4
    s = a + b
    assert s.top == 2 and s.coeffs == (2, 2, 2)
    t = a + 5
    assert t.coeff(0) == 6
    u = FormalSeries(2, [7]) + 1
    assert u.coeff(0) == 1 and u.coeff(2) == 7


def test_mul_truncation_bookkeeping():
    a = FormalSeries(0, [1, 1], top=2)
    b = FormalSeries(0, [1], top=1)
    p = a * b
    assert p.top == 1
    with pytest.raises(ValueError):
        p.coeff(2)
    # valuation improves the bound: exact z * (known to z^3) is known to z^4
    q = FormalSeries(1, [1], top=4) * FormalSeries(0, [1, 1, 1, 1])
    assert q.top == 4 and q.coeffs == (1, 1, 1, 1)


def test_scalar_ops_and_negation():
    f = FormalSeries(1, [Fraction(1), Fraction(2)])
    assert (f * 2).coeffs == (2, 4)
    assert (f / 2).coeffs == (Fraction(1, 2), Fraction(1))
    assert (-f).coeffs == (-1, -2)
    assert (3 - f).coeff(0) == 3 and (3 - f).coeff(1) == -1


def test_division_geometric_series():
    one = FormalSeries.poly([1], 6)
    denom = FormalSeries.poly([1, -1], 6)
    geo = one / denom
    assert geo.coeffs == (1,) * 7
    back = geo * denom
    assert all(back.coeff(k) == (1 if k == 0 else 0) for k in range(back.top + 1))
    # reciprocal via scalar numerator
    geo2 = 1 / denom
    assert geo2.coeffs == (1,) * 7


def test_division_with_valuations():
    num = FormalSeries(1, [1, 1, 1, 1])  # z + z^2 + z^3 + z^4
    den = FormalSeries(1, [1, -1], top=4)  # z - z^2
    q = num / den
    assert q.lo == 0
    # (1+z+z^2+z^3)/(1-z) = 1 + 2z + 3z^2 + ...
    assert q.coeff(0) == 1 and q.coeff(1) == 2 and q.coeff(2) == 3


def test_divide_by_zero_series():
    with pytest.raises(ZeroDivisionError):
        FormalSeries.poly([1], 3) / FormalSeries.zero(3)


def test_compose():
    f = FormalSeries(1, [1, 1, 1])  # z + z^2 + z^3
    g = FormalSeries(1, [1, 1], top=3)  # z + z^2
    h = f.compose(g)
    assert [h.coeff(k) for k in range(1, 4)] == [1, 2, 3]
    with pytest.raises(ValueError, match="valuation"):
        f.compose(FormalSeries.poly([1, 1], 3))


def test_reversion_catalan():
    f = FormalSeries(1, [1, -1], top=5)  # z - z^2
    inv = f.reverted()
    assert inv.coeffs == (1, 1, 2, 5, 14)
    # f(inv(z)) = z
    comp = f.compose(inv)
    assert comp.coeff(1) == 1
    assert all(comp.coeff(k) == 0 for k in range(2, comp.top + 1))


def test_reversion_requires_valuation_one():
    with pytest.raises(ValueError, match="valuation"):
        FormalSeries(2, [1, 1]).reverted()
    with pytest.raises(ValueError, match="valuation"):
        FormalSeries.poly([1, 1], 3).reverted()


def test_evaluate_and_shift():
    f = FormalSeries(1, [1, 1])  # z + z^2
    assert f.evaluate(0.5) == 0.75
    g = f.shifted(-1)  # 1 + z
    assert g.lo == 0 and g.evaluate(0.25) == 1.25
    h = f.shifted(-2)  # 1/z + 1
    assert h.evaluate(2.0) == pytest.approx(1.5)
    arr = f.evaluate(np.array([0.5, 1.0]))
    assert arr == pytest.approx([0.75, 2.0])


coeff_st = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


@settings(max_examples=50, deadline=None)
@given(st.lists(coeff_st, min_size=2, max_size=7))
def test_reversion_is_involutive(coeffs):
    if coeffs[0] == 0:
        coeffs[0] = Fraction(1)
    f = FormalSeries(1, coeffs)
    back = f.reverted().reverted()
    assert all(back.coeff(k) == f.coeff(k) for k in range(1, back.top + 1))


exact_st = st.one_of(st.integers(-4, 4), coeff_st)


@settings(max_examples=60, deadline=None)
@given(
    exact_st.filter(lambda c: c not in (0, 1)),
    st.lists(exact_st, max_size=9),
)
def test_reversion_round_trip_exact(lead, rest):
    # compose (Horner evaluation) is the oracle for the Lagrange inversion
    f = FormalSeries(1, [lead, *rest])
    inv = f.reverted()
    assert inv.lo == 1 and inv.top == f.top
    assert all(type(c) is Fraction for c in inv.coeffs)
    assert f.compose(inv) == FormalSeries.identity(f.top)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(coeff_st, min_size=1, max_size=6),
    st.lists(coeff_st, min_size=1, max_size=6),
)
def test_multiplication_commutes(a, b):
    fa = FormalSeries(0, a)
    fb = FormalSeries(0, b)
    p, q = fa * fb, fb * fa
    assert p.top == q.top
    assert all(p.coeff(k) == q.coeff(k) for k in range(min(p.top + 1, 8)))


@settings(max_examples=50, deadline=None)
@given(st.lists(coeff_st, min_size=2, max_size=6))
def test_multiply_then_divide_roundtrip(b):
    if b[0] == 0:
        b[0] = Fraction(1)
    fb = FormalSeries(0, b)
    fa = FormalSeries(0, [1, 2, 3, 4, 5, 6][: len(b)])
    q = (fa * fb) / fb
    assert all(q.coeff(k) == fa.coeff(k) for k in range(q.top + 1))


# ---------------------------------------------------------------------------
# cumulant extraction: functional inversion vs lattice recursion


LAW_CASES = [
    ("semicircle", (0, 1)),
    ("semicircle", (Fraction(1, 2), Fraction(3, 2))),
    ("marchenko_pastur", (1,)),
    ("marchenko_pastur", (Fraction(7, 4),)),
    ("symmetric_bernoulli", ()),
    ("symmetric_beta", ()),
    ("chi_squared_1", ()),
    ("commutator_ww", ()),
]


@pytest.mark.parametrize("law,params", LAW_CASES)
def test_inversion_route_matches_lattice_route(law, params):
    m = catalog_moments(law, params, 10)
    via_inv = free_cumulant_series_via_inversion(m, 10)
    via_nc = free_cumulant_series(m, 10)
    for n in range(1, 11):
        a, b = via_inv.coeff(n), via_nc.coeff(n)
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            assert a == b, f"order {n}"
        else:
            assert float(a) == pytest.approx(float(b), abs=1e-10), f"order {n}"


@settings(max_examples=40, deadline=None)
@given(st.lists(coeff_st, min_size=1, max_size=8))
def test_inversion_route_random_exact(ms):
    m = SeqN("moment", ms)
    via_inv = free_cumulant_series_via_inversion(m, m.order)
    via_nc = ncpart.free_cumulants_from_moments(m)
    assert all(via_inv.coeff(n) == via_nc.at(n) for n in range(1, m.order + 1))


def test_psi_series_from_measure():
    mu = MeasureSpec.from_law("marchenko_pastur", (1,))
    psi = psi_series(mu, 5)
    assert psi.coeffs == tuple(Fraction(catalan(n)) for n in range(1, 6))


def test_eta_series_matches_interval_recursion():
    m = catalog_moments("chi_squared_1", (), 8)
    eta = eta_series(m, 8)
    r = ncpart.boolean_cumulants_from_moments(m)
    assert all(eta.coeff(n) == r.at(n) for n in range(1, 9))


# ---------------------------------------------------------------------------
# S-transform series


def test_s_series_marchenko_pastur():
    m = catalog_moments("marchenko_pastur", (1,), 8)
    s = s_series(m, 8)
    assert [s.coeff(k) for k in range(8)] == [(-1) ** k for k in range(8)]


def test_s_series_point_mass():
    m = SeqN("moment", [Fraction(3) ** n for n in range(1, 7)])
    s = s_series(m, 6)
    assert s.coeff(0) == Fraction(1, 3)
    assert all(s.coeff(k) == 0 for k in range(1, 6))


def test_s_series_rejects_centered():
    with pytest.raises(ValueError, match="first moment"):
        s_series(catalog_moments("semicircle", (0, 1), 6), 6)


def test_s_series_roundtrip_random():
    import random

    rng = random.Random(11)
    for _ in range(25):
        ms = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(8)]
        if ms[0] == 0:
            ms[0] = Fraction(1, 2)
        m = SeqN("moment", ms)
        s = s_series(m, 8)
        back = moments_from_s_series(s, 8)
        assert back.values == m.values


@pytest.mark.parametrize(
    "a,b",
    [
        ([(0.5, 0.25), (1.5, 0.75)], [(0.25, 0.5), (2.0, 0.5)]),
        ([(0.2, 0.3), (1.1, 0.7)], [(0.7, 0.6), (1.3, 0.4)]),
        ([(0.1, 0.125), (0.9, 0.375), (1.7, 0.5)], [(0.3, 0.25), (1.2, 0.75)]),
    ],
)
def test_float_s_route_product_matches_exact(a, b):
    def exact(atoms):
        return MeasureSpec.atomic([(Fraction(x), Fraction(w)) for x, w in atoms])

    order = 16
    got = conv.free_mult_report(MeasureSpec.atomic(a), MeasureSpec.atomic(b), order)
    want = conv.free_mult_report(exact(a), exact(b), order).dp.values
    scale = max(abs(v) for v in want)
    err = max(abs(x - y) for x, y in zip(got.series.values, want)) / scale
    assert err <= 1e-9


def test_series_routes_never_call_ncpart(monkeypatch):
    m = SeqN("moment", [Fraction(1, 2), Fraction(3, 4), Fraction(-1, 3), 2, Fraction(5, 7)])
    kappa = ncpart.free_cumulants_from_moments(m)
    product = ncpart.free_mult_moments(m, m)

    def boom(*args, **kwargs):
        raise AssertionError("the series route reached the ncpart kernel")

    monkeypatch.setattr(ncpart, "_nc_kernel", boom)
    monkeypatch.setattr(ncpart, "_alternating_product_moments", boom)
    with pytest.raises(AssertionError):
        ncpart.free_cumulants_from_moments(m)
    with pytest.raises(AssertionError):
        ncpart.free_mult_moments(m, m)

    via_inv = free_cumulant_series_via_inversion(m, m.order)
    assert via_inv.coeffs == kappa.values
    s = s_series(m, m.order)
    assert moments_from_s_series(s, m.order).values == m.values
    assert moments_from_s_series(s * s, m.order).values == product.values


def test_moments_from_s_series_validates():
    s = s_series(catalog_moments("marchenko_pastur", (1,), 6), 6)
    with pytest.raises(ValueError, match="need S through"):
        moments_from_s_series(s, 8)
    with pytest.raises(ValueError, match="constant term"):
        moments_from_s_series(FormalSeries(1, [1, 1]), 2)


# ---------------------------------------------------------------------------
# S-transform square relation


def test_square_relation_exact_on_rational_input():
    mu = MeasureSpec.atomic(
        [(Fraction(1, 2), Fraction(1, 4)), (Fraction(2), Fraction(3, 4))]
    )
    rep = s_square_relation_check(mu, 8)
    assert rep.quotient_dev == 0 and rep.inverse_dev == 0 and rep.sqrt_dev == 0
    assert rep.passed and rep.max_dev == 0


def test_square_relation_marchenko_pastur():
    rep = s_square_relation_check(MeasureSpec.from_law("marchenko_pastur", (1,)), 10)
    assert rep.passed


def test_square_relation_order_capped_at_entry():
    # the square root doubles the order, so the cap is half the conversion cap
    mu = MeasureSpec.from_law("marchenko_pastur", (1,))
    assert ncpart.CONVERSION_CAP // 2 == 10
    with pytest.raises(ValueError, match=r"s_square_relation_check capped at order 10, got 11"):
        s_square_relation_check(mu, 11)


def test_square_relation_rejects_centered():
    with pytest.raises(ValueError, match="first moment"):
        s_square_relation_check(MeasureSpec.from_law("semicircle", (0, 1)), 6)


# ---------------------------------------------------------------------------
# numeric Cauchy transforms


def test_atomic_cauchy_exact():
    mu = MeasureSpec.atomic([(1, Fraction(1, 2)), (-1, Fraction(1, 2))])
    z = 0.3 + 0.7j
    want = 0.5 / (z - 1) + 0.5 / (z + 1)
    assert cauchy(mu, z) == pytest.approx(want, rel=1e-14)
    arr = cauchy(mu, np.array([z, 2 * z]))
    assert arr[0] == pytest.approx(want, rel=1e-14)


def test_law_cauchy_affine_and_reflection():
    base = MeasureSpec.from_law("semicircle", (0, 1))
    moved = MeasureSpec.from_law("semicircle", (0, 1), scale=2, offset=1)
    z = 0.4 + 1.1j
    assert cauchy(moved, z) == pytest.approx(0.5 * cauchy(base, (z - 1) / 2), rel=1e-12)
    refl = MeasureSpec.from_law("marchenko_pastur", (1,), scale=-1)
    want = -np.conj(cauchy(MeasureSpec.from_law("marchenko_pastur", (1,)), -np.conj(z)))
    assert cauchy(refl, z) == pytest.approx(want, rel=1e-12)
    assert cauchy(refl, z).imag < 0


def test_law_cauchy_includes_atom():
    mp = MeasureSpec.from_law("marchenko_pastur", (Fraction(1, 4),))
    z = 0.1 + 0.2j
    ac = cauchy(MeasureSpec.from_law("marchenko_pastur", (Fraction(1, 4),), offset=0), z)
    # the closed form carries the atom: compare against expansion at infinity
    big = 50.0 + 5.0j
    m1 = float(catalog_moments("marchenko_pastur", (0.25,), 1).at(1))
    assert cauchy(mp, big) == pytest.approx(1 / big + m1 / big**2, abs=1e-5)
    assert ac.imag < 0


def test_quad_fallback_law_cauchy():
    mu = MeasureSpec.from_law("quarter_circle", (1,))
    z = 0.5 + 0.8j
    from scipy.integrate import quad

    re, _ = quad(
        lambda x: (catalog_density("quarter_circle", (1,), x) * (z - x).real / abs(z - x) ** 2),
        0, 2, limit=300,
    )
    im, _ = quad(
        lambda x: (-catalog_density("quarter_circle", (1,), x) * z.imag / abs(z - x) ** 2),
        0, 2, limit=300,
    )
    assert cauchy(mu, z) == pytest.approx(re + 1j * im, rel=1e-8)


def test_grid_cauchy_matches_law():
    xs = np.linspace(-2, 2, 3001)
    mu = MeasureSpec.grid(xs, catalog_density("semicircle", (0, 1), xs), norm_tol=1e-3)
    law = MeasureSpec.from_law("semicircle", (0, 1))
    for z in (0.5 + 0.5j, -1.0 + 0.2j, 3.0 + 0.05j):
        assert cauchy(mu, z) == pytest.approx(cauchy(law, z), rel=1e-3)


def test_grid_cauchy_near_axis_guard():
    xs = np.linspace(-2, 2, 101)
    mu = MeasureSpec.grid(xs, catalog_density("semicircle", (0, 1), xs), norm_tol=1e-2)
    with pytest.raises(ValueError, match="real axis"):
        cauchy(mu, 0.5 + 1e-4j)
    # far from the support the guard does not bite
    cauchy(mu, 10.0 + 1e-6j)


def test_moment_representation_has_no_cauchy():
    with pytest.raises(ValueError, match="no global Cauchy"):
        cauchy(MeasureSpec.from_moments([1, 2]), 1j)


def test_f_and_boolean_k_point_mass():
    mu = MeasureSpec.atomic([(Fraction(3, 2), 1)])
    z = 0.2 + 1.5j
    assert f_transform(mu, z) == pytest.approx(z - 1.5, rel=1e-14)
    assert boolean_k(mu, z) == pytest.approx(1.5, rel=1e-12)


def test_transform_map():
    mu = MeasureSpec.from_law("semicircle", (0, 1))
    g = transform_map(mu, "cauchy")
    assert g.kind == "cauchy" and "semicircle" in g.label
    assert g(2j) == pytest.approx(cauchy(mu, 2j))
    with pytest.raises(ValueError, match="unknown transform"):
        transform_map(mu, "mellin")


def test_herglotz_property_random_points():
    rng = np.random.default_rng(3)
    zs = rng.uniform(-3, 3, 25) + 1j * rng.uniform(0.05, 2, 25)
    for mu in (
        MeasureSpec.from_law("semicircle", (0.3, 1.2)),
        MeasureSpec.from_law("marchenko_pastur", (0.5,)),
        MeasureSpec.atomic([(0, 0.25), (1.5, 0.75)]),
    ):
        g = cauchy(mu, zs)
        assert np.all(g.imag < 0)


# ---------------------------------------------------------------------------
# Stieltjes inversion


def test_invert_semicircle():
    mu = MeasureSpec.from_law("semicircle", (0, 1))
    xs = np.linspace(-2.2, 2.2, 881)
    res = stieltjes_invert(lambda z: cauchy(mu, z), xs)
    want = catalog_density("semicircle", (0, 1), xs)
    err = np.abs(res.density - want)
    # extrapolation degrades only in a boundary layer of width ~eps at the
    # square-root edge; the interior is three orders better
    assert np.max(err) < 1e-2
    assert np.max(err[np.abs(xs) <= 1.95]) < 1e-5
    assert np.max(err[np.abs(xs) <= 1.5]) < 1e-6
    assert res.atoms == ()
    assert abs(res.renorm - 1) < 1e-3
    assert res.total_mass == pytest.approx(1.0, abs=1e-6)


def test_invert_detects_atom():
    law = MeasureSpec.from_law("semicircle", (0, 1))

    def g(z):
        return 0.7 * cauchy(law, z) + 0.3 / (z - 2.5)

    xs = np.linspace(-2.5, 3.0, 1101)  # includes 2.5 exactly
    res = stieltjes_invert(g, xs)
    assert len(res.atoms) == 1
    loc, w = res.atoms[0]
    assert loc == pytest.approx(2.5, abs=5e-3)
    assert w == pytest.approx(0.3, abs=1e-3)
    assert any("atom" in msg for msg in res.warnings)
    # density elsewhere still tracks 0.7 * semicircle
    inner = np.abs(xs) < 1.0
    want = 0.7 * catalog_density("semicircle", (0, 1), xs[inner])
    assert np.max(np.abs(res.density[inner] - want)) < 1e-4


def test_invert_marchenko_pastur_atom_at_zero():
    mu = MeasureSpec.from_law("marchenko_pastur", (0.25,))
    xs = np.linspace(-0.5, 2.5, 1201)
    res = stieltjes_invert(lambda z: cauchy(mu, z), xs)
    assert len(res.atoms) == 1
    loc, w = res.atoms[0]
    assert loc == pytest.approx(0.0, abs=5e-3)
    assert w == pytest.approx(0.75, abs=5e-3)


def test_invert_marchenko_pastur_atom_pinned():
    # bit patterns of the detected atom and the renorm factor at rate 0.4
    mu = MeasureSpec.from_law("marchenko_pastur", (0.4,))
    xs = np.linspace(-0.5, 3.5, 801)
    res = stieltjes_invert(lambda z: cauchy(mu, z), xs)
    assert [(loc.hex(), w.hex()) for loc, w in res.atoms] == [
        ("0x0.0p+0", "0x1.333330bc146f1p-1")
    ]
    assert res.renorm.hex() == "0x1.ffffb37e6a92ep-1"


def test_invert_warns_on_bad_transform():
    # pole in the upper half plane: anti-Herglotz, negative density
    def g(z):
        return 1 / (z - 0.5j)

    xs = np.linspace(-1, 1, 201)
    res = stieltjes_invert(g, xs, renormalize=False)
    assert any("negative density" in msg for msg in res.warnings)
    assert np.all(res.density >= 0)


# ---------------------------------------------------------------------------
# edge bisection


def _bisect_one_point(above, inside, outside, xtol):
    """One-point bisection, the reference the batched _bisect_edge must equal."""
    steps = 0
    while abs(outside - inside) > xtol:
        mid = (inside + outside) / 2
        inside, outside = (mid, outside) if above(mid) else (inside, mid)
        steps += 1
    return (inside + outside) / 2, steps


@st.composite
def _predicates(draw):
    """A half-line (monotone) or a union of 1-4 intervals (not monotone)."""
    ends = st.floats(-12, 12)
    if draw(st.booleans()):
        c, right = draw(ends), draw(st.booleans())
        return lambda x: (x > c) if right else (x < c)
    spans = [sorted(draw(st.tuples(ends, ends))) for _ in range(draw(st.integers(1, 4)))]
    return lambda x: any(a <= x <= b for a, b in spans)


@settings(max_examples=300, deadline=None)
@given(
    inside=st.floats(-10, 10),
    width=st.floats(1e-3, 10),
    side=st.sampled_from([-1, 1]),
    halvings=st.floats(-1, 30),
    pred=_predicates(),
)
def test_bisect_edge_equals_one_point_bisection(inside, width, side, halvings, pred):
    outside = inside + side * width
    xtol = width * 2.0**-halvings
    calls = []

    def batched(xs):
        calls.append(len(xs))
        return np.array([pred(float(x)) for x in xs])

    want, steps = _bisect_one_point(pred, inside, outside, xtol)
    got = transforms._bisect_edge(batched, inside, outside, xtol)
    assert got == want
    assert len(calls) <= 1 + math.ceil(steps / transforms._EDGE_DEPTH)
