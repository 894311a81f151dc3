"""Formal series algebra, cumulant extraction routes, numeric transforms."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freeconv import catalog, conv, idclass, ncpart, transforms
from freeconv.catalog import MeasureSpec, catalog_density, catalog_moments
from freeconv.ncpart import SeqN
from freeconv.transforms import (
    _NEGATIVE_TOL,
    FormalSeries,
    boolean_k,
    cauchy,
    f_transform,
    free_cumulant_series_via_inversion,
    moments_from_s_series,
    s_series,
    stieltjes_invert,
)
from oracles import (
    bisect_edge_reference,
    grid_cauchy_reference,
    law_cauchy_quad,
    law_moments_quadrature,
    reverted_reference,
)
from test_catalog import QUAD_CASES
from test_ncpart import _hex

# ---------------------------------------------------------------------------
# FormalSeries algebra


def test_constructor_normalizes_and_pads():
    f = FormalSeries(0, [0, 0, 3, 1])
    assert f.lo == 2 and f.coeffs == (3, 1) and f.top == 3
    g = FormalSeries(1, [2], top=4)
    assert g.coeffs == (2, 0, 0, 0)
    z = FormalSeries.zero(5)
    assert z.is_zero and z.top == 5 and z.coeff(3) == 0


def test_truncation_below_the_lowest_term_leaves_zero():
    # a negative slice bound once kept coefficients past the truncation
    assert FormalSeries(3, [1, 2], top=1) == FormalSeries.zero(1)
    assert FormalSeries(3, [1, 2, 5], top=6).truncated(1) == FormalSeries.zero(1)


def test_coeff_access_and_truncation_guard():
    f = FormalSeries(1, [1, 2, 3])
    assert f.coeff(0) == 0 and f.coeff(2) == 2
    with pytest.raises(ValueError, match="beyond truncation"):
        f.coeff(4)
    with pytest.raises(ValueError, match="cannot extend"):
        f.truncated(7)
    assert f.truncated(2).coeffs == (1, 2)


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


def test_only_series_operands():
    x, y = FormalSeries(1, [Fraction(1), Fraction(2)]), FormalSeries.poly([1, 1], 3)
    for op in (lambda: x * 2, lambda: 2 * x, lambda: x / 2, lambda: 1 / x,
               lambda: x + y, lambda: x - 1, lambda: -x):
        with pytest.raises(TypeError):
            op()


def test_division_geometric_series():
    one = FormalSeries.poly([1], 6)
    denom = FormalSeries.poly([1, -1], 6)
    geo = one / denom
    assert geo.coeffs == (1,) * 7
    back = geo * denom
    assert all(back.coeff(k) == (1 if k == 0 else 0) for k in range(back.top + 1))


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


def _compose(f, g, top):
    """[z^0..z^top] of f(g(z)) by Horner's rule in plain Fraction arithmetic.

    f and g are coefficient lists from z^0 on; g must have g[0] == 0. This
    is the oracle for reversion, and shares no code with FormalSeries.
    """
    if g and g[0] != 0:
        raise ValueError("composition needs inner valuation >= 1")
    acc = [Fraction(0)] * (top + 1)
    for c in reversed(f):
        prod = [Fraction(0)] * (top + 1)
        for i, x in enumerate(acc):
            for j, y in enumerate(g[: top + 1 - i]):
                prod[i + j] += x * Fraction(y)
        acc = prod
        acc[0] += Fraction(c)
    return acc


def _coeff_list(f):
    """Coefficients of z^0..z^top of a series with lo >= 0."""
    return [f.coeff(k) for k in range(f.top + 1)]


def test_compose():
    f = [0, 1, 1, 1]  # z + z^2 + z^3
    g = [0, 1, 1, 0]  # z + z^2, known to z^3
    assert _compose(f, g, 3)[1:] == [1, 2, 3]
    with pytest.raises(ValueError, match="valuation"):
        _compose(f, [1, 1], 3)


def test_reversion_catalan():
    f = FormalSeries(1, [1, -1], top=5)  # z - z^2
    inv = f.reverted()
    assert inv.coeffs == (1, 1, 2, 5, 14)
    # f(inv(z)) = z
    assert _compose(_coeff_list(f), _coeff_list(inv), 5) == [0, 1, 0, 0, 0, 0]


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


exact_st = st.one_of(st.integers(-4, 4), coeff_st,
                     st.fractions(-3, 3, max_denominator=60), st.just(Fraction(0)))


@settings(max_examples=60, deadline=None)
@given(
    exact_st.filter(lambda c: c not in (0, 1)),
    st.lists(exact_st, max_size=9),
)
def test_reversion_round_trip_exact(lead, rest):
    # Horner composition and the flat-lcm Lagrange loop are the oracles for
    # the graded one
    f = FormalSeries(1, [lead, *rest])
    inv = f.reverted()
    assert inv.lo == 1 and inv.top == f.top
    assert all(type(c) is Fraction for c in inv.coeffs)
    identity = [0, 1] + [0] * (f.top - 1)
    assert _compose(_coeff_list(f), _coeff_list(inv), f.top) == identity
    assert inv.coeffs == reverted_reference(f).coeffs


@pytest.mark.parametrize("order", [16, 20])
def test_reversion_of_the_product_chi_matches_the_flat_lcm_loop(order):
    # the chi that moments_from_s_series reverts for a product of two atomic
    # laws: denominators of 375 and 472 bits at orders 16 and 20
    a = catalog.moments_of(MeasureSpec.atomic(
        [(Fraction(1, 3), Fraction(2, 7)), (Fraction(5, 2), Fraction(5, 7))]), order)
    b = catalog.moments_of(MeasureSpec.atomic(
        [(Fraction(3, 5), Fraction(1, 3)), (Fraction(7, 4), Fraction(2, 3))]), order)
    s = transforms.s_series(a, order) * transforms.s_series(b, order)
    chi = (s.shifted(1) / FormalSeries.poly([1, 1], order + 1)).truncated(order)
    assert max(c.denominator.bit_length() for c in chi.coeffs) > 350
    inv, want = chi.reverted(), reverted_reference(chi)
    assert (inv.lo, inv.top, inv.coeffs) == (want.lo, want.top, want.coeffs)
    assert all(type(c) is Fraction for c in inv.coeffs)


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
# the scaled-integer product, quotient and reversion against a per-term loop


def _naive_divide(a, b):
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return Fraction(a) / Fraction(b)
    return a / b


def _inexact_as(operands, *seqs):
    """The type rule's one-time conversion: seqs as they are when every
    coefficient in operands is an int or a Fraction, else each entry by
    float(), or by complex() when some coefficient in operands is complex."""
    if all(type(c) in (int, Fraction) for c in operands):
        return seqs
    cast = complex if any(isinstance(c, complex) for c in operands) else float
    return [[cast(c) for c in seq] for seq in seqs]


def _naive_mul(x, y):
    """x * y by one Python operation per term, in the order i, then j."""
    top = min(x.top + y.lo, y.top + x.lo)
    if x.is_zero or y.is_zero:
        return FormalSeries.zero(top)
    vals = [0] * (top - x.lo - y.lo + 1)
    xs, ys = _inexact_as(x.coeffs + y.coeffs, x.coeffs, y.coeffs)
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            if i + j < len(vals):
                vals[i + j] = vals[i + j] + a * b
    return FormalSeries(x.lo + y.lo, vals, top)


def _naive_div(x, y):
    """x / y by long division, one Python operation per term."""
    vb = y.lo
    va = x.lo if not x.is_zero else x.top + 1
    top = min(x.top - vb, y.top + va - 2 * vb)
    if x.is_zero:
        return FormalSeries.zero(top)
    n = top - (va - vb) + 1
    b = [y.coeff(vb + i) for i in range(n)]
    a = [x.coeff(va + i) if va + i <= x.top else 0 for i in range(n)]
    a, b = _inexact_as(x.coeffs + y.coeffs, a, b)
    q = []
    for i in range(n):
        acc = a[i]
        for j in range(i):
            acc = acc - q[j] * b[i - j]
        q.append(_naive_divide(acc, b[0]))
    return FormalSeries(va - vb, q, top)


def _naive_reverted(f):
    """Lagrange inversion with the per-term product and quotient."""
    v = _naive_div(FormalSeries.poly([1], f.top - 1), f.shifted(-1))
    power, d = FormalSeries.poly([1], v.top), []
    for k in range(1, f.top + 1):
        power = _naive_mul(power, v)
        d.append(_naive_divide(power.coeff(k - 1), k))
    return FormalSeries(1, d, f.top)


def _bits(c):
    if isinstance(c, complex):
        return c.real.hex(), c.imag.hex()
    return c.hex() if isinstance(c, float) else c


def _assert_same(got, want):
    assert (got.lo, got.top) == (want.lo, want.top)
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
    assert [_bits(c) for c in got.coeffs] == [_bits(c) for c in want.coeffs]


_ints = st.integers(-5, 5)
_fracs = st.fractions(-3, 3, max_denominator=12)
_KINDS = {
    "int": _ints,
    "fraction": _fracs,
    "mixed": st.one_of(_ints, _fracs),
    "float": st.one_of(_ints, _fracs, st.floats(-8, 8)),
    "complex": st.one_of(_fracs, st.complex_numbers(max_magnitude=8)),
}


@st.composite
def _series(draw, coeffs):
    """A series with lo in [-3, 3], padded or all zero at times."""
    lo = draw(st.integers(-3, 3))
    vals = draw(st.lists(coeffs, max_size=8))
    top = lo + len(vals) - 1 + draw(st.integers(0, 3))
    if draw(st.integers(0, 9)) == 0:  # truncation zero
        return FormalSeries.zero(top)
    return FormalSeries(lo, vals, top)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_KINDS)).flatmap(
    lambda kind: st.tuples(_series(_KINDS[kind]), _series(_KINDS[kind]))
))
def test_product_and_quotient_match_per_term_loop(case):
    x, y = case
    _assert_same(x * y, _naive_mul(x, y))
    if y.is_zero:
        with pytest.raises(ZeroDivisionError):
            x / y
        return
    _assert_same(x / y, _naive_div(x, y))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_KINDS)).flatmap(
    lambda kind: st.tuples(
        _KINDS[kind].filter(lambda c: c != 0), st.lists(_KINDS[kind], max_size=9)
    )
))
def test_reversion_matches_per_term_loop(case):
    lead, rest = case
    f = FormalSeries(1, [lead, *rest])
    _assert_same(f.reverted(), _naive_reverted(f))


def _inexact_type(*operands):
    """float or complex when some coefficient in operands is, else None."""
    coeffs = [c for seq in operands for c in seq]
    if any(isinstance(c, complex) for c in coeffs):
        return complex
    return None if all(type(c) in (int, Fraction) for c in coeffs) else float


@settings(max_examples=200, deadline=None)
# the int leading coefficient once made the float quotient's q_0 Fraction(1)
@example((FormalSeries.zero(0), FormalSeries.zero(0), [1, 0.5, 0.25]))
@given(st.sampled_from(["float", "complex"]).flatmap(
    lambda kind: st.tuples(_series(_KINDS[kind]), _series(_KINDS[kind]),
                           st.lists(_KINDS[kind], min_size=1, max_size=9))
))
def test_inexact_coefficients_make_every_output_inexact(case):
    x, y, f = case
    f = FormalSeries(1, f) if f[0] != 0 else FormalSeries(1, [1.5, *f])
    outputs = [(x * y, (x.coeffs, y.coeffs)), (f.reverted(), (f.coeffs,))]
    if not y.is_zero:
        outputs.append((x / y, (x.coeffs, y.coeffs)))
    for out, operands in outputs:
        want = _inexact_type(*operands)
        if want is not None:
            assert {type(v) for v in out.coeffs} <= {want}


def test_float_series_route_pinned():
    # bit patterns of the float series route, recorded while its float
    # quotient and reversion still met a Fraction(1) in every term
    atoms = ((0.3, 0.2), (1.7, 0.5), (-0.9, 0.3))
    m = SeqN("moment", [sum(w * x**n for x, w in atoms) for n in range(1, 21)])
    kappa = free_cumulant_series_via_inversion(m, 20)
    assert _hex(kappa.coeff(n) for n in range(1, 21)) == [
        "0x1.47ae147ae147ap-1", "0x1.4be0ded288ce8p+0", "-0x1.041cc532a4982p-1",
        "-0x1.0a40a35e3e79dp+0", "0x1.5cdd7e2f61c1ap+0", "0x1.2206818e39b7ep+0",
        "-0x1.c5e209e9980fdp+1", "-0x1.c3ba0499c5a90p-3", "0x1.0a4245f67ebb2p+3",
        "-0x1.4866b285cc1d6p+2", "-0x1.03169320718c0p+4", "0x1.79dccaafa9bf4p+4",
        "0x1.4a79e79c14550p+4", "-0x1.14f1ecf8301f7p+6", "0x1.25d8450c831fcp+3",
        "0x1.0e89290f6b0acp+7", "-0x1.24ae36269c4d6p+7", "-0x1.0d83b01d5c4bdp+6",
        "0x1.7fbdb5cbae550p+8", "-0x1.894421c1aefbbp+9"]
    s = s_series(m, 16)
    assert (s.lo, s.top) == (0, 15)
    assert _hex(s.coeffs) == [
        "0x1.9000000000001p+0", "-0x1.3c81000000003p+2", "0x1.12a9629000005p+5",
        "-0x1.1def546895405p+8", "0x1.4abfdb1a799edp+11", "-0x1.98d862ff8030ap+14",
        "0x1.086935050fd1ep+18", "-0x1.617069ab5fb7bp+21", "0x1.e4601159043bbp+24",
        "-0x1.527731627f3f6p+28", "0x1.e086dbe5d3c01p+31", "-0x1.598e07210a607p+35",
        "0x1.f66808ec41d5ep+38", "-0x1.709b236d2a96fp+42", "0x1.1096bf94df56cp+46",
        "-0x1.95f3059a47d17p+49"]
    assert _hex(moments_from_s_series(s, 16).values) == [
        "0x1.47ae147ae147ap-1", "0x1.b4bc6a7ef9db2p+0", "0x1.1f212d77318fcp+1",
        "0x1.17f7ced916870p+2", "0x1.bb0c4588a048ap+2", "0x1.874ebf1554084p+3",
        "0x1.45f9cee37cf6ap+4", "0x1.1810431a85e31p+5", "0x1.d96bf662e44bcp+5",
        "0x1.939e00bfe47edp+6", "0x1.5687da79381fcp+7", "0x1.2365564145207p+8",
        "0x1.ef2713bf223dep+8", "0x1.a4fa9853db5b9p+9", "0x1.65c999d094344p+10",
        "0x1.3023c7f8f524ap+11"]


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
    via_nc = FormalSeries.from_seq(ncpart.free_cumulants_from_moments(m))
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


def _eta_series(m):
    """eta = psi / (1 + psi), by the series quotient alone."""
    return FormalSeries.from_seq(m) / FormalSeries.poly([1, *m.values], m.order)


def test_eta_series_matches_interval_recursion():
    m = catalog_moments("chi_squared_1", (), 8)
    eta = _eta_series(m)
    r = ncpart.boolean_cumulants_from_moments(m)
    assert all(eta.coeff(n) == r.at(n) for n in range(1, 9))


@settings(max_examples=60, deadline=None)
@given(st.lists(exact_st, min_size=1, max_size=20))
def test_eta_series_matches_boolean_kernel_random_exact(ms):
    m = SeqN("moment", ms)
    eta = _eta_series(m)
    assert eta.top == m.order
    assert [eta.coeff(n) for n in range(1, m.order + 1)] == \
        list(ncpart.boolean_cumulants_from_moments(m).values)


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
# numeric Cauchy transforms


def test_atomic_cauchy_exact():
    mu = MeasureSpec.atomic([(1, Fraction(1, 2)), (-1, Fraction(1, 2))])
    z = 0.3 + 0.7j
    want = 0.5 / (z - 1) + 0.5 / (z + 1)
    assert cauchy(mu, z) == pytest.approx(want, rel=1e-14)
    arr = cauchy(mu, np.array([z, 2 * z]))
    assert arr[0] == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize(
    "z",
    [math.inf, complex(math.inf, 1), complex(math.nan, 1), np.array([1j, 0.5 + 1j, math.nan])],
    ids=["inf", "inf_real", "nan_real", "array_one_nan"],
)
def test_cauchy_refuses_nonfinite_points_before_any_evaluation(monkeypatch, z):
    # each of these gave nan+nanj without a word
    monkeypatch.setattr(transforms, "_cauchy_pair", None)
    count = np.size(z)
    w = MeasureSpec.from_law("semicircle", (0, 1))
    with pytest.raises(ValueError, match=f"cauchy points must be finite; 1 of {count} are not"):
        cauchy(w, z)
    for route in (f_transform, boolean_k):
        with pytest.raises(ValueError, match="cauchy points must be finite"):
            route(w, z)


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
    from scipy.integrate import quad

    for law, params, cuts, z in (
        ("quarter_circle", (1,), (0, 2), 0.5 + 0.8j),
        ("symmetric_beta", (), (-4, 0, 4), 0.7 + 0.3j),
    ):
        rho = lambda x: catalog_density(law, params, x)
        re, im = (
            sum(quad(f, a, b, limit=300)[0] for a, b in zip(cuts, cuts[1:]))
            for f in (lambda x: rho(x) * (z - x).real / abs(z - x) ** 2,
                      lambda x: -rho(x) * z.imag / abs(z - x) ** 2)
        )
        mu = MeasureSpec.from_law(law, params)
        assert cauchy(mu, z) == pytest.approx(re + 1j * im, rel=1e-8)


_PIN_POINTS = [0.5 + 0.3j, -1.2 + 0.05j, 2.5 - 0.7j]
_QUAD_CAUCHY_PINS = {
    ("quarter_circle", (1,)): [
        ("-0x1.7d463a883bf57p-2", "-0x1.6a3f962ce1aadp+0"),
        ("-0x1.0b803c3a5e843p-1", "-0x1.df4224c65db59p-7"),
        ("0x1.0bf2df0aedcefp-1", "0x1.194f71f2fdc4dp-2"),
    ],
    ("symmetric_beta", ()): [
        ("0x1.f29ecbfd600f8p-2", "-0x1.7e777f6a7e63ap-1"),
        ("-0x1.047efcb971cb4p-1", "-0x1.8f43dbd1d1249p-2"),
        ("0x1.4dd4440bb8858p-2", "0x1.c29cec530f77dp-3"),
    ],
    ("commutator_ww", ()): [
        ("0x1.c60f6f567d2e5p-3", "-0x1.682a769eda7d7p-1"),
        ("-0x1.b070fa5c9d1dbp-2", "-0x1.15b0a766ef9dcp-1"),
        ("0x1.66cef0f1c7770p-2", "0x1.029bceabc6d8ep-2"),
    ],
    ("chi_squared_1", ()): [
        ("0x1.4a4f09e499f41p-2", "-0x1.3fb3b0cbd2959p+0"),
        ("-0x1.23684539a2b09p-1", "-0x1.2e0d82d8c9159p-6"),
        ("0x1.68e60b70272f7p-2", "0x1.24154ca6f5932p-2"),
    ],
    ("beta_1a", (0.3,)): [
        ("0x1.3be3fb9a0e9efp-1", "-0x1.ee957a4d32efcp+0"),
        ("-0x1.53f11ea48d18bp-1", "-0x1.73b7de3b3f2e5p-6"),
        ("0x1.b2aff1e1b1f8ep-2", "0x1.24a6e6a924219p-3"),
    ],
}


# every law with a density, MP(0.6) for its atom at 0
_DENSITY_LAWS = [
    ("chi_squared_1", ()), ("quarter_circle", (1,)), ("semicircle", (0.5, 1.7)),
    ("marchenko_pastur", (0.6,)), ("symmetric_beta", ()), ("beta_1a", (0.3,)),
    ("commutator_ww", ()),
]


@pytest.mark.parametrize("law,params", sorted(_QUAD_CAUCHY_PINS))
def test_quad_law_cauchy_bits_pinned(law, params):
    # the quadrature reference, substitutions and split at 0 included, to
    # the bit in both half planes
    g = law_cauchy_quad(law, params, np.array(_PIN_POINTS))
    assert [(v.real.hex(), v.imag.hex()) for v in g] == _QUAD_CAUCHY_PINS[law, params]


@pytest.mark.parametrize("law,params", _DENSITY_LAWS)
def test_closed_form_cauchy_matches_quadrature_route(law, params):
    z = np.array(_PIN_POINTS)
    quad = law_cauchy_quad(law, params, z)
    closed = cauchy(MeasureSpec.from_law(law, params), z)
    assert np.max(np.abs(closed - quad) / np.abs(quad)) < 1e-12


def test_quadrature_oracles_never_call_the_closed_forms(monkeypatch):
    # with every law's moment table and Cauchy transform refusing, the
    # quadrature routes still give their moments and their pinned bits
    def refuse(*args):
        raise AssertionError("a quadrature oracle called a closed form")

    for name, law in catalog.LAWS.items():
        monkeypatch.setitem(catalog.LAWS, name, dataclasses.replace(law, moments=refuse, cauchy=refuse))
    for law, params, order in QUAD_CASES:
        assert law_moments_quadrature(law, params, order).order == order
    for law, params in sorted(_QUAD_CAUCHY_PINS):
        g = law_cauchy_quad(law, params, np.array(_PIN_POINTS))
        assert [(v.real.hex(), v.imag.hex()) for v in g] == _QUAD_CAUCHY_PINS[law, params]


def test_law_cauchy_never_integrates(monkeypatch):
    import scipy.integrate

    def refuse(*args, **kwargs):
        raise AssertionError("a law's Cauchy transform ran a quadrature")

    monkeypatch.setattr(scipy.integrate, "quad", refuse)
    laws = _DENSITY_LAWS + [("symmetric_bernoulli", ())]
    assert sorted(law for law, _ in laws) == sorted(catalog.LAWS)
    z = np.array(_PIN_POINTS + [0.5 + 1e-9j, 1e3 - 1e-12j])
    for law, params in laws:
        assert np.all(np.isfinite(cauchy(MeasureSpec.from_law(law, params), z)))


# relative error of the closed-form transforms against mpmath, at heights
# 1 ... 1e-12 in both half planes, out to |x| = 1e3 (1e5 for the
# semicircle), unshifted and under the pushforward x -> -2x + 1
_CLOSED_FORM_REL = 2e-14
_HEIGHTS_TO_AXIS = (1.0, 1e-1, 1e-3, 1e-6, 1e-9, 1e-12)


def _mp_cuts(x, y, lo, hi):
    # split the integral at x and at x -+ y 10^k, where the kernel turns
    cuts = [x + s * y * 10.0**k for k in range(0, 13, 3) for s in (-1, 1)] + [x]
    return [lo] + sorted(c for c in cuts if lo < c < hi) + [hi]


# each reference takes the power k of the kernel 1/(z - t)^k: k = 1 gives
# G(z), and k = 2 gives -G'(z)


def _mp_semicircle(w, mean, var, k=1):
    import mpmath as mp

    z, half = mp.mpc(w), 2 * mp.sqrt(var)
    cuts = _mp_cuts(w.real, w.imag, mean - half, mean + half)
    return complex(mp.quad(
        lambda t: mp.sqrt(4 * var - (t - mean) ** 2) / (2 * mp.pi * var * (z - t) ** k), cuts))


def _mp_marchenko_pastur(w, rate, k=1):
    import mpmath as mp

    # the atom max(1 - rate, 0) at 0 and the density on [a, b]
    z, rate = mp.mpc(w), mp.mpf(rate)
    a, b = (1 - mp.sqrt(rate)) ** 2, (1 + mp.sqrt(rate)) ** 2
    cuts = _mp_cuts(w.real, w.imag, a, b)
    dens = mp.quad(lambda t: mp.sqrt((t - a) * (b - t)) / (2 * mp.pi * t * (z - t) ** k), cuts)
    return complex(max(1 - rate, 0) / z**k + dens)


def _mp_quarter_circle(w, sigma, k=1):
    import mpmath as mp

    z = mp.mpc(w)
    cuts = _mp_cuts(w.real, w.imag, 0, 2 * sigma)
    return complex(mp.quad(
        lambda t: mp.sqrt(4 * sigma**2 - t * t) / (mp.pi * sigma**2 * (z - t) ** k), cuts))


def _mp_chi_squared_1(w, k=1):
    import mpmath as mp

    # x = u^2 on (0, 12^2); the tail beyond weighs e^-72
    z = mp.mpc(w)
    cuts = [0] + [mp.sqrt(c) for c in _mp_cuts(w.real, w.imag, 0, 144)[1:]]
    return complex(mp.quad(
        lambda u: 2 * mp.exp(-u * u / 2) / (mp.sqrt(2 * mp.pi) * (z - u * u) ** k), cuts))


def _mp_symmetric_beta(w, k=1):
    import mpmath as mp

    # t = +-u^2 on each half of (-4, 4): the Jacobian 2u cancels |t|^{-1/2},
    # without which mpmath itself errs by 1e-12
    z, total = mp.mpc(w), 0
    for sign in (1, -1):
        cuts = [0] + [mp.sqrt(c) for c in _mp_cuts(sign * w.real, w.imag, 0, 4)[1:]]
        total += mp.quad(
            lambda u: mp.sqrt(4 - u * u) / (2 * mp.pi * (z - sign * u * u) ** k), cuts)
    return complex(total)


def _mp_beta_1a(w, a, k=1):
    import mpmath as mp

    # x = u^p with p = 1/(1 - a), whose Jacobian cancels x^{-a}
    a = mp.mpf(a)
    z, p = mp.mpc(w), 1 / (1 - a)
    cuts = [0] + [mp.mpf(c) ** (1 / p) for c in _mp_cuts(w.real, w.imag, 0, 1)[1:]]
    c = p * mp.sin(mp.pi * a) / (mp.pi * a)
    return complex(mp.quad(lambda u: c * (1 - u**p) ** a / (z - u**p) ** k, cuts))


def _mp_commutator_ww(w, k=1):
    import mpmath as mp

    # R(w) = 2w/(1 - w^2): for z in C+, G is the one root of
    # z G^3 + G^2 - z G + 1 in C-; at k = 2, -G' is mpmath's numerical
    # derivative of that root, not the implicit form the closed form uses
    def root(z):
        roots = mp.polyroots([z, 1, -z, 1], maxsteps=200, extraprec=200)
        (g,) = [r for r in roots if r.imag < 0]
        return g

    return complex(root(mp.mpc(w)) if k == 1 else -mp.diff(root, mp.mpc(w)))


_MPMATH_CASES = [
    # the jump at 0, the square-root edge at 2 and the series past |r| = 8
    ("quarter_circle", (1,), 2, _mp_quarter_circle, (-0.75, 0.0, 0.5, 2.0, 3.25, 20.0)),
    # chi^2(1) near 0, in the band Re z in [25, 100] by the positive axis, where
    # G' = (G_N'(a) - G)/(2z) must not cancel, and far out along the axis
    ("chi_squared_1", (), 1, _mp_chi_squared_1,
     (-2.0, 0.0, 0.25, 1.5, 20.0, 40.0, 70.0, 100.0, 1e3, 1e4)),
    # far out, where (z - root)/2 would cancel
    ("semicircle", (0, 1), 1, _mp_semicircle, (-2.0, 0.0, 1.5, 2.0, 40.0, 1e3, 1e5)),
    # the atom at 0 below rate 1; at rate 2, the point 0 just left of the
    # support, where the quotient (z + 1 - rate - root)/(2z) would cancel
    ("marchenko_pastur", (0.5,), 1, _mp_marchenko_pastur,
     (-2.0, 0.0, 0.125, 0.5, 3.0, 6.0, 20.0, 1000.0)),
    ("marchenko_pastur", (2,), 1, _mp_marchenko_pastur,
     (-2.0, 0.0, 0.125, 0.5, 3.0, 6.0, 20.0, 1000.0)),
    # the inverse square root at 0 and the edges at -+4
    ("symmetric_beta", (), 1, _mp_symmetric_beta,
     (-5.0, -4.0, -2.0, 0.0, 0.5, 4.0, 20.0, 1000.0)),
    # both edges, and the series for log(1 - 1/z) past |z| = 8
    ("beta_1a", (0.3,), 1, _mp_beta_1a, (-1.0, 0.0, 0.5, 1.0, 1.5, 7.5, 9.0, 1000.0)),
    # the root of least modulus outside the strip and past |z| = 8; the
    # edges -+3.3302, where two roots meet and the error grows like
    # 1e-16/sqrt|z -+ edge| (1.8e-11 at edge + 1e-12i), are left out
    ("commutator_ww", (), 1, _mp_commutator_ww,
     (-20.0, -3.0, 0.0, 1.5, 3.25, 3.5, 7.5, 9.0, 1000.0)),
]


# relative error of the closed-form G' against mpmath, at heights 1 ... 1e-6:
# every law stays within 2.1e-15, the most at MP(2)'s 0.125 + 1e-6i; chi^2(1)
# reaches 1.7e-15, at 70 + 1e-3i in its band by the positive axis.
# Closer to the axis the k = 2 quadrature at 20 digits is the worse side
# (1.6e-4 at 1e-12i, while the commutator, whose reference is a root, stays
# within 2e-15). The commutator's edges are left out as for G: there G'
# errs by about 1e-16/|z -+ edge| relative (2e-10 at the float nearest the
# edge + 1e-6i)
_CLOSED_FORM_DERIVATIVE_REL = 5e-14
_DERIVATIVE_HEIGHTS = _HEIGHTS_TO_AXIS[:4]


@pytest.mark.parametrize("law,unit,sigma,reference,xs", _MPMATH_CASES)
def test_closed_form_cauchy_matches_mpmath(law, unit, sigma, reference, xs):
    import mpmath as mp

    # G of -2 X + 1, with X the law at scale sigma (the quarter circle's
    # parameter times sigma, which is 1 for the others), is G_unit(w)/(-2 sigma)
    # at z = -2 sigma w + 1, and its G' is G_unit'(w)/(4 sigma^2); the dyadic
    # points keep that map exact, so the error is the transform's own, not the
    # input's rounding. The reference at kernel power 2 is -G'
    plain = MeasureSpec.from_law(law, unit)
    moved = MeasureSpec.from_law(law, tuple(sigma * u for u in unit), scale=-2, offset=1)

    def unit_pairs(side):
        """(G, G') of the unit law at side, read off both specs."""
        g, dg = (v[0] for v in transforms._cauchy_pair(plain, np.array([side]), True))
        mg, mdg = (
            v[0] for v in transforms._cauchy_pair(moved, np.array([-2 * sigma * side + 1]), True)
        )
        return (g, -2 * sigma * mg), (dg, 4 * sigma**2 * mdg)

    worst = [0.0, 0.0]
    with mp.workdps(20):
        for x, y in ((x, y) for x in xs for y in _HEIGHTS_TO_AXIS):
            w = complex(x, y)
            wants = [reference(w, *unit)]
            if y in _DERIVATIVE_HEIGHTS:
                wants.append(-reference(w, *unit, k=2))
            for side, flip in ((w, False), (w.conjugate(), True)):
                for i, (got, want) in enumerate(zip(unit_pairs(side), wants)):
                    ref = want.conjugate() if flip else want
                    worst[i] = max(worst[i], *(abs(g - ref) / abs(ref) for g in got))
        # a law on [0, oo): the real parts at -2^-k that thm110_check reads,
        # on the axis itself, where only Re G is documented
        if catalog.support_low(plain) >= 0:
            for k in range(idclass._SHELL_K_MIN, idclass._SHELL_K_MAX + 2):
                w = complex(-(2.0**-k), 0)
                want = reference(w, *unit).real
                got = (cauchy(plain, w), -2 * sigma * cauchy(moved, -2 * sigma * w + 1))
                worst[0] = max(worst[0], *(abs(g.real - want) / abs(want) for g in got))
    assert worst[0] < _CLOSED_FORM_REL
    assert worst[1] < _CLOSED_FORM_DERIVATIVE_REL


def _mp_chi_squared_1_pair(z):
    """chi^2(1)'s (G, G') at z from mpmath's erfc at 30 digits: G = G_N(a)/a
    with a = i sqrt(-z), the Gaussian's G_N(a) = -i sqrt(pi/2) w(a/sqrt(2)),
    w(c) = exp(-c^2) erfc(-ic), and G' = (1 - a G_N(a) - G)/(2z), whose
    cancellation far out the 30 digits absorb."""
    import mpmath as mp

    with mp.workdps(30):
        z = mp.mpc(z)
        a = 1j * mp.sqrt(-z)
        c = a / mp.sqrt(2)
        g_n = -1j * mp.sqrt(mp.pi / 2) * mp.exp(-c * c) * mp.erfc(-1j * c)
        g = g_n / a
        return complex(g), complex((1 - a * g_n - g) / (2 * z))


def test_chi_squared_1_matches_mpmath_erfc_in_its_band_and_far_out():
    # a seeded sweep, quicker than the quadrature of _MPMATH_CASES, which stays
    # the independent oracle: 100 points of the band Re z in [25, 100],
    # Im z in [1e-8, 3] by the positive axis, where a difference form of G'
    # cancels by a factor of about |z|; 100 points with |z| log-uniform in
    # [1e-3, 3e4] over the upper half plane; and 70 + 0.01i and 99 + 0.04i.
    # Each is read in both half planes
    rng = np.random.default_rng(2718)
    band = rng.uniform(25, 100, 100) + 1j * 10 ** rng.uniform(-8, math.log10(3), 100)
    far = 10 ** rng.uniform(-3, math.log10(3e4), 100) * np.exp(1j * rng.uniform(0, math.pi, 100))
    zs = np.concatenate([band, far, [70 + 0.01j, 99 + 0.04j]])
    law = MeasureSpec.from_law("chi_squared_1")
    wants = np.array([_mp_chi_squared_1_pair(z) for z in zs]).T
    for side, want in ((zs, wants), (zs.conjugate(), wants.conjugate())):
        got = transforms._cauchy_pair(law, side, True)
        err = np.abs(got - want) / np.abs(want)
        assert err[0].max() < _CLOSED_FORM_REL
        assert err[1].max() < _CLOSED_FORM_DERIVATIVE_REL


def _chi_cauchy_by_polyval(z):
    """chi^2(1)'s (G, G') as catalog._chi_cauchy forms them, with p(u) and
    p'(u) from two np.polyval calls on the real Weideman coefficients."""
    big_l, stacked = catalog._weideman()
    p_coef = stacked[0].real
    c = 1j * np.sqrt(-z) / math.sqrt(2)
    d = big_l - 1j * c
    u = (big_l + 1j * c) / d
    p, dp, s = np.polyval(p_coef, u), np.polyval(np.polyder(p_coef), u), 1 / math.sqrt(math.pi)
    g = -0.5j * math.sqrt(math.pi) * (2 * p / d + s) / (d * c)
    dw = 1j * ((4 * big_l * dp / d + 4 * p) / d + s) / (d * d)
    return g, (-0.5j * math.sqrt(math.pi) * dw - g) / (2 * z)


def test_chi_squared_1_horner_loop_keeps_the_polyval_bits():
    # one Horner loop over p and p' stacked (p' with a leading 0) takes the
    # steps of np.polyval, so (G, G') keep their bits: 8000 seeded points of
    # the upper half plane and its axis, 500 far ones, the edge of the band,
    # 0, and a 2-d batch
    rng = np.random.default_rng(37)
    zs = np.concatenate([
        rng.uniform(-5, 60, 8000) + 1j * rng.uniform(0, 3, 8000),
        rng.uniform(-3e4, 3e4, 500) + 1j * 10 ** rng.uniform(-12, 3, 500),
        [1e-300j, 0j, 3e4 + 0j, -3e4 + 1e-9j, 70 + 1e-12j]])
    assert catalog._weideman()[1][0].imag.tolist() == [0.0] * catalog._WEIDEMAN_N
    with np.errstate(all="ignore"):
        for z in (zs, zs[:12].reshape(3, 4)):
            for got, want in zip(catalog._chi_cauchy((), z), _chi_cauchy_by_polyval(z)):
                assert got.shape == z.shape
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("sigma", [1, 2])
def test_quarter_circle_on_the_axis_matches_mpmath(sigma):
    # on the axis the closed form takes the limit from above: over (-2 sigma, 0),
    # in the cut of its semicircle part but outside the support, G is real,
    # and so it is outside [-2 sigma, 2 sigma]
    import mpmath as mp

    law = MeasureSpec.from_law("quarter_circle", (sigma,))
    inside = [f * sigma for f in (-1.999, -1.5, -1.0, -0.5, -0.01)]
    inside += [-(2.0**-k) for k in range(idclass._SHELL_K_MIN, idclass._SHELL_K_MAX + 2)]
    outside = [f * sigma for f in (-20.0, -3.0, -2.5, 2.5, 3.0, 20.0)]
    with mp.workdps(20):
        for x in inside + outside:
            want = _mp_quarter_circle(complex(x, 0.0), sigma)
            assert abs(cauchy(law, complex(x, 0.0)) - want) < _CLOSED_FORM_REL * abs(want)


def test_law_without_density_is_its_atoms():
    # G and G' alike, to the bit
    law = MeasureSpec.from_law("symmetric_bernoulli")
    atoms = MeasureSpec.atomic([(-1, Fraction(1, 2)), (1, Fraction(1, 2))])
    zs = np.array([0.3 + 0.7j, -2.0 - 0.1j, 1.0 + 1e-3j])
    got, want = (transforms._cauchy_pair(mu, zs, True) for mu in (law, atoms))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("law,params", _DENSITY_LAWS + [("symmetric_bernoulli", ())])
def test_law_cauchy_pair_without_derivative_has_the_same_g(law, params):
    # G to the bit with and without G', in both half planes, plain and under
    # a reflecting scale; without derivative G' is 0, as for atoms and grids
    z = np.array(_PIN_POINTS + [v.conjugate() for v in _PIN_POINTS])
    for mu in (MeasureSpec.from_law(law, params),
               MeasureSpec.from_law(law, params, scale=-2, offset=1)):
        (g, dg), (g0, dg0) = (transforms._cauchy_pair(mu, z, d) for d in (True, False))
        assert g.tobytes() == g0.tobytes()
        assert np.all(dg != 0) and dg0.tobytes() == np.zeros_like(g).tobytes()


_PUSHFORWARDS = [(1, 0), (-2, 1), (Fraction(1), 0)]


@pytest.mark.parametrize("scale, offset", _PUSHFORWARDS, ids=["identity", "reflected", "fraction_one"])
@pytest.mark.parametrize("law,params", _DENSITY_LAWS + [("symmetric_bernoulli", ())])
def test_law_cauchy_pair_mixed_half_planes_equal_per_point_calls(law, params, scale, offset):
    # a point is reflected or not by its own half plane, whatever the other
    # points of its array: one array mixing both equals per-point calls
    mu = MeasureSpec.from_law(law, params, scale=scale, offset=offset)
    z = np.array(_PIN_POINTS + [v.conjugate() for v in _PIN_POINTS] + [-0.5 + 3j, 0.25 - 4j])
    for derivative in (True, False):
        batch = transforms._cauchy_pair(mu, z.copy(), derivative)
        alone = [transforms._cauchy_pair(mu, z[i : i + 1], derivative) for i in range(z.size)]
        for k in range(2):
            assert batch[k].tobytes() == np.concatenate([v[k] for v in alone]).tobytes()


@pytest.mark.parametrize("law,params", _DENSITY_LAWS + [("symmetric_bernoulli", ())])
def test_law_cauchy_pair_fraction_identity_is_the_float_identity(law, params):
    # scale Fraction(1) with offset 0 is the identity pushforward, taken
    # without the affine arithmetic, to the bit; the caller's array is
    # left as it was
    z = np.array(_PIN_POINTS + [v.conjugate() for v in _PIN_POINTS])
    before = z.tobytes()
    plain = MeasureSpec.from_law(law, params)
    for mu in (MeasureSpec.from_law(law, params, scale=Fraction(1), offset=0),
               MeasureSpec.from_law(law, params, scale=1.0, offset=0.0)):
        for derivative in (True, False):
            got, want = (transforms._cauchy_pair(m, z, derivative) for m in (mu, plain))
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
    assert z.tobytes() == before


def test_law_cauchy_reads_a_signed_zero_on_its_side():
    # a zero imaginary part counts by its sign: -0.0 is the lower side. A
    # reflected law at a real point right of its support pushes back to
    # w = -3 - 0j, where the semicircle's product of roots takes the wrong
    # branch, and G of reflect(W) at 3 came out 2.618 instead of 0.382
    w = MeasureSpec.from_law("semicircle", (0, 1))
    want = (-3 + math.sqrt(5)) / 2  # G of W at -3
    assert cauchy(w, -3.0) == pytest.approx(want, rel=1e-15)
    assert cauchy(w, complex(-3, -0.0)) == cauchy(w, -3.0)
    assert cauchy(catalog.reflect(w), 3.0) == -cauchy(w, -3.0)
    # inside the support the two sides are conjugate
    assert cauchy(w, complex(1, -0.0)) == cauchy(w, complex(1, 0.0)).conjugate()
    assert cauchy(w, complex(1, 0.0)).imag < 0


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


def _grid_with_atoms(lo, hi, n):
    # 0.8 of a semicircle sampled on [lo, hi], with atoms on either side
    xs = np.linspace(lo, hi, n)
    dens = 0.8 * catalog_density("semicircle", ((lo + hi) / 2, ((hi - lo) / 4) ** 2), xs)
    atoms = [(lo - 0.25, Fraction(1, 10)), (hi + 0.5, Fraction(1, 10))]
    return MeasureSpec.grid(xs, dens, atoms, norm_tol=1e-2)


@pytest.mark.parametrize("lo, hi, n", [(-2, 2, 601), (0.5, 2.5, 201)])
@pytest.mark.filterwarnings("error")
def test_grid_cauchy_matches_complex_division_oracle(lo, hi, n):
    # G and G' in real arithmetic against the sums by complex division, from
    # |z| = 1e-3 to 1e300 in both half planes and just off the axis inside
    # the support; past |z| ~ 1e154 the grid's G' underflows to 0 on both
    mu = _grid_with_atoms(lo, hi, n)
    angles = (np.arange(16) + 0.5) * np.pi / 8
    sizes = [1e-3, 1e-2, 0.1, 0.5, 1, 1.5, 2, 3, 10, 1e3, 1e10, 1e100, 1e150, 1e200, 1e300]
    z = np.array([r * np.exp(1j * a) for r in sizes for a in angles])
    near = (np.abs(z.imag) < 0.01) & (z.real > lo - 0.3) & (z.real < hi + 0.6)
    z = np.concatenate([z[~near], (lo + hi) / 2 + 0.3 + np.array([0.01j, -0.02j, 0.05j])])
    got = transforms._grid_cauchy(mu, z, derivative=True)
    want = grid_cauchy_reference(mu, z, derivative=True)
    for g, w in zip(got, want):
        assert np.all(np.abs(g - w) <= 1e-13 * np.abs(w))
    assert np.all(got[0] != 0)


def test_grid_cauchy_is_block_independent(monkeypatch):
    # a point's (G, G') does not depend on the block it is summed in: each
    # sum is one dot product per row, also on 20,000 knots, where the BLAS
    # dot may take its long-vector path (blocks of 40 rows there)
    z = np.linspace(-3, 3, 100) + 1j * np.linspace(0.02, 2, 100)
    for knots, block in [(601, transforms._GRID_BLOCK), (20_000, 40 * 20_000)]:
        monkeypatch.setattr(transforms, "_GRID_BLOCK", block)
        mu = _grid_with_atoms(-2, 2, knots)
        assert 1 < transforms._GRID_BLOCK // knots < 100
        batch = transforms._grid_cauchy(mu, z, derivative=True)
        alone = np.concatenate(
            [transforms._grid_cauchy(mu, z[i : i + 1], derivative=True) for i in range(100)],
            axis=1,
        )
        assert batch.tobytes() == alone.tobytes()


def test_grid_cauchy_memory_is_bounded():
    # the kernel's blocks hold at most _GRID_BLOCK elements (one row at
    # least), so 256 points on 20,000 knots stay within a few MiB; the
    # complex-division kernel's 512-row blocks peaked at 157 MiB here
    import tracemalloc

    xs = np.linspace(-2, 2, 20_000)
    mu = MeasureSpec.grid(xs, catalog_density("semicircle", (0, 1), xs), norm_tol=1e-4)
    z = np.linspace(-3, 3, 256) + 0.5j
    tracemalloc.start()
    try:
        g, dg = transforms._cauchy_pair(mu, z, True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(g)) and np.all(np.isfinite(dg))
    assert peak <= 4 * 2**20


def test_grid_knots_are_built_once_and_change_nothing_of_the_spec():
    # the knots, w d and largest spacing are a memo on the spec, not a field
    import pickle

    from freeconv import cli

    xs = np.linspace(-2, 2, 601)
    mu = MeasureSpec.grid(xs, catalog_density("semicircle", (0, 1), xs), norm_tol=1e-3)
    twin = MeasureSpec.grid(xs, catalog_density("semicircle", (0, 1), xs), norm_tol=1e-3)
    before = (hash(mu), cli.serialize_measure_spec(mu), pickle.dumps(dataclasses.astuple(mu)))
    z = np.linspace(-3, 3, 50) + 0.3j
    first = transforms._grid_cauchy(mu, z, derivative=True)
    assert "_knots" in vars(mu) and "_knots" not in vars(twin)
    assert mu == twin and hash(mu) == hash(twin) == before[0]
    assert cli.serialize_measure_spec(mu) == before[1]
    assert pickle.dumps(dataclasses.astuple(mu)) == before[2]
    halved = tuple(d / 2 for d in mu.densities)
    moved = dataclasses.replace(mu, densities=halved)
    assert "_knots" not in vars(moved) and moved == dataclasses.replace(twin, densities=halved)
    knots = mu._knots
    assert transforms._grid_cauchy(mu, z, derivative=True).tobytes() == first.tobytes()
    assert mu._knots is knots
    assert first.tobytes() == transforms._grid_cauchy(twin, z, derivative=True).tobytes()


def test_catalog_import_loads_no_numpy():
    import subprocess
    import sys

    code = "import sys, freeconv.catalog; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_moment_representation_has_no_cauchy():
    with pytest.raises(ValueError, match="no global Cauchy"):
        cauchy(MeasureSpec.from_moments([1, 2]), 1j)


def test_f_and_boolean_k_point_mass():
    mu = MeasureSpec.atomic([(Fraction(3, 2), 1)])
    z = 0.2 + 1.5j
    assert f_transform(mu, z) == pytest.approx(z - 1.5, rel=1e-14)
    assert boolean_k(mu, z) == pytest.approx(1.5, rel=1e-12)


@pytest.mark.parametrize("rate", [0.5, 2, 3.5])
def test_s_numeric_matches_marchenko_pastur(rate):
    # S of MP(rate) is 1/(z + rate)
    mu = MeasureSpec.from_law("marchenko_pastur", (rate,))
    for z in (0.1 + 0.2j, -0.3 + 0.5j, -0.5 - 0.2j, 0.7):
        want = 1 / (z + rate)
        assert abs(transforms.s_numeric(mu, z) - want) <= 1e-11 * abs(want)


def test_s_numeric_newton_reads_one_point_per_step(monkeypatch):
    # at 1 + i the series seed for MP(2) is off, so Newton takes several
    # steps; each reads G and G' at the one point 1/u, with no shifted point
    calls = []
    pair = transforms._cauchy_pair

    def spy(mu, z, derivative=False):
        calls.append((z.size, derivative))
        return pair(mu, z, derivative)

    monkeypatch.setattr(transforms, "_cauchy_pair", spy)
    z = 1 + 1j
    got = transforms.s_numeric(MeasureSpec.from_law("marchenko_pastur", (2,)), z)
    assert abs(got - 1 / (z + 2)) <= 1e-13 * abs(1 / (z + 2))
    assert len(calls) >= 4 and set(calls) == {(1, True)}


def test_s_numeric_values_meet_their_error_bound():
    # S of MP(rate) is 1/(z + rate), S of semicircle(2, 1) is
    # 1/(1 + sqrt(1 + z)). Near z = -1, Newton's residual 1e-12 left values
    # off by up to 1.7e5 relative; a value now comes with a residual that
    # bounds its error by 1e-9 to first order, so 1e-8 holds, and every
    # other point is refused by name
    import cmath
    import random

    rng = random.Random("s-bound")
    laws = [(MeasureSpec.from_law("marchenko_pastur", (rate,)), lambda z, r=rate: 1 / (z + r))
            for rate in (1, 0.5)]
    laws.append((MeasureSpec.from_law("semicircle", (2, 1)), lambda z: 1 / (1 + cmath.sqrt(1 + z))))
    printed = 0
    for mu, exact in laws:
        for _ in range(60):
            near = rng.random() < 0.5
            r = 10 ** (rng.uniform(-14, -1) if near else rng.uniform(-4, 1))
            z = (-1 if near else 0) + cmath.rect(r, rng.uniform(-math.pi, math.pi))
            try:
                got = transforms.s_numeric(mu, z)
            except ValueError as exc:
                assert f"z = {z}" in str(exc)
                continue
            printed += 1
            assert abs(got - exact(z)) <= 1e-8 * abs(exact(z)), z
    assert printed >= 80


@pytest.mark.parametrize("rate,z", [(0.5, 1 + 1j), (0.5, 2 - 1j), (2, 2 - 1j), (2, 5 + 3j)])
def test_s_numeric_refuses_outside_the_range_of_psi(rate, z):
    # Psi(u) = z means wG(w) = 1 + z at w = 1/u; for MP(rate) the quadratic
    # fixes w = (1 + z)(z + rate)/z, where the principal G misses 1 + z
    mu = MeasureSpec.from_law("marchenko_pastur", (rate,))
    w = (1 + z) * (z + rate) / z
    assert abs(w * complex(cauchy(mu, np.array([w]))[0]) - (1 + z)) > 0.5
    with pytest.raises(ValueError, match="outside the range of Psi"):
        transforms.s_numeric(mu, z)


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
    mass = np.trapezoid(res.density, res.xs) + sum(w for _, w in res.atoms)
    assert mass == pytest.approx(1.0, abs=1e-6)


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
        ("0x0.0p+0", "0x1.333330bc146f4p-1")
    ]
    assert res.renorm.hex() == "0x1.ffffb37e6a929p-1"


def test_invert_peels_atoms_off_the_first_values():
    # the atom pass reuses the transform values of the first pass: one call
    # of g per height, also when an atom is found
    mu = MeasureSpec.from_law("marchenko_pastur", (0.4,))
    heights = []

    def g(z):
        heights.append(float(z.imag[0]))
        return cauchy(mu, z)

    res = stieltjes_invert(g, np.linspace(-0.5, 3.5, 801))
    assert len(res.atoms) == 1
    assert heights == list(transforms._HEIGHTS)


def test_closed_form_inversion_reports_no_solves():
    # iterations, max_residual and converged_fraction describe the solves
    # behind g; a closed-form g has none
    mu = MeasureSpec.from_law("semicircle", (0, 1))
    res = stieltjes_invert(lambda z: cauchy(mu, z), np.linspace(-2.2, 2.2, 41))
    assert (res.iterations, res.max_residual, res.converged_fraction) == (0, 0.0, 1.0)


def test_only_transforms_reads_the_boundary():
    # the heights, their extrapolation and the density read live in one
    # module; conv hands it a seeded transform
    import pathlib
    import re

    src = pathlib.Path(transforms.__file__).parent
    names = re.compile(r"\b(_HEIGHTS|_richardson|_boundary_densities)\b")
    readers = {p.name for p in src.glob("*.py") if names.search(p.read_text())}
    assert readers == {"transforms.py"}


def test_invert_reports_undershoot_before_clip():
    # next to the peeled atom the extrapolated density dips below 0; the
    # result keeps that minimum and the warning says the values were clipped
    mu = MeasureSpec.from_law("marchenko_pastur", (0.4,))
    xs = np.linspace(-0.5, 3.5, 801)
    res = stieltjes_invert(lambda z: cauchy(mu, z), xs)
    assert res.min_density == pytest.approx(-5.654e-4, rel=1e-3)
    assert any(
        "negative density -5.654e-04" in msg and "clipped to 0" in msg
        for msg in res.warnings
    )
    assert np.all(res.density >= 0)
    law = MeasureSpec.from_law("semicircle", (0, 1))
    xs = np.linspace(-1, 1, 41)
    clean = stieltjes_invert(lambda z: cauchy(law, z), xs)
    assert clean.min_density == 0.0
    assert not any("negative density" in msg for msg in clean.warnings)


def test_invert_warns_on_bad_transform():
    # pole in the upper half plane: anti-Herglotz, negative density
    def g(z):
        return 1 / (z - 0.5j)

    xs = np.linspace(-1, 1, 201)
    res = stieltjes_invert(g, xs)
    assert any("negative density" in msg for msg in res.warnings)
    assert res.min_density < -_NEGATIVE_TOL
    assert np.all(res.density >= 0)


# ---------------------------------------------------------------------------
# edge bisection


def _bisect_one_point(above, inside, outside, xtol):
    """One-point bisection, the reference the batched _bisect_edge must equal:
    it halves until the width is at most xtol or the midpoint rounds to an end."""
    steps = 0
    while abs(outside - inside) > xtol and inside != (mid := (inside + outside) / 2) != outside:
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

    def batched(xs, owner):
        calls.append(len(xs))
        assert not owner.any()
        assert len(calls) <= 100, "bisection did not stop"
        return np.array([pred(float(x)) for x in xs])

    want, steps = _bisect_one_point(pred, inside, outside, xtol)
    got = transforms._bisect_edge(batched, [(inside, outside)], xtol)
    assert got == [want]
    assert len(calls) <= 1 + math.ceil(steps / transforms._EDGE_DEPTH)


@settings(max_examples=100, deadline=None)
@given(
    brackets=st.lists(
        st.tuples(st.floats(-10, 10), st.floats(-10, 10)).filter(lambda b: b[0] != b[1]),
        min_size=1,
        max_size=5,
    ),
    xtol=st.floats(1e-6, 1.0),
    pred=_predicates(),
)
def test_bisect_edge_brackets_equal_one_call_each(brackets, xtol, pred):
    # one predicate call per round covers every bracket still open, so the
    # rounds are those of the slowest bracket; a bracket already narrower
    # than xtol never reaches the predicate and returns its midpoint
    narrow = (0.25, 0.25 + xtol / 2)
    brackets = brackets + [narrow]

    def run(brackets):
        owners = []

        def batched(xs, owner):
            owners.append(set(owner.tolist()))
            assert len(owners) <= 100, "bisection did not stop"
            return np.array([pred(float(x)) for x in xs])

        return transforms._bisect_edge(batched, brackets, xtol), owners

    got, owners = run(brackets)
    alone = [run([b]) for b in brackets]
    assert got == [edges[0] for edges, _ in alone]
    assert got[-1] == (narrow[0] + narrow[1]) / 2
    assert len(owners) == max(len(rounds) for _, rounds in alone)
    assert all(len(brackets) - 1 not in round_owners for round_owners in owners)


def test_bisect_edge_stops_at_the_float_spacing():
    # at 1e13 the floats are 2^-9 apart, so no bracket there narrows to
    # xtol = 1e-4: each stops once its midpoint rounds to an end, at the edge
    # one-point bisection with that stop reaches, next to the crossing
    c = 1e13 + 2.832
    rounds = []

    def above(xs, owner):
        rounds.append(len(xs))
        assert len(rounds) <= 20, "bisection did not stop"
        return np.where(owner == 0, xs < c, xs > c)

    got = transforms._bisect_edge(above, [(1e13 + 1, 1e13 + 4), (1e13 + 4, 1e13 + 1)], 1e-4)
    want = [_bisect_one_point(lambda x: x < c, 1e13 + 1, 1e13 + 4, 1e-4)[0],
            _bisect_one_point(lambda x: x > c, 1e13 + 4, 1e13 + 1, 1e-4)[0]]
    assert got == want
    assert all(abs(edge - c) <= math.ulp(c) for edge in got)


@st.composite
def _bracket_sets(draw):
    """1-6 brackets of both orientations at one scale 10^e, |e| <= 300, a
    quarter of them already narrower than xtol, with a crossing fraction
    each; xtol is 2^-36 to 0.3 of the scale and at least four float
    spacings of the largest end, where both routes end."""
    scale = 10.0 ** draw(st.integers(-300, 300))
    xtol = scale * 2.0 ** -draw(st.floats(math.log2(1 / 0.3), 36))
    brackets, crossings = [], []
    for _ in range(draw(st.integers(1, 6))):
        narrow = draw(st.integers(0, 3)) == 0
        width = xtol * draw(st.floats(0, 1)) if narrow else scale * draw(st.floats(2**-40, 8))
        inside = scale * draw(st.floats(-8, 8))
        brackets.append((inside, inside + draw(st.sampled_from([-1, 1])) * width))
        crossings.append(draw(st.floats(0, 1)))
    xtol = max(xtol, 4 * math.ulp(max(abs(end) for b in brackets for end in b)))
    return brackets, xtol, crossings


@settings(max_examples=300, deadline=None)
@given(case=_bracket_sets(), hashed=st.booleans())
def test_bisect_edge_equals_the_heap_reference(case, hashed):
    # the same predicate calls, to the byte, and the same edges, to the bit,
    # as the per-bracket heaps; the predicate is either a crossing inside
    # each bracket or a hash of each point's bits, which takes every path
    brackets, xtol, crossings = case
    cut = np.array([i + f * (o - i) for (i, o), f in zip(brackets, crossings)])
    rising = np.array([o > i for i, o in brackets])

    def run(bisect):
        calls = []

        def above(xs, owner):
            calls.append((xs.dtype, owner.dtype, xs.tobytes(), owner.tobytes()))
            assert len(calls) <= 100, "bisection did not stop"
            if hashed:
                bits = xs.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
                return (bits >> np.uint64(40)) & np.uint64(1) == 1
            return np.where(rising[owner], xs < cut[owner], xs > cut[owner])

        return [float(edge).hex() for edge in bisect(above, brackets, xtol)], calls

    assert run(transforms._bisect_edge) == run(bisect_edge_reference)
