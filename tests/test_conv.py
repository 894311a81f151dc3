import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeconv import catalog, conv, ncpart, transforms
from freeconv.catalog import MeasureSpec
from freeconv.ncpart import SeqN
from freeconv.verify import _boolean_free_power_dev, _dilation_mult_power_dev

W = MeasureSpec.from_law("semicircle", (0, 1))
M = MeasureSpec.from_law("marchenko_pastur", (1,))
B = MeasureSpec.from_law("symmetric_bernoulli")

rationals = st.fractions(
    min_value=F(-3), max_value=F(3), max_denominator=6
).filter(lambda q: q != 0)


def atomic_from(locs):
    w = F(1, len(locs))
    return MeasureSpec.atomic([(loc, w) for loc in locs])


# ---------------------------------------------------------------------------
# additive convolution at sequence level


def test_free_add_point_masses():
    mu = conv.free_add(atomic_from([F(3, 2)]), atomic_from([F(-1, 3)]), 8)
    expect = catalog.moments_of(atomic_from([F(3, 2) + F(-1, 3)]), 8)
    assert catalog.moments_of(mu, 8).values == expect.values


def test_free_add_semicircles():
    two = conv.free_add(W, W, 10)
    ref = MeasureSpec.from_law("semicircle", (0, 2))
    assert catalog.moments_of(two, 10).values == catalog.moments_of(ref, 10).values


def test_free_add_matches_power():
    mu = atomic_from([F(1, 2), F(2), F(-1)])
    added = conv.free_add(mu, mu, 8)
    powered = conv.free_power(mu, 2, 8)
    assert catalog.moments_of(added, 8).values == catalog.moments_of(powered, 8).values


def test_free_power_rejects_fractional():
    with pytest.raises(ValueError, match="free_power_fid"):
        conv.free_power(W, F(1, 2), 6)


def test_free_power_fid_scales_cumulants():
    half = conv.free_power_fid(M, F(1, 2), 8)
    kappa = catalog.free_cumulants_of(half, 8)
    assert kappa.values == tuple([F(1, 2)] * 8)
    with pytest.raises(ValueError, match="t > 0"):
        conv.free_power_fid(M, 0, 4)


@settings(max_examples=30, deadline=None)
@given(st.lists(rationals, min_size=2, max_size=4, unique=True),
       st.lists(rationals, min_size=2, max_size=4, unique=True))
def test_free_add_commutes(locs_a, locs_b):
    a, b = atomic_from(locs_a), atomic_from(locs_b)
    ab = catalog.moments_of(conv.free_add(a, b, 6), 6)
    ba = catalog.moments_of(conv.free_add(b, a, 6), 6)
    assert ab.values == ba.values


# ---------------------------------------------------------------------------
# boolean convolution


def test_boolean_add_bernoulli():
    two = conv.boolean_add(B, B, 8)
    # r doubles, so the result is the Bernoulli law scaled by sqrt(2)
    assert catalog.moments_of(two, 8).values == (0, 2, 0, 4, 0, 8, 0, 16)


def test_boolean_power_endpoints():
    same = conv.boolean_power(M, 1, 8)
    assert catalog.moments_of(same, 8).values == catalog.moments_of(M, 8).values
    degenerate = conv.boolean_power(M, 0, 6)
    assert catalog.moments_of(degenerate, 6).values == tuple([0] * 6)
    with pytest.raises(ValueError, match="t >= 0"):
        conv.boolean_power(M, -1, 4)


@pytest.mark.parametrize("power,t", [
    (conv.free_power_fid, math.nan),
    (conv.free_power_fid, math.inf),
    (conv.free_power, math.inf),
    (conv.boolean_power, math.nan),
    (conv.boolean_power, math.inf),
], ids=["free-fid-nan", "free-fid-inf", "free-inf", "boolean-nan", "boolean-inf"])
def test_powers_refuse_non_finite_t(power, t):
    with pytest.raises(ValueError, match="t must be finite"):
        power(W, t, 4)


def test_boolean_add_matches_power():
    mu = atomic_from([F(1), F(-2), F(1, 3)])
    added = catalog.moments_of(conv.boolean_add(mu, mu, 8), 8)
    powered = catalog.moments_of(conv.boolean_power(mu, 2, 8), 8)
    assert added.values == powered.values


def test_boolean_convolution_adds_boolean_cumulants():
    mu = MeasureSpec.atomic([(F(-1, 2), F(1, 4)), (1, F(3, 4))])
    nu = MeasureSpec.atomic([(F(1, 3), F(2, 5)), (F(5, 2), F(3, 5))])
    lhs = catalog.boolean_cumulants_of(conv.boolean_add(mu, nu, 8), 8)
    a = catalog.boolean_cumulants_of(mu, 8)
    b = catalog.boolean_cumulants_of(nu, 8)
    assert lhs.values == tuple(x + y for x, y in zip(a.values, b.values))


# ---------------------------------------------------------------------------
# multiplicative convolution


FUSS_CATALAN_2 = (1, 3, 12, 55, 273, 1428, 7752, 43263)


def test_free_mult_fuss_catalan_both_routes():
    prod = conv.free_mult(M, M, 8, method="both")
    assert catalog.moments_of(prod, 8).values == FUSS_CATALAN_2
    report = conv.free_mult_report(M, M, 8)
    assert report.compared and report.max_dev == 0.0


def test_free_mult_methods_agree_on_random_positive():
    rng = np.random.default_rng(7)
    for _ in range(10):
        locs_a = sorted({F(int(rng.integers(1, 10)), int(rng.integers(1, 5)))
                         for _ in range(3)})
        locs_b = sorted({F(int(rng.integers(1, 10)), int(rng.integers(1, 5)))
                         for _ in range(3)})
        a, b = atomic_from(locs_a), atomic_from(locs_b)
        dp = conv.free_mult(a, b, 8, method="dp")
        series = conv.free_mult(a, b, 8, method="series")
        assert catalog.moments_of(dp, 8).values == catalog.moments_of(series, 8).values


def test_free_mult_series_needs_nonzero_mean():
    with pytest.raises(ValueError, match="nonzero first moments"):
        conv.free_mult(B, M, 8, method="series")
    # dp and both still work on a centered factor
    prod = conv.free_mult(B, M, 8, method="both")
    assert catalog.moments_of(prod, 8).values == (0, 1, 0, 3, 0, 12, 0, 55)
    report = conv.free_mult_report(B, M, 8)
    assert not report.compared


@pytest.mark.parametrize("off", [F(1, 10**12), F(1, 10**400)])
def test_free_mult_both_decides_exact_moments_by_equality(monkeypatch, off):
    # an absolute 1e-9 passed either shift: the first is below it, and the
    # second rounds to 0 under float()
    true_product = conv._series_product

    def shifted(ma, mb, order):
        out = list(true_product(ma, mb, order).values)
        out[3] += off
        return SeqN("moment", out)

    monkeypatch.setattr(conv, "_series_product", shifted)
    a = atomic_from([F(1, 2), F(2), F(3)])
    b = atomic_from([F(1), F(5, 2)])
    with pytest.raises(ArithmeticError, match="disagree at order 4"):
        conv.free_mult(a, b, 8, method="both")
    assert conv.free_mult_report(a, b, 8).max_dev <= conv.MULT_AGREEMENT_TOL


def test_free_mult_both_keeps_the_tolerance_on_floats(monkeypatch):
    true_product = conv._series_product

    def shifted(ma, mb, order):
        out = list(true_product(ma, mb, order).values)
        out[3] += 1e-12
        return SeqN("moment", out)

    monkeypatch.setattr(conv, "_series_product", shifted)
    a = MeasureSpec.atomic([(0.5, 0.25), (2.0, 0.75)])
    b = MeasureSpec.atomic([(1.0, 0.5), (2.5, 0.5)])
    want = ncpart.free_mult_moments(catalog.moments_of(a, 6), catalog.moments_of(b, 6))
    assert catalog.moments_of(conv.free_mult(a, b, 6, method="both"), 6) == want


def test_free_mult_series_route_runs_alone(monkeypatch):
    # order 17 is past the DP's PRODUCT_CAP, inside the series route's cap
    def refuse(*args, **kwargs):
        raise AssertionError("the series route ran the DP")

    monkeypatch.setattr(ncpart, "free_mult_moments", refuse)
    mu = MeasureSpec.atomic([(F(1, 2), F(1, 3)), (3, F(2, 3))])
    prod = conv.free_mult(mu, mu, 17, method="series")
    s = transforms.s_series(catalog.moments_of(mu, 17), 17)
    assert prod.seq == transforms.moments_from_s_series(s * s, 17)
    assert all(type(v) is F for v in prod.seq.values)


def test_free_mult_series_capped_at_entry(monkeypatch):
    monkeypatch.setattr(catalog, "moments_of", None)  # fails if reached
    cap = ncpart.CONVERSION_CAP
    with pytest.raises(ValueError, match=f"capped at order {cap}, got {cap + 1}"):
        conv.free_mult(M, M, cap + 1, method="series")


def test_free_mult_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        conv.free_mult(M, M, 4, method="magic")


def test_free_mult_commutes():
    a = atomic_from([F(1, 2), F(2), F(3)])
    b = atomic_from([F(1), F(5, 2)])
    ab = catalog.moments_of(conv.free_mult(a, b, 8), 8)
    ba = catalog.moments_of(conv.free_mult(b, a, 8), 8)
    assert ab.values == ba.values


def test_square_of_product_identity():
    # (mu x nu)^2 = mu x mu x nu^2 for positive mu and symmetric nu
    rng = np.random.default_rng(3)
    for _ in range(8):
        locs = sorted({F(int(rng.integers(1, 9)), int(rng.integers(1, 5)))
                       for _ in range(3)})
        mu = atomic_from(locs)
        s = sorted({F(int(rng.integers(1, 9)), int(rng.integers(1, 5)))
                    for _ in range(2)})
        nu = MeasureSpec.atomic(
            [(loc, F(1, 2 * len(s))) for loc in s]
            + [(-loc, F(1, 2 * len(s))) for loc in s]
        )
        prod = ncpart.free_mult_moments(
            catalog.moments_of(mu, 16), catalog.moments_of(nu, 16), 16
        )
        lhs = tuple(prod.values[2 * n - 1] for n in range(1, 9))
        mumu = conv.free_mult(mu, mu, 8, method="dp")
        rhs = conv.free_mult(mumu, catalog.push_square(nu), 8, method="dp")
        assert lhs == catalog.moments_of(rhs, 8).values


# ---------------------------------------------------------------------------
# subordination


def _grid_semicircle():
    xs = np.linspace(-2, 2, 601)
    dens = catalog.catalog_density("semicircle", (0, 1), xs)
    return MeasureSpec.grid(xs, dens / np.trapezoid(dens, xs))


def test_subordination_semicircle_sum():
    z = np.array([0.3 + 0.01j, -1.5 + 0.1j, 2.0 + 1.0j, 5 + 2j])
    sub = conv.subordination(W, W, z)
    g = transforms.cauchy(W, sub.omega)
    ref = transforms.cauchy(MeasureSpec.from_law("semicircle", (0, 2)), z)
    assert sub.converged.all()
    assert np.max(np.abs(g - ref)) < 1e-9
    assert np.all(sub.omega.imag >= z.imag - 1e-12)


def test_subordination_point_mass_shift():
    delta = atomic_from([F(3, 2)])
    z = np.array([0.2 + 0.05j, 4 + 1j])
    sub = conv.subordination(delta, W, z)
    g = transforms.cauchy(delta, sub.omega)
    ref = transforms.cauchy(W, z - 1.5)
    assert np.max(np.abs(g - ref)) < 1e-9
    assert sub.converged.all()


def test_subordination_rejects_lower_half_plane():
    with pytest.raises(ValueError, match="upper half plane"):
        conv.subordination(W, W, 1 - 0.5j)


def test_subordinated_density_matches_commutator_law():
    xs = np.array([0.0, 0.5, 1.0, 2.0, -1.3])
    d = conv.density_at_points(M, catalog.reflect(M), xs)
    ref = catalog.catalog_density("commutator_ww", (), xs)
    assert np.max(np.abs(d - ref)) < 1e-5


def test_free_add_density_semicircles():
    xs = np.linspace(-3.2, 3.2, 641)
    res = conv.free_add_density(W, W, xs)
    ref = catalog.catalog_density("semicircle", (0, 2), xs)
    err = np.abs(res.density - ref)
    edge = 2 * math.sqrt(2)
    assert res.converged_fraction == 1.0
    assert res.atoms == ()
    assert np.max(err) < 1e-2
    assert np.max(err[np.abs(xs) < edge - 0.15]) < 1e-5
    mass = np.trapezoid(res.density, res.xs) + sum(w for _, w in res.atoms)
    assert abs(mass - 1) < 1e-3


def test_free_add_density_reports_its_solves():
    # one subordination solve per height, top first, each seeded by the one
    # before; the result reports the largest iteration count and residual
    xs = np.linspace(-3.2, 3.2, 321)
    res = conv.free_add_density(W, W, xs)
    solves = []
    transforms._boundary_values(conv._seeded_cauchy(W, W, solves), xs)
    assert [s.z.imag[0] for s in solves] == list(transforms._HEIGHTS)
    assert res.iterations == max(s.iterations for s in solves) > 0
    assert res.max_residual == max(s.max_residual for s in solves) < conv._SUB_TOL
    assert res.converged_fraction == 1.0
    assert isinstance(res, transforms.InversionResult)


def test_free_add_density_finds_atom():
    xs = np.linspace(1.0, 5.0, 401)
    res = conv.free_add_density(atomic_from([F(1)]), atomic_from([F(2)]), xs)
    assert len(res.atoms) == 1
    loc, weight = res.atoms[0]
    assert abs(loc - 3) < 5e-3
    assert abs(weight - 1) < 1e-2


def test_free_add_density_of_law_without_density():
    # the symmetric Bernoulli law and its atomic spec give one density with W
    xs = np.linspace(-3.2, 3.2, 81)
    law = conv.free_add_density(W, B, xs)
    atoms = conv.free_add_density(W, atomic_from([-1, 1]), xs)
    assert np.max(np.abs(law.density - atoms.density)) <= 1e-12
    assert law.atoms == atoms.atoms


def test_support_edge_semicircle_sum():
    edge = conv.support_edge(W, W, inner=2.0, outer=3.2)
    assert abs(edge - 2 * math.sqrt(2)) < 2e-2


def test_support_edge_rejects_bad_bracket():
    with pytest.raises(ValueError, match="bracket"):
        conv.support_edge(W, W, inner=4.0, outer=5.0)


@pytest.mark.parametrize("inner, outer", [(2.0, math.inf), (math.nan, 3.2), (-math.inf, 3.2)])
def test_support_edge_refuses_nonfinite_ends_before_any_solve(monkeypatch, inner, outer):
    # an infinite outer end never narrowed: the bisection ran without end
    monkeypatch.setattr(conv, "density_at_points", None)
    with pytest.raises(ValueError, match="bracket ends must be finite"):
        conv.support_edge(W, W, inner, outer)


@pytest.mark.parametrize("ends", [(math.nan, 0.0), (1.0, math.nan)])
def test_support_edge_nan_density_straddles_nothing(monkeypatch, ends):
    monkeypatch.setattr(conv, "density_at_points", lambda mu, nu, xs: np.array(ends))
    with pytest.raises(ValueError, match="does not straddle"):
        conv.support_edge(W, W, 2.0, 3.2)


# one pair of each kind of input (laws, a reflected law, atoms, a grid),
# with a window on one of its support edges
_EDGE_WINDOWS = [
    (W, W, 2.0, 3.2),
    (W, W, -3.2, -2.0),
    (M, catalog.reflect(M), 3.0, 3.8),
    (atomic_from([F(-1), F(1, 2), F(3)]), W, -3.5, -2.0),
    (W, _grid_semicircle(), 2.0, 3.2),
]


@pytest.mark.parametrize("mu, nu, lo, hi", _EDGE_WINDOWS)
def test_density_at_points_is_batch_independent(mu, nu, lo, hi):
    # the batched edge bisection is exact only if a point's density does
    # not depend on the other points solved with it
    xs = np.linspace(lo, hi, 9)
    alone = np.concatenate([conv.density_at_points(mu, nu, [x]) for x in xs])
    assert conv.density_at_points(mu, nu, xs).tobytes() == alone.tobytes()


def test_support_edge_solves_the_bracket_ends_in_its_first_batch(monkeypatch):
    # the ends ride ahead of the first round's 63 midpoints: three density
    # solves where a separate check of the ends made four
    calls = []
    density = conv.density_at_points

    def counted(mu, nu, xs):
        calls.append(np.asarray(xs, dtype=float))
        return density(mu, nu, xs)

    monkeypatch.setattr(conv, "density_at_points", counted)
    edge = conv.support_edge(W, W, 2.0, 3.2)
    assert edge.hex() == "0x1.6a8d333333333p+1"
    assert len(calls) == 3
    assert calls[0][:2].tolist() == [2.0, 3.2] and calls[0].size == 2 + 63


def test_support_edge_checks_a_narrow_bracket_on_its_own(monkeypatch):
    # a bracket no wider than _EDGE_XTOL starts no bisection round, so its
    # ends are solved in a call of their own, and a bad one still raises
    calls = []

    def counted(density):
        def solve(mu, nu, xs):
            calls.append(list(xs))
            return density(mu, nu, xs)
        return solve

    narrow = conv._EDGE_XTOL / 2
    monkeypatch.setattr(conv, "density_at_points", counted(conv.density_at_points))
    with pytest.raises(ValueError, match="does not straddle"):
        conv.support_edge(W, W, 4.0, 4.0 + narrow)
    assert calls == [[4.0, 4.0 + narrow]]
    # a density that crosses the level at 3
    line = lambda mu, nu, xs: conv._EDGE_THRESHOLD + 3.0 - np.asarray(xs)  # noqa: E731
    monkeypatch.setattr(conv, "density_at_points", counted(line))
    assert conv.support_edge(W, W, 3.0 - narrow, 3.0 + narrow) == 3.0
    assert calls[1:] == [[3.0 - narrow, 3.0 + narrow]]


def test_support_edges_pinned():
    # bit patterns of the bisected edges; any drift in the extrapolation
    # or the bisection arithmetic changes them
    assert conv.support_edge(W, W, 2.0, 3.2).hex() == "0x1.6a8d333333333p+1"
    assert conv.support_edge(W, W, -2.0, -3.2).hex() == "-0x1.6a8d333333333p+1"
    edge = conv.support_edge(M, catalog.reflect(M), 3.0, 3.8)
    assert edge.hex() == "0x1.aab1999999998p+1"


def test_support_edge_stops_at_the_float_spacing(monkeypatch):
    # at 1e13 the floats are 2^-9 apart, wider than _EDGE_XTOL: the
    # bisection stops once a midpoint rounds to an end, and the edge is
    # W(0, 2)'s, moved by 1e13, to that spacing
    solves = []
    density = conv.density_at_points

    def counted(*args):
        solves.append(len(args[-1]))
        assert len(solves) <= 20, "bisection did not stop"
        return density(*args)

    near = 2 * math.sqrt(2)
    far = MeasureSpec.from_law("semicircle", (1e13, 1))
    monkeypatch.setattr(conv, "density_at_points", counted)
    edge = conv.support_edge(far, W, 1e13 + near - 1, 1e13 + near + 2)
    monkeypatch.undo()
    want = 1e13 + conv.support_edge(W, W, near - 1, near + 2)
    assert abs(edge - want) <= 2 * math.ulp(1e13)


def test_semicircle_sum_density_pinned():
    xs = np.linspace(-3.2, 3.2, 321)
    density = conv.free_add_density(W, W, xs).density
    pinned = {
        20: "0x1.04b4fe49cbdaep-5",
        80: "0x1.7c169ad3f1313p-3",
        160: "0x1.ccecbd888b80ap-3",
        210: "0x1.af27d8033ef09p-3",
        285: "0x1.af27d7cbafca7p-4",
        310: "0x0.0p+0",
    }
    assert {i: float(density[i]).hex() for i in pinned} == pinned
    # the same inversion applied to the closed-form G of W(0, 2)
    exact = transforms.stieltjes_invert(
        lambda z: transforms.cauchy(MeasureSpec.from_law("semicircle", (0, 2)), z), xs
    ).density
    for i in pinned:
        assert abs(density[i] - exact[i]) < 1e-12


def test_semicircle_sum_density_evaluates_the_law_once_per_point(monkeypatch):
    # a Newton step reads G and G' at one point from the law's closed form;
    # with G' as a central difference it took three, 22701 points in all
    import dataclasses

    points = []
    law = catalog.LAWS["semicircle"]
    hook = law.cauchy

    def counted(params, z):
        points.append(np.size(z))
        return hook(params, z)

    monkeypatch.setitem(catalog.LAWS, "semicircle", dataclasses.replace(law, cauchy=counted))
    conv.free_add_density(W, W, np.linspace(-3.2, 3.2, 321))
    assert sum(points) <= 10_000


@pytest.mark.parametrize("h", transforms._HEIGHTS)
def test_subordinated_semicircle_sum_matches_closed_form(h):
    z = np.linspace(-3.2, 3.2, 321) + 1j * h
    sub = conv.subordination(W, W, z)
    g = transforms.cauchy(W, sub.omega)
    ref = transforms.cauchy(MeasureSpec.from_law("semicircle", (0, 2)), z)
    assert sub.converged.all()
    assert np.max(np.abs(g - ref)) < 1e-13


@pytest.mark.parametrize("nu", [W, _grid_semicircle()], ids=["law", "grid"])
def test_semicircle_sum_takes_few_iterations(nu):
    res = conv.free_add_density(W, nu, np.linspace(-3.2, 3.2, 321))
    assert res.converged_fraction == 1
    assert res.iterations <= 20


def test_atomic_plus_semicircle_converges_everywhere():
    # an input on which damped Picard iteration left two points unconverged
    atoms = [(F(-7, 12), F(3, 13)), (F(7, 3), F(6, 13)), (F(3), F(4, 13))]
    mu = MeasureSpec.atomic([(float(x), float(w)) for x, w in atoms])
    nu = MeasureSpec.from_law("semicircle", (0.573, 2.095))
    span = 3 + 2 * math.sqrt(2.095) + 0.6
    res = conv.free_add_density(mu, nu, np.linspace(0.573 - span, 0.573 + span, 401))
    assert res.converged_fraction == 1
    assert res.iterations <= 30
    assert not any("unconverged" in w for w in res.warnings)


def test_unconverged_points_are_reported(monkeypatch):
    monkeypatch.setattr(conv, "_SUB_MAX_ITER", 1)
    res = conv.free_add_density(W, W, np.linspace(-3.2, 3.2, 321))
    assert res.converged_fraction < 1
    (msg,) = [w for w in res.warnings if "unconverged" in w]
    assert msg.startswith("subordination left 321 of 321 points unconverged")
    assert f"worst residual {res.max_residual:.2e}" in msg


def _cold_cauchy(mu, nu):
    # G of mu plus nu by an unseeded subordination solve at every call
    return lambda z: transforms.cauchy(mu, conv.subordination(mu, nu, z).omega)


@pytest.mark.parametrize(
    "mu, nu, xs",
    [
        (W, W, np.linspace(-3.2, 3.2, 321)),
        (M, catalog.reflect(M), np.linspace(-3.6, 3.6, 361)),
        (atomic_from([F(-1), F(1, 2), F(3)]), W, np.linspace(-3.5, 5.5, 401)),
        (W, _grid_semicircle(), np.linspace(-3.2, 3.2, 301)),
    ],
    ids=["w_w", "m_reflect_m", "atomic_w", "w_grid"],
)
def test_seeded_density_matches_cold_solves(mu, nu, xs):
    # the heights eps/2 and eps/4 start from omega one height up; three
    # cold solves give the same density
    seeded = conv.free_add_density(mu, nu, xs)
    cold = transforms.stieltjes_invert(_cold_cauchy(mu, nu), xs)
    assert seeded.converged_fraction == 1
    assert np.max(np.abs(seeded.density - cold.density)) <= 1e-12
    cold_values = transforms._boundary_values(_cold_cauchy(mu, nu), xs)
    pointwise = transforms._richardson(transforms._boundary_densities(cold_values))
    assert np.max(np.abs(conv.density_at_points(mu, nu, xs) - pointwise)) <= 1e-12


def _grid_points_of_w_plus_grid(monkeypatch):
    # the points at which W plus a grid spec on 301 points evaluates the
    # grid's transform
    points = []
    grid_cauchy = transforms._grid_cauchy

    def counted(mu, z, derivative=False):
        points.append(np.size(z))
        return grid_cauchy(mu, z, derivative)

    monkeypatch.setattr(transforms, "_grid_cauchy", counted)
    res = conv.free_add_density(W, _grid_semicircle(), np.linspace(-3.2, 3.2, 301))
    assert res.converged_fraction == 1
    return sum(points)


def test_seeding_bounds_grid_evaluations(monkeypatch):
    # unseeded, W plus a grid spec on 301 points evaluated the grid's
    # transform at 6491 points; seeded heights take a few Newton sweeps
    assert _grid_points_of_w_plus_grid(monkeypatch) <= 4200


def test_seeding_bounds_grid_evaluations_with_the_tangent_step(monkeypatch):
    # the same input as above: seeding the lower heights at
    # omega + omega' (z - z_prev) instead of omega + (z - z_prev) cut the
    # grid's transform from 3999 points to 3427
    assert _grid_points_of_w_plus_grid(monkeypatch) <= 3600


def test_newton_from_the_first_round_bounds_grid_evaluations(monkeypatch):
    # the same input as above: three damped Picard warm-up steps ahead of
    # each cold point's first Newton round took 3427 points, Newton from
    # the first round takes 2704
    assert _grid_points_of_w_plus_grid(monkeypatch) <= 2900


@pytest.mark.parametrize("h", transforms._HEIGHTS)
def test_domega_is_the_derivative_of_the_semicircle_sum(monkeypatch, h):
    # for W plus W, omega = z - G_{W(0,2)}(z), so omega' = 1 - G'_{W(0,2)}.
    # domega is omega' at the last Newton iterate, one step before omega:
    # at _SUB_TOL = 1e-10 it lies up to 3e-8 off near the edges +-2 sqrt 2,
    # at 1e-14 the iterate is omega to rounding
    z = np.linspace(-3.2, 3.2, 321) + 1j * h
    w2 = MeasureSpec.from_law("semicircle", (0, 2))
    g, dg = transforms._cauchy_pair(w2, z, True)
    assert np.max(np.abs(conv.subordination(W, W, z).domega - (1 - dg))) <= 1e-7
    monkeypatch.setattr(conv, "_SUB_TOL", 1e-14)
    sub = conv.subordination(W, W, z)
    assert sub.converged.all()
    assert np.max(np.abs(sub.omega - (z - g))) <= 1e-12
    assert np.max(np.abs(sub.domega - (1 - dg))) <= 1e-12


def test_domega_after_one_round_is_omega_prime_at_z(monkeypatch):
    # the first round of a cold point is a Newton round at omega = z, so
    # its omega' is (1 + h_nu'(u))/(1 - h_nu'(u) h_mu'(z)), u = z + h_mu(z)
    def h(w):
        g, dg = transforms._cauchy_pair(W, w, True)
        return 1 / g - w, -dg / g**2 - 1

    monkeypatch.setattr(conv, "_SUB_MAX_ITER", 1)
    z = np.linspace(-3.2, 3.2, 9) + 0.01j
    h_z, dh_z = h(z)
    dh_u = h(z + h_z)[1]
    sub = conv.subordination(W, W, z)
    assert not sub.converged.any()
    assert sub.domega.tobytes() == ((1 + dh_u) / (1 - dh_u * dh_z)).tobytes()


def test_nan_tangent_seed_is_the_shift_seed():
    # a seed without omega' starts at omega + (z - z_prev), which is the
    # tangent step with omega' = 1, bit for bit
    import dataclasses

    xs = np.linspace(-3.2, 3.2, 321)
    upper = conv.subordination(W, W, xs + 1j * transforms._HEIGHTS[0])
    assert upper.converged.all() and np.isfinite(upper.domega).all()
    lower = xs + 1j * transforms._HEIGHTS[1]
    nan_seed = dataclasses.replace(upper, domega=np.full(xs.shape, np.nan + 0j))
    one_seed = dataclasses.replace(upper, domega=np.ones(xs.shape, complex))
    shifted = conv.subordination(W, W, lower, nan_seed).omega
    assert shifted.tobytes() == conv.subordination(W, W, lower, one_seed).omega.tobytes()
    assert shifted.tobytes() != conv.subordination(W, W, lower, upper).omega.tobytes()


def test_unconverged_point_is_solved_cold_one_height_down(monkeypatch):
    # at 7 iterations some points stop short at eps; at eps/2 those start
    # cold (the same omega as an unseeded solve) and the others are seeded
    monkeypatch.setattr(conv, "_SUB_MAX_ITER", 7)
    xs = np.linspace(-3.2, 3.2, 321)
    solves = []
    transforms._boundary_values(conv._seeded_cauchy(W, W, solves), xs)
    upper, lower, _ = solves
    cold = conv.subordination(W, W, lower.z)
    short = ~upper.converged
    assert 0 < short.sum() < short.size
    assert lower.omega[short].tobytes() == cold.omega[short].tobytes()
    assert lower.converged[~short].all()
    assert not np.array_equal(lower.omega[~short], cold.omega[~short])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_points_are_refused_before_any_solve(monkeypatch, bad):
    # a NaN point ran all _SUB_MAX_ITER rounds and came back as a NaN
    # density with a "worst residual nan" warning
    monkeypatch.setattr(transforms, "_cauchy_pair", None)
    xs = [0.0, 0.5, bad]
    with pytest.raises(ValueError, match="must be finite; 1 of 3 are not"):
        conv.subordination(W, W, np.array(xs) + 0.01j)
    with pytest.raises(ValueError, match="must be finite"):
        conv.subordination(W, W, [0.5 + 1j * bad])
    with pytest.raises(ValueError, match="must be finite"):
        conv.free_add_density(W, W, xs)
    with pytest.raises(ValueError, match="must be finite"):
        conv.density_at_points(W, W, xs)


def test_empty_points_give_an_empty_result():
    # numpy refused the empty maximum: "zero-size array to reduction
    # operation maximum which has no identity"
    sub = conv.subordination(W, W, np.array([], dtype=complex))
    assert (sub.omega.size, sub.domega.size, sub.converged.size) == (0, 0, 0)
    assert (sub.iterations, sub.max_residual) == (0, 0.0)
    res = conv.free_add_density(W, W, [])
    assert res.density.size == 0 and res.atoms == () and res.warnings == ()
    assert (res.iterations, res.max_residual, res.converged_fraction) == (0, 0.0, 1.0)
    assert conv.density_at_points(W, W, []).size == 0


def _agrees_with_reference(got, want):
    # every point the warm-up reference settles settles here, at its omega
    settled = want.converged
    assert got.converged[settled].all()
    gap = np.abs(got.omega - want.omega)[settled]
    assert np.all(gap <= 1e-9 * np.maximum(1, np.abs(got.omega[settled])))


@pytest.mark.parametrize("start", ["cold", "seeded", "mixed"])
@pytest.mark.parametrize("mu, nu, lo, hi", _EDGE_WINDOWS)
def test_subordination_agrees_with_the_warm_up_reference(monkeypatch, mu, nu, lo, hi, start):
    # omega is the only fixed point in the upper half plane, so Picard
    # warm-up steps only moved the start: Newton from the first round
    # finds the same omega, cold at each height or seeded down the heights.
    # In the mixed case the first height stops at 5 rounds, where some
    # points have settled (the reference, 2 rounds past its warm-up, has
    # settled none), so the next height's batch solves the rest cold beside
    # the seeded points
    from oracles import subordination_reference

    full = conv._SUB_MAX_ITER
    xs = np.linspace(lo - 1.5, hi, 41)
    seed = ref_seed = None
    for h in transforms._HEIGHTS:
        capped = start == "mixed" and h == transforms._HEIGHTS[0]
        monkeypatch.setattr(conv, "_SUB_MAX_ITER", 5 if capped else full)
        z = xs + 1j * h
        got = conv.subordination(mu, nu, z, seed)
        want = subordination_reference(mu, nu, z, ref_seed)
        _agrees_with_reference(got, want)
        if capped:
            assert 0 < got.converged.sum() < xs.size
        else:
            assert got.converged.all()
        if start != "cold":
            seed, ref_seed = got, want


_LAW_PARAMS = {
    "semicircle": st.tuples(st.floats(-2, 2), st.floats(0.1, 3)),
    "marchenko_pastur": st.tuples(st.floats(0.1, 4)),
    "symmetric_bernoulli": st.just(()),
    "symmetric_beta": st.just(()),
    "quarter_circle": st.tuples(st.floats(0.2, 2)),
    "beta_1a": st.tuples(st.floats(0.05, 0.95)),
    "chi_squared_1": st.just(()),
    "commutator_ww": st.just(()),
}
_LAW_SPECS = st.sampled_from(sorted(_LAW_PARAMS)).flatmap(
    lambda law: st.builds(
        MeasureSpec.from_law, st.just(law), _LAW_PARAMS[law],
        scale=st.one_of(st.just(1), st.floats(-2, -0.3), st.floats(0.3, 2)),
        offset=st.one_of(st.just(0), st.floats(-2, 2)),
    )
)
_ATOMIC_SPECS = st.lists(
    st.tuples(st.floats(-3, 3), st.floats(0.1, 1)), min_size=1, max_size=5
).map(lambda atoms: MeasureSpec.atomic(
    [(x, w / math.fsum(v for _, v in atoms)) for x, w in atoms]))


def _grid_of_semicircle(mean, variance):
    # a semicircle's density on 601 knots across its support
    r = 2 * math.sqrt(variance)
    xs = np.linspace(mean - r, mean + r, 601)
    dens = catalog.catalog_density("semicircle", (mean, variance), xs)
    return MeasureSpec.grid(xs, dens / np.trapezoid(dens, xs))


_GRID_SPECS = st.builds(_grid_of_semicircle, st.floats(-2, 2), st.floats(0.1, 3))
_SPECS = st.one_of(_ATOMIC_SPECS, _LAW_SPECS, _GRID_SPECS)


@settings(max_examples=60, deadline=None)
@given(_SPECS, _SPECS, st.floats(2.5e-3, 1))
def test_subordination_agrees_with_the_warm_up_reference_on_random_specs(mu, nu, h):
    # cold at height h, then seeded one height down at h/2, as
    # conv._seeded_cauchy seeds its heights
    from oracles import subordination_reference

    xs = np.linspace(-8, 8, 33)
    upper = conv.subordination(mu, nu, xs + 1j * h)
    ref_upper = subordination_reference(mu, nu, xs + 1j * h)
    _agrees_with_reference(upper, ref_upper)
    lower = xs + 0.5j * h
    _agrees_with_reference(conv.subordination(mu, nu, lower, upper),
                           subordination_reference(mu, nu, lower, ref_upper))


# ---------------------------------------------------------------------------
# iterated identities


def test_check_1418_exact_for_rational_t():
    for s in (2, 3):
        for t in (F(1, 2), 1, 2, F(7, 2)):
            assert _dilation_mult_power_dev(M, s, t, 8) == 0.0


def test_check_1418_s_one_is_trivial():
    assert _dilation_mult_power_dev(M, 1, F(3, 2), 8) == 0.0


def test_boolean_free_power_identity():
    for t in (F(1, 4), F(1, 2), F(3, 4)):
        for mu in (W, M):
            assert _boolean_free_power_dev(mu, t, 8) == 0.0


# ---------------------------------------------------------------------------
# free commutator


def test_commutator_semicircles():
    out = conv.commutator(W, W, 10)
    kappa = catalog.free_cumulants_of(out, 10)
    assert kappa.values == (0, 2, 0, 2, 0, 2, 0, 2, 0, 2)


def test_commutator_poisson_is_compound_poisson():
    # kappa_n of the commutator of two free Poissons is 2 m_n(M x B)
    out = conv.commutator(M, M, 10)
    mb = conv.free_mult(M, B, 10, method="dp")
    expected = tuple(2 * v for v in catalog.moments_of(mb, 10).values)
    assert catalog.free_cumulants_of(out, 10).values == expected


def test_commutator_squared_bernoulli_route():
    # (mu^2 x b)^{+2} has the commutator's free cumulants, mu of even kappa
    rng = np.random.default_rng(11)
    for _ in range(5):
        even = [F(int(rng.integers(1, 5)), int(rng.integers(1, 4)))
                for _ in range(8)]
        kappa = []
        for v in even:
            kappa.extend([0, v])
        mu = MeasureSpec.from_free_cumulants(kappa)

        alpha = SeqN("free_cumulant", even)
        musq = ncpart.moments_from_free_cumulants(ncpart.square_cumulants(alpha))
        prod = ncpart.free_mult_moments(musq, catalog.moments_of(B, 8), 8)
        lhs = tuple(2 * v for v in ncpart.free_cumulants_from_moments(prod).values)

        box = catalog.free_cumulants_of(conv.commutator(mu, mu, 16), 8)
        assert lhs == box.values


def test_commutator_ignores_odd_cumulants():
    base = [0, F(1), 0, F(1, 2), 0, F(2), 0, F(1, 3)]
    perturbed = [F(1, 5), F(1), F(-2, 3), F(1, 2), F(4), F(2), F(-1, 7), F(1, 3)]
    out_a = conv.commutator(
        MeasureSpec.from_free_cumulants(base),
        MeasureSpec.from_free_cumulants(base),
        8,
    )
    out_b = conv.commutator(
        MeasureSpec.from_free_cumulants(perturbed),
        MeasureSpec.from_free_cumulants(perturbed),
        8,
    )
    a = catalog.free_cumulants_of(out_a, 8).values
    b = catalog.free_cumulants_of(out_b, 8).values
    assert a == b
    assert all(a[n] == 0 for n in range(0, 8, 2))


def test_commutator_rejects_odd_order():
    with pytest.raises(ValueError, match="even"):
        conv.commutator(W, W, 7)


def test_commutator_mixed_arguments():
    # commutator with a point mass at 0 collapses to the zero distribution
    zero = atomic_from([F(0)])
    out = conv.commutator(W, zero, 8)
    assert catalog.moments_of(out, 8).values == tuple([0] * 8)
