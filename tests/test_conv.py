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
    assert abs(res.inversion.total_mass - 1) < 1e-3


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


@pytest.mark.parametrize(
    "mu, nu, lo, hi",
    [
        (W, W, 2.0, 3.2),
        (W, W, -3.2, -2.0),
        (M, catalog.reflect(M), 3.0, 3.8),
        (atomic_from([F(-1), F(1, 2), F(3)]), W, -3.5, -2.0),
        (W, _grid_semicircle(), 2.0, 3.2),
    ],
)
def test_density_at_points_is_batch_independent(mu, nu, lo, hi):
    # the batched edge bisection is exact only if a point's density does
    # not depend on the other points solved with it
    xs = np.linspace(lo, hi, 9)
    alone = np.concatenate([conv.density_at_points(mu, nu, [x]) for x in xs])
    assert conv.density_at_points(mu, nu, xs).tobytes() == alone.tobytes()


def test_support_edges_pinned():
    # bit patterns of the bisected edges; any drift in the extrapolation
    # or the bisection arithmetic changes them
    assert conv.support_edge(W, W, 2.0, 3.2).hex() == "0x1.6a8d333333333p+1"
    assert conv.support_edge(W, W, -2.0, -3.2).hex() == "-0x1.6a8d333333333p+1"
    edge = conv.support_edge(M, catalog.reflect(M), 3.0, 3.8)
    assert edge.hex() == "0x1.aab1999999998p+1"


def test_semicircle_sum_density_pinned():
    xs = np.linspace(-3.2, 3.2, 321)
    density = conv.free_add_density(W, W, xs).density
    pinned = {
        20: "0x1.04b4fe49cbdc1p-5",
        80: "0x1.7c169ad3f1310p-3",
        160: "0x1.ccecbd888b80ap-3",
        210: "0x1.af27d8033ef0cp-3",
        285: "0x1.af27d7cbafca2p-4",
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


def test_seeding_bounds_grid_evaluations(monkeypatch):
    # unseeded, W plus a grid spec on 301 points evaluated the grid's
    # transform at 6491 points; seeded heights take a few Newton sweeps
    points = []
    grid_cauchy = transforms._grid_cauchy

    def counted(mu, z, derivative=False):
        points.append(np.size(z))
        return grid_cauchy(mu, z, derivative)

    monkeypatch.setattr(transforms, "_grid_cauchy", counted)
    res = conv.free_add_density(W, _grid_semicircle(), np.linspace(-3.2, 3.2, 301))
    assert res.converged_fraction == 1
    assert sum(points) <= 4200


def test_unconverged_point_is_solved_cold_one_height_down(monkeypatch):
    # at 7 iterations some points stop short at eps; at eps/2 those start
    # cold (the same omega as an unseeded solve) and the others are seeded
    monkeypatch.setattr(conv, "_SUB_MAX_ITER", 7)
    xs = np.linspace(-3.2, 3.2, 321)
    upper, lower, _ = conv._boundary_cauchy(W, W, xs)[1]
    cold = conv.subordination(W, W, lower.z)
    short = ~upper.converged
    assert 0 < short.sum() < short.size
    assert lower.omega[short].tobytes() == cold.omega[short].tobytes()
    assert lower.converged[~short].all()
    assert not np.array_equal(lower.omega[~short], cold.omega[~short])


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
