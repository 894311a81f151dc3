"""Catalog laws, measure representations, and pushforwards.

The closed-form moments are checked against adaptive quadrature of the
densities, so the two routes validate each other; exact rational cases are
pinned to independently known integer sequences.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeconv import ncpart
from freeconv.catalog import (
    LAWS,
    MeasureSpec,
    atoms_of,
    boolean_cumulants_of,
    catalog_atoms,
    catalog_density,
    catalog_moments,
    density_of,
    dilate,
    free_cumulants_of,
    moments_of,
    push_square,
    reflect,
    support_of,
    symmetric_sqrt_moments,
)
from oracles import law_moments_quadrature
from spec_ids import describe
from freeconv.ncpart import SeqN, catalan


# ---------------------------------------------------------------------------
# law registry and validation


def test_known_laws():
    assert set(LAWS) == {
        "semicircle",
        "marchenko_pastur",
        "symmetric_bernoulli",
        "symmetric_beta",
        "quarter_circle",
        "beta_1a",
        "chi_squared_1",
        "commutator_ww",
    }


@pytest.mark.parametrize(
    "law,params",
    [
        ("semicircle", (0, -1)),
        ("semicircle", (0,)),
        ("marchenko_pastur", (0,)),
        ("marchenko_pastur", (-2,)),
        ("quarter_circle", (0,)),
        ("beta_1a", (0,)),
        ("beta_1a", (1,)),
        ("beta_1a", (1.5,)),
        ("symmetric_bernoulli", (3,)),
        ("chi_squared_1", (1,)),
        ("commutator_ww", (1,)),
    ],
)
def test_parameter_validation(law, params):
    with pytest.raises(ValueError):
        MeasureSpec.from_law(law, params)


def test_unknown_law_rejected():
    with pytest.raises(ValueError, match="unknown law"):
        MeasureSpec.from_law("cauchy")
    with pytest.raises(ValueError):
        catalog_moments("gaussian", (), 4)


@pytest.mark.parametrize(
    "law,params,message",
    [
        ("semicircle", (0,), "semicircle takes (mean, variance)"),
        ("marchenko_pastur", (1, 2), "marchenko_pastur takes (rate)"),
        ("quarter_circle", (), "quarter_circle takes (sigma)"),
        ("beta_1a", (), "beta_1a takes (a)"),
        ("chi_squared_1", (1,), "chi_squared_1 takes no parameters"),
        ("semicircle", (0, -1), "semicircle variance must be positive, got -1"),
        ("semicircle", (0, math.nan), "semicircle variance must be positive, got nan"),
        ("marchenko_pastur", (0,), "marchenko_pastur rate must be positive, got 0"),
        ("quarter_circle", (-1,), "quarter_circle sigma must be positive, got -1"),
        ("beta_1a", (1.5,), "beta_1a exponent must lie in (0,1), got 1.5"),
    ],
)
def test_parameter_messages_name_the_parameters(law, params, message):
    with pytest.raises(ValueError) as info:
        MeasureSpec.from_law(law, params)
    assert str(info.value) == message


def test_marchenko_pastur_default_rate():
    mu = MeasureSpec.from_law("marchenko_pastur")
    assert mu.params == (1,)


# ---------------------------------------------------------------------------
# closed moments against quadrature


QUAD_CASES = [
    ("semicircle", (0.3, 2.0), 10),
    ("semicircle", (0, 1), 10),
    ("marchenko_pastur", (1,), 10),
    ("marchenko_pastur", (0.5,), 10),
    ("marchenko_pastur", (2.25,), 10),
    ("symmetric_beta", (), 10),
    ("quarter_circle", (1.0,), 10),
    ("quarter_circle", (1.3,), 9),
    ("beta_1a", (0.3,), 10),
    ("beta_1a", (0.75,), 10),
    ("chi_squared_1", (), 8),
    ("commutator_ww", (), 8),
]


@pytest.mark.parametrize("law,params,order", QUAD_CASES)
def test_closed_moments_match_quadrature(law, params, order):
    closed = catalog_moments(law, params, order)
    quad = law_moments_quadrature(law, params, order)
    for n in range(1, order + 1):
        c, q = float(closed.at(n)), quad.at(n)
        assert c == pytest.approx(q, rel=1e-8, abs=1e-10), f"moment {n}"


def test_quadrature_of_law_without_density_is_its_atoms():
    quad = law_moments_quadrature("symmetric_bernoulli", (), 6)
    assert quad.values == (0.0, 1.0, 0.0, 1.0, 0.0, 1.0)


@pytest.mark.parametrize(
    "mu,window",
    [
        (MeasureSpec.from_law("quarter_circle", (1,), scale=-2, offset=1), (-3.0, 1.0)),
        (MeasureSpec.from_law("semicircle", (1, 1), scale=Fraction(1, 2)), (-0.5, 1.5)),
        (MeasureSpec.from_law("chi_squared_1", (), scale=-1), (-math.inf, 0.0)),
        (MeasureSpec.from_law("symmetric_bernoulli"), None),
        (MeasureSpec.atomic([(2, 1)]), None),
    ],
)
def test_support_of_applies_the_pushforward(mu, window):
    assert support_of(mu) == window


@pytest.mark.parametrize(
    "law,params",
    [
        ("semicircle", (0, 1)),
        ("marchenko_pastur", (0.7,)),
        ("symmetric_beta", ()),
        ("quarter_circle", (0.8,)),
        ("beta_1a", (0.4,)),
        ("commutator_ww", ()),
    ],
)
def test_density_mass(law, params):
    from scipy.integrate import quad

    spec = LAWS[law]
    lo, hi = spec.support(params)
    if lo < 0 < hi:
        m1, _ = quad(lambda x: catalog_density(law, params, x), lo, 0, limit=300)
        m2, _ = quad(lambda x: catalog_density(law, params, x), 0, hi, limit=300)
        mass = m1 + m2
    else:
        mass, _ = quad(lambda x: catalog_density(law, params, x), lo, hi, limit=300)
    atom_mass = sum(w for _, w in catalog_atoms(law, params))
    assert mass + atom_mass == pytest.approx(1.0, abs=1e-8)


def test_density_vectorized_and_outside_support():
    xs = [-3.0, 0.0, 1.0, 2.5]
    vals = catalog_density("semicircle", (0, 1), xs)
    assert vals.shape == (4,)
    assert vals[0] == 0.0 and vals[3] == 0.0
    assert vals[1] == pytest.approx(1 / math.pi)
    assert catalog_density("symmetric_bernoulli", (), 1.0) == 0.0


# ---------------------------------------------------------------------------
# exact rational moments


def test_semicircle_exact_catalan():
    m = catalog_moments("semicircle", (0, 1), 12)
    for n in range(1, 13):
        want = Fraction(0) if n % 2 else Fraction(catalan(n // 2))
        assert m.at(n) == want
        assert isinstance(m.at(n), Fraction)


def test_marchenko_pastur_exact():
    m = catalog_moments("marchenko_pastur", (1,), 10)
    assert m.values == tuple(Fraction(catalan(n)) for n in range(1, 11))
    half = catalog_moments("marchenko_pastur", (Fraction(1, 2),), 4)
    # kappa_n = 1/2 for all n
    want = ncpart.moments_from_free_cumulants(
        SeqN("free_cumulant", [Fraction(1, 2)] * 4)
    )
    assert half.values == want.values


def test_symmetric_bernoulli_and_beta_exact():
    b = catalog_moments("symmetric_bernoulli", (), 8)
    assert b.values == (0, 1, 0, 1, 0, 1, 0, 1)
    sb = catalog_moments("symmetric_beta", (), 8)
    for n in range(1, 9):
        assert sb.at(n) == (0 if n % 2 else catalan(n))


def test_chi_squared_exact_double_factorial():
    m = catalog_moments("chi_squared_1", (), 6)
    assert m.values == (1, 3, 15, 105, 945, 10395)


def test_commutator_moments_from_even_cumulants():
    m = catalog_moments("commutator_ww", (), 8)
    assert m.at(2) == 2 and m.at(4) == 10
    assert m.at(1) == 0 and m.at(3) == 0 and m.at(5) == 0 and m.at(7) == 0
    kappa = ncpart.free_cumulants_from_moments(m)
    assert kappa.values == (0, 2, 0, 2, 0, 2, 0, 2)


def test_beta_moment_exact_for_rational_exponent():
    m = catalog_moments("beta_1a", (Fraction(1, 3),), 3)
    # prod_{j<n} (1 - 1/3 + j) / (2 + j)
    assert m.at(1) == Fraction(2, 3) / 2
    assert m.at(2) == Fraction(2, 3) * Fraction(5, 3) / (2 * 3)
    assert isinstance(m.at(3), Fraction)


def test_moment_caps():
    with pytest.raises(ValueError, match="capped"):
        catalog_moments("semicircle", (0, 1), 65)
    with pytest.raises(ValueError, match="capped"):
        law_moments_quadrature("semicircle", (0, 1), 33)
    # order 64 closed form stays exact and fast
    m = catalog_moments("semicircle", (0, 1), 64)
    assert m.at(64) == catalan(32)


@pytest.mark.parametrize(
    "mu",
    [
        MeasureSpec.atomic([(2, 1)]),
        MeasureSpec.grid([0.0, 1.0, 2.0], [0.0, 1.0, 0.0]),
        MeasureSpec.from_law("semicircle", (0, 1)),
    ],
    ids=["atomic", "grid", "law"],
)
def test_moments_of_capped_at_entry(mu):
    with pytest.raises(ValueError, match="capped at order 64"):
        moments_of(mu, 65)
    assert moments_of(mu, 64).order == 64


def test_moments_of_moment_spec_bounded_by_its_data():
    # a stored moment sequence is only truncated; its order bounds it
    mu = MeasureSpec.from_moments(list(range(1, 71)))
    assert moments_of(mu, 70).values == tuple(range(1, 71))


# ---------------------------------------------------------------------------
# atoms


def test_marchenko_pastur_atom():
    assert catalog_atoms("marchenko_pastur", (Fraction(1, 4),)) == (
        (0, Fraction(3, 4)),
    )
    assert catalog_atoms("marchenko_pastur", (1,)) == ()
    assert catalog_atoms("marchenko_pastur", (2,)) == ()
    assert catalog_atoms("symmetric_bernoulli", ()) == (
        (-1, Fraction(1, 2)),
        (1, Fraction(1, 2)),
    )


# ---------------------------------------------------------------------------
# Cauchy transform closed forms


def test_semicircle_cauchy_value():
    from freeconv.catalog import _sc_cauchy

    g = _sc_cauchy((0, 1), 2j)[0]
    assert g == pytest.approx(1j * (1 - math.sqrt(2)), abs=1e-12)


@pytest.mark.parametrize(
    "law,params",
    [("semicircle", (0.5, 1.7)), ("marchenko_pastur", (0.6,)), ("marchenko_pastur", (1.9,))],
)
def test_cauchy_closed_forms_against_integral(law, params):
    from scipy.integrate import quad

    fn = LAWS[law].cauchy
    lo, hi = LAWS[law].support(params)
    for z in (0.7 + 0.9j, -1.2 + 0.4j, 2.0 + 2.0j):
        want = complex(
            quad(lambda x: catalog_density(law, params, x) / abs(z - x) ** 2 * (z.real - x), lo, hi, limit=300)[0],
            quad(lambda x: -catalog_density(law, params, x) / abs(z - x) ** 2 * z.imag, lo, hi, limit=300)[0],
        )
        for loc, w in catalog_atoms(law, params):
            want += float(w) / (z - loc)
        got = fn(params, z)[0]
        assert got == pytest.approx(want, rel=2e-7)
        assert got.imag < 0


def test_cauchy_decays_like_reciprocal():
    for law, params in (("semicircle", (0, 1)), ("marchenko_pastur", (1.3,))):
        z = 80.0 + 3.0j
        g = LAWS[law].cauchy(params, z)[0]
        m1 = float(catalog_moments(law, params, 1).at(1))
        assert g == pytest.approx(1 / z + m1 / z**2, abs=2e-4)


# ---------------------------------------------------------------------------
# MeasureSpec constructors and queries


def test_atomic_merges_and_validates():
    mu = MeasureSpec.atomic([(1, Fraction(1, 4)), (1, Fraction(1, 4)), (0, Fraction(1, 2))])
    assert mu.atoms == ((0, Fraction(1, 2)), (1, Fraction(1, 2)))
    assert mu.mass_at_zero == Fraction(1, 2)
    with pytest.raises(ValueError, match="sum"):
        MeasureSpec.atomic([(0, 0.5), (1, 0.4)])
    with pytest.raises(ValueError, match="nonnegative"):
        MeasureSpec.atomic([(0, 1.5), (1, -0.5)])
    with pytest.raises(ValueError, match="finite"):
        MeasureSpec.atomic([(math.inf, 1.0)])


def test_grid_validation():
    with pytest.raises(ValueError, match="increasing"):
        MeasureSpec.grid([0, 0], [1, 1])
    with pytest.raises(ValueError, match="nonnegative"):
        MeasureSpec.grid([0, 1], [2, -0.1], norm_tol=1.0)
    with pytest.raises(ValueError, match="deviates"):
        MeasureSpec.grid([0, 1], [0.5, 0.5])
    mu = MeasureSpec.grid([0, 1], [0.5, 0.5], atoms=[(2, 0.5)])
    assert mu.mass_at_zero == 0
    assert mu.atoms == ((2, 0.5),)


@pytest.mark.parametrize("build", [
    lambda: MeasureSpec.atomic([(0, math.nan), (1, 1)]),
    lambda: MeasureSpec.atomic([(0, math.inf), (1, 1)]),
    lambda: MeasureSpec.grid([0, 1], [math.nan, 1.0]),
    lambda: MeasureSpec.grid([0, math.nan, 1], [1.0, 1.0, 1.0]),
    lambda: MeasureSpec.grid([0, 1], [0.5, 0.5], atoms=[(math.nan, 0)]),
    lambda: MeasureSpec.grid([0, 1], [0.5, 0.5], atoms=[(2, math.nan)], norm_tol=1.0),
    lambda: MeasureSpec.from_law("semicircle", (0, 1), scale=math.nan),
    lambda: MeasureSpec.from_law("semicircle", (0, 1), offset=math.inf),
    lambda: dilate(MeasureSpec.from_law("semicircle", (0, 1)), math.nan),
    lambda: dilate(MeasureSpec.from_law("semicircle", (0, 1)), math.inf),
    lambda: dilate(MeasureSpec.from_moments([1, 2]), math.inf),
], ids=["atom-weight-nan", "atom-weight-inf", "grid-density-nan", "grid-x-nan",
        "grid-atom-loc-nan", "grid-atom-weight-nan", "law-scale-nan", "law-offset-inf",
        "dilate-law-nan", "dilate-law-inf", "dilate-moments-inf"])
def test_constructors_refuse_non_finite_input(build):
    with pytest.raises(ValueError, match="finite"):
        build()


@pytest.mark.parametrize("scale,offset,names", [
    (1e100, 0, "scale 1e+100"),
    (1, -1e200, "offset -1e+200"),
])
def test_float_pushforward_overflow_is_a_value_error(scale, offset, names):
    # a float power past the float range raises OverflowError; moments_of
    # turns it into a ValueError that names the spec's scale or offset
    mu = MeasureSpec.from_law("semicircle", (0, 1), scale=scale, offset=offset)
    with pytest.raises(ValueError, match=f"overflow a float.*{re.escape(names)}"):
        moments_of(mu, 4)
    with pytest.raises(ValueError, match="overflow a float"):
        moments_of(dilate(MeasureSpec.from_law("semicircle", (0, 1)), 1e200), 4)


def test_sequence_constructors_check_kind():
    with pytest.raises(ValueError, match="moment"):
        MeasureSpec.from_moments(SeqN("free_cumulant", [1, 1]))
    with pytest.raises(ValueError, match="free cumulant"):
        MeasureSpec.from_free_cumulants(SeqN("moment", [1, 1]))
    mu = MeasureSpec.from_free_cumulants([0, 1])
    assert mu.seq.kind == "free_cumulant"
    assert mu.mass_at_zero is None


def test_mass_at_zero_for_laws():
    assert MeasureSpec.from_law("marchenko_pastur", (Fraction(1, 2),)).mass_at_zero == Fraction(1, 2)
    assert MeasureSpec.from_law("marchenko_pastur", (2,)).mass_at_zero == 0
    # an offset moves the atom off the origin
    shifted = MeasureSpec.from_law("marchenko_pastur", (Fraction(1, 2),), offset=1)
    assert shifted.mass_at_zero == 0
    assert MeasureSpec.from_law("semicircle", (0, 1)).mass_at_zero == 0


def test_mass_at_zero_sums_every_atom_at_zero():
    # grid atoms are not merged, so two atoms may share the origin
    mu = MeasureSpec.grid([1, 2], [0.4, 0.4], atoms=[(0, 0.3), (0, 0.3)])
    assert mu.mass_at_zero == 0.3 + 0.3
    reflected = MeasureSpec.from_law("marchenko_pastur", (Fraction(1, 2),), scale=-2)
    assert reflected.mass_at_zero == Fraction(1, 2)


# law specs under a pushforward, with exact and float scale and offset
PUSHED_LAWS = [
    MeasureSpec.from_law("semicircle", (Fraction(1, 2), Fraction(3, 2)),
                         scale=Fraction(-2, 3), offset=Fraction(-5, 7)),
    MeasureSpec.from_law("marchenko_pastur", (Fraction(1, 2),), scale=-2, offset=3),
    MeasureSpec.from_law("marchenko_pastur", (Fraction(1, 2),),
                         scale=Fraction(3, 2), offset=Fraction(-1, 4)),
    MeasureSpec.from_law("marchenko_pastur", (0.4,), scale=1.5, offset=-0.25),
    MeasureSpec.from_law("symmetric_bernoulli", (), scale=2, offset=Fraction(1, 3)),
    MeasureSpec.from_law("beta_1a", (Fraction(7, 10),), scale=Fraction(-1, 3)),
]


@pytest.mark.parametrize("mu", PUSHED_LAWS, ids=describe)
def test_atoms_of_law_moves_atoms_through_pushforward(mu):
    want = tuple(
        (mu.scale * loc + mu.offset, w) for loc, w in catalog_atoms(mu.law, mu.params)
    )
    got = atoms_of(mu)
    assert got == want
    assert [type(v) for atom in got for v in atom] == [
        type(v) for atom in want for v in atom
    ]


def test_atoms_of_marchenko_pastur_atom_moves():
    mu = MeasureSpec.from_law("marchenko_pastur", (Fraction(1, 2),), scale=-2, offset=3)
    assert atoms_of(mu) == ((3, Fraction(1, 2)),)
    mu = MeasureSpec.from_law("marchenko_pastur", (Fraction(1, 2),),
                              scale=Fraction(3, 2), offset=Fraction(-1, 4))
    assert atoms_of(mu) == ((Fraction(-1, 4), Fraction(1, 2)),)
    assert mu.mass_at_zero == 0


@pytest.mark.parametrize("mu", PUSHED_LAWS, ids=describe)
def test_density_of_law_is_the_pushed_density(mu):
    s, c = float(mu.scale), float(mu.offset)
    xs = np.linspace(-4.0, 4.0, 97)
    want = catalog_density(mu.law, mu.params, (xs - c) / s) / abs(s)
    assert density_of(mu, xs).tobytes() == want.tobytes()
    assert density_of(mu, list(xs)).tobytes() == want.tobytes()
    for x in (-1.3, 0.05, 0.7, 2.2):
        # scalar points, with the exact scale and offset of the spec
        want = catalog_density(mu.law, mu.params, (x - mu.offset) / mu.scale) / abs(mu.scale)
        assert density_of(mu, x) == want


def test_density_of_pushforward_keeps_mass():
    mu = MeasureSpec.from_law("semicircle", (0, 1), scale=Fraction(-1, 2), offset=3)
    xs = np.linspace(1.5, 4.5, 6001)
    assert np.trapezoid(density_of(mu, xs), xs) == pytest.approx(1, abs=1e-4)


def test_atoms_and_density_of_grid_with_atoms():
    mu = MeasureSpec.grid([0, 1, 2], [0.5, 0.5, 0.0], atoms=[(3, 0.25), (-1, 0.0)])
    assert atoms_of(mu) == mu.atoms == ((-1, 0.0), (3, 0.25))
    xs = np.array([-1.0, 0.0, 0.5, 1.5, 2.0, 3.0])
    want = np.interp(xs, np.asarray(mu.xs, float), np.asarray(mu.densities, float),
                     left=0.0, right=0.0)
    assert density_of(mu, xs).tobytes() == want.tobytes()
    assert density_of(mu, 1.5) == 0.25


def test_atoms_and_density_of_refuse_other_forms():
    mu = MeasureSpec.atomic([(0, Fraction(1, 3)), (1, Fraction(2, 3))])
    assert atoms_of(mu) == mu.atoms
    with pytest.raises(ValueError, match="no density"):
        density_of(mu, 0.5)
    for mu in (MeasureSpec.from_moments([0, 1]), MeasureSpec.from_free_cumulants([0, 1])):
        with pytest.raises(ValueError, match="no atoms"):
            atoms_of(mu)
        with pytest.raises(ValueError, match="no density"):
            density_of(mu, 0.5)


def test_describe_mentions_pushforward():
    mu = MeasureSpec.from_law("semicircle", (0, 1), scale=2, offset=-1)
    assert "pushforward" in describe(mu)


# ---------------------------------------------------------------------------
# moments_of across representations


def test_atomic_moments_exact():
    mu = MeasureSpec.atomic([(Fraction(-1), Fraction(1, 3)), (Fraction(2), Fraction(2, 3))])
    m = moments_of(mu, 3)
    assert m.values == (
        Fraction(-1, 3) + Fraction(4, 3),
        Fraction(1, 3) + Fraction(8, 3),
        Fraction(-1, 3) + Fraction(16, 3),
    )


def test_grid_moments_approximate_law():
    xs = [(-2 + 4 * i / 4000) for i in range(4001)]
    dens = list(catalog_density("semicircle", (0, 1), xs))
    mu = MeasureSpec.grid(xs, dens, norm_tol=1e-3)
    m = moments_of(mu, 6)
    assert m.at(2) == pytest.approx(1.0, abs=2e-3)
    assert m.at(4) == pytest.approx(2.0, abs=5e-3)
    assert m.at(6) == pytest.approx(5.0, abs=2e-2)


def test_grid_moments_of_the_triangle_are_exact():
    # the piecewise-linear density on [0, 2] peaking at 1 has moments
    # 1, 7/6, 3/2, 31/15, not those of the point mass at 1
    exact = MeasureSpec(kind="grid", xs=(Fraction(0), Fraction(1), Fraction(2)),
                        densities=(Fraction(0), Fraction(1), Fraction(0)))
    assert moments_of(exact, 4).values == (1, Fraction(7, 6), Fraction(3, 2), Fraction(31, 15))
    floats = moments_of(MeasureSpec.grid([0, 1, 2], [0, 1, 0]), 4).values
    assert floats == pytest.approx([1, 7 / 6, 3 / 2, 31 / 15], rel=1e-15)


def _semicircle_grid(n=601):
    xs = [(-2 + 4 * i / (n - 1)) for i in range(n)]
    dens = catalog_density("semicircle", (0, 1), xs)
    return MeasureSpec.grid(xs, dens / sum(dens * 4 / (n - 1)), norm_tol=1e-3)


@pytest.mark.parametrize(
    "mu, order",
    [
        (MeasureSpec.grid([0, 1, 2], [0, 1, 0]), 16),
        (MeasureSpec.grid([0, 1, 2], [0.5, 0.25, 0.5], atoms=[(-1.5, 0.25)]), 16),
        (_semicircle_grid(), 16),
        (MeasureSpec.grid([0.2 + 0.01 * i for i in range(301)],
                          [1 / 3] * 301, norm_tol=1e-12), 24),
    ],
    ids=["triangle", "with_atom", "semicircle", "uniform"],
)
def test_grid_moments_float_route_matches_fraction_route(mu, order):
    # the same formula on the Fraction values of the grid's floats
    exact = MeasureSpec(kind="grid", xs=tuple(map(Fraction, mu.xs)),
                        densities=tuple(map(Fraction, mu.densities)),
                        atoms=tuple((Fraction(x), Fraction(w)) for x, w in mu.atoms))
    for got, want in zip(moments_of(mu, order).values, moments_of(exact, order).values):
        assert abs(Fraction(got) - want) <= Fraction(1e-12) * max(1, abs(want))


def test_affine_law_moments():
    base = MeasureSpec.from_law("semicircle", (0, 1))
    mu = MeasureSpec.from_law("semicircle", (0, 1), scale=Fraction(2), offset=Fraction(3))
    m = moments_of(mu, 6)
    kappa = SeqN("free_cumulant", [Fraction(3), Fraction(4), 0, 0, 0, 0])
    want = ncpart.moments_from_free_cumulants(kappa)
    assert m.values == want.values
    assert moments_of(base, 4).at(4) == 2


def test_moment_representation_order_guard():
    mu = MeasureSpec.from_moments([0, 1, 0])
    assert moments_of(mu, 2).values == (0, 1)
    with pytest.raises(ValueError, match="holds order 3"):
        moments_of(mu, 4)


def test_free_cumulants_of_laws():
    mp = MeasureSpec.from_law("marchenko_pastur", (Fraction(3, 2),))
    assert free_cumulants_of(mp, 6).values == (Fraction(3, 2),) * 6
    sc = MeasureSpec.from_law("semicircle", (Fraction(1, 2), Fraction(2)), scale=Fraction(3))
    kappa = free_cumulants_of(sc, 5)
    assert kappa.values == (Fraction(3, 2), Fraction(18), 0, 0, 0)


def test_boolean_cumulants_of_bernoulli():
    b = MeasureSpec.from_law("symmetric_bernoulli")
    r = boolean_cumulants_of(b, 6)
    assert r.values == (0, 1, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# squares and square roots


def test_push_square_laws():
    w2 = push_square(MeasureSpec.from_law("semicircle", (0, Fraction(9, 4))))
    assert w2.law == "marchenko_pastur" and w2.scale == Fraction(9, 4)
    q2 = push_square(MeasureSpec.from_law("quarter_circle", (Fraction(3),)))
    assert q2.law == "marchenko_pastur" and q2.scale == 9
    b2 = push_square(MeasureSpec.from_law("symmetric_bernoulli"))
    assert b2.atoms == ((1, 1),)


def test_push_square_moments_and_errors():
    mu = MeasureSpec.from_moments([0, 2, 0, 10, 0, 66])
    sq = push_square(mu)
    assert sq.seq.values == (2, 10, 66)
    with pytest.raises(ValueError, match="odd"):
        push_square(MeasureSpec.from_moments([0, 2, 0, 10, 0]))


def test_push_square_atomic():
    mu = MeasureSpec.atomic([(-2, Fraction(1, 2)), (2, Fraction(1, 2))])
    assert push_square(mu).atoms == ((4, 1),)


def test_push_square_semicircle_matches_catalan_scaling():
    v = Fraction(1, 4)
    sq = push_square(MeasureSpec.from_law("semicircle", (0, v)))
    m = moments_of(sq, 5)
    assert m.values == tuple(catalan(n) * v**n for n in range(1, 6))


def test_push_square_grid_against_exact():
    xs = [(-2 + 4 * i / 6000) for i in range(6001)]
    dens = list(catalog_density("semicircle", (0, 1), xs))
    mu = MeasureSpec.grid(xs, dens, norm_tol=1e-3)
    sq = push_square(mu)
    m = moments_of(sq, 3)
    assert m.at(1) == pytest.approx(1.0, rel=2e-2)
    assert m.at(2) == pytest.approx(2.0, rel=2e-2)
    assert m.at(3) == pytest.approx(5.0, rel=3e-2)


def test_symmetric_sqrt_of_free_poisson_is_semicircle():
    m = catalog_moments("marchenko_pastur", (1,), 5)
    sym = symmetric_sqrt_moments(m)
    want = catalog_moments("semicircle", (0, 1), 10)
    assert sym.values == want.values


# ---------------------------------------------------------------------------
# affine pushforwards


def test_dilate_and_shift_moments():
    mu = MeasureSpec.from_moments([Fraction(1), Fraction(2), Fraction(5)])
    d = dilate(mu, Fraction(-2))
    assert d.seq.values == (Fraction(-2), Fraction(8), Fraction(-40))


def test_dilate_cumulants_and_reflect():
    mu = MeasureSpec.from_free_cumulants([1, 1, 1])
    assert reflect(mu).seq.values == (-1, 1, -1)


def test_dilate_grid_preserves_mass():
    xs = [0.0, 1.0, 2.0]
    mu = MeasureSpec.grid(xs, [0, 1, 0], atoms=())
    d = dilate(mu, -3.0)
    assert d.xs == (-6.0, -3.0, 0.0)
    assert moments_of(d, 1).at(1) == pytest.approx(-3.0)


def test_dilate_zero_rejected():
    with pytest.raises(ValueError, match="nonzero"):
        dilate(MeasureSpec.from_moments([1]), 0)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-4, max_value=4),
            st.integers(min_value=1, max_value=5),
        ),
        min_size=1,
        max_size=4,
    ),
    st.integers(min_value=-3, max_value=3).filter(lambda a: a != 0),
    st.integers(min_value=-3, max_value=3),
)
def test_affine_atomic_matches_moment_transform(raw, a, c):
    total = sum(w for _, w in raw)
    atoms = [(loc, Fraction(w, total)) for loc, w in raw]
    mu = MeasureSpec.atomic(atoms)
    moved = MeasureSpec.atomic([(a * loc + c, w) for loc, w in atoms])
    m_direct = moments_of(moved, 6)
    from freeconv.catalog import _affine_moments

    m_via = _affine_moments(moments_of(mu, 6).values, a, c, 6)
    assert m_direct.values == tuple(m_via)
