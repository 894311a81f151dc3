"""Catalog laws, measure representations, and pushforwards.

The closed-form moments are checked against adaptive quadrature of the
densities, so the two routes validate each other; exact rational cases are
pinned to independently known integer sequences.
"""

import dataclasses
import math
import pathlib
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeconv import catalog, ncpart, transforms
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


def test_negative_orders_refused():
    moment_spec = MeasureSpec.from_moments([1, 2, 5])
    cumulant_spec = MeasureSpec.from_free_cumulants([1, 2, 5])
    calls = [
        lambda n: moments_of(moment_spec, n),
        lambda n: moments_of(MeasureSpec.atomic([(2, 1)]), n),
        lambda n: catalog_moments("semicircle", (0, 1), n),
        lambda n: free_cumulants_of(cumulant_spec, n),
        lambda n: free_cumulants_of(moment_spec, n),
    ]
    for call in calls:
        for n in (-1, -2):
            with pytest.raises(ValueError, match=f"order >= 0, got {n}"):
                call(n)
        assert call(0).values == ()


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


def _mp_cauchy_two_terms(rate, z):
    # the closed form with its atom term formed at every rate
    root = np.sqrt(z - (1 - math.sqrt(rate)) ** 2) * np.sqrt(z - (1 + math.sqrt(rate)) ** 2)
    atom, ac = max(1 - rate, 0) / z, 2 * min(rate, 1) / (z - abs(1 - rate) + root)
    return atom + ac, -atom / z - ac * (1 - ac) / root


@pytest.mark.parametrize("rate", [0.25, 0.5, 1, 1.5, 3])
def test_marchenko_pastur_cauchy_forms_the_atom_term_below_rate_one(rate):
    # at rate >= 1 the atom term was 0/z, two complex divisions that add
    # zeros: dropping it may flip only the sign of an exact zero
    x, y = np.meshgrid(np.linspace(-2, 6, 17), [1e-6, 0.01, 1.0])
    z = np.concatenate([(x + 1j * y).ravel(), (x - 1j * y).ravel()])
    got = catalog._mp_cauchy((rate,), z)
    want = _mp_cauchy_two_terms(rate, z)
    for g, w in zip(got, want):
        if rate < 1:
            assert g.tobytes() == w.tobytes()
        else:
            assert np.array_equal(g, w)


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
    lambda: MeasureSpec.grid([0, Fraction(10**400)], [1.0, 1.0]),
    lambda: MeasureSpec.grid([0, 1], [Fraction(10**400), 1.0]),
], ids=["atom-weight-nan", "atom-weight-inf", "grid-density-nan", "grid-x-nan",
        "grid-atom-loc-nan", "grid-atom-weight-nan", "law-scale-nan", "law-offset-inf",
        "dilate-law-nan", "dilate-law-inf", "dilate-moments-inf",
        "grid-x-past-float-range", "grid-density-past-float-range"])
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


# ---------------------------------------------------------------------------
# free cumulants of the laws with an R-transform record: read from the record.
# Such a law's moment table is the NC recursion of the same cumulants, so
# comparing them with the inversion of its moments round-trips the NC
# kernels; the record itself is checked against the closed-form Cauchy hooks


R_LAWS = sorted(name for name, law in LAWS.items() if law.r_transform is not None)
R_PARAMS = {"semicircle": [(0, 1), (Fraction(-7, 3), Fraction(5, 4)), (2, Fraction(1, 9))],
            "marchenko_pastur": [(1,), (Fraction(3, 7),), (Fraction(5, 2),)],
            "commutator_ww": [()]}
AFFINE = [(1, 0), (Fraction(-2, 3), Fraction(5, 4)), (3, -1), (Fraction(1, 2), 0)]


def _inverted(mu, order):
    return ncpart.free_cumulants_from_moments(moments_of(mu, order)).values


def test_only_catalog_reads_the_r_records():
    # a record is the one statement of its law's cumulants, and
    # levy_khintchine the one pushforward of a record
    src = pathlib.Path(catalog.__file__).parent

    def holders(pattern):
        return {p.name for p in src.glob("*.py") if re.search(pattern, p.read_text())}

    assert holders(r"\br_transform\b") == {"catalog.py"}
    assert holders(r"\bdef levy_khintchine\b") == {"catalog.py"}


def test_every_law_has_one_table_source():
    for law in LAWS.values():
        assert (law.moments is None) != (law.r_transform is None), law.name


def test_every_r_record_law_has_params_here():
    assert set(R_PARAMS) == set(R_LAWS) == {"semicircle", "marchenko_pastur", "commutator_ww"}


@pytest.mark.parametrize("law,params", [(law, p) for law in R_LAWS for p in R_PARAMS[law]])
@pytest.mark.parametrize("scale,offset", AFFINE)
def test_r_record_cumulants_equal_the_moment_inversion(law, params, scale, offset):
    mu = MeasureSpec.from_law(law, params, scale=scale, offset=offset)
    for order in range(21):
        got = free_cumulants_of(mu, order).values
        want = _inverted(mu, order)
        assert got == want
        assert list(map(type, got)) == list(map(type, want))
    assert {type(v) for v in got} == {Fraction}


# R is the inverse of G near 0: G(1/w + R(w)) = w for small w in the lower
# half plane, where 1/w + R(w) lies in the upper one
R_INVERSE_TOL = 1e-13


@pytest.mark.parametrize("law,params", [(law, p) for law in R_LAWS for p in R_PARAMS[law]])
@pytest.mark.parametrize("scale,offset", [(1, 0), (Fraction(-3, 2), Fraction(1, 3))])
def test_r_records_invert_the_closed_form_cauchy(law, params, scale, offset):
    mu = MeasureSpec.from_law(law, params, scale=scale, offset=offset)
    drift, variance, jumps = catalog.levy_khintchine(mu)
    w = np.array([-0.05j, 0.03 - 0.04j, -0.02 - 0.01j, 0.1 - 0.2j])
    r = float(drift) + float(variance) * w + sum(
        float(l * a) / (1 - float(a) * w) for a, l in jumps)
    got = transforms.cauchy(mu, 1 / w + r)
    assert np.all(np.abs(got - w) <= R_INVERSE_TOL * np.abs(w)), np.abs(got / w - 1)


@pytest.mark.parametrize("law", R_LAWS)
@pytest.mark.parametrize("order,match", [
    (21, "free_cumulants_from_moments capped at order 20, got 21"),
    (64, "free_cumulants_from_moments capped at order 20, got 64"),
    (65, "moments_of capped at order 64, got 65"),
    (-1, "moments_of needs an order >= 0, got -1"),
])
def test_r_record_cumulants_refuse_orders_as_the_inversion_does(law, order, match):
    mu = MeasureSpec.from_law(law, R_PARAMS[law][-1])
    errors = []
    for route in (free_cumulants_of, _inverted):
        with pytest.raises(ValueError, match=re.escape(match)) as info:
            route(mu, order)
        errors.append(info.type)
    assert errors[0] is errors[1]
    assert (errors[0] is ncpart.CapError) == (order > 20)


# Float parameters: every cumulant is a float, the zeros 0.0, within 1e-14
# relative of the exact record read on the Fraction values of the same floats
# (kappa_1 relative to max(|kappa_1|, |offset|), since s*kappa_1 + c may
# cancel); 3.7e-15 was the most seen over 300 random specs. The moment
# inversion of the same floats agrees within 1e-5 max(1, |m_n|) on the specs
# below (1.5e-6 the most seen over those 300 specs): that distance is the
# round trip's own rounding, which the exact comparison leaves to it.
R_FLOAT_TOL = 1e-14
ROUND_TRIP_TOL = 1e-5


def _float_r_specs():
    rng = random.Random(37)
    for _ in range(40):
        scale, offset = rng.choice([(1, 0), (rng.uniform(-2, 2), rng.uniform(-2, 2))])
        yield MeasureSpec.from_law("semicircle", (rng.uniform(-3, 3), rng.uniform(0.1, 4)),
                                   scale=scale, offset=offset)
        yield MeasureSpec.from_law("marchenko_pastur", (rng.uniform(0.1, 4),),
                                   scale=scale, offset=offset)
    yield MeasureSpec.from_law("commutator_ww", (), scale=0.5, offset=-0.25)
    yield MeasureSpec.from_law("semicircle", (0.3, 1.7))


def test_r_record_float_cumulants_meet_their_bound():
    for mu in _float_r_specs():
        got = free_cumulants_of(mu, 20).values
        assert {type(v) for v in got} == {float}
        exact = MeasureSpec.from_law(mu.law, tuple(map(Fraction, mu.params)),
                                     scale=Fraction(mu.scale), offset=Fraction(mu.offset))
        want = free_cumulants_of(exact, 20).values
        for n, (g, w) in enumerate(zip(got, want), 1):
            scale = max(abs(w), abs(Fraction(mu.offset))) if n == 1 else abs(w)
            assert abs(Fraction(g) - w) <= Fraction(R_FLOAT_TOL) * scale, (mu, n)
        moments = moments_of(exact, 20).values
        for g, r, m in zip(got, _inverted(mu, 20), moments):
            assert abs(g - r) <= ROUND_TRIP_TOL * max(1, abs(float(m))), mu


def test_r_record_float_zeros_are_float_zeros():
    kappa = free_cumulants_of(MeasureSpec.from_law("semicircle", (0.3, 1.7)), 8).values
    assert kappa[:2] == (0.3, 1.7)
    assert [(type(v), v) for v in kappa[2:]] == [(float, 0.0)] * 6
    # the inversion of the float moments left rounding there
    assert any(v != 0 for v in _inverted(MeasureSpec.from_law("semicircle", (0.3, 1.7)), 8)[2:])


def test_r_record_float_overflow_is_a_value_error():
    # a zero cumulant stays 0.0 where s^n overflows; a nonzero one is refused
    wide = MeasureSpec.from_law("semicircle", (0, 1), scale=1e100)
    assert free_cumulants_of(wide, 4).values == (0.0, 1e200, 0.0, 0.0)
    with pytest.raises(ValueError, match=r"overflow a float at order 4 \(scale 1e\+100"):
        free_cumulants_of(MeasureSpec.from_law("marchenko_pastur", (1,), scale=1e100), 4)


def test_r_record_cumulants_check_the_params():
    # a spec built around from_law still has its parameters checked
    bad = MeasureSpec(kind="law", law="semicircle", params=(0, -1))
    with pytest.raises(ValueError, match="variance must be positive"):
        free_cumulants_of(bad, 4)


# ---------------------------------------------------------------------------
# exact atomic moments on ints against the Fraction power sums


def _power_sums(atoms, order):
    return [sum(w * loc**n for loc, w in atoms) for n in range(1, order + 1)]


_exact_loc = st.one_of(st.integers(-40, 40),
                       st.fractions(min_value=-5, max_value=5, max_denominator=60))


@st.composite
def _exact_atom_lists(draw):
    """Atom lists with exact locations, negative and repeated ones among
    them (1 and Fraction(1) merge), and exact weights summing to 1: Fractions,
    or one int weight 1."""
    locs = draw(st.lists(_exact_loc, min_size=1, max_size=6))
    locs += draw(st.lists(st.sampled_from(locs), max_size=2))
    locs += [Fraction(v) for v in draw(st.lists(st.sampled_from(locs), max_size=1))]
    if len(locs) == 1 and draw(st.booleans()):
        return [(locs[0], 1)]
    parts = draw(st.lists(st.integers(1, 9), min_size=len(locs), max_size=len(locs)))
    return [(loc, Fraction(p, sum(parts))) for loc, p in zip(locs, parts)]


@given(_exact_atom_lists(), st.integers(0, 24))
@settings(max_examples=150, deadline=None)
def test_exact_atomic_moments_equal_the_fraction_power_sums(atoms, order):
    mu = MeasureSpec.atomic(atoms)
    got = moments_of(mu, order).values
    want = _power_sums(mu.atoms, order)
    assert list(got) == want
    assert list(map(type, got)) == list(map(type, want))
    # ncpart's type rule: a Fraction iff some atom holds one
    frac = any(isinstance(v, Fraction) for atom in mu.atoms for v in atom)
    assert all(type(v) is (Fraction if frac else int) for v in got)


@pytest.mark.parametrize("atoms,want", [
    ([(2, 1)], [2, 4, 8]),
    ([(-3, 1)], [-3, 9, -27]),
    ([(Fraction(2), 1)], [Fraction(2), Fraction(4), Fraction(8)]),
    ([(0, 1)], [0, 0, 0]),
    ([(1, Fraction(1, 2)), (Fraction(1), Fraction(1, 2))], [Fraction(1)] * 3),
    ([(Fraction(-1, 2), Fraction(1, 3)), (Fraction(3, 4), Fraction(2, 3))],
     [Fraction(1, 3), Fraction(11, 24), Fraction(23, 96)]),
], ids=["int", "negative-int", "fraction-loc", "zero", "merged", "fractions"])
def test_exact_atomic_moments_pinned(atoms, want):
    got = moments_of(MeasureSpec.atomic(atoms), 3).values
    assert list(got) == want
    assert list(map(type, got)) == list(map(type, want))


_float_or_exact = st.one_of(st.floats(-30, 30, allow_nan=False), _exact_loc)


@given(st.lists(_float_or_exact, min_size=1, max_size=5), st.integers(1, 16))
@settings(max_examples=100, deadline=None)
def test_float_atomic_moments_keep_their_bits(locs, order):
    # float atoms, or exact locations under a float weight, take the power
    # sums as they are, bit for bit
    weights = [1.0 / len(locs)] * len(locs)
    atoms = list(zip(locs, weights))
    if abs(sum(weights) - 1) > catalog.ATOM_NORM_TOL:
        return
    mu = MeasureSpec.atomic(atoms)
    got = moments_of(mu, order).values
    want = _power_sums(mu.atoms, order)
    assert [v.hex() for v in got] == [float(v).hex() for v in want]
    assert list(map(type, got)) == list(map(type, want))


# ---------------------------------------------------------------------------
# the memo of catalog_moments


@pytest.fixture
def counted_semicircle(monkeypatch):
    """An empty memo, and a count of the cumulant reads of R-transform
    records, each (record, order); a semicircle table is built from one
    read of its record (mean, variance, no jumps)."""
    monkeypatch.setattr(catalog, "_table_memo", {})
    calls = []
    read = catalog._record_cumulants

    def counted(record, order):
        calls.append((record, order))
        return read(record, order)

    monkeypatch.setattr(catalog, "_record_cumulants", counted)
    return calls


def test_memo_hit_does_not_call_the_hook(counted_semicircle):
    first = catalog_moments("semicircle", (Fraction(1, 3), 2), 12)
    assert len(counted_semicircle) == 1
    again = catalog_moments("semicircle", (Fraction(1, 3), 2), 12)
    assert again is first and len(counted_semicircle) == 1
    # moments_of of a law spec reads the same table
    moments_of(MeasureSpec.from_law("semicircle", (Fraction(1, 3), 2)), 12)
    assert len(counted_semicircle) == 1
    catalog_moments("semicircle", (Fraction(1, 3), 2), 11)
    assert len(counted_semicircle) == 2


@pytest.mark.parametrize("values", [(1, 1.0, Fraction(1)), (0.0, -0.0)])
def test_memo_keeps_equal_params_of_other_types_or_signs_apart(counted_semicircle, values):
    tables = [catalog_moments("semicircle", (v, 1), 6) for v in values]
    assert len(counted_semicircle) == len(values) == len(catalog._table_memo)
    assert [p[0] for p, _ in counted_semicircle] == list(values)
    assert len({id(t) for t in tables}) == len(values)
    for t, v in zip(tables, values):
        assert type(t.values[1]) is (float if isinstance(v, float) else Fraction)
    assert [catalog_moments("semicircle", (v, 1), 6) for v in values] == tables
    assert len(counted_semicircle) == len(values)


def test_memo_is_keyed_on_the_law_record(monkeypatch):
    table = catalog_moments("marchenko_pastur", (Fraction(1, 3),), 6)
    law = LAWS["marchenko_pastur"]
    # the jump moved from 1 to 2: the record of 2X, whose moments are 2^n m_n
    doubled = dataclasses.replace(law, r_transform=lambda p: (0, 0, ((2, p[0]),)))
    monkeypatch.setitem(LAWS, "marchenko_pastur", doubled)
    assert catalog_moments("marchenko_pastur", (Fraction(1, 3),), 6).values == tuple(
        2**n * m for n, m in enumerate(table.values, 1))


class _Untouchable(dict):
    def _refuse(self, *args):
        raise AssertionError("memo looked up")

    pop = get = __getitem__ = __setitem__ = __contains__ = _refuse


@pytest.mark.parametrize("law,params,order,error", [
    ("semicircle", (0, -1), 4, "variance must be positive"),
    ("semicircle", (0, 1, 2), 4, "takes"),
    ("no_such_law", (), 4, "unknown law"),
    ("semicircle", (0, 1), 65, "capped at order 64"),
    ("semicircle", (0, 1), -1, "order >= 0"),
])
def test_memo_is_not_reached_by_bad_requests(monkeypatch, law, params, order, error):
    monkeypatch.setattr(catalog, "_table_memo", _Untouchable())
    with pytest.raises(ValueError, match=error):
        catalog_moments(law, params, order)


def test_memo_is_bounded_and_drops_the_least_recently_used(monkeypatch):
    monkeypatch.setattr(catalog, "_table_memo", {})
    size = catalog._TABLE_MEMO_SIZE
    kept = catalog_moments("marchenko_pastur", (Fraction(1, 2),), 4)
    dropped = catalog_moments("marchenko_pastur", (1,), 4)
    for k in range(2, size + 10):
        catalog_moments("marchenko_pastur", (k,), 4)
        catalog_moments("marchenko_pastur", (Fraction(1, 2),), 4)   # used again
        assert len(catalog._table_memo) <= size
    assert len(catalog._table_memo) == size
    assert catalog_moments("marchenko_pastur", (Fraction(1, 2),), 4) is kept
    again = catalog_moments("marchenko_pastur", (1,), 4)
    assert again == dropped and again is not dropped


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


@pytest.mark.parametrize("a", [3.0, -0.5, Fraction(2)])
def test_dilate_keeps_a_grid_admitted_at_a_loose_mass_tolerance(a):
    # grid() checks the mass at construction only: a dilation keeps the
    # trapezoid mass, so it accepts every grid that grid() accepted
    mu = MeasureSpec.grid([0.0, 1.0, 2.0], [0, 1.002, 0], norm_tol=1e-2)
    d = dilate(mu, a)
    assert catalog._trapezoid(d.xs, d.densities) == pytest.approx(1.002, rel=1e-15)


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
