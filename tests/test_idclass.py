"""Triplets, regular forms, regularity tests, and positivity scans."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeconv import catalog, conv, idclass, ncpart, verify
from freeconv.catalog import MeasureSpec
from freeconv.idclass import (
    FreeTriplet,
    LevyMeasure,
    RegularForm,
    RModel,
    from_regular_form,
    to_regular_form,
)
from freeconv.ncpart import SeqN
from freeconv.verify import _main3_dev
import oracles
from oracles import levy_meixner_quadrature
from spec_ids import describe

W = MeasureSpec.from_law("semicircle", (0, 1))
M = MeasureSpec.from_law("marchenko_pastur", (1,))
WPLUS = MeasureSpec.from_law("semicircle", (2, 1))


# ---------------------------------------------------------------------------
# Levy measures


class TestLevyMeasure:
    def test_rejects_mass_at_zero(self):
        with pytest.raises(ValueError, match="charge 0"):
            LevyMeasure(atoms=((0, 1),))

    def test_rejects_nonpositive_masses(self):
        with pytest.raises(ValueError, match="positive"):
            LevyMeasure(atoms=((1, 0),))
        with pytest.raises(ValueError, match="positive"):
            LevyMeasure(atoms=((1, -2),))

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="length"):
            LevyMeasure(xs=(1, 2), densities=(1,))
        with pytest.raises(ValueError, match="increasing"):
            LevyMeasure(xs=(2, 1), densities=(1, 1))
        with pytest.raises(ValueError, match="nonnegative"):
            LevyMeasure(xs=(1, 2), densities=(-1, 1))
        with pytest.raises(ValueError, match="vanish at 0"):
            LevyMeasure(xs=(0, 1), densities=(1, 1))

    @pytest.mark.parametrize("atoms, xs, densities", [
        (((1.0, math.nan),), (), ()),
        (((math.nan, 1.0),), (), ()),
        (((1.0, math.inf),), (), ()),
        (((-math.inf, 1.0),), (), ()),
        ((), (1.0, math.nan), (1.0, 1.0)),
        ((), (1.0, math.inf), (1.0, 1.0)),
        ((), (1.0, 2.0), (1.0, math.nan)),
        ((), (1.0, 2.0), (math.inf, 1.0)),
        ((), (1.0, F(10**400)), (1.0, 1.0)),
        ((), (1.0, 2.0), (F(10**400), 1.0)),
    ])
    def test_rejects_nonfinite_entries(self, atoms, xs, densities):
        with pytest.raises(ValueError, match="finite"):
            LevyMeasure(atoms=atoms, xs=xs, densities=densities)

    def test_atoms_sorted_and_exact_integral(self):
        nu = LevyMeasure(atoms=((2, F(3, 4)), (F(1, 3), F(1, 2))))
        assert nu.atoms == ((F(1, 3), F(1, 2)), (2, F(3, 4)))
        assert nu.integral(lambda t: 1) == F(5, 4)
        assert nu.truncated_mean() == F(1, 6)
        assert nu.min1_t_integral() == F(1, 6) + F(3, 4)
        assert nu.moment(2) == F(1, 18) + 3
        assert LevyMeasure().integral(lambda t: 1) == 0

    def test_charges_nonpositive(self):
        assert LevyMeasure(atoms=((-1, 1),)).charges_nonpositive()
        assert not LevyMeasure(atoms=((1, 1),)).charges_nonpositive()
        assert LevyMeasure(xs=(-1, 1), densities=(1, 0)).charges_nonpositive()
        assert not LevyMeasure(xs=(-1, 1), densities=(0, 1)).charges_nonpositive()


# ---------------------------------------------------------------------------
# triplets and the classical/free bijection


class TestTriplets:
    def test_semicircular_part_nonnegative(self):
        with pytest.raises(ValueError, match=">= 0"):
            FreeTriplet(0, -1)


class TestRegularForm:
    def test_rejects_semicircular_part(self):
        with pytest.raises(ValueError, match="semicircular part"):
            to_regular_form(FreeTriplet(2, 1))

    def test_rejects_negative_jumps(self):
        bad = FreeTriplet(0, 0, LevyMeasure(atoms=((-1, 1),)))
        with pytest.raises(ValueError, match=r"\(-oo, 0\]"):
            to_regular_form(bad)
        with pytest.raises(ValueError, match=r"\(0, oo\)"):
            RegularForm(0, LevyMeasure(atoms=((-1, 1),)))

    def test_rejects_divergent_small_jumps(self):
        # finite atoms whose int min(1,t) dnu = 1e308 + 1e308 overflows
        nu = LevyMeasure(atoms=((1, 1e308), (2, 1e308)))
        with pytest.raises(ValueError, match="diverges"):
            RegularForm(0, nu)

    def test_exact_round_trip(self):
        nu = LevyMeasure(atoms=((F(1, 3), F(1, 2)), (2, F(3, 4))))
        t = FreeTriplet(F(5, 2), 0, nu)
        rf = to_regular_form(t)
        assert rf.drift == F(7, 3)
        assert rf.is_free_regular
        assert from_regular_form(rf) == t

    def test_negative_drift_is_representable_but_not_regular(self):
        rf = RegularForm(-F(1, 2), LevyMeasure(atoms=((1, 1),)))
        assert not rf.is_free_regular
        back = from_regular_form(rf)
        assert back.eta == F(1, 2)
        assert to_regular_form(back) == rf

    def test_free_cumulants_of_regular_form(self):
        rf = RegularForm(F(1, 4), LevyMeasure(atoms=((F(2, 3), F(3, 2)),)))
        k = rf.free_cumulants(4)
        assert k.values == (F(5, 4), F(2, 3), F(4, 9), F(8, 27))

    @given(
        drift=st.fractions(min_value=-2, max_value=2),
        atoms=st.lists(
            st.tuples(
                st.fractions(min_value=F(1, 8), max_value=3),
                st.fractions(min_value=F(1, 8), max_value=2),
            ),
            max_size=3,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_identity(self, drift, atoms):
        uniq = {}
        for loc, m in atoms:
            uniq[loc] = uniq.get(loc, 0) + m
        rf = RegularForm(drift, LevyMeasure(atoms=tuple(uniq.items())))
        assert to_regular_form(from_regular_form(rf)) == rf


# ---------------------------------------------------------------------------
# compound free Poisson


class TestCfp:
    def test_rate_one_point_jump_is_standard_free_poisson(self):
        k = idclass.cfp(1, MeasureSpec.atomic([(1, 1)]), 8)
        assert k.values == catalog.free_cumulants_of(M, 8).values

    def test_cumulants_scale_with_jump_moments(self):
        rho = MeasureSpec.atomic([(F(1, 2), F(2, 3)), (3, F(1, 3))])
        k = idclass.cfp(F(5, 2), rho, 6)
        mom = catalog.moments_of(rho, 6)
        assert k.values == tuple(F(5, 2) * m for m in mom.values)

    def test_commutator_of_two_free_poissons(self):
        # m box m is the compound free Poisson with rate 2 and jump law
        # the product of a free Poisson and a symmetric Bernoulli factor
        mb = ncpart.free_mult_moments(
            catalog.moments_of(M, 10),
            catalog.moments_of(MeasureSpec.from_law("symmetric_bernoulli"), 10),
            10,
        )
        k_cfp = idclass.cfp(2, MeasureSpec.from_moments(mb), 10)
        k_box = catalog.free_cumulants_of(conv.commutator(M, M, 20), 10)
        assert tuple(k_cfp.values) == tuple(k_box.values)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError, match="positive"):
            idclass.cfp(0, M, 4)

    def test_regular_form_drops_zero_jump_and_matches(self):
        rho = MeasureSpec.atomic(
            [(0, F(1, 5)), (F(1, 2), F(2, 5)), (3, F(2, 5))]
        )
        rf = idclass.cfp_regular_form(F(3, 2), rho)
        assert rf.drift == 0
        assert rf.levy.atoms == ((F(1, 2), F(3, 5)), (3, F(3, 5)))
        direct = idclass.cfp(F(3, 2), rho, 6)
        assert rf.free_cumulants(6).values == direct.values

    def test_regular_form_needs_atomic_jump_law(self):
        with pytest.raises(ValueError, match="atomic"):
            idclass.cfp_regular_form(1, W)


# ---------------------------------------------------------------------------
# symmetric square factorization


class TestMain3Factor:
    def test_semicircle_factors_through_point_mass(self):
        k = catalog.free_cumulants_of(W, 8)
        sigma = idclass.main3_factor(k)
        assert sigma.values == (1, 0, 0, 0)

    def test_symmetric_cfp_factor_squares_the_jumps(self):
        jumps = [(F(1, 2), F(1, 4)), (-F(1, 2), F(1, 4)),
                 (2, F(1, 4)), (-2, F(1, 4))]
        rho = MeasureSpec.atomic(jumps)
        lam = F(3, 2)
        mu_kappa = idclass.cfp(lam, rho, 12)
        sigma = idclass.main3_factor(mu_kappa)
        expected = idclass.cfp(lam, catalog.push_square(rho), 6)
        assert sigma.values == expected.values

    def test_rejects_asymmetric_input(self):
        k = catalog.free_cumulants_of(M, 6)
        with pytest.raises(ValueError, match="not symmetric"):
            idclass.main3_factor(k)

    def test_rejects_wrong_kind(self):
        with pytest.raises(ValueError, match="free cumulants"):
            idclass.main3_factor(SeqN("moment", [0, 1]))

    def test_verification_identity_is_exact(self):
        k = idclass.cfp(2, MeasureSpec.atomic([(1, F(1, 2)), (-1, F(1, 2))]), 16)
        assert _main3_dev(k) == 0

    def test_verification_on_semicircle(self):
        assert _main3_dev(catalog.free_cumulants_of(W, 16)) == 0


# ---------------------------------------------------------------------------
# kurtosis


class TestKurtosis:
    def test_quarter_circle_fails_at_any_scale(self):
        expected = -0.0233443089019294
        for s in (0.5, 1, 2):
            res = idclass.kurtosis_check(
                MeasureSpec.from_law("quarter_circle", (s,))
            )
            assert res.verdict == "fail"
            assert not res.passed
            assert res.value == pytest.approx(expected, abs=1e-9)

    def test_semicircle_and_free_poisson_pass(self):
        assert idclass.kurtosis_check(W).value == 0
        res = idclass.kurtosis_check(M)
        assert res.value == 1
        assert res.verdict == "pass"

    def test_point_mass_is_degenerate(self):
        res = idclass.kurtosis_check(MeasureSpec.atomic([(2, 1)]))
        assert res.verdict == "degenerate"
        assert res.value is None
        assert res.passed

    def test_accepts_moment_sequence(self):
        m = catalog.moments_of(M, 6)
        assert idclass.kurtosis_check(m).value == 1

    def test_reads_four_moments_only(self):
        # a moment spec holding exactly m_1..m_4 gives its extension's statistic
        m = catalog.moments_of(MeasureSpec.atomic([(F(-1, 2), F(1, 3)), (2, F(2, 3))]), 8)
        short = idclass.kurtosis_check(MeasureSpec.from_moments(m.values[:4]))
        assert short == idclass.kurtosis_check(MeasureSpec.from_moments(m.values))
        assert short.value == F(-1, 2)  # (1 - 3pq)/pq - 2 at pq = 2/9

    def test_input_validation(self):
        with pytest.raises(ValueError, match="order 4"):
            idclass.kurtosis_check(catalog.moments_of(W, 3))
        with pytest.raises(ValueError, match="moment sequence or MeasureSpec"):
            idclass.kurtosis_check(catalog.free_cumulants_of(W, 4))

    @given(
        atoms=st.lists(
            st.tuples(
                st.fractions(min_value=-3, max_value=3),
                st.fractions(min_value=F(1, 8), max_value=1),
            ),
            min_size=2,
            max_size=4,
        ),
        scale=st.sampled_from([F(1, 2), 2, 3]),
    )
    @settings(max_examples=50, deadline=None)
    def test_statistic_is_dilation_invariant(self, atoms, scale):
        uniq = {}
        for loc, m in atoms:
            uniq[loc] = uniq.get(loc, 0) + m
        total = sum(uniq.values())
        mu = MeasureSpec.atomic([(loc, m / total) for loc, m in uniq.items()])
        base = idclass.kurtosis_check(mu)
        scaled = idclass.kurtosis_check(catalog.dilate(mu, scale))
        assert base.verdict == scaled.verdict
        if base.value is not None:
            assert scaled.value == base.value


# ---------------------------------------------------------------------------
# analytic R-transform models


class TestRModel:
    def test_from_cumulants_recognizes_semicircle(self):
        model = RModel.from_cumulants(catalog.free_cumulants_of(W, 8))
        assert model == RModel(0.0, 1.0, ())

    @pytest.mark.parametrize("args", [
        (math.nan,), (math.inf,), (0, math.nan), (0, math.inf),
        (0, 0, ((math.nan, 1),)), (0, 0, ((1, math.nan),)), (0, 0, ((1, math.inf),)),
    ], ids=["drift-nan", "drift-inf", "variance-nan", "variance-inf",
            "jump-at-nan", "jump-mass-nan", "jump-mass-inf"])
    def test_refuses_non_finite_parameters(self, args):
        # a NaN passed the sign checks and scanned to a NaN edge and atom
        with pytest.raises(ValueError, match="finite"):
            RModel(*args)

    @pytest.mark.parametrize("args,name", [
        ((F(10**400),), "drift"), ((0, F(10**400)), "variance"),
        ((0, 0, ((F(-(10**400)), 1),)), "jump location"),
        ((0, 0, ((1, F(10**400)),)), "jump mass"),
    ], ids=["drift", "variance", "jump-at", "jump-mass"])
    def test_names_a_value_past_the_float_range(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite and in the float range$"):
            RModel(*args)

    @pytest.mark.parametrize("values,order", [
        ((0, F(10**400), 0), 2), ((F(-(10**400)), 1), 1), ((0, 1, math.nan, 0), 3),
        ((1.0, 2.0, 4.0, math.inf), 4),
    ], ids=["past-range", "past-range-negative", "nan", "inf"])
    def test_from_cumulants_names_a_non_finite_cumulant(self, values, order):
        # refused before any pattern match, by the cumulant's order
        with pytest.raises(ValueError, match=f"^free cumulant {order} must be finite"):
            RModel.from_cumulants(SeqN("free_cumulant", values))

    def test_from_cumulants_recognizes_single_jump_cfp(self):
        k = idclass.cfp(F(3, 2), MeasureSpec.atomic([(F(2, 3), 1)]), 8)
        model = RModel.from_cumulants(k)
        assert model.drift == pytest.approx(0, abs=1e-12)
        assert model.variance == 0
        ((a, mass),) = model.jumps
        assert a == pytest.approx(2 / 3)
        assert mass == pytest.approx(1.5)

    @pytest.mark.parametrize(
        "values", [[0, 1, 0, -1], [F(1, 2)], [1, 2, 3, 4, 5]], ids=["quartic", "short", "linear"]
    )
    def test_from_cumulants_refuses_other_patterns(self, values):
        # no truncated R-series stands in for an unrecognized law
        with pytest.raises(ValueError, match="match neither"):
            RModel.from_cumulants(SeqN("free_cumulant", values))

    @pytest.mark.parametrize(
        "spec",
        [W, WPLUS, M, MeasureSpec.from_law("commutator_ww"),
         MeasureSpec.from_law("marchenko_pastur", (F(7, 4),), scale=-2, offset=F(1, 3))],
        ids=describe,
    )
    def test_of_spec_reads_a_law_without_its_cumulants(self, monkeypatch, spec):
        monkeypatch.setattr(catalog, "free_cumulants_of", None)
        drift, variance, jumps = catalog.levy_khintchine(spec)
        assert RModel.of_spec(spec, 8) == RModel(drift, variance, jumps)

    def test_of_spec_matches_the_cumulants_of_other_specs(self):
        spec = MeasureSpec.atomic([(F(1, 2), 1)])
        assert RModel.of_spec(spec, 6) == RModel.semicircle(0.5, 0)
        with pytest.raises(ValueError, match="match neither"):
            RModel.of_spec(MeasureSpec.atomic([(1, F(1, 2)), (3, F(1, 2))]), 8)
        with pytest.raises(ValueError, match="closed-form R-transform"):
            RModel.of_spec(MeasureSpec.from_law("chi_squared_1"), 8)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RModel.semicircle(0, -1)
        with pytest.raises(ValueError):
            RModel.cfp_atomic(0, [(1, 1)])
        with pytest.raises(ValueError):
            RModel.from_cumulants(SeqN("moment", [0, 1]))

    @pytest.mark.parametrize(
        "model",
        [
            RModel.semicircle(0.5, 2),
            RModel.free_poisson(1.5),
            RModel.cfp_atomic(2, [(0.5, 0.3), (-1, 0.7)], drift=0.2),
            RModel(0.1, 0.7, ((0.5, 0.3), (-1.0, 0.2), (0.0, 0.4))),
        ],
    )
    def test_derivative_matches_finite_difference(self, model):
        w = -0.31 - 0.4j
        h = 1e-6
        fd = (model.r(w + h) - model.r(w - h)) / (2 * h)
        assert model.dr(w) == pytest.approx(fd, rel=1e-6)

    def test_low_order_cumulants(self):
        model = RModel.free_poisson(2)
        assert model.r(0.0) == pytest.approx(2)
        assert model.dr(0.0) == pytest.approx(2)

    @pytest.mark.parametrize(
        "name, params",
        [("semicircle", (F(1, 2), F(13, 10))), ("marchenko_pastur", (F(17, 10),)),
         ("commutator_ww", ())],
    )
    def test_law_r_transform_matches_its_cumulants(self, name, params):
        # the exact free cumulants of the pushed-forward law, inverted from
        # its moments; the law's table is the NC recursion of the same record,
        # so this round-trips the NC kernels, and test_catalog's
        # test_r_records_invert_the_closed_form_cauchy checks the record itself
        spec = MeasureSpec.from_law(name, params, scale=F(-3, 2), offset=F(1, 3))
        drift, variance, jumps = catalog.levy_khintchine(spec)
        kappa = ncpart.free_cumulants_from_moments(catalog.moments_of(spec, 12)).values
        assert kappa[0] == drift + sum(l * a for a, l in jumps)
        assert kappa[1] == variance + sum(l * a**2 for a, l in jumps)
        assert list(kappa[2:]) == [sum(l * a**n for a, l in jumps) for n in range(3, 13)]

    @pytest.mark.parametrize(
        "model",
        [RModel.free_poisson(1), RModel.cfp_atomic(0.8, [(-1, 0.5), (1, 0.5)]),
         RModel.cfp_atomic(1.3, [(0, 1)], drift=0.3)],
        ids=["free_poisson", "plus_minus_one", "jump_at_zero"],
    )
    @pytest.mark.parametrize("t", [0.3, 0.6, 0.9])
    def test_atom_rule_matches_the_solved_transform(self, model, t):
        # second route: -y Im G(t drift + iy) at y = 1e-4, down the ladder
        loc, mass = model.atom(t)
        assert loc == t * model.drift
        w = None
        for d in oracles._IMAG_LADDER[: oracles._IMAG_LADDER.index(1e-4) + 1]:
            w, conv_mask = oracles.solve_g(model, t, loc + 1j * d, w0=w)
        assert conv_mask.all()
        assert abs(-1e-4 * w[0].imag - mass) <= 1e-4

    def test_no_atom_with_a_semicircular_part_or_enough_jump_mass(self):
        assert RModel.semicircle(0.5, 1e-10).atom(0.1) is None
        assert RModel.free_poisson(1).atom(1.0) is None
        assert RModel.free_poisson(1).atom(0.5) == (0.0, 0.5)
        assert RModel.semicircle(2, 0).atom(3) == (6.0, 1)


def _semicircle_g(zs, var):
    """G of semicircle(0, var): the quadratic root in the lower half plane."""
    root = np.sqrt(zs * zs - 4 * var)
    lo = (zs - root) / (2 * var)
    hi = (zs + root) / (2 * var)
    return np.where(lo.imag <= hi.imag, lo, hi)


class TestSolveG:
    def test_semicircle_matches_closed_form(self):
        model = RModel.semicircle(0, 1)
        zs = np.array([0.3 + 0.5j, -1.2 + 0.05j, 2.5 + 1e-6j, 4 + 2j])
        w, conv_mask = oracles.solve_g(model, 1.0, zs)
        assert conv_mask.all()
        assert np.max(np.abs(w - _semicircle_g(zs, 1))) < 1e-9

    def test_time_parameter_scales_the_cumulants(self):
        # mu^{boxplus t} for semicircle(0,1) is semicircle(0,t)
        model = RModel.semicircle(0, 1)
        z = np.array([0.1 + 0.2j])
        w, _ = oracles.solve_g(model, 3.0, z)
        assert abs(w[0] - _semicircle_g(z, 3)[0]) < 1e-10

    # t = 0.9 leaves this model an atom at 0.27 of mass 1 - 0.9
    ATOM_MODEL = RModel.cfp_atomic(1, [(0.5, 0.2), (2, 0.5), (-1.5, 0.3)], drift=0.3)
    ATOM_Z = np.array([0.27 + 1e-8j])

    def _ladder(self):
        w = None
        for d in oracles._IMAG_LADDER[: oracles._IMAG_LADDER.index(1e-8) + 1]:
            w, conv_mask = oracles.solve_g(self.ATOM_MODEL, 0.9, self.ATOM_Z.real + 1j * d, w0=w)
        return w, conv_mask

    def test_ladder_finds_the_atom_mass(self):
        w, conv_mask = self._ladder()
        assert conv_mask.all()
        assert -1e-8 * w[0].imag == pytest.approx(0.1, abs=1e-6)

    def test_cold_solve_finds_the_atom_mass(self):
        w, conv_mask = oracles.solve_g(self.ATOM_MODEL, 0.9, self.ATOM_Z)
        assert conv_mask.all()
        assert -1e-8 * w[0].imag == pytest.approx(0.1, abs=1e-6)

    def test_residual_near_the_height_is_not_converged(self, monkeypatch):
        # the ladder's w solves z exactly, so at z + shift its residual is
        # the shift: 2e-8 = 2 Im z passes the sqrt(_SOLVE_TOL) bound but
        # solves another z, and only the 1e-3 Im z bound refuses it
        w, _ = self._ladder()
        monkeypatch.setattr(oracles, "_SOLVE_MAX_ITER", 0)
        assert 2e-8 < math.sqrt(oracles._SOLVE_TOL)
        _, far = oracles.solve_g(self.ATOM_MODEL, 0.9, self.ATOM_Z + 2e-8, w0=w)
        _, near = oracles.solve_g(self.ATOM_MODEL, 0.9, self.ATOM_Z + 5e-12, w0=w)
        assert not far.any() and near.all()

    @pytest.mark.parametrize("model", [
        RModel.semicircle(2, 1),
        RModel.free_poisson(1),
        RModel.cfp_atomic(2.0, [(1, 0.5), (-0.5, 0.5)], 0.3),
        RModel.cfp_atomic(1.3, [(0, 0.4), (-1, 0.3), (-2.5, 0.1), (2, 0.2)], -0.4),
        ATOM_MODEL,
    ], ids=["semicircle", "free_poisson", "cfp_drift", "jumps_at_zero_and_below", "atom"])
    def test_cold_solve_converges_only_on_the_ladder_root(self, model):
        # second route: continuation down the imaginary ladder to each
        # point's own height; a cold solve may fail, never converge elsewhere
        rng = np.random.default_rng(22)
        ts = np.array([[0.3], [0.9], [1.5], [3.0]])  # 400 points per time
        spread = 4 * np.sqrt(ts * model.dr(0.0)) + 0.5
        xs = ts * model.r(0.0) + spread * rng.uniform(-1, 1, (4, 400))
        ys = 10.0 ** rng.uniform(-9, 0, (4, 400))
        cold_masks = []
        for t, x, y in zip(ts[:, 0], xs, ys):
            cold, cold_mask = oracles.solve_g(model, t, x + 1j * y)
            w = None
            for d in oracles._IMAG_LADDER:
                w, _ = oracles.solve_g(model, t, x + 1j * np.maximum(d, y), w0=w)
            w, ladder_mask = oracles.solve_g(model, t, x + 1j * y, w0=w)
            assert ladder_mask.all()
            off = np.abs(cold - w) > 1e-8 * np.abs(w)
            assert not (cold_mask & off).any()
            cold_masks.append(cold_mask)
        assert np.mean(cold_masks) > 0.5

    def test_seeded_continuation(self):
        model = RModel.free_poisson(1)
        zs = np.linspace(-0.5, 4.5, 21) + 1j
        w1, c1 = oracles.solve_g(model, 1.0, zs)
        w2, c2 = oracles.solve_g(model, 1.0, zs - 0.5j, w0=w1)
        assert c1.all() and c2.all()
        assert np.all(w2.imag <= 0)


class TestPositivityScan:
    def test_shifted_semicircle_edges(self):
        # left edge of the t-th free power sits at 2t - 2 sqrt(t)
        scan = idclass.positivity_scan(RModel.semicircle(2, 1), [0.5, 2])
        for point in scan.points:
            exact = 2 * point.t - 2 * math.sqrt(point.t)
            assert point.converged
            assert point.left_edge == pytest.approx(exact, abs=1e-3)
        assert not scan.regular_evidence  # t=0.5 edge is negative

    def test_free_poisson_stays_positive(self):
        scan = idclass.positivity_scan(RModel.free_poisson(1), [0.5, 2])
        by_t = {p.t: p for p in scan.points}
        # t < 1: atom at 0 plus a gap; t > 1: edge at (1 - sqrt t)^2
        assert by_t[0.5].atoms == (0.0,)
        assert by_t[2.0].atoms == ()
        assert by_t[2.0].left_edge == pytest.approx(
            (1 - math.sqrt(2)) ** 2, abs=1e-3
        )
        assert scan.regular_evidence

    def test_scans_a_cumulant_spec_by_its_exact_match(self):
        spec = MeasureSpec.from_free_cumulants(catalog.free_cumulants_of(WPLUS, 6))
        scan = idclass.positivity_scan(RModel.of_spec(spec, 6), [1.0])
        assert scan.points[0].left_edge == pytest.approx(0, abs=1e-3)

    def test_jobs_give_identical_results(self):
        model = RModel.free_poisson(1)
        serial = idclass.positivity_scan(model, [0.5, 2])
        threaded = idclass.positivity_scan(model, [0.5, 2], jobs=2)
        assert serial.points == threaded.points

    def test_left_edges_pinned(self):
        # bit patterns of the scanned edges: all critical values, except
        # free Poisson at t = 0.5, whose edge is its atom at 0; each is
        # within 3e-17 of its closed form, 2t - 2 sqrt(t) or (1 - sqrt 2)^2
        scans = {
            "semicircle": idclass.positivity_scan(RModel.semicircle(2, 1), [0.5, 2]),
            "free_poisson": idclass.positivity_scan(RModel.free_poisson(1), [0.5, 2]),
        }
        edges = {
            name: [p.left_edge.hex() for p in scan.points]
            for name, scan in scans.items()
        }
        assert edges == {
            "semicircle": ["-0x1.a827999fcef32p-2", "0x1.2bec333018867p+0"],
            "free_poisson": ["0x0.0p+0", "0x1.5f619980c4338p-3"],
        }
        assert scans["free_poisson"].points[0].atoms == (0.0,)

    def test_bisection_reuses_the_grid_solves(self, monkeypatch):
        # each bisection round of the grid scan is seeded from the grid's
        # solves at the bracket ends instead of climbing the imaginary
        # ladder again: per t, 3 solves for the grid, then 3 per round
        calls, tols = [], []
        solve, newton = oracles.solve_g, oracles._newton_g
        monkeypatch.setattr(
            oracles, "solve_g", lambda *a, **k: calls.append(1) or solve(*a, **k)
        )
        monkeypatch.setattr(
            oracles, "_newton_g", lambda *a: tols.append(a[-1]) or newton(*a)
        )
        model, ts = RModel.free_poisson(1), [0.5, 1.0, 1.5, 2.0]
        for t in ts:
            calls.clear()
            tols.clear()
            (point,) = oracles.grid_scan(model, [t])
            assert point.converged
            assert len(calls) <= 9
            # the grid's one climb down the ladder, whose rungs stop early
            rungs = sum(tol != oracles._SOLVE_TOL for tol in tols)
            assert rungs == len(oracles._IMAG_LADDER) - 1
        calls.clear()
        assert all(p.converged for p in oracles.grid_scan(model, ts))
        assert len(calls) <= 36

    @pytest.mark.parametrize(
        "model",
        [
            RModel.semicircle(2, 1),
            RModel.free_poisson(1),
            RModel.cfp_atomic(2.0, [(1, 0.5), (-0.5, 0.5)], 0.3),
            RModel.cfp_atomic(1.3, [(0, 0.4), (-1, 0.3), (-2.5, 0.1), (2, 0.2)], -0.4),
            RModel.of_spec(MeasureSpec.from_law("commutator_ww"), 8),
        ],
        ids=["semicircle", "free_poisson", "cfp_drift", "jumps_at_zero_and_below", "commutator_ww"],
    )
    def test_seeding_rungs_give_the_polished_scan(self, monkeypatch, model):
        # second route: every ladder rung solved to _SOLVE_TOL; the t < 1
        # free Poisson points have atoms
        ts = [0.3, 0.6, 1.0, 2.5]
        points = oracles.grid_scan(model, ts)
        monkeypatch.setattr(oracles, "_RUNG_RESIDUAL", 0)
        assert points == oracles.grid_scan(model, ts)

    def test_seeding_rungs_bound_r_evaluations(self, monkeypatch):
        # with every rung polished, this 4-t grid scan evaluates R at 158418
        # points; rungs that stop at a tenth of their height take fewer
        # Newton steps
        points = []
        r = RModel.r
        monkeypatch.setattr(RModel, "r", lambda self, w: points.append(np.size(w)) or r(self, w))
        scan = oracles.grid_scan(RModel.semicircle(2, 1), [0.5, 1, 2, 4])
        assert all(p.converged for p in scan)
        assert sum(points) <= 125_000

    def test_window_end_edge_is_not_converged(self):
        # a light, far negative jump puts the support past the grid's left
        # end t kappa_1 - (4 sqrt(t kappa_2) + 0.5); the density exceeds the
        # threshold there, so that end only bounds the critical edge
        model, t = RModel(-0.9462, 0, ((-1.3683, 0.2123),)), 0.3446
        exact = t * model.drift - 1.3683 * (1 + math.sqrt(0.2123 * t)) ** 2
        window = t * model.r(0.0) - (4 * math.sqrt(t * model.dr(0.0)) + 0.5)
        (grid,) = oracles.grid_scan(model, [t])
        (critical,) = idclass.positivity_scan(model, [t]).points
        assert (grid.left_edge, grid.converged) == (window, False)
        assert critical.converged
        assert abs(critical.left_edge - exact) <= 1e-12 * abs(exact)
        assert critical.left_edge < window

    def test_unconverged_seed_falls_back_to_the_ladder(self):
        model, xs = RModel.free_poisson(1), np.linspace(0.05, 0.3, 9)
        dens, conv_mask, _ = oracles._extrapolated_density(model, 2.0, xs)
        bad_seed = np.full(xs.shape, complex("nan"))
        seeded, seeded_mask, _ = oracles._extrapolated_density(model, 2.0, xs, bad_seed)
        assert seeded.tobytes() == dens.tobytes()
        assert seeded_mask.tolist() == conv_mask.tolist()

    def test_rejects_empty_times(self):
        # no scanned point is no evidence, not vacuous evidence of regularity
        with pytest.raises(ValueError, match="at least one"):
            idclass.positivity_scan(RModel.free_poisson(1), [])

    @pytest.mark.parametrize(
        "model, t, lo, hi",
        [
            (RModel.semicircle(2, 1), 0.5, -0.6, -0.2),
            (RModel.free_poisson(1), 2.0, 0.05, 0.3),
            (RModel.cfp_atomic(2.0, [(1, 0.5), (-0.5, 0.5)], 0.3), 0.5, -1.3, -0.9),
        ],
    )
    def test_density_is_batch_independent(self, model, t, lo, hi):
        # the batched edge bisection is exact only if a point's density
        # does not depend on the other points solved with it
        xs = np.linspace(lo, hi, 9)
        dens, conv_mask, _ = oracles._extrapolated_density(model, t, xs)
        alone = [oracles._extrapolated_density(model, t, xs[i:i + 1]) for i in range(9)]
        assert dens.tobytes() == np.concatenate([d for d, _, _ in alone]).tobytes()
        assert conv_mask.tolist() == [bool(c[0]) for _, c, _ in alone]

    @pytest.mark.parametrize(
        "model",
        [
            RModel.semicircle(2, 1),
            RModel.free_poisson(1),
            RModel.cfp_atomic(2.0, [(1, 0.5), (-0.5, 0.5)], 0.3),
        ],
    )
    def test_scan_points_are_t_batch_independent(self, model):
        # a grid scan of several t values gives the scans of each alone, in order
        ts = [0.3, 0.5, 1.0, 1.7, 3.0]
        alone = tuple(p for t in ts for p in oracles.grid_scan(model, [t]))
        assert oracles.grid_scan(model, ts) == alone

    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValueError, match="positive"):
            idclass.positivity_scan(RModel.free_poisson(1), [0.5, -1])

    @pytest.fixture
    def no_solve(self, monkeypatch):
        # both routes fail on any work past their input checks
        monkeypatch.setattr(idclass, "_critical_scan", None)
        monkeypatch.setattr(oracles, "_extrapolated_density", None)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_rejects_nonfinite_times(self, no_solve, t):
        for scan in (idclass.positivity_scan, oracles.grid_scan):
            with pytest.raises(ValueError, match="times must be finite and positive"):
                scan(RModel.free_poisson(1), [0.5, t])

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_rejects_bad_edge_tol(self, no_solve, value):
        # edge_tol configures the scan's verdict
        with pytest.raises(ValueError, match="edge_tol must be finite and positive"):
            idclass.positivity_scan(RModel.semicircle(2, 1), [0.5], edge_tol=value)


_ROUTE_TOL = next(c.tolerance for c in verify.CHECKS if c.name == "scan_edge_routes")

_JUMPS = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(0.3, 2.0), st.floats(0.2, 1.5)).map(
    lambda x: (x[0] * x[1], x[2]))
_MODELS = st.builds(
    RModel,
    drift=st.floats(-1.0, 1.0),
    variance=st.one_of(st.just(0.0), st.floats(0.05, 2.0)),
    jumps=st.lists(_JUMPS, max_size=3).map(tuple),
)
_TIMES = st.floats(0.2, 4.0)


def _closed_form_edge(family, params, t):
    """Left edge of mu^{boxplus t} for the three families with one."""
    if family == "semicircle":
        mean, var = params
        return t * mean - 2 * math.sqrt(t * var)
    rate, jump, drift = params  # rate 1 and jump 1 for free Poisson
    root = math.sqrt(rate * t)
    if jump > 0:  # below rate * t = 1 the atom at t * drift is the left end
        return t * drift + (jump * (1 - root) ** 2 if root >= 1 else 0.0)
    return t * drift + jump * (1 + root) ** 2


class TestCriticalScan:
    @settings(max_examples=60, deadline=None)
    @given(model=_MODELS, t=_TIMES)
    def test_root_is_unique_and_matches_the_grid_route(self, model, t):
        # t w^2 R'(w) increases on the bisection bracket, so its one root is
        # bracketed without a sign search; the grid scan agrees to the
        # tolerance of verify's scan_edge_routes
        bracket = idclass._critical_bracket(model, t)
        if bracket is not None:
            scale, v_hi = bracket
            v = np.linspace(0, v_hi, 2001)[1:-1]
            w = -scale * v / (1 - v)
            assert np.all(np.diff(t * w * w * model.dr(w)) > 0)
        (critical,) = idclass.positivity_scan(model, [t]).points
        (grid,) = oracles.grid_scan(model, [t])
        assert critical.converged
        assert critical.atoms == grid.atoms
        # an unconverged grid edge (such as its window's left end) only
        # bounds the edge
        if grid.converged:
            assert abs(critical.left_edge - grid.left_edge) <= _ROUTE_TOL

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(["semicircle", "free_poisson", "single_jump"]),
        first=st.floats(-2.0, 2.0),
        second=st.floats(0.2, 3.0),
        sign=st.sampled_from([-1.0, 1.0]),
        t=_TIMES,
    )
    def test_edges_match_the_closed_forms(self, family, first, second, sign, t):
        if family == "semicircle":
            params, model = (first, second), RModel.semicircle(first, second)
        elif family == "free_poisson":
            params, model = (second, 1.0, 0.0), RModel.free_poisson(second)
        else:
            jump = sign * (0.2 + abs(first))
            params, model = (second, jump, first), RModel.cfp_atomic(second, [(jump, 1)], first)
        exact = _closed_form_edge(family, params, t)
        (point,) = idclass.positivity_scan(model, [t]).points
        assert point.converged
        assert abs(point.left_edge - exact) <= 1e-12 * max(1, abs(exact))

    def test_free_poisson_at_rate_one_has_edge_zero_and_no_atom(self):
        # t L = 1 exactly: no critical point and no atom, the left end is the
        # limit t * drift of z(w) as w -> -oo
        (point,) = idclass.positivity_scan(RModel.free_poisson(1), [1.0]).points
        assert (point.left_edge, point.atoms, point.converged) == (0.0, (), True)

    def test_bounds_r_prime_evaluations(self, monkeypatch):
        # this 4-t scan evaluates R' at 1512 points: six rounds of 63
        # midpoints per t
        points = []
        dr = RModel.dr
        monkeypatch.setattr(RModel, "dr", lambda self, w: points.append(np.size(w)) or dr(self, w))
        scan = idclass.positivity_scan(RModel.semicircle(2, 1), [0.5, 1, 2, 4])
        assert all(p.converged for p in scan.points)
        assert sum(points) <= 2000

    @pytest.mark.parametrize("model", [
        RModel.semicircle(2, 1),
        RModel.free_poisson(1),
        RModel.cfp_atomic(2.0, [(1, 0.5), (-0.5, 0.5)], 0.3),
    ])
    def test_scan_points_are_t_batch_independent(self, model):
        ts = [0.3, 0.5, 1.0, 1.7, 3.0]
        alone = tuple(p for t in ts for p in idclass.positivity_scan(model, [t]).points)
        assert idclass.positivity_scan(model, ts).points == alone


# ---------------------------------------------------------------------------
# divergence at the origin


class TestThm110:
    def test_atom_at_zero_certifies(self):
        res = idclass.thm110_check(MeasureSpec.from_law("marchenko_pastur", (0.5,)))
        assert res.condition == "atom_at_zero"
        assert res.regular is True

    def test_free_poisson_density_diverges(self):
        res = idclass.thm110_check(M)
        assert res.condition == "integral_divergent"
        assert res.regular is True

    def test_power_law_density_diverges(self):
        res = idclass.thm110_check(MeasureSpec.from_law("beta_1a", (0.7,)))
        assert res.condition == "integral_divergent"
        assert res.regular is True

    def test_convergent_integral_decides_nothing(self):
        res = idclass.thm110_check(WPLUS)
        assert res.condition == "integral_convergent"
        assert res.regular is None

    def test_atomic_measure_off_zero_is_convergent(self):
        res = idclass.thm110_check(MeasureSpec.atomic([(F(1, 2), 1)]))
        assert res.condition == "integral_convergent"
        assert res.regular is None
        # the atoms' G is removed by the kernel that computed it: exact zeros
        mu = MeasureSpec.atomic([(1e-6, F(1, 3)), (F(1, 7), F(1, 3)), (2, F(1, 3))])
        res = idclass.thm110_check(mu)
        assert res.condition == "integral_convergent"
        assert res.shells and set(res.shells) == {0.0}

    def test_rejects_negative_support(self):
        with pytest.raises(ValueError, match=r"\[0, oo\)"):
            idclass.thm110_check(MeasureSpec.atomic([(-1, F(1, 2)), (1, F(1, 2))]))

    @pytest.mark.parametrize(
        "mu",
        [
            MeasureSpec.from_law("semicircle", (0, 1)),
            MeasureSpec.from_law("symmetric_bernoulli", scale=-1),
            MeasureSpec.from_law("marchenko_pastur", (2,), scale=-1),
        ],
    )
    def test_rejects_law_charging_negative_axis(self, mu):
        with pytest.raises(ValueError, match=r"\[0, oo\)"):
            idclass.thm110_check(mu)

    def test_grid_form(self):
        xs = np.linspace(0, 4, 2001)
        dens = np.where(
            xs > 0,
            np.sqrt(np.maximum(4 - xs, 0) / np.maximum(xs, 1e-300)),
            0,
        ) / (2 * np.pi)
        dens = dens / np.trapezoid(dens, xs)
        mu = MeasureSpec.grid(xs, dens)
        res = idclass.thm110_check(mu)
        assert res.condition == "integral_divergent"

    @pytest.mark.parametrize("n", [5, 17])
    def test_coarse_grid_is_inconclusive(self, n):
        # density 1/2 at 0, so int dmu/x diverges; shells no narrower than
        # four spacings leave no ratio to judge, which is no evidence
        res = idclass.thm110_check(MeasureSpec.grid(np.linspace(0, 2, n), [0.5] * n))
        assert res.condition == "inconclusive"
        assert res.regular is None and res.ratios == ()

    @pytest.mark.parametrize(
        "mu, condition",
        [
            (MeasureSpec.atomic([(F(1, 2), F(1, 2)), (F(1, 5), F(1, 2))]), "integral_convergent"),
            (MeasureSpec.grid(np.linspace(0, 2, 401), [0.5] * 401), "integral_divergent"),
            (M, "integral_divergent"),
            (WPLUS, "integral_convergent"),
        ],
        ids=["atomic", "grid", "law", "law_off_zero"],
    )
    def test_thm110_never_integrates(self, monkeypatch, mu, condition):
        import scipy.integrate

        def refuse(*args, **kwargs):
            raise AssertionError("thm110_check called quad")

        monkeypatch.setattr(scipy.integrate, "quad", refuse)
        assert idclass.thm110_check(mu).condition == condition


# ---------------------------------------------------------------------------
# free Meixner Levy measures


# the four parameter sets pinned below (lo = 1, lo = 0, lo < 0 < hi, hi < 0),
# then lo = 1e-4, hi = 0, and supports inside (0, 1), across 1, above 1 and
# below 0 at other b and c
_MEIXNER_CASES = [
    (3, 1, 1), (2, 1, 1), (0, 1, 1), (-3, 1, 1),
    (2.0001, 1, 1), (-2, 1, 1), (0.5, 0.01, 1), (1.2, 0.1, 1), (1.5, 0.1, 2),
    (2.5, 1, 1), (4, 3.9, 1), (5, 2, 0.7), (7, 1, 2), (-1.5, 0.25, 3),
]
# lo = 1e-8 and 1e-12, where the quadrature fails but mpmath does not, and
# lo = -5.6e-18: in binary 0.3^2 < 4 * 0.0225, which the rounded
# 2 sqrt(0.0225) = 0.3 alone would miss
_MEIXNER_MP_ONLY = [(2 + 1e-8, 1, 1), (2 + 1e-12, 1, 1), (0.3, 0.0225, 1)]
_MEIXNER_QUAD_REL = 1e-10
# worst seen 1.9e-15 (at (1.5, 0.1, 2)) on these sets, 2.9e-15 on 300 random ones
# with lo from 8e-7 to 7 above 0
_MEIXNER_MP_REL = 1e-14


def _mp_meixner(a, b, c):
    """(int min(1,x) dnu, total mass) in 40-digit mpmath, under
    x = a + r cos(theta), where sqrt(R) dx/x = (a - r cos - lo hi/x) dtheta
    and sqrt(R) dx/x^2 = r^2 sin^2/x^2 dtheta are smooth up to lo = 0."""
    import mpmath as mp

    with mp.workdps(40):
        a, b, c = (mp.mpf(float(v)) for v in (a, b, c))
        r = 2 * mp.sqrt(b)
        lo, hi = a - r, a + r
        x = lambda t: a + r * mp.cos(t)
        mean = lambda t: a - r * mp.cos(t) - (lo * hi / x(t) if lo * hi else 0)
        mass = lambda t: (r * mp.sin(t) / x(t)) ** 2
        total = mp.inf if lo <= 0 <= hi else c / mp.pi * mp.quad(mass, [0, mp.pi])
        if hi <= 0:
            return 0.0, float(total)
        if lo < 0:
            return math.inf, float(total)
        t1 = mp.acos(min(max((1 - a) / r, -1), 1))   # the angle of x = 1
        min1 = mp.quad(mass, [0, t1]) + mp.quad(mean, [t1, mp.pi])
        return float(c / mp.pi * min1), float(total)


class TestLevyMeixner:
    def test_positive_support_is_regular(self):
        res = idclass.levy_meixner(3, 1, 1)
        assert res.support == (1, 5)
        assert res.regular
        assert res.total_mass == pytest.approx(res.min1_integral)
        assert res.min1_integral == pytest.approx(0.341640786, abs=1e-6)

    def test_boundary_case_has_infinite_mass_but_is_regular(self):
        res = idclass.levy_meixner(2, 1, 1)
        assert res.support == (0, 4)
        assert res.regular
        assert math.isinf(res.total_mass)
        assert math.isfinite(res.min1_integral)

    def test_support_crossing_zero_is_not_regular(self):
        res = idclass.levy_meixner(0, 1, 1)
        assert res.support == (-2, 2)
        assert not res.regular
        assert math.isinf(res.min1_integral)

    def test_negative_support_is_not_regular(self):
        res = idclass.levy_meixner(-3, 1, 1)
        assert not res.regular
        assert res.total_mass == pytest.approx(0.341640786, abs=1e-6)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            idclass.levy_meixner(1, 0, 1)
        with pytest.raises(ValueError):
            idclass.levy_meixner(1, 1, -1)
        for bad in ((math.nan, 1, 1), (1, math.inf, 1), (1, 1, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                idclass.levy_meixner(*bad)

    @pytest.mark.parametrize("params, support, regular", [
        ((-2, 1, 1), (-4, 0), False),                  # hi = 0: min1 0, mass inf
        ((2 + 2.0**-40, 1, 1), (2.0**-40, 4 + 2.0**-40), True),
        ((1.9, 1, 1), (-0.1, 3.9), False),
        ((0.3, 0.0225, 1), (-5.551115123125783e-18, 0.6), False),
    ])
    def test_support_edges(self, params, support, regular):
        res = idclass.levy_meixner(*params)
        assert res.support == pytest.approx(support, abs=1e-15)
        assert res.regular is regular
        assert math.isinf(res.total_mass) is (support[0] <= 0 <= support[1])

    @pytest.mark.parametrize("params", _MEIXNER_CASES)
    def test_closed_form_matches_quadrature(self, params):
        # tests/oracles.py integrates the density with scipy's quad; its own
        # error reaches 2e-11 relative at lo = 1e-4 and grows as lo -> 0
        res = idclass.levy_meixner(*params)
        min1, total = levy_meixner_quadrature(*params)
        for got, want in ((res.min1_integral, min1), (res.total_mass, total)):
            if math.isinf(want) or want == 0:
                assert got == want
            else:
                assert got == pytest.approx(want, rel=_MEIXNER_QUAD_REL)

    @pytest.mark.parametrize("params", _MEIXNER_CASES + _MEIXNER_MP_ONLY)
    def test_closed_form_matches_mpmath(self, params):
        res = idclass.levy_meixner(*params)
        min1, total = _mp_meixner(*params)
        for got, want in ((res.min1_integral, min1), (res.total_mass, total)):
            if math.isinf(want) or want == 0:
                assert got == want
            else:
                assert abs(got - want) <= _MEIXNER_MP_REL * abs(want)


# ---------------------------------------------------------------------------
# Voiculescu generating pairs


class TestVoiculescuPair:
    def test_free_poisson_pair(self):
        pair = idclass.voiculescu_pair(M)
        assert pair.gamma == F(1, 2)
        assert pair.tau_atoms == ((1, F(1, 2)),)
        res = idclass.prop345_check(pair)
        assert res.left_extremity == 1
        assert res.phi_at_zero == 0  # boundary case, still regular
        assert res.passed

    def test_centered_semicircle_fails(self):
        pair = idclass.voiculescu_pair(W)
        assert pair.gamma == 0
        assert pair.tau_atoms == ((0, 1),)
        res = idclass.prop345_check(pair)
        assert res.phi_at_zero == -math.inf
        assert not res.passed

    def test_shifted_semicircle_still_fails(self):
        pair = idclass.voiculescu_pair(WPLUS)
        assert pair.gamma == 2
        res = idclass.prop345_check(pair)
        assert not res.passed

    def test_empty_tau_reduces_to_the_drift_sign(self):
        good = idclass.prop345_check(idclass.VoiculescuPair(2))
        assert good.left_extremity == math.inf
        assert good.passed
        assert not idclass.prop345_check(idclass.VoiculescuPair(-1)).passed

    def test_cfp_pair_is_exact(self):
        lam = F(3, 2)
        jumps = [(F(1, 2), F(2, 3)), (2, F(1, 3))]
        pair = idclass.voiculescu_pair_cfp(lam, jumps)
        expected_gamma = lam * F(2, 3) * F(1, 2) / (1 + F(1, 4)) + lam * F(
            1, 3
        ) * 2 / 5
        assert pair.gamma == expected_gamma
        res = idclass.prop345_check(pair)
        assert res.left_extremity == F(1, 2)
        # phi(-0) = gamma - sum tau_j / x_j = 0 for a drift-free jump law
        assert res.phi_at_zero == 0
        assert res.passed

    def test_scaled_free_poisson_matches_cfp_formula(self):
        scaled = MeasureSpec.from_law("marchenko_pastur", (1,), scale=2)
        pair = idclass.voiculescu_pair(scaled)
        direct = idclass.voiculescu_pair_cfp(1, [(2, 1)])
        assert pair.gamma == pytest.approx(float(direct.gamma))
        assert pair.tau_atoms[0][0] == direct.tau_atoms[0][0]
        assert pair.tau_atoms[0][1] == pytest.approx(float(direct.tau_atoms[0][1]))

    def test_refuses_laws_without_closed_form(self):
        with pytest.raises(ValueError, match="closed-form"):
            idclass.voiculescu_pair(MeasureSpec.from_law("beta_1a", (0.7,)))
        with pytest.raises(ValueError, match="catalog laws"):
            idclass.voiculescu_pair(MeasureSpec.atomic([(1, 1)]))
