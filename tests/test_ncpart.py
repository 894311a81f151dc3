"""Tests for non-crossing partition combinatorics and cumulant conversions.

Brute-force oracles (restricted-growth enumeration of all set partitions,
direct NC sums) are defined here and the production recursions are checked
against them on small orders.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from freeconv.ncpart import (
    SeqN,
    SetPartition,
    boolean_cumulants_from_moments,
    catalan,
    enumerate_nc,
    free_cumulants_from_moments,
    free_mult_moments,
    moments_from_boolean_cumulants,
    moments_from_free_cumulants,
    square_cumulants,
)
from oracles import (
    free_mult_moments_reference,
    is_noncrossing,
    kreweras,
    moments_from_free_cumulants_reference,
    partition_weight,
)


def all_set_partitions(n):
    """Oracle: every set partition of {1..n} via restricted growth strings."""
    if n == 0:
        yield SetPartition(0, ())
        return
    rgs = [0] * n
    while True:
        blocks = {}
        for i, c in enumerate(rgs):
            blocks.setdefault(c, []).append(i + 1)
        yield SetPartition(n, tuple(tuple(b) for b in blocks.values()))
        i = n - 1
        while i > 0:
            if rgs[i] <= max(rgs[:i]):
                break
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        for j in range(i + 1, n):
            rgs[j] = 0


def crossing_free_bruteforce(p):
    """Quadratic-pair oracle for the non-crossing property."""
    for b1, b2 in itertools.combinations(p.blocks, 2):
        for a, c in itertools.combinations(b1, 2):
            for b, d in itertools.combinations(b2, 2):
                if a < b < c < d or b < a < d < c:
                    return False
    return True


MOMENT_SEQS = {
    # semicircle(0,1): Catalan at even orders
    "semicircle": [0, 1, 0, 2, 0, 5, 0, 14],
    # free Poisson: Catalan numbers
    "free_poisson": [1, 2, 5, 14, 42, 132, 429, 1430],
    # symmetric Bernoulli at +-1
    "bernoulli": [0, 1, 0, 1, 0, 1, 0, 1],
}


def test_catalan_values():
    assert [catalan(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]


def test_is_noncrossing_matches_bruteforce():
    for n in range(1, 7):
        for p in all_set_partitions(n):
            assert is_noncrossing(p) == crossing_free_bruteforce(p)


def test_enumerate_nc_counts():
    for n in range(0, 10):
        assert sum(1 for _ in enumerate_nc(n)) == catalan(n)


def test_enumerate_nc_matches_filtered_bruteforce():
    for n in range(1, 8):
        expected = {p for p in all_set_partitions(n) if is_noncrossing(p)}
        produced = set(enumerate_nc(n))
        assert produced == expected


def test_enumerate_nc_cap():
    # the documented guard: n = 14 streams lazily, n = 15 is rejected
    first = next(iter(enumerate_nc(14)))
    assert first.n == 14
    with pytest.raises(ValueError):
        list(enumerate_nc(15))


def test_partition_validation():
    with pytest.raises(ValueError):
        SetPartition(3, ((1, 2),))
    with pytest.raises(ValueError):
        SetPartition(3, ((1, 2), (2, 3)))


def test_kreweras_spec_example():
    p = SetPartition(4, ((1, 2), (3, 4)))
    assert kreweras(p).blocks == ((1,), (2, 4), (3,))


def test_kreweras_extremes():
    n = 5
    singletons = SetPartition(n, tuple((i,) for i in range(1, n + 1)))
    full = SetPartition(n, (tuple(range(1, n + 1)),))
    assert kreweras(singletons) == full
    assert kreweras(full) == singletons


def test_kreweras_size_identity_and_rotation():
    # |pi| + |K(pi)| = n + 1 and K(K(pi)) is pi rotated by one (e -> e - 1)
    for n in range(1, 8):
        for p in enumerate_nc(n):
            k = kreweras(p)
            assert is_noncrossing(k)
            assert len(p) + len(k) == n + 1
            rotated = SetPartition(
                n,
                tuple(
                    tuple(sorted((e - 2) % n + 1 for e in b)) for b in p.blocks
                ),
            )
            assert kreweras(k) == rotated


def test_kreweras_requires_noncrossing():
    with pytest.raises(ValueError):
        kreweras(SetPartition(4, ((1, 3), (2, 4))))


def test_moments_from_free_cumulants_examples():
    # semicircle: kappa = (0,1,0,...) -> Catalan at even orders
    kappa = SeqN("free_cumulant", [0, 1, 0, 0, 0, 0])
    assert moments_from_free_cumulants(kappa).values == (0, 1, 0, 2, 0, 5)
    # free Poisson: kappa_n = 1 -> Catalan numbers
    kappa = SeqN("free_cumulant", [1] * 6)
    assert moments_from_free_cumulants(kappa).values == (1, 2, 5, 14, 42, 132)


def test_free_cumulants_from_moments_examples():
    m = SeqN("moment", MOMENT_SEQS["free_poisson"])
    assert free_cumulants_from_moments(m).values == (1,) * 8
    m = SeqN("moment", MOMENT_SEQS["semicircle"])
    assert free_cumulants_from_moments(m).values == (0, 1, 0, 0, 0, 0, 0, 0)


def test_conversion_against_enumeration():
    # recursion agrees with the direct sum over NC(n) of kappa_pi
    kappa = tuple(Fraction(k, k + 2) for k in range(1, 9))
    mom = moments_from_free_cumulants(SeqN("free_cumulant", kappa))
    for n in range(1, 9):
        direct = moments_from_free_cumulants_reference(kappa, n)
        assert mom.values[n - 1] == direct
    base = (2, 3, 5, 7)
    assert partition_weight(base, SetPartition(4, ((1, 4), (2, 3)))) == 9
    assert partition_weight(base, SetPartition(4, ((1, 2, 3, 4),))) == 7


def test_boolean_examples():
    m = SeqN("moment", MOMENT_SEQS["bernoulli"][:6])
    r = boolean_cumulants_from_moments(m)
    assert r.values == (0, 1, 0, 0, 0, 0)
    assert moments_from_boolean_cumulants(r).values == tuple(
        MOMENT_SEQS["bernoulli"][:6]
    )


def test_kind_mismatch_rejected():
    m = SeqN("moment", [1, 2, 3])
    with pytest.raises(ValueError):
        moments_from_free_cumulants(m)
    with pytest.raises(ValueError):
        boolean_cumulants_from_moments(SeqN("free_cumulant", [1, 2, 3]))
    with pytest.raises(ValueError):
        SeqN("weird", [1])


def test_conversion_cap():
    with pytest.raises(ValueError):
        moments_from_free_cumulants(SeqN("free_cumulant", [0] * 21))


rational_seqs = st.lists(
    st.fractions(
        min_value=-3, max_value=3, max_denominator=8
    ),
    min_size=1,
    max_size=10,
)


@given(rational_seqs)
def test_free_round_trip_rational(vals):
    m = SeqN("moment", vals)
    back = moments_from_free_cumulants(free_cumulants_from_moments(m))
    assert back.values == m.values


@given(rational_seqs)
def test_boolean_round_trip_rational(vals):
    m = SeqN("moment", vals)
    back = moments_from_boolean_cumulants(boolean_cumulants_from_moments(m))
    assert back.values == m.values


@given(
    st.lists(
        st.floats(min_value=-2, max_value=2, allow_nan=False),
        min_size=1,
        max_size=8,
    )
)
def test_free_round_trip_float(vals):
    m = SeqN("moment", vals)
    back = moments_from_free_cumulants(free_cumulants_from_moments(m))
    assert all(
        abs(a - b) <= 1e-10 * max(1.0, abs(a)) for a, b in zip(m.values, back.values)
    )


def test_square_cumulants_semicircle():
    # alpha for the standard semicircle is (1,0,0,...); its square is the
    # free Poisson law, whose free cumulants are all 1
    alpha = SeqN("free_cumulant", [1, 0, 0, 0, 0])
    assert square_cumulants(alpha).values == (1,) * 5


def test_square_cumulants_is_moment_formula():
    alpha = tuple(Fraction(j, 3) for j in (1, 2, 1, 2))
    sq = square_cumulants(SeqN("free_cumulant", alpha))
    mom = moments_from_free_cumulants(SeqN("free_cumulant", alpha))
    assert sq.values == mom.values
    assert sq.kind == "free_cumulant"


def test_free_mult_fuss_catalan():
    cat = SeqN("moment", [1, 2, 5, 14, 42, 132])
    got = free_mult_moments(cat, cat)
    assert got.values == (1, 3, 12, 55, 273, 1428)


def test_free_mult_identity_element():
    # multiplying by delta_1 leaves moments unchanged
    cat = SeqN("moment", [1, 2, 5, 14])
    one = SeqN("moment", [1, 1, 1, 1])
    assert free_mult_moments(cat, one).values == cat.values
    assert free_mult_moments(one, cat).values == cat.values


def test_free_mult_matches_enumeration_oracle():
    mu = SeqN("moment", [Fraction(1, 2), Fraction(3, 4), Fraction(5, 4)])
    nu = SeqN("moment", [0, Fraction(2, 3), 0])
    got = free_mult_moments(mu, nu, 3)
    ref = free_mult_moments_reference(mu, nu, 3)
    assert got.values == ref.values


def test_free_mult_commutes():
    rng_pairs = [
        ([Fraction(1), Fraction(2), Fraction(5), Fraction(15)],
         [Fraction(1, 2), Fraction(1), Fraction(9, 4), Fraction(6)]),
        ([Fraction(2), Fraction(5), Fraction(13), Fraction(35)],
         [Fraction(1), Fraction(3), Fraction(10), Fraction(36)]),
    ]
    for a, b in rng_pairs:
        ab = free_mult_moments(SeqN("moment", a), SeqN("moment", b))
        ba = free_mult_moments(SeqN("moment", b), SeqN("moment", a))
        assert ab.values == ba.values


def test_free_mult_rejects_double_zero():
    z = SeqN("moment", [0, 0, 0])
    with pytest.raises(ValueError):
        free_mult_moments(z, z)


def test_free_mult_compound_poisson_route():
    # kappa_n(m x nu) = m_n(nu): multiplying by the free Poisson law
    # compounds the jump distribution
    cat = SeqN("moment", [1, 2, 5, 14, 42, 132])
    nu = SeqN("moment", [0, 1, 0, 1, 0, 1])  # symmetric Bernoulli
    prod = free_mult_moments(cat, nu)
    kappa = free_cumulants_from_moments(prod)
    assert kappa.values == nu.values


@settings(deadline=None)
@given(
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=6),
             min_size=2, max_size=6),
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=6),
             min_size=2, max_size=6),
)
def test_free_mult_dp_equals_oracle(a, b):
    assume(any(v != 0 for v in a) or any(v != 0 for v in b))
    n = min(len(a), len(b))
    got = free_mult_moments(SeqN("moment", a), SeqN("moment", b), n)
    ref = free_mult_moments_reference(SeqN("moment", a), SeqN("moment", b), n)
    assert got.values == ref.values


# ints and Fractions with unrelated denominators, so the lcm grading mixes
mixed_exact = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
)


def _exact_denominators(dens):
    return st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                     st.sampled_from(dens))


@settings(max_examples=15, deadline=None)
@given(st.lists(mixed_exact, min_size=1, max_size=10))
def test_graded_kernel_equals_enumeration(kappa):
    n = len(kappa)
    got = moments_from_free_cumulants(SeqN("free_cumulant", kappa)).values[-1]
    ref = moments_from_free_cumulants_reference(kappa, n)
    assert got == ref
    assert type(got) is type(ref)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(_exact_denominators([1, 2, 4, 8]), min_size=1, max_size=7),
    st.lists(_exact_denominators([1, 3, 5, 9]), min_size=1, max_size=7),
)
def test_graded_product_equals_kreweras_oracle(a, b):
    assume(any(v != 0 for v in a) or any(v != 0 for v in b))
    n = min(len(a), len(b))
    got = free_mult_moments(SeqN("moment", a), SeqN("moment", b), n)
    ref = free_mult_moments_reference(SeqN("moment", a), SeqN("moment", b), n)
    assert got.values == ref.values


def _types(values):
    return [type(v).__name__ for v in values]


def test_exact_output_types():
    # int in, int out; entries turn Fraction from the first Fraction input
    # on; a product entry to which the DP summed no term stays int 0
    to_m = lambda k: moments_from_free_cumulants(SeqN("free_cumulant", k)).values
    to_k = lambda m: free_cumulants_from_moments(SeqN("moment", m)).values
    assert to_m((1, 0, 2)) == (1, 1, 3)
    assert _types(to_m((1, 0, 2))) == ["int"] * 3
    assert to_m((1, Fraction(1, 2), 2)) == (1, Fraction(3, 2), Fraction(9, 2))
    assert _types(to_m((1, Fraction(1, 2), 2))) == ["int", "Fraction", "Fraction"]
    assert _types(to_m((Fraction(1), 0, 2))) == ["Fraction"] * 3
    assert to_k((2, Fraction(9, 2), 3)) == (2, Fraction(1, 2), -8)
    assert _types(to_k((2, Fraction(9, 2), 3))) == ["int", "Fraction", "Fraction"]
    F = Fraction
    cases = [
        ((1, 2, 5), (F(1, 2),) * 3, ["Fraction"] * 3),
        ((1, F(3, 2), 4), (2, 5, 14), ["int", "Fraction", "Fraction"]),
        ((F(0), F(1), F(0), F(2)), (1, 2, 5, 14), ["Fraction"] * 4),
        ((1, 2, 5, 14), (F(0), F(1), F(0), F(2)), ["int", "Fraction", "int", "Fraction"]),
        ((1, 2, 5, 14), (0, 1, 0, 2), ["int"] * 4),
    ]
    for a, b, types in cases:
        got = free_mult_moments(SeqN("moment", a), SeqN("moment", b)).values
        ref = free_mult_moments_reference(SeqN("moment", a), SeqN("moment", b), len(a))
        assert got == ref.values
        assert _types(got) == types


def _hex(values):
    return [v.hex() for v in values]


def test_float_outputs_pinned():
    # bit patterns of the float path, recorded before the cubic kernel
    # replaced the quartic recursions; the order of the sums fixes them
    kappa = SeqN("free_cumulant", (0.5, -1.25, 0.1, 3.0, -0.7, 0.3))
    assert _hex(moments_from_free_cumulants(kappa).values) == [
        "0x1.0000000000000p-1", "-0x1.0000000000000p+0", "-0x1.a666666666666p+0",
        "0x1.20ccccccccccdp+2", "0x1.969999999999ap+3", "-0x1.bb23d70a3d70ap+3"]
    m = SeqN("moment", (0.3, 1.1, -0.4, 2.7, 0.9, 5.2))
    assert _hex(free_cumulants_from_moments(m).values) == [
        "0x1.3333333333333p-2", "0x1.028f5c28f5c29p+0", "-0x1.5604189374bc6p+0",
        "0x1.b5a1cac083127p+0", "0x1.7989df1172ef0p+1", "-0x1.a96ea85447800p+3"]
    # signed zeros: sums start from int 0, and zero factors are skipped
    m = SeqN("moment", (0.0, -0.0, 1.0, -0.0))
    assert _hex(free_cumulants_from_moments(m).values) == [
        "0x0.0p+0", "-0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"]
    kappa = SeqN("free_cumulant", (-0.0, -0.0, -1.5, -0.0))
    assert _hex(moments_from_free_cumulants(kappa).values) == [
        "0x0.0p+0", "0x0.0p+0", "-0x1.8000000000000p+0", "0x0.0p+0"]
    prod = free_mult_moments(SeqN("moment", (0.3, 0.7, 1.9, 5.3)),
                             SeqN("moment", (1.1, 2.5, 6.9, 21.7)))
    assert _hex(prod.values) == [
        "0x1.51eb851eb851fp-2", "0x1.ed1b71758e21ap-1", "0x1.baa960b6f9fccp+1",
        "0x1.adf36247f3b49p+3"]


def test_quarter_circle_float_cumulants_pinned():
    # mixed Fraction/float moments take the float path; order 20 carries the
    # known cancellation error, pinned here so that it can only change on
    # purpose
    from freeconv.catalog import MeasureSpec, free_cumulants_of

    kappa = free_cumulants_of(MeasureSpec.from_law("quarter_circle", (1,)), 20)
    assert _hex(kappa.values) == [
        "0x1.b2995e7b7b604p-1", "0x1.1e339fc33f354p-2", "0x1.1d2ee39714d88p-5",
        "-0x1.de0a8b3e94440p-10", "-0x1.127fccb44f858p-11", "0x1.afec02a663880p-14",
        "0x1.2841864070a80p-17", "-0x1.5df7d8d2fd728p-18", "0x1.809d804a07200p-23",
        "0x1.ea209852482b0p-23", "-0x1.2e603af10d5c0p-25", "-0x1.07088db6413e0p-27",
        "0x1.7c8b996ca0d60p-29", "0x1.77f2e580e1a00p-34", "-0x1.61b469f88fe98p-33",
        "0x1.54010e7ca1c00p-38", "0x1.4dd24d3269fc0p-35", "-0x1.72af966938290p-34",
        "0x1.d4ac44d23d5d8p-33", "-0x1.23bc73fb0d5d8p-31"]
