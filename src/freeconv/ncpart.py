"""Non-crossing set partitions and moment/cumulant conversions.

All conversions here are purely algebraic, and orders are 1-indexed: a
sequence of order N holds the entries for n = 1..N.  Moments and free
cumulants are linked by one cubic recursion, _nc_kernel, and moments and
boolean cumulants by the quadratic _boolean_kernel.  ``int``/``Fraction``
inputs run both, and the product DP, exactly in Python ints graded by D^n,
with D a small base for which every x_n D^n is an int (see _grade);
float inputs run them in double precision.  The tests check both against
sums over NC(n) enumerated with enumerate_nc.

Every exact kernel types its outputs by one rule, which _ungraded applies
here and transforms' series product follows: for sums and products, output
n is a Fraction iff some input of order <= n is a Fraction, and an int
otherwise; quotients and reversions always return Fractions. One float or
complex coefficient turns a series product, quotient or reversion inexact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, prod
from operator import mul

ENUMERATION_CAP = 14      # Catalan(14) = 2\,674\,440 partitions, see enumerate_nc
CONVERSION_CAP = 20       # moment <-> cumulant conversions
PRODUCT_CAP = 16          # free multiplicative convolution at moment level

SEQ_KINDS = ("moment", "free_cumulant", "boolean_cumulant")

# primes at which _grade gives the base its least exponent
_BASE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_BASE_PRIMORIAL = prod(_BASE_PRIMES)


def catalan(n: int) -> int:
    """n-th Catalan number, the size of NC(n)."""
    return comb(2 * n, n) // (n + 1)


@dataclass(frozen=True)
class SeqN:
    """Truncated real sequence indexed 1..N with a declared interpretation.

    kind is one of "moment", "free_cumulant", "boolean_cumulant"; values[i]
    is the entry of order i+1.
    """

    kind: str
    values: tuple

    def __post_init__(self):
        if self.kind not in SEQ_KINDS:
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        object.__setattr__(self, "values", tuple(self.values))

    @property
    def order(self) -> int:
        return len(self.values)

    def at(self, n: int):
        """Entry of order n (1-indexed)."""
        if not 1 <= n <= len(self.values):
            raise IndexError(f"order {n} outside 1..{len(self.values)}")
        return self.values[n - 1]

    def truncated(self, n: int) -> "SeqN":
        _check_order(n, "truncated")
        if n > len(self.values):
            raise ValueError(f"cannot extend order {len(self.values)} to {n}")
        return SeqN(self.kind, self.values[:n])


def _values(seq, kind: str, op: str) -> tuple:
    """Unwrap a SeqN of the expected kind, or accept a bare sequence."""
    if isinstance(seq, SeqN):
        if seq.kind != kind:
            raise ValueError(f"{op} expects a {kind!r} sequence, got {seq.kind!r}")
        return seq.values
    return tuple(seq)


@dataclass(frozen=True)
class SetPartition:
    """Partition of {1..n} into disjoint blocks.

    Blocks are stored sorted internally and ordered by their least element,
    so equal partitions compare equal.
    """

    n: int
    blocks: tuple

    def __post_init__(self):
        blocks = tuple(sorted(tuple(sorted(b)) for b in self.blocks))
        covered = sorted(e for b in blocks for e in b)
        if covered != list(range(1, self.n + 1)):
            raise ValueError(f"blocks do not partition {{1..{self.n}}}")
        object.__setattr__(self, "blocks", blocks)

    def __len__(self) -> int:
        return len(self.blocks)


def enumerate_nc(n: int):
    """Yield all non-crossing partitions of {1..n} (Catalan(n) of them)."""
    if n < 0 or n > ENUMERATION_CAP:
        raise ValueError(
            f"enumerate_nc supports 0 <= n <= {ENUMERATION_CAP}; "
            f"NC({n}) has Catalan growth"
        )
    for blocks in _nc_blocks(tuple(range(1, n + 1))):
        yield SetPartition(n, blocks)


def _nc_blocks(elems: tuple):
    """Recursive enumeration over ordered ground sets.

    The block of the first element either stops (singleton) or continues at
    some later element; everything strictly between is enclosed and
    partitioned independently.
    """
    if not elems:
        yield ()
        return
    a, rest = elems[0], elems[1:]
    for p in _nc_blocks(rest):
        yield ((a,),) + p
    for j in range(len(rest)):
        inner, outer = rest[:j], rest[j:]
        for po in _nc_blocks(outer):
            merged = tuple(
                ((a,) + b) if b[0] == outer[0] else b for b in po
            )
            for pi in _nc_blocks(inner):
                yield merged + pi


def _is_exact(*xs) -> bool:
    return all(isinstance(x, (int, Fraction)) for x in xs)


def _nc_kernel(seq, inverse: bool) -> list:
    """The non-crossing moment-cumulant recursion, either way, in O(N^3).

    With P[k][j] = [z^j] M(z)^k, M = 1 + sum_n kappa_n z^n M^n (Nica and
    Speicher, Lect. 11 and 16) reads m_n = sum_{k<=n} kappa_k P[k][n-k], and
    P[k][j] = sum_i P[k-1][i] m_{j-i} needs moments below order n only.
    Order n appends the antidiagonal k + j = n to P, then solves for m_n
    (inverse False) or for kappa_n.  Zero factors are skipped and sums start
    from int 0, which fixes float rounding and signed zeros.
    """
    m = [1] + list(seq) if inverse else [1]
    kappa = [] if inverse else list(seq)
    P = [[1] + [0] * len(seq)]
    for n in range(1, len(seq) + 1):
        P.append([])
        for k in range(1, n + 1):
            prev, j, acc = P[k - 1], n - k, 0
            for i in range(j + 1):
                a = prev[i]
                if a != 0:
                    b = m[j - i]
                    if b != 0:
                        acc += a * b
            P[k].append(acc)
        if inverse:
            val = m[n]
            for k in range(1, n):
                val -= kappa[k - 1] * P[k][n - k]
            kappa.append(val)
        else:
            val = 0
            for k in range(1, n + 1):
                val += kappa[k - 1] * P[k][n - k]
            m.append(val)
    return kappa if inverse else m[1:]


def _boolean_kernel(seq, inverse: bool) -> list:
    """Interval-partition refinement m_n = sum_{k<=n} r_k m_{n-k}, m_0 = 1,
    solved for m_n (inverse False) or for r_n, in O(N^2)."""
    if inverse:
        m, r = [1, *seq], []
        for n in range(1, len(m)):
            r.append(m[n] - sum(map(mul, r, m[n - 1:0:-1])))
        return r
    m = [1]
    for n in range(1, len(seq) + 1):
        m.append(sum(map(mul, seq[:n], reversed(m))))
    return m[1:]


def _grade(xs) -> tuple:
    """Exact x_n scaled to the int x_n D^n, and the base D.

    Grading needs den(x_n) | D^n for every n, and D grows order by order to
    cover the part c of den_n that D^n misses. At each prime p of
    _BASE_PRIMES it grows by p^ceil(v_p(c)/n), which gives p the least
    exponent that grading allows, the largest ceil(v_p(den_n)/n); the rest
    of c it takes whole. Neither gives a prime a larger exponent than some
    denominator has, so D divides their lcm: the moments of atoms at k/q
    with weights w/T, whose lcm is q^N T, get a D that divides qT when q's
    primes are in _BASE_PRIMES.
    """
    d = 1
    for n, x in enumerate(xs, 1):
        c = x.denominator // gcd(x.denominator, d**n)
        small = gcd(c, _BASE_PRIMORIAL)
        for p in _BASE_PRIMES:
            if small == 1:
                break
            if small % p == 0:
                small //= p
                e = 0
                while c % p == 0:
                    c //= p
                    e += 1
                d *= p ** -(-e // n)
        d *= c
    graded, dn = [], 1
    for x in xs:
        dn *= d
        graded.append(x.numerator * (dn // x.denominator))
    return graded, d


def _ungraded(values, d: int, *inputs) -> list:
    """Graded outputs v_n back to v_n / d^n, typed by the module's rule: a
    Fraction iff some input of order <= n is one, an int otherwise."""
    out, dn, frac = [], 1, False
    for n, v in enumerate(values):
        dn *= d
        frac = frac or any(isinstance(xs[n], Fraction) for xs in inputs)
        out.append(Fraction(v, dn) if frac else v // dn)
    return out


def _nc_convert(seq: tuple, kernel, inverse: bool) -> list:
    """kernel(seq, inverse) on the values, or on graded ints for exact input."""
    if not _is_exact(*seq):
        return kernel(seq, inverse)
    graded, d = _grade(seq)
    return _ungraded(kernel(graded, inverse), d, seq)


def _moments_from_free(kappa: tuple) -> list:
    """m_n = sum_{k=1}^{n} kappa_k [z^{n-k}] M(z)^k with M = 1 + sum m_j z^j."""
    return _nc_convert(kappa, _nc_kernel, inverse=False)


def _check_order(n: int, op: str) -> None:
    """Refuse a negative order; order 0 is the empty sequence."""
    if n < 0:
        raise ValueError(f"{op} needs an order >= 0, got {n}")


class CapError(ValueError):
    """An order past a kernel's cap; the CLI maps it to exit code 2."""


def _check_cap(n: int, cap: int, op: str) -> None:
    _check_order(n, op)
    if n > cap:
        raise CapError(f"{op} capped at order {cap}, got {n}")


def moments_from_free_cumulants(kappa) -> SeqN:
    """Moments from free cumulants via the NC(n) block recursion."""
    vals = _values(kappa, "free_cumulant", "moments_from_free_cumulants")
    _check_cap(len(vals), CONVERSION_CAP, "moments_from_free_cumulants")
    return SeqN("moment", _moments_from_free(vals))


def free_cumulants_from_moments(m) -> SeqN:
    """Exact inverse of moments_from_free_cumulants."""
    vals = _values(m, "moment", "free_cumulants_from_moments")
    _check_cap(len(vals), CONVERSION_CAP, "free_cumulants_from_moments")
    return SeqN("free_cumulant", _nc_convert(vals, _nc_kernel, inverse=True))


def moments_from_boolean_cumulants(r) -> SeqN:
    vals = _values(r, "boolean_cumulant", "moments_from_boolean_cumulants")
    _check_cap(len(vals), CONVERSION_CAP, "moments_from_boolean_cumulants")
    return SeqN("moment", _nc_convert(vals, _boolean_kernel, inverse=False))


def boolean_cumulants_from_moments(m) -> SeqN:
    vals = _values(m, "moment", "boolean_cumulants_from_moments")
    _check_cap(len(vals), CONVERSION_CAP, "boolean_cumulants_from_moments")
    return SeqN("boolean_cumulant", _nc_convert(vals, _boolean_kernel, inverse=True))


def square_cumulants(alpha) -> SeqN:
    """Free cumulants of the square from the determining sequence.

    alpha_n is the 2n-th free cumulant of a symmetric measure; the square's
    n-th free cumulant is sum over NC(n) of the multiplicative alpha-weight,
    i.e. the moment formula applied to alpha.
    """
    vals = _values(alpha, "free_cumulant", "square_cumulants")
    _check_cap(len(vals), CONVERSION_CAP, "square_cumulants")
    return SeqN("free_cumulant", _moments_from_free(vals))


def _alternating_product_moments(ka, kb, order: int) -> list:
    """Moments of a free product ab via an interval DP on the word (ab)^N.

    Sums monochromatic non-crossing partitions of the alternating word,
    weighted multiplicatively by the free cumulants of each letter.  Windows
    of the infinite alternating word are translation invariant, so states
    are (starting color, length).  Equivalent to the Kreweras-complement sum
    sum_{pi in NC(n)} kappa_pi(a) m_{K(pi)}(b), which the tests enumerate.
    Cumulants graded by D_a, D_b give moments graded by D_a D_b.  Returns
    m_1..m_order.
    """
    L = 2 * order
    kappa = {0: ka, 1: kb}
    # mom[c][l]: weighted sum over partitions of a length-l window starting
    # with color c.  blk[c][l][k]: first block has k elements, the last one
    # at position l (so l is odd), with enclosed gaps already summed.
    mom = {0: [1] + [0] * L, 1: [1] + [0] * L}
    blk = {c: [[0] * (order + 1) for _ in range(L + 1)] for c in (0, 1)}
    for c in (0, 1):
        if L >= 1:
            blk[c][1][1] = 1
    for ell in range(1, L + 1):
        for c in (0, 1):
            if ell >= 3 and ell % 2 == 1:
                row = blk[c][ell]
                for q in range(1, ell - 1, 2):
                    gap = mom[1 - c][ell - 1 - q]
                    if gap == 0:
                        continue
                    prev = blk[c][q]
                    for k in range(2, (ell + 1) // 2 + 1):
                        if prev[k - 1] != 0:
                            row[k] += prev[k - 1] * gap
            total = 0
            for j in range(1, ell + 1, 2):
                tail = mom[1 - c][ell - j]
                if tail == 0:
                    continue
                row = blk[c][j]
                for k in range(1, (j + 1) // 2 + 1):
                    if row[k] != 0 and k <= len(kappa[c]):
                        total += row[k] * kappa[c][k - 1] * tail
            mom[c][ell] = total
    return mom[0][2 : L + 1 : 2]


def free_mult_moments(mu_moments, nu_moments, order: int | None = None) -> SeqN:
    """Moments of the free multiplicative convolution from factor moments.

    Computes m_n(mu x nu) = sum_{pi in NC(n)} kappa_pi(mu) m_{K(pi)}(nu)
    through an equivalent interval DP (see _alternating_product_moments).
    Exact inputs run it on graded ints, and the outputs take the module's
    type rule over both factors.  One factor should be supported on
    [0, inf) or the other symmetric for the result to be a probability
    distribution; the moment formula itself is algebraic and does not
    check this.
    """
    mv = _values(mu_moments, "moment", "free_mult_moments")
    nv = _values(nu_moments, "moment", "free_mult_moments")
    if order is None:
        order = min(len(mv), len(nv))
    _check_cap(order, PRODUCT_CAP, "free_mult_moments")
    if order > min(len(mv), len(nv)):
        raise ValueError(
            f"order {order} needs factor moments to order {order}, "
            f"got {len(mv)} and {len(nv)}"
        )
    if all(v == 0 for v in mv) and all(v == 0 for v in nv):
        raise ValueError("free_mult_moments of two zero (point-mass-at-0) inputs")
    mv, nv = mv[:order], nv[:order]
    if not _is_exact(*mv, *nv):
        ka = _nc_convert(mv, _nc_kernel, inverse=True)
        kb = _nc_convert(nv, _nc_kernel, inverse=True)
        return SeqN("moment", _alternating_product_moments(ka, kb, order))
    (ga, da), (gb, db) = _grade(mv), _grade(nv)
    ka, kb = _nc_kernel(ga, inverse=True), _nc_kernel(gb, inverse=True)
    vals = _alternating_product_moments(ka, kb, order)
    return SeqN("moment", _ungraded(vals, da * db, mv, nv))
