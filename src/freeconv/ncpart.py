"""Non-crossing set partitions and moment/cumulant conversions.

All conversions here are purely algebraic, and orders are 1-indexed: a
sequence of order N holds the entries for n = 1..N.  Moments and free
cumulants are linked by one cubic recursion, _nc_kernel.  ``int``/``Fraction``
inputs run it, and the product DP, exactly in Python ints graded by D^n (D
the lcm of the denominators); float inputs run it in double precision.  The
tests check both against sums over NC(n) enumerated with enumerate_nc.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

ENUMERATION_CAP = 14      # Catalan(14) = 2\,674\,440 partitions, see enumerate_nc
CONVERSION_CAP = 20       # moment <-> cumulant conversions
PRODUCT_CAP = 16          # free multiplicative convolution at moment level

SEQ_KINDS = ("moment", "free_cumulant", "boolean_cumulant")


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


def _grade(xs) -> tuple:
    """Exact x_n scaled to the int x_n D^n, D the lcm of the denominators."""
    d = lcm(*(x.denominator for x in xs))
    return [x.numerator * (d**n // x.denominator) for n, x in enumerate(xs, 1)], d


def _nc_convert(seq: tuple, inverse: bool) -> list:
    """_nc_kernel on the values, or on graded ints for exact input: output n
    is then v / D^n, a Fraction from the first Fraction input on and an int
    before it, the types that Fraction arithmetic gives."""
    if not _is_exact(*seq):
        return _nc_kernel(seq, inverse)
    graded, d = _grade(seq)
    first = next((n for n, x in enumerate(seq, 1) if isinstance(x, Fraction)),
                 len(seq) + 1)
    return [Fraction(v, d**n) if n >= first else v // d**n
            for n, v in enumerate(_nc_kernel(graded, inverse), 1)]


def _moments_from_free(kappa: tuple) -> list:
    """m_n = sum_{k=1}^{n} kappa_k [z^{n-k}] M(z)^k with M = 1 + sum m_j z^j."""
    return _nc_convert(kappa, inverse=False)


def _moments_from_boolean(r: tuple) -> list:
    """Interval-partition refinement: m_n = sum_k r_k m_{n-k}, m_0 = 1."""
    m = [1]
    for n in range(1, len(r) + 1):
        m.append(sum(r[k - 1] * m[n - k] for k in range(1, n + 1)))
    return m[1:]


def _boolean_from_moments(m: tuple) -> list:
    mm = [1] + list(m)
    r = []
    for n in range(1, len(m) + 1):
        r.append(mm[n] - sum(r[k - 1] * mm[n - k] for k in range(1, n)))
    return r


def _check_cap(n: int, cap: int, op: str) -> None:
    if n > cap:
        raise ValueError(f"{op} capped at order {cap}, got {n}")


def moments_from_free_cumulants(kappa) -> SeqN:
    """Moments from free cumulants via the NC(n) block recursion."""
    vals = _values(kappa, "free_cumulant", "moments_from_free_cumulants")
    _check_cap(len(vals), CONVERSION_CAP, "moments_from_free_cumulants")
    return SeqN("moment", _moments_from_free(vals))


def free_cumulants_from_moments(m) -> SeqN:
    """Exact inverse of moments_from_free_cumulants."""
    vals = _values(m, "moment", "free_cumulants_from_moments")
    _check_cap(len(vals), CONVERSION_CAP, "free_cumulants_from_moments")
    return SeqN("free_cumulant", _nc_convert(vals, inverse=True))


def moments_from_boolean_cumulants(r) -> SeqN:
    vals = _values(r, "boolean_cumulant", "moments_from_boolean_cumulants")
    _check_cap(len(vals), CONVERSION_CAP, "moments_from_boolean_cumulants")
    return SeqN("moment", _moments_from_boolean(vals))


def boolean_cumulants_from_moments(m) -> SeqN:
    vals = _values(m, "moment", "boolean_cumulants_from_moments")
    _check_cap(len(vals), CONVERSION_CAP, "boolean_cumulants_from_moments")
    return SeqN("boolean_cumulant", _boolean_from_moments(vals))


def square_cumulants(alpha) -> SeqN:
    """Free cumulants of the square from the determining sequence.

    alpha_n is the 2n-th free cumulant of a symmetric measure; the square's
    n-th free cumulant is sum over NC(n) of the multiplicative alpha-weight,
    i.e. the moment formula applied to alpha.
    """
    vals = _values(alpha, "free_cumulant", "square_cumulants")
    _check_cap(len(vals), CONVERSION_CAP, "square_cumulants")
    return SeqN("free_cumulant", _moments_from_free(vals))


def _alternating_product_moments(ka, kb, order: int) -> tuple:
    """Moments of a free product ab via an interval DP on the word (ab)^N.

    Sums monochromatic non-crossing partitions of the alternating word,
    weighted multiplicatively by the free cumulants of each letter.  Windows
    of the infinite alternating word are translation invariant, so states
    are (starting color, length).  Equivalent to the Kreweras-complement sum
    sum_{pi in NC(n)} kappa_pi(a) m_{K(pi)}(b), which the tests enumerate.
    Cumulants graded by D_a, D_b give moments graded by D_a D_b.  Returns
    m_1..m_order and whether any term was summed into each.
    """
    L = 2 * order
    kappa = {0: ka, 1: kb}
    # mom[c][l]: weighted sum over partitions of a length-l window starting
    # with color c.  blk[c][l][k]: first block has k elements, the last one
    # at position l (so l is odd), with enclosed gaps already summed.
    mom = {0: [1] + [0] * L, 1: [1] + [0] * L}
    hit = {}
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
            total, summed = 0, False
            for j in range(1, ell + 1, 2):
                tail = mom[1 - c][ell - j]
                if tail == 0:
                    continue
                row = blk[c][j]
                for k in range(1, (j + 1) // 2 + 1):
                    if row[k] != 0 and k <= len(kappa[c]):
                        total += row[k] * kappa[c][k - 1] * tail
                        summed = True
            mom[c][ell], hit[c, ell] = total, summed
    evens = range(2, L + 1, 2)
    return [mom[0][e] for e in evens], [hit[0, e] for e in evens]


def free_mult_moments(mu_moments, nu_moments, order: int | None = None) -> SeqN:
    """Moments of the free multiplicative convolution from factor moments.

    Computes m_n(mu x nu) = sum_{pi in NC(n)} kappa_pi(mu) m_{K(pi)}(nu)
    through an equivalent interval DP (see _alternating_product_moments).
    One factor should be supported on [0, inf) or the other symmetric for
    the result to be a probability distribution; the moment formula itself
    is algebraic and does not check this.
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
    # A Fraction m_1 reaches every term of the DP's top sum, so an output is
    # a Fraction iff a term was summed; with Fractions only later, which
    # outputs stay ints depends on skipped terms, so those inputs run unscaled.
    frac = any(isinstance(x, Fraction) for x in mv + nv)
    lead = any(isinstance(x, Fraction) for x in mv[:1] + nv[:1])
    if not _is_exact(*mv, *nv) or (frac and not lead):
        ka, kb = _nc_convert(mv, inverse=True), _nc_convert(nv, inverse=True)
        return SeqN("moment", _alternating_product_moments(ka, kb, order)[0])
    (ga, da), (gb, db) = _grade(mv), _grade(nv)
    ka, kb = _nc_kernel(ga, inverse=True), _nc_kernel(gb, inverse=True)
    vals, hits = _alternating_product_moments(ka, kb, order)
    scale = da * db
    return SeqN("moment", [
        Fraction(v, scale**n) if frac and hit else v // scale**n
        for n, (v, hit) in enumerate(zip(vals, hits), start=1)
    ])
