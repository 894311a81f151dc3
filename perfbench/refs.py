"""Reference values the benchmark checks freeconv against.

Nothing here calls freeconv. Exact references are closed forms (Catalan,
Narayana, Lagrange inversion) or identities checked modulo the Mersenne
prime 2^61 - 1, where every rational maps to one residue and series
arithmetic stays in machine-sized integers. A wrong result survives a
modular check only if the difference is a multiple of the prime, which for
the random rationals used here does not happen.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

P = (1 << 61) - 1


# ---------------------------------------------------------------------------
# combinatorial closed forms


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def narayana(n: int, k: int) -> int:
    return math.comb(n, k) * math.comb(n, k - 1) // n


def semicircle_moments(mean, var, order: int) -> list:
    """m_n of semicircle(mean, var): sum_k C(n, 2k) mean^(n-2k) var^k Cat(k)."""
    return [
        sum(math.comb(n, 2 * k) * mean ** (n - 2 * k) * var**k * catalan(k)
            for k in range(n // 2 + 1))
        for n in range(1, order + 1)
    ]


def marchenko_pastur_moments(rate, order: int) -> list:
    """m_n of Marchenko-Pastur(rate): the Narayana polynomial sum_k N(n,k) rate^k."""
    return [sum(narayana(n, k) * rate**k for k in range(1, n + 1))
            for n in range(1, order + 1)]


def commutator_ww_moments(order: int) -> list:
    """Moments of the law with free cumulants kappa_2j = 2, odd ones 0.

    With u = z M(z) the moment series solves u = z (1+u^2)/(1-u^2), and
    Lagrange inversion gives m_2m = sum_j C(2m+1, j) C(3m-j, m-j) / (2m+1).
    """
    out = []
    for n in range(1, order + 1):
        if n % 2:
            out.append(0)
            continue
        m = n // 2
        total = sum(math.comb(2 * m + 1, j) * math.comb(3 * m - j, m - j)
                    for j in range(m + 1))
        out.append(total // (2 * m + 1))
    return out


def semicircle_commutator_cumulants(var1, var2, order: int) -> list:
    """Free cumulants of i(xy - yx) for free semicircular x, y (any means)."""
    prod = var1 * var2
    return [0 if n % 2 else 2 * prod ** (n // 2) for n in range(1, order + 1)]


# ---------------------------------------------------------------------------
# densities and support edges


def semicircle_density(mean, var, xs):
    r2 = 4 * var - (np.asarray(xs) - mean) ** 2
    return np.sqrt(np.clip(r2, 0, None)) / (2 * math.pi * var)


def marchenko_pastur_density(rate, xs):
    """Absolutely continuous part; rate < 1 adds an atom 1 - rate at 0."""
    xs = np.asarray(xs, dtype=float)
    a, b = (1 - math.sqrt(rate)) ** 2, (1 + math.sqrt(rate)) ** 2
    inside = (xs > a) & (xs < b) & (xs != 0)
    out = np.zeros_like(xs)
    x = xs[inside]
    out[inside] = np.sqrt((b - x) * (x - a)) / (2 * math.pi * x)
    return out


def quarter_circle_density(sigma, xs):
    xs = np.asarray(xs, dtype=float)
    inside = (xs > 0) & (xs < 2 * sigma)
    out = np.zeros_like(xs)
    out[inside] = np.sqrt(4 * sigma**2 - xs[inside] ** 2) / (math.pi * sigma**2)
    return out


def commutator_ww_edge() -> float:
    return math.sqrt((11 + 5 * math.sqrt(5)) / 2)


def commutator_ww_density(xs):
    """Density of i(xy - yx) for standard semicircles, from its resolvent cubic."""
    t = np.abs(np.asarray(xs, dtype=float))
    out = np.zeros_like(t)
    inside = (t < commutator_ww_edge()) & (t > 1e-6)
    s = t[inside]
    inner = (18 * s * s + 1) / 27
    disc = np.sqrt(s * s * (1 + 11 * s * s - s**4) / 27)
    out[inside] = (np.cbrt(inner + disc) - np.cbrt(inner - disc)) * math.sqrt(3) / (2 * math.pi * s)
    small = t <= 1e-6
    out[small] = (1 - t[small] ** 2 / 2) / math.pi
    return out


def semicircle_left_edge(mean, var, t) -> float:
    """Left edge of semicircle(mean, var)^{boxplus t}: t mean - 2 sqrt(t var)."""
    return t * mean - 2 * math.sqrt(t * var)


def compound_poisson_left_edge(rate, jump, t) -> float:
    """Left edge of the free compound Poisson law with one jump size, rate*t >= 1."""
    return jump * (1 - math.sqrt(rate * t)) ** 2


# ---------------------------------------------------------------------------
# modular series checks


def modp(x) -> int:
    x = Fraction(x)
    return x.numerator % P * pow(x.denominator % P, -1, P) % P


def _mul(a: list, b: list, top: int) -> list:
    out = [0] * (top + 1)
    for i, ai in enumerate(a[: top + 1]):
        if ai:
            for j, bj in enumerate(b[: top + 1 - i]):
                out[i + j] += ai * bj
    return [v % P for v in out]


def _series(values) -> list:
    """[0, v_1, ..., v_N] mod P."""
    return [0] + [modp(v) for v in values]


def nc_relation_holds(moments, free_cumulants) -> bool:
    """M(z) - 1 = sum_k kappa_k (z M(z))^k through z^N, modulo P."""
    n = len(moments)
    mom = _series(moments)
    mom[0] = 1
    u = [0] + mom[:n]                                  # z M(z)
    acc = [0] * (n + 1)
    for k in _series(free_cumulants)[:0:-1]:           # Horner in u
        acc = _mul(acc, u, n)
        acc[0] = (acc[0] + k) % P
    acc = _mul(acc, u, n)
    return acc[1:] == mom[1:]


def boolean_relation_holds(moments, boolean_cumulants) -> bool:
    """M(z) - 1 = eta(z) M(z) through z^N, modulo P."""
    n = len(moments)
    mom = _series(moments)
    mom[0] = 1
    return _mul(_series(boolean_cumulants), mom, n)[1:] == mom[1:]


def _reverted(series: list) -> list:
    """Compositional inverse of a series with zero constant term, by Lagrange:
    [z^n] f^{-1} = (1/n) [w^(n-1)] (w / f(w))^n."""
    n = len(series) - 1
    q = series[1:] + [0]                               # f(w)/w
    inv_q = [pow(q[0], -1, P)] + [0] * (n - 1)
    for i in range(1, n):
        inv_q[i] = -sum(q[j] * inv_q[i - j] for j in range(1, i + 1)) * inv_q[0] % P
    out = [0] * (n + 1)
    power = [1] + [0] * (n - 1)
    for k in range(1, n + 1):
        power = _mul(power, inv_q, n - 1)
        out[k] = power[k - 1] * pow(k, -1, P) % P
    return out


def product_relation_holds(mu_moments, nu_moments, product_moments) -> bool:
    """chi_{mu x nu}(z) = chi_mu(z) chi_nu(z) (1+z)/z through z^N, modulo P.

    chi is the compositional inverse of the moment series; this is the
    S-transform product rule, which needs m_1 != 0 for both factors.
    """
    n = len(product_moments)
    chi_mu = _reverted(_series(mu_moments[:n]))
    chi_nu = _reverted(_series(nu_moments[:n]))
    chi_prod = _reverted(_series(product_moments))
    a = _mul(chi_mu, chi_nu, n + 1)
    return chi_prod[1:] == [(a[k + 1] + a[k]) % P for k in range(1, n + 1)]


def quarter_circle_moments(sigma, order: int) -> list:
    """m_n = (2 sigma)^n (2/pi) B((n+1)/2, 3/2), from x = 2 sigma sin(theta)."""
    return [(2 * sigma) ** n * 2 / math.pi * math.exp(
        math.lgamma((n + 1) / 2) + math.lgamma(1.5) - math.lgamma(n / 2 + 2))
        for n in range(1, order + 1)]


def beta_1a_moments(a, order: int) -> list:
    """m_n of Beta(1-a, 1+a): Gamma(1-a+n) / (Gamma(1-a) Gamma(n+2))."""
    return [math.exp(math.lgamma(1 - a + n) - math.lgamma(1 - a) - math.lgamma(n + 2))
            for n in range(1, order + 1)]
