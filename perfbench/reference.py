"""Reference values computed apart from freeconv.

Nothing here imports the library.  Closed forms are integer arithmetic, and
the series routines work on plain coefficient lists with algorithms other
than the library's: moments come from free cumulants by Lagrange inversion
and J. C. P. Miller's power recurrence, where the library solves a
triangular system through a table of powers of (1 + M).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb


def catalan(k):
    return comb(2 * k, k) // (k + 1)


def semicircle_moments(order):
    """Standard semicircle: m_{2k} = Catalan(k), odd moments 0."""
    return [catalan(n // 2) if n % 2 == 0 else 0 for n in range(1, order + 1)]


def semicircle_cumulants(order):
    return [0, 1] + [0] * (order - 2)


def arcsine_moments(order):
    """Arcsine law on [-2, 2]: m_{2k} = binom(2k, k), odd moments 0."""
    return [comb(n, n // 2) if n % 2 == 0 else 0 for n in range(1, order + 1)]


def narayana_moments(rate, order):
    """Free Poisson law with jump size 1: m_n = sum_k N(n, k) rate^k."""
    rate = Fraction(rate)
    return [sum(Fraction(comb(n, k) * comb(n, k - 1), n) * rate ** k
                for k in range(1, n + 1)) for n in range(1, order + 1)]


def free_poisson_cumulants(rate, order):
    """Every free cumulant of the free Poisson law equals its rate."""
    return [Fraction(rate)] * order


def _mul(a, b, n):
    """Product of coefficient lists a, b truncated after degree n."""
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i]):
                out[i + j] += x * y
    return out


def _power(a, alpha, n):
    """(a_0 + a_1 z + ...)^alpha through z^n for a_0 = 1 (Miller)."""
    p = [Fraction(1)] + [Fraction(0)] * n
    for k in range(1, n + 1):
        s = sum(((alpha + 1) * j - k) * a[j] * p[k - j]
                for j in range(1, min(k, len(a) - 1) + 1))
        p[k] = Fraction(s, k)
    return p


def moments_from_cumulants(kappa):
    """m_1..m_N from free cumulants kappa_1..kappa_N.

    With R(w) = sum kappa_s w^s, Lagrange inversion of W = z (1 + R(W))
    gives m_n = [w^n] (1 + R(w))^{n+1} / (n + 1).
    """
    one_plus_r = [1] + list(kappa)
    return [_power(one_plus_r, n + 1, n)[n] / (n + 1)
            for n in range(1, len(kappa) + 1)]


def boolean_moments(eta):
    """m_1..m_N from Boolean cumulants: M = eta (1 + M)."""
    m = [1]
    for k in range(1, len(eta) + 1):
        m.append(sum(eta[j - 1] * m[k - j] for j in range(1, k + 1)))
    return m[1:]


def boolean_cumulants(moments):
    """eta_1..eta_N from moments: eta = M / (1 + M)."""
    m = [1] + list(moments)
    eta = [0]
    for k in range(1, len(m)):
        eta.append(m[k] - sum(eta[j] * m[k - j] for j in range(1, k)))
    return eta[1:]


def reciprocal(a, n):
    """1 / a through z^n for a[0] != 0."""
    inv0 = Fraction(1) / a[0]
    out = [inv0]
    for k in range(1, n + 1):
        out.append(-inv0 * sum(a[j] * out[k - j]
                               for j in range(1, min(k, len(a) - 1) + 1)))
    return out


def compose(f, g):
    """f(g(z)) for coefficient lists with g[0] = 0, to the shorter length."""
    n = min(len(f), len(g)) - 1
    acc = [f[n]] + [0] * n
    for k in range(n - 1, -1, -1):
        acc = _mul(acc, g, n)
        acc[0] += f[k]
    return acc


def f_chart(moments):
    """f(w) = 1 / F(1/w) = w / (1 - eta(w)) through w^(N+1).

    Monotone convolution composes these: f of (a |> b) is f_a o f_b.
    """
    n = len(moments)
    one_minus = [1] + [-e for e in boolean_cumulants(moments)]
    return [0] + reciprocal(one_minus, n)


def two_state_boolean(r2, base_moments):
    """eta~ = R2(z (1 + M)) / (1 + M), the two-state R-transform equation.

    ``r2`` lists R2's coefficients from z^1; the result lists eta~_1..eta~_N.
    """
    n = len(base_moments)
    one_plus_m = [1] + list(base_moments)
    w = [0] + one_plus_m[:n]  # z (1 + M)
    lhs = compose([0] + list(r2), w)
    return _mul(lhs, reciprocal(one_plus_m, n), n)[1:]


def nc_pair_count(word):
    """Non-crossing pairings of a word's positions that join equal letters.

    This is the moment of the word in a free family of standard
    semicircular variables.
    """
    @lru_cache(maxsize=None)
    def count(i, j):  # positions i..j-1
        if i == j:
            return 1
        return sum(count(i + 1, k) * count(k + 1, j)
                   for k in range(i + 1, j, 2) if word[k] == word[i])
    return count(0, len(word))


def t_degree(c):
    """Degree in t of a coefficient: -1 for zero, 0 for a nonzero rational."""
    coeffs = getattr(c, "coeffs", None)
    if coeffs is None:
        return 0 if c else -1
    return len(coeffs) - 1


def at(c, value):
    """A coefficient specialised at t = value, from its t-coefficients."""
    coeffs = getattr(c, "coeffs", None)
    if coeffs is None:
        return Fraction(c)
    value = Fraction(value)
    return sum((x * value ** k for k, x in enumerate(coeffs)), Fraction(0))
