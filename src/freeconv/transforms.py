"""The transform dictionary: M, eta, R, F, phi and the two-state R-transform.

The primary path is combinatorial: with W = z(1+M), every solve is one
``functionals._fill`` rule (n, out, s) for [z^n] beside its nc_ twin in
``multivariate`` (``functionals`` pairs them up).  A substitution (a, m),
None standing for ``out``, hands the rule s = S(a) = [z^n] A(W); P(l, r) =
_split_sum(l, r, n):

    R(W) = M                 r_from_moments: m_n - S(kappa), (None, m)
                             moments_from_r: S(kappa), (kappa, None)
    eta = M (1+M)^{-1}       eta_from_moments: m_n - P(eta, m)
                             moments_from_eta: eta_n + P(eta, m)
    eta~ = R2(W) (1+M)^{-1}  two_state_r: eta~_n + P(eta~, m) - S(R2), (None, m)
                             tilde_from_two_state_r: S(R2) - P(eta~, m), (r2, m)

Each solve runs inside ``functionals._graded``, which over Q grades its
inputs by z -> Dz: the leading term [z^k] W^k = 1 keeps the solve integral,
and output k comes back as a Fraction over D^k.

Laurent expansions at infinity are built as shifts of their w = 1/z charts:
F(1/w) = (1 - eta(w))/w gives F the chart -eta(w)/w, G(1/w) = w(1 + M(w)),
and phi(1/w) = R(w)/w.

A second, reversion-based path through the Laurent expansions at infinity
(F^{<-1>}(z) - z) is provided purely as a cross-check; it calls none of the
kernels, so the two paths share no solve.
"""

from __future__ import annotations

from .coeffs import ZERO, ONE
from .functionals import (
    MomentFunctional,
    _eta,
    _fill,
    _graded,
    _moment_table,
    _split_sum,
)
from .series import LaurentAtInfinity, TruncSeries


def m_series(mf):
    """The moment generating series M(z) = sum m_n z^n (zero constant term)."""
    return TruncSeries(mf.order, (ZERO,) + mf.moments())


def r_from_moments(mf):
    """Free cumulants kappa_1..kappa_N as the coefficients of R(z)."""
    n = mf.order
    return TruncSeries(n, _graded(lambda m: _fill(
        n, lambda k, _, s: m[k] - s, (None, m)), _moment_table(mf)))


def moments_from_r(r, order):
    """Solve R(z(1+M)) = M forward for the moments."""
    if order > r.order:
        raise ValueError(f"cumulants known to order {r.order} < {order}")
    return MomentFunctional(order, _graded(lambda kappa: _fill(
        order, lambda k, _, s: s, (kappa, None)), r.coeffs()[:order + 1])[1:])


def eta_from_moments(mf):
    """Boolean cumulant series eta = M(1+M)^{-1}, via eta_n = m_n - sum eta_j m_{n-j}."""
    return TruncSeries(mf.order, _eta(mf))


def moments_from_eta(eta, order):
    """Solve M = eta + eta*M forward for the moments."""
    if order > eta.order:
        raise ValueError(f"eta known to order {eta.order} < {order}")
    return MomentFunctional(order, _graded(lambda e: _fill(
        order, lambda k, m, _: e[k] + _split_sum(e, m, k)),
        eta.coeffs()[:order + 1])[1:])


def f_at_infinity(mf):
    """Expansion F(z) = z - eta_1 - eta_2/z - eta_3/z^2 - ...

    From the dictionary F(1/w) = (1 - eta(w))/w; the tail is exact through
    z^-(N-1).
    """
    return LaurentAtInfinity.from_chart(
        ONE, -eta_from_moments(mf).shift_down(1))


def cauchy_g(mf):
    """Expansion G(z) = 1/z + m_1/z^2 + ... + m_N/z^(N+1)."""
    return LaurentAtInfinity.from_chart(
        ZERO, TruncSeries(mf.order + 1, (ZERO, ONE) + mf.moments()))


def voiculescu_phi(mf):
    """phi(z) = kappa_1 + kappa_2/z + kappa_3/z^2 + ... (from R(z) = z*phi(1/z))."""
    return phi_from_r_series(r_from_moments(mf))


def phi_from_r_series(r):
    """Descending expansion with [z^-(n-1)] = kappa_n."""
    return LaurentAtInfinity.from_chart(ZERO, r.shift_down(1))


def r_series_from_phi(phi):
    """Convert a descending phi-expansion back to the R-series."""
    return TruncSeries(phi.tail_order + 1, (ZERO,) + phi.d.coeffs())


def f_inverse_at_infinity(mf):
    """The compositional inverse F^{<-1>}(z) = z + d_0 + d_1/z + ...

    Computed through series reversion in the w = 1/z chart: the chart of
    G is f(w) = 1/F(1/w) = w(1 + M(w)), the compositional inverse of F
    corresponds to the reversion h of f, and F^{<-1>}(z) = 1/h(1/z).
    """
    h = cauchy_g(mf).d.reversion()
    g = h.shift_down(1).reciprocal()  # h(w) = w/g(w), g(0) = 1
    return LaurentAtInfinity.from_chart(
        ONE, TruncSeries(g.order - 1, g.coeffs()[1:]))


def voiculescu_phi_by_reversion(mf):
    """phi = F^{<-1>}(z) - z; redundant cross-check for voiculescu_phi."""
    h = f_inverse_at_infinity(mf)
    return h - LaurentAtInfinity.ident_z(h.tail_order)


def two_state_r(pair):
    """Solve eta^tilde = R2(z(1+M)) (1+M)^{-1} for the two-state R-transform."""
    n = pair.order
    return TruncSeries(n, _graded(lambda e, m: _fill(
        n, lambda k, _, s: e[k] + _split_sum(e, m, k) - s, (None, m)),
        eta_from_moments(pair.tilde).coeffs(), _moment_table(pair.base)))


def tilde_from_two_state_r(r2, base):
    """The functional mu_tilde with two_state_r((mu_tilde, base)) = r2."""
    n = min(base.order, r2.order)
    eta = _graded(lambda m, a: _fill(n, lambda k, eta, s: (
        s - _split_sum(eta, m, k)), (a, m)),
        _moment_table(base)[:n + 1], r2.coeffs()[:n + 1])
    return moments_from_eta(TruncSeries(n, eta), n)


def two_state_phi_by_reversion(pair):
    """phi_{tilde,base}(z) = (z - F_tilde) o F_base^{<-1>}; cross-check path.

    z - F_tilde(z) = eta_tilde(1/z) z with 1 - eta = (1 + M)^{-1}, taken as a
    series reciprocal rather than from the Boolean cumulant solve.
    """
    n = pair.order
    h = f_inverse_at_infinity(pair.base)
    inv = (TruncSeries.one(n) + m_series(pair.tilde)).reciprocal()
    d = LaurentAtInfinity.from_chart(
        ZERO, -TruncSeries(n - 1, inv.coeffs()[1:]))
    return d.compose_descending(h)


def two_state_r_by_reversion(pair):
    return r_series_from_phi(two_state_phi_by_reversion(pair))
