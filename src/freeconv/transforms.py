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

Where the R-transforms are s times known series, as in the semigroups
mu^{boxplus s} and their two-state twins, W = z(1 + sR(W)) and
Lagrange-Burmann (Stanley, *EC2*, Thm 5.4.2) expands the outputs in s over
the powers of R, in place of a solve over Q[t]:

    R-transform s R          moments_from_scaled_r:
                             m_n = [w^n] (1 + sR)^{n+1} / (n+1)
    eta~ = s R2(W)/(1+M)     two_state_from_scaled_r, for n >= 2:
                             eta~_n = [w^n] s (wR2' - R2) (1 + sR)^{n-1} / (n-1)

The first is the moment-cumulant sum over NC(n) of s^{|pi|} prod
kappa_{|V|} (Nica-Speicher).  The same expansion takes two more cases:

    R-transform A + tB       moments_from_r, when A and B are over Q:
                             m_n = sum_{i=0..n} C(n+1, i)/(n+1) t^i
                                   [w^n] B^i (1 + A)^{n+1-i}
    eta of B_t[mu], s = 1+t  belinschi_nica_eta: eta_1 = kappa_1 and
                             eta_n = sum_{i=1..n-1} C(n-2, i-1)/i s^{i-1}
                                     [w^n] R^i for n >= 2

Over Q the powers run on ints graded by the same D, built by one row
builder (``_power_rows``), and each output is reduced once.  Every
functional built from an R-transform keeps it, and ``r_from_moments``
returns it instead of solving (see ``functionals.MomentFunctional``).

Laurent expansions at infinity are built as shifts of their w = 1/z charts:
F(1/w) = (1 - eta(w))/w gives F the chart -eta(w)/w, G(1/w) = w(1 + M(w)),
and phi(1/w) = R(w)/w.

A second path is provided purely as a cross-check: phi = F^{<-1>}(z) - z and
phi_{tilde,base} = (z - F_tilde) o F_base^{<-1>}, through the reversion h of
G's chart w(1 + M(w)), which ``TruncSeries.reversion`` takes by Lagrange
inversion.  It calls none of the kernels, so the two paths share no solve.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul

from .coeffs import ZERO, ONE, TPoly, _canonical, _convolve, _dot, as_coeff
from .functionals import (
    MomentFunctional,
    TwoStatePair,
    _eta,
    _fill,
    _grade,
    _graded,
    _moment_table,
    _scaled,
    _split_sum,
)
from .series import LaurentAtInfinity, TruncSeries


def m_series(mf):
    """The moment generating series M(z) = sum m_n z^n (zero constant term)."""
    return TruncSeries(mf.order, (ZERO,) + mf.moments())


def r_from_moments(mf):
    """Free cumulants kappa_1..kappa_N as the coefficients of R(z).

    A functional that carries the R-transform s R it was built from (see
    ``MomentFunctional``) gives s R back without a solve, each kappa_k in the
    ring the solve gives it: a ``TPoly`` exactly when one of m_1..m_k is.
    """
    n = mf.order
    if mf._r is not None:
        r, s = mf._r
        poly, out = False, [ZERO]
        for m, c in zip(mf.moments(), r.coeffs()[1:]):
            poly = poly or type(m) is TPoly
            out.append(_as_ring(s * c, poly))
        return TruncSeries(n, out)
    return TruncSeries(n, _graded(lambda m: _fill(
        n, lambda k, _, s: m[k] - s, (None, m)), _moment_table(mf)))


def _carrying(mf, r, s):
    """mf, keeping the R-transform s r it was built from."""
    mf._r = (r.truncate(mf.order), s)
    return mf


def _solve_moments(r, order):
    """The forward solve of R(z(1+M)) = M for m_1..m_order; the functional
    carries no R."""
    return MomentFunctional(order, _graded(lambda kappa: _fill(
        order, lambda k, _, s: s, (kappa, None)), r.coeffs()[:order + 1])[1:])


def moments_from_r(r, order):
    """The moments whose R-transform is r, through m_order.

    When r_1..r_order are rationals and ``TPoly``s of t-degree at most 1, with
    at least one ``TPoly``, R = A + tB expands in t over Q
    (``_affine_moments``); otherwise R(z(1+M)) = M is solved forward.  Both
    give each moment the same value and ring.
    """
    if order > r.order:
        raise ValueError(f"cumulants known to order {r.order} < {order}")
    cs = r.coeffs()[:order + 1]
    parts = _affine_parts(cs)
    if parts is None:
        mf = _solve_moments(r, order)
    else:
        mf = MomentFunctional(order, _affine_moments(cs, *parts))
    return _carrying(mf, r, ONE)


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


def two_state_r_by_reversion(pair):
    """R2(w) = w phi_{tilde,base}(1/w); cross-check path for two_state_r.

    phi's chart is the chart eta_tilde(w)/w of z - F_tilde, with 1 - eta =
    (1 + M)^{-1} taken as a series reciprocal, composed with the reversion h
    of G_base's chart, since F_base^{<-1>}(1/w) = 1/h(w).
    """
    n = pair.order
    inv = (TruncSeries.one(n) + m_series(pair.tilde)).reciprocal()
    phi = (-TruncSeries(n - 1, inv.coeffs()[1:])).compose(
        cauchy_g(pair.base).d.reversion())
    return TruncSeries(n, (ZERO,) + phi.coeffs())


# -- the semigroups by their expansion in s -------------------------------------
#
# R_{mu^{boxplus s}} = s R_mu, so W = z(1 + sR(W)), and Lagrange-Burmann
# (Stanley, EC2, Thm 5.4.2) moves all of s into binomial weights over the
# powers of R: about n^3 operations on R's coefficients, where a solve over
# Q[t] runs its power table on polynomials in t.


def _power_rows(r, top, n, unit=False):
    """rows[i][k] = [w^k] (u + R)^i for 0 <= i <= top and 0 <= k <= n, with
    R = sum_{k >= 1} r_k w^k (r[0] is not read) and u = 1 when ``unit``, else
    0, when (u + R)^i starts at w^i.  The one builder of the expansions'
    power rows: on graded ints each entry is one ``sum(map(mul))``, on any
    other ring one ``coeffs._dot``."""
    ints = type(r[1]) is int
    rows = [[1] + [0] * n]
    for i in range(1, top + 1):
        prev = rows[-1]
        lo = 0 if unit else i - 1  # prev[j] = 0 for j < lo
        row = [1] if unit else [0] * i
        for k in range(len(row), n + 1):
            xs, ys = r[1:k - lo + 1], prev[lo:k][::-1]
            start = prev[k] if unit else None
            row.append(sum(map(mul, xs, ys), start or 0) if ints
                       else _dot(start, xs, ys))
        rows.append(row)
    return rows


def _expansion(s, seqs, n):
    """(seqs, rows, weigh) for an expansion in s to order n, R = seqs[0].

    Over Q, that is when every coefficient is a ``Fraction``, the sequences
    come back graded as ``functionals._graded`` grades them, entry k the int
    c_k D^k, and rows[i][k] = [w^k] R^i D^k; otherwise the sequences are as
    given, D = 1 and rows[i][k] = [w^k] R^i.  weigh(ys, c, k) is
    sum_{e >= 0} ys[e] s^e / (c D^k) for an int c > 0: over Q one integer
    polynomial over one denominator, reduced once, and a ``TPoly`` exactly
    when s is one; otherwise a fold of the ring's operators.
    """
    d = _grade(*map(enumerate, seqs))
    if d is not None:
        seqs = [_scaled(cs, d) for cs in seqs]
    rows = _power_rows(seqs[0], n, n)
    if d is None:
        sp = [ONE]
        for _ in range(n):
            sp.append(sp[-1] * s)

        def weigh(ys, c, k):
            return _dot(None, ys, sp[:len(ys)]) * Fraction(1, c)
        return seqs, rows, weigh
    # s = S / den for an int polynomial S (a constant when s is rational)
    nums, den = TPoly._parts(s)
    pows, dens = [(1,)], [1]
    for _ in range(n):
        prev = pows[-1]
        pows.append(tuple(_convolve(prev, nums, len(prev) + len(nums) - 1))
                    if nums else ())
        dens.append(dens[-1] * den)
    poly = type(s) is TPoly

    def weigh(ys, c, k):
        top = len(ys) - 1
        acc = [0] * len(pows[top])
        for e in range(top + 1):
            y = ys[e]
            if y:
                y *= dens[top - e]
                for j, x in enumerate(pows[e]):
                    acc[j] += y * x
        c *= dens[top] * d ** k
        if poly:
            return _canonical(acc, c, c)
        return Fraction(acc[0] if acc else 0, c)
    return seqs, rows, weigh


def _as_ring(c, poly):
    """c as a ``TPoly`` when poly, else as a ``Fraction``; c is rational
    whenever poly is false."""
    if poly:
        return c if type(c) is TPoly else TPoly.constant(c)
    return c.constant_term() if type(c) is TPoly else c


def _rings(s, r, n):
    """For k = 1..n, the ring that the forward solve gives m_k on the
    R-transform s R, r = [r_0, r_1..r_n]: None for the ``Fraction(0)``s
    before the first nonzero s r_k, then whether m_k is a ``TPoly``.  That
    first one is a ``TPoly`` exactly when s or r_k is, and each later m_k
    exactly when one is among s and r_1..r_k (a zero ``TPoly`` counts: the
    solve's ``_dot`` reads rings, not values)."""
    spoly = type(s) is TPoly
    poly, lead, out = spoly, False, []
    for k in range(1, n + 1):
        poly = poly or type(r[k]) is TPoly
        if lead:
            out.append(poly)
        elif s and r[k]:
            lead = True
            out.append(spoly or type(r[k]) is TPoly)
        else:
            out.append(None)
    return out


def _free_moments(s, r, rows, weigh):
    """m_1..m_n with R-transform s R, from ``_expansion`` on r = [0, r_1..r_n]:

        m_n = [w^n] (1 + sR)^{n+1} / (n+1)
            = sum_{i=1..n} C(n+1, i)/(n+1) s^i [w^n] R^i,

    each in the ring that ``moments_from_r`` gives it (``_rings``).
    """
    return [ZERO if poly is None else _as_ring(
        weigh([comb(k + 1, i) * rows[i][k] for i in range(k + 1)], k + 1, k),
        poly) for k, poly in enumerate(_rings(s, r, len(rows) - 1), 1)]


def _affine_parts(cs):
    """(A, B), lists of Fractions with cs[k] = A_k + t B_k for k >= 1 and
    A_0 = B_0 = 0, when one of cs[1:] is a ``TPoly`` and none has t-degree
    above 1; else None."""
    a, b, poly = [ZERO], [ZERO], False
    for c in cs[1:]:
        if type(c) is TPoly:
            if len(c.nums) > 2:
                return None
            poly = True
            a.append(c.coeff(0))
            b.append(c.coeff(1))
        else:
            a.append(c)
            b.append(ZERO)
    return (a, b) if poly else None


def _affine_moments(cs, a, b):
    """m_1..m_n with R-transform cs = A + tB, A and B over Q (``_affine_parts``).

    Lagrange-Burmann for W = z(1 + A(W) + tB(W)) gives
    m_n = [w^n] (1 + A + tB)^{n+1} / (n+1), that is

        m_n = sum_{i=0..n} C(n+1, i)/(n+1) t^i [w^n] B^i (1 + A)^{n+1-i},

    on the power rows of B and of 1 + A, graded by one D from ``_grade`` so
    that every sum runs on ints, with one reduction per output.  Each m_n is
    in the ring that the forward solve gives it (``_rings`` with s = 1).
    """
    n = len(cs) - 1
    d = _grade(enumerate(a), enumerate(b))
    rb = _power_rows(_scaled(b, d), n, n)
    ra = _power_rows(_scaled(a, d), n + 1, n, unit=True)
    out, dk = [], 1
    for k, poly in enumerate(_rings(ONE, cs, n), 1):
        dk *= d
        if poly is None:
            out.append(ZERO)
            continue
        ys = [comb(k + 1, i) * sum(map(mul, rb[i][i:k + 1],
                                       ra[k + 1 - i][k - i::-1]))
              for i in range(k + 1)]
        c = (k + 1) * dk
        out.append(_canonical(ys, c, c) if poly else Fraction(ys[0], c))
    return out


def moments_from_scaled_r(r, s, order):
    """The moments with R-transform s R, such as mu^{boxplus s} from R_mu:
    m_n = sum_{i=1..n} C(n+1, i)/(n+1) s^i [w^n] R^i (Lagrange-Burmann for
    W = z(1 + sR(W))), which is the sum over NC(n) of
    s^{|pi|} prod kappa_{|V|} (Nica-Speicher, *Lectures on the Combinatorics
    of Free Probability*).

    Equal, value and ring, to ``moments_from_r(r.scale(s), order)``.
    """
    if order > r.order:
        raise ValueError(f"cumulants known to order {r.order} < {order}")
    s = as_coeff(s)
    cs = r.coeffs()[:order + 1]
    _, rows, weigh = _expansion(s, [cs], order)
    return _carrying(MomentFunctional(order, _free_moments(s, cs, rows, weigh)),
                     r, s)


def two_state_from_scaled_r(r2, r, s, order):
    """The pair (mu~, mu) with R-transform s R and two-state R-transform s R2.

    mu is ``moments_from_scaled_r(r, s, order)``.  With phi = 1 + sR,
    eta~ = s R2(W) / phi(W), and Lagrange-Burmann in the form
    [z^n] H(W) = [w^n] H phi^{n-1} (phi - w phi') gives eta~_1 = s R2_1 and

        eta~_n = [w^n] s R2 (1 + sR)^{n-2} (1 + s(R - wR'))
               = sum_{i=0..n-2} C(n-1, i)/(n-1) s^{i+1} [w^n] (wR2' - R2) R^i

    for n >= 2, on the powers of R that mu reads; ``moments_from_eta`` then
    gives mu~.  Equal, value and ring, to
    ``tilde_from_two_state_r(r2.scale(s), mu)``.
    """
    if order > min(r.order, r2.order):
        raise ValueError(
            f"R-transforms known to order {min(r.order, r2.order)} < {order}")
    s = as_coeff(s)
    rc, r2c = r.coeffs()[:order + 1], r2.coeffs()[:order + 1]
    (_, g2), rows, weigh = _expansion(s, [rc, r2c], order)
    base = _carrying(MomentFunctional(order, _free_moments(s, rc, rows, weigh)),
                     r, s)
    # the solve's ring: eta~_1 is a TPoly only when it is nonzero, and a
    # later eta~_k exactly when one is among s, R2_1..R2_k and m_1..m_(k-1)
    poly = type(s) is TPoly or type(r2c[1]) is TPoly
    eta = [ZERO, _as_ring(weigh([0, g2[1]], 1, 1),
                          poly and bool(s and r2c[1]))]
    r2o = [(l - 1) * c for l, c in enumerate(g2)]  # wR2' - R2
    for n in range(2, order + 1):
        ys = [0] + [comb(n - 1, i) * _dot(None, r2o[2:n - i + 1],
                                          rows[i][i:n - 1][::-1])
                    for i in range(n - 1)]
        poly = (poly or type(r2c[n]) is TPoly
                or type(base.m(n - 1)) is TPoly)
        eta.append(_as_ring(weigh(ys, n - 1, n), poly))
    return TwoStatePair(moments_from_eta(TruncSeries(order, eta), order), base)


def belinschi_nica_eta(r, s, order):
    """eta_1..eta_order of B_t[mu] for s = 1 + t, from r = R_mu.

    B_t[mu] = (mu^{boxplus s})^{uplus 1/s} has eta = eta^{mu^{boxplus s}} / s.
    With phi = 1 + sR, eta^{mu^{boxplus s}} = 1 - 1/phi(W), and
    Lagrange-Burmann gives [z^n] of it as [w^n] phi^{n-1} / (n-1) for n >= 2,
    so that

        eta_1 = kappa_1,
        eta_n = sum_{i=1..n-1} C(n-2, i-1)/i s^{i-1} [w^n] R^i   (n >= 2),

    on ``_expansion``'s power rows of R, with no division by s.  Each eta_k
    is in the ring that the Boolean cumulants of ``free_power(mu, s)``,
    divided by s, have: a ``TPoly`` when s is one, or when k is at or past
    the first nonzero kappa and kappa_k is one.
    """
    cs = r.coeffs()[:order + 1]
    _, rows, weigh = _expansion(s, [cs], order)
    spoly = type(s) is TPoly
    eta = [ZERO]
    for k, poly in enumerate(_rings(s, cs, order), 1):
        c = cs[1] if k == 1 else weigh(
            [comb(k - 1, e + 1) * rows[e + 1][k] for e in range(k - 1)],
            k - 1, k)
        eta.append(_as_ring(c, spoly if poly is None else poly))
    return TruncSeries(order, eta)
