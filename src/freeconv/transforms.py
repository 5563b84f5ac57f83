"""The transform dictionary: M, eta, R, F, phi and the two-state R-transform.

This module owns every single-variable triangular solve and every expansion
in t, as ``multivariate`` owns every word solve.  With W = z(1+M), the
power table p[k][j] = [z^j](1+M)^k gives [z^n] W^k = p[k][n-k], and
[z^k] W^k = 1 makes every solve through W triangular.  The table holds
row 1 and rows up to the last k with a_k != 0 read so far, no more, so
substituting a two-term R, as a semicircle's, costs about n^2, not n^3.
Each solve is one ``_fill`` rule (n, out, s) for [z^n] beside its word
twin, a kernel of ``multivariate`` whose ``_fill_words`` rule (n, out, s)
builds the row of the words of length n.  Both drivers own the table of
their substitution (a, m), None standing for ``out``, and hand the rule
s = S(a) = [z^n] A(W); P(l, r) = _split_sum(l, r, n):

    equation and solve: rule, substitution               word twin
    R(W) = M
      r_from_moments: m_n - S(kappa), (None, m)          _r
      moments_from_r: S(kappa), (kappa, None)            _moments_from_r
    eta = M (1+M)^{-1}
      _eta: m_n - P(eta, m)                              _eta
      moments_from_eta: eta_n + P(eta, m)                _moments_from_eta
    eta~ = R2(W) (1+M)^{-1}
      two_state_r: eta~_n + P(eta~, m) - S(R2), (None, m)
                                                         _two_state_r
      _substitute_divide: S(R2) - P(eta~, m), (r2, m)    _substitute_divide
    R^{mu |> nu} = R^mu(W) (1+M)^{-1}, M = M^nu
      _substitute_divide, as above                       _substitute_divide
    1 + M^{mu |> nu} = (1+M)(1 + M^mu(W)), M = M^nu
      _composition: S(B), (b, m), B(z) = z(1 + M^mu(z))  _composition

``_eta`` is also the solve of ``_strip_once`` (``evolution.strip``),
``_substitute_divide`` that of ``tilde_from_two_state_r`` and
``evolution.subordination``, and ``_composition`` that of
``convolutions.monotone_convolve``.

Each solve is one ``_graded(solve, *seqs)`` call, the one place that grades
a single-variable solve (``multivariate._graded_words`` is the word
layer's), and takes its difference operation as an explicit argument,
solve(sub, *seqs).  It runs the solve on the series at Dz through the
driver of ``coeffs``, ``_on_ints``, whose docstring states the protocol:
there W = z(1+M) still has [z^k] W^k = 1, so the unchanged kernels keep the
whole recursion in Z.  A solve whose outputs cancel far below its
majorant, B passing the largest input norm by more than ``_SLACK`` bits
(the inverse solves ``r_from_moments`` and ``two_state_r`` at high order),
runs on ``TPoly`` arithmetic instead.  ``_grade`` grades every coefficient
and refuses any other value.  Every operation, solve or expansion, gives
its outputs one ring, as the word layer does: all ``TPoly`` when an input
coefficient (or the s of an expansion) is one, else all ``Fraction``.
``_graded`` applies that rule to each solve, and an expansion's weights
give a ``TPoly`` exactly when s is one.

Where the R-transforms are s times series over Q, as in the semigroups
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

All four are one ``_expansion`` over Q, on ints graded by one D, with one
row builder (``_power_rows``) and one reduction per output.  An R or R2
over Q[t] would put polynomials in t into every power, so the three
public expansions return the forward solves they equal, on R scaled by s.
Every functional built from an R-transform keeps it, and
``r_from_moments`` returns it instead of solving; one built by
``moments_from_eta`` keeps its eta, which ``eta_from_moments`` returns.
The three builders run their forward solve or expansion only on the first
read of the moments, so an output whose transform alone is read is never
solved (see ``MomentFunctional``).  ``_strip_once`` always solves ``_eta``
on the moments, as the Jacobi reads of ``functionals`` read the moments,
so the cross-checks on strip and Phi never read a carried transform.

Laurent expansions at infinity are built as shifts of their w = 1/z charts:
F(1/w) = (1 - eta(w))/w gives F the chart -eta(w)/w, G(1/w) = w(1 + M(w)),
and phi(1/w) = R(w)/w.

A second path is provided purely as a cross-check: phi = F^{<-1>}(z) - z and
phi_{tilde,base} = (z - F_tilde) o F_base^{<-1>}, through the reversion h of
G's chart w(1 + M(w)), which ``TruncSeries.reversion`` takes by Lagrange
inversion, Miller's power recurrence run as one kernel on graded ints over
Q and over Q[t].  It shares the driver ``coeffs._on_ints`` with the solves
but calls none of their kernels, so the two paths share no solve.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul, sub

from .coeffs import (ZERO, ONE, TPoly, _canonical, _convolve, _dot, _grade,
                     _on_ints, _polys, _read, _scaled, as_coeff, exact_div,
                     formal_t)
from .functionals import ConsistencyError, MomentFunctional, TwoStatePair
from .series import LaurentAtInfinity, TruncSeries, _series


# -- triangular-solve kernels (coefficient lists indexed by degree) -------------
#
# The kernels run unchanged on graded ints and, past the packed path's slack,
# on Fraction and TPoly coefficients: each power-table row starts from the
# int 1, which only multiplies nonzero coefficients.  An int operand in hand
# (a graded int, packed or not, or a bound of the majorant run) marks the
# graded integer path, which folds each sum term by term, skipping zero
# terms.  Any other sum goes to ``coeffs._dot`` as whole slices;
# ``_graded`` then gives every output of the operation one ring.


def _moment_table(mf):
    """[1, m_1, ..., m_N]: the coefficients of 1 + M."""
    return [ONE] + list(mf.moments())


def _graded(solve, *seqs):
    """solve(sub, *seqs), run on graded integers by ``coeffs._on_ints``, D
    from ``_grade`` for all of seqs, which reads each coefficient once, and
    output k >= 1 read as x_k / D^k; output 0, which no caller reads, comes
    back as ``ZERO``, so the outputs enter a series as they are.  Every
    solve is a weight-homogeneous recursion with integer coefficients and
    [z^k] W^k = 1, so the kernels keep the entries integral.  When B passes
    the largest input norm by more than ``_SLACK`` bits, ``solve`` gets the
    sequences as they are, to run on ``TPoly`` arithmetic.  Every output
    k >= 1 is a ``TPoly`` when some input coefficient is one, else a
    ``Fraction``: one ring per operation, as in the word layer.
    """
    d, parts = _grade(*map(enumerate, seqs))
    run = _on_ints(solve, [(p, d, 1) for p in parts], _SLACK)
    if run is None:
        return [ZERO] + _as_ring(solve(sub, *seqs)[1:], True)
    xs, b = run
    return [ZERO] + _read(xs[1:], b, d, d)


# The packed path's limit on the bits that a solve's majorant adds to its
# inputs.  An inverse solve whose outputs cancel (r_from_moments and
# two_state_r at high order) reads a majorant far above its true digits, and
# its packed ints carry that width in every t-digit, where the TPoly path
# carries only the digits the outputs have.  Measured per solve on the
# inputs of in-process verify, packed against TPoly time, best of 3, with the
# majorant run on plain ints (CPython 3.11, 2-core x86): r_from_moments in
# bt-semigroup at order 48 reads 126 bits and runs 1.10-1.18x faster packed;
# thm-b's two_state_r and r_from_moments at 48 read 136-137 bits and run
# 0.91-0.93x; past 190 bits (bn-mean at 48 and 64, bt-semigroup and thm-b at
# 64) 0.40-0.71x.  The small solves gain too: thm-b's _eta at 64 with B = 66
# runs 1.7x faster packed and bn-mean's moments_from_eta with B = 3 2.6x.
# thm-b at order 64 takes 6.1 s under this rule, 8.2 s with every solve
# packed and 9.0 s with none (medians of 5 on a host running about 1.5x
# slower than the 4.09 s this rule read when it was set).
_SLACK = 128


def _as_ring(cs, poly):
    """The outputs cs of an operation, each a ``TPoly`` when poly, else as
    they are."""
    if not poly:
        return cs
    return [c if type(c) is TPoly else TPoly.constant(c) for c in cs]


def _add_diagonal(p, m, s, top):
    """Bring rows 1..top of the power table p to the anti-diagonal k + j = s.

    A substitution reads row k only where a_k != 0, so ``_fill`` passes the
    last such k as top and no row past it is built; row 1, 1 + M itself, is
    kept in any case.  Rows first read now are built whole through the
    anti-diagonal s - 1, each from the one before it (row s - 1 is [1]
    there); then every row but row s gains its entry on the anti-diagonal
    s, and row s, read when a known a_s != 0, starts as [1].  Reads only
    m[1:s], so a forward solve can find m[s] after each call.  Row 0 stays
    [1]: no solve reads past it.
    """
    ints = type(m[s - 1]) is int
    if s > 1:
        p[1].append(m[s - 1])
    if len(p) < s and len(p) <= top:
        for k in range(len(p), s - 1):
            prev, row = p[k - 1], [1]
            for j in range(1, s - k):
                if ints:
                    c = prev[j]
                    for i in range(1, j + 1):
                        if m[i]:
                            c = c + m[i] * prev[j - i]
                else:
                    c = _dot(prev[j], m[1:j + 1], prev[j - 1::-1])
                row.append(c)
            p.append(row)
        p.append([1])
    if ints:
        for k in range(2, len(p)):
            prev = p[k - 1]
            j = s - k
            c = prev[j]
            for i in range(1, j + 1):
                if m[i]:
                    c = c + m[i] * prev[j - i]
            p[k].append(c)
    else:
        for k in range(2, len(p)):
            prev = p[k - 1]
            j = s - k
            p[k].append(_dot(prev[j], m[1:j + 1], prev[j - 1::-1]))
    if len(p) == top:
        p.append([1])


def _substitute_at(a, p, n):
    """[z^n] A(W) for n >= 1, from a[j] = [z^j] A and the power table p,
    whose rows run through the last nonzero a_k."""
    if type(p[1][-1]) is int:
        s = None
        for k in range(1, len(p)):
            if a[k]:
                t = a[k] * p[k][n - k]
                s = t if s is None else s + t
        return 0 if s is None else s
    return _dot(None, a[1:len(p)], [p[k][n - k] for k in range(1, len(p))])


def _split_sum(left, right, n):
    """The sum of left[j] * right[n-j] over 0 < j < n."""
    if n < 2:
        return 0
    if type(left[1]) is int and type(right[1]) is int:
        s = left[1] * right[n - 1]
        for j in range(2, n):
            s = s + left[j] * right[n - j]
        return s
    return _dot(None, left[1:n], right[n - 1:0:-1])


def _fill(n, coeff, subst=None):
    """[0, c_1, ..., c_n] with c_k = coeff(k, out, s), filled by degree; out[k]
    reads as zero until coeff returns, so a solve's own unknown drops out.
    Without ``subst``, s = 0.  With ``subst`` = (a, m), s = [z^k] A(W) for the
    lists a of A and m of 1 + M, W = z(1+M), read from a power table whose
    rows run through the last nonzero a_j read so far, each grown to the
    anti-diagonal k: for a known A from step j on, for A = out from the step
    after a_j is found.  None in place of a or m stands for ``out``."""
    out = [0] * (n + 1)
    if subst is None:
        for k in range(1, n + 1):
            out[k] = coeff(k, out, 0)
        return out
    a, m = (out if f is None else f for f in subst)
    p, top = [[1], [1]], 0
    for k in range(1, n + 1):
        if a[k]:
            top = k
        elif a[k - 1]:
            top = k - 1
        _add_diagonal(p, m, k, top)
        out[k] = coeff(k, out, _substitute_at(a, p, k))
    return out


def m_series(mf):
    """The moment generating series M(z) = sum m_n z^n (zero constant term)."""
    return _series(mf.order, (ZERO,) + mf.moments())


def r_from_moments(mf):
    """Free cumulants kappa_1..kappa_N as the coefficients of R(z).

    A functional that carries the R-transform s R it was built from (see
    ``MomentFunctional``) gives s R back without a solve and without reading
    its moments, in the ring the solve gives: all ``TPoly`` when one of
    m_1..m_N is, else all ``Fraction``, as the functional's ``_poly`` says.
    """
    n = mf.order
    if mf._from is not None and mf._from[0] == "R":
        _, r, s = mf._from
        cs = r.coeffs()[1:n + 1]
        if s != 1:
            cs = [s * c for c in cs]
        return _series(n, [ZERO, *_as_ring(cs, mf._poly)])
    return _series(n, _graded(lambda sub, m: _fill(
        n, lambda k, _, s: sub(m[k], s), (None, m)), _moment_table(mf)))


def _forward_moments(cs):
    """m_1..m_n from R = cs, the list r_0..r_n: the forward solve of
    R(z(1+M)) = M."""
    return _graded(lambda _, kappa: _fill(
        len(cs) - 1, lambda k, _, s: s, (kappa, None)), cs)[1:]


def _moments_of_r(cs):
    """m_1..m_n from R = cs, the list r_0..r_n, as ``moments_from_r`` gives
    them: expanded in t when R is affine in t (``_affine_parts``), else the
    forward solve."""
    parts = _affine_parts(cs)
    if parts is None:
        return _forward_moments(cs)
    return _affine_moments(cs, *parts)


def moments_from_r(r, order):
    """The moments whose R-transform is r, through m_order.

    When r_1..r_order are rationals and ``TPoly``s of t-degree at most 1, with
    at least one ``TPoly``, R = A + tB expands in t over Q
    (``_affine_moments``); otherwise R(z(1+M)) = M is solved forward.  Both
    give each moment the same value, and every moment is a ``TPoly`` when
    one of r_0..r_order is.  The functional carries r and runs either on
    the first read of its moments (``MomentFunctional``).
    """
    if order > r.order:
        raise ValueError(f"cumulants known to order {r.order} < {order}")
    cs = r.coeffs()[:order + 1]
    return MomentFunctional._deferred(
        order, lambda: _moments_of_r(cs), ("R", r, ONE), _polys(cs))


def _eta(mf):
    """[0, eta_1, ..., eta_N] by eta_n = m_n - sum_{0<j<n} eta_j m_{n-j}: the
    one eta solve, behind ``_strip_once`` and ``eta_from_moments``."""
    return _graded(lambda sub, m: _fill(
        mf.order, lambda k, eta, _: sub(m[k], _split_sum(eta, m, k))),
        _moment_table(mf))


def eta_from_moments(mf):
    """Boolean cumulant series eta = M(1+M)^{-1}, via eta_n = m_n - sum eta_j m_{n-j}.

    A functional that carries the eta it was built from gives it back
    without a solve, in the ring the solve gives, as ``r_from_moments``
    does a carried R."""
    n = mf.order
    if mf._from is not None and mf._from[0] == "eta":
        return _series(n, [ZERO, *_as_ring(
            mf._from[1].coeffs()[1:n + 1], mf._poly)])
    return _series(n, _eta(mf))


def moments_from_eta(eta, order):
    """Solve M = eta + eta*M forward for the moments; the functional carries
    eta and runs the solve on the first read of its moments."""
    if order > eta.order:
        raise ValueError(f"eta known to order {eta.order} < {order}")
    cs = eta.coeffs()[:order + 1]
    return MomentFunctional._deferred(
        order, lambda: _moments_of_eta(cs), ("eta", eta), _polys(cs))


def _moments_of_eta(cs):
    """m_1..m_n from eta = cs, the list eta_0..eta_n: the forward solve of
    M = eta + eta*M."""
    return _graded(lambda _, e: _fill(
        len(cs) - 1, lambda k, m, _: e[k] + _split_sum(e, m, k)), cs)[1:]


def _strip_once(mf, beta, gamma):
    """Moments of the once-stripped functional, via (eta - beta*w)/(gamma*w^2).

    The eta coefficients come from the division-free ``_eta`` solve; only
    the final division by gamma must be exact (it always is over Q; over
    Q[t] it validates that the functional really strips within the
    polynomial ring).  eta and gamma are in the ring already, so the
    division is ``/`` on them as they are.
    """
    n = mf.order
    eta = _eta(mf)
    # eta_1 = m_1 = beta cancels; eta_2 / gamma = 1 restores unitality
    out = [eta[k] / gamma for k in range(2, n + 1)]
    if not (out[0] == 1):
        raise ConsistencyError("stripped series must be unital")
    return MomentFunctional._made(n - 2, out[1:])


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
        ZERO, _series(mf.order + 1, (ZERO, ONE) + mf.moments()))


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
        ONE, _series(g.order - 1, g.coeffs()[1:]))


def voiculescu_phi_by_reversion(mf):
    """phi = F^{<-1>}(z) - z; redundant cross-check for voiculescu_phi."""
    h = f_inverse_at_infinity(mf)
    return h - LaurentAtInfinity.ident_z(h.tail_order)


def two_state_r(pair):
    """Solve eta^tilde = R2(z(1+M)) (1+M)^{-1} for the two-state R-transform."""
    n = pair.order
    return _series(n, _graded(lambda sub, e, m: _fill(
        n, lambda k, _, s: sub(e[k] + _split_sum(e, m, k), s), (None, m)),
        eta_from_moments(pair.tilde).coeffs(), _moment_table(pair.base)))


def _substitute_divide(a, mf, n):
    """A(z(1+M)) (1+M)^{-1} through z^n, for the series a and M = M^mf:
    eta~ from R2, and R^{mu |> nu} from R^mu with mf = nu."""
    return _series(n, _graded(lambda sub, x, m: _fill(
        n, lambda k, out, s: sub(s, _split_sum(out, m, k)), (x, m)),
        a.coeffs()[:n + 1], _moment_table(mf)[:n + 1]))


def _composition(a, mf, n):
    """[ZERO, c_1, ..., c_n], the coefficients of (1+M)(1 + M^a(W)) through
    z^n but c_0 = 1, which ``_graded`` does not hand back, for the
    functionals a and mf, M = M^mf: 1 + M^{a |> mf}.  It is B(W)/z
    for B(z) = z(1 + M^a(z)), so c_k = [z^{k+1}] B(W), one substitution
    through mf's power table."""
    # b[k] = [z^{k+1}] B, which _graded grades by k: so the solve hands
    # back [z^{k+1}] B(W) at index k.
    return _graded(lambda _, b, m: _fill(
        n + 1, lambda k, _, s: s, ([0] + b, m))[1:],
        _moment_table(a)[:n + 1], _moment_table(mf)[:n + 1])


def tilde_from_two_state_r(r2, base):
    """The functional mu_tilde with two_state_r((mu_tilde, base)) = r2."""
    n = min(base.order, r2.order)
    return moments_from_eta(_substitute_divide(r2, base, n), n)


def two_state_r_by_reversion(pair):
    """R2(w) = w phi_{tilde,base}(1/w); cross-check path for two_state_r.

    phi's chart is the chart eta_tilde(w)/w of z - F_tilde, with 1 - eta =
    (1 + M)^{-1} taken as a series reciprocal, composed with the reversion h
    of G_base's chart, since F_base^{<-1>}(1/w) = 1/h(w).
    """
    n = pair.order
    inv = (TruncSeries.one(n) + m_series(pair.tilde)).reciprocal()
    phi = (-_series(n - 1, inv.coeffs()[1:])).compose(
        cauchy_g(pair.base).d.reversion())
    return _series(n, (ZERO,) + phi.coeffs())


# -- the semigroups by their expansion in s -------------------------------------
#
# R_{mu^{boxplus s}} = s R_mu, so W = z(1 + sR(W)), and Lagrange-Burmann
# (Stanley, EC2, Thm 5.4.2) moves all of s into binomial weights over the
# powers of R: about n^3 integer operations on an R over Q, where a solve
# over Q[t] runs its power table on polynomials in t.


def _power_rows(r, top, n, unit=False):
    """rows[i][k] = [w^k] (u + R)^i for 0 <= i <= top and 0 <= k <= n, with
    R = sum_{k >= 1} r_k w^k graded ints (r[0] is not read) and u = 1 when
    ``unit``, else 0, when (u + R)^i starts at w^i.  The one builder of the
    expansions' power rows, each entry one ``sum(map(mul))``."""
    rows = [[1] + [0] * n]
    for i in range(1, top + 1):
        prev = rows[-1]
        lo = 0 if unit else i - 1  # prev[j] = 0 for j < lo
        row = [1] if unit else [0] * i
        for k in range(len(row), n + 1):
            row.append(sum(map(mul, r[1:k - lo + 1], prev[lo:k][::-1]),
                           prev[k] if unit else 0))
        rows.append(row)
    return rows


def _expansion(s, seqs, n):
    """(seqs, rows, weigh) for an expansion in s to order n, R = seqs[0],
    every coefficient of seqs over Q.

    The sequences come back graded as ``_graded`` grades them, entry k the
    int c_k D^k, and rows[i][k] = [w^k] R^i D^k.  weigh(ys, c, k) is
    sum_{e >= 0} ys[e] s^e / (c D^k) for an int c > 0: one integer
    polynomial over one denominator, reduced once, and a ``TPoly`` exactly
    when s is one, else a ``Fraction``.
    """
    d, parts = _grade(*map(enumerate, seqs))
    seqs = [_scaled(p, d) for p in parts]
    rows = _power_rows(seqs[0], n, n)
    # s = S / den for an int polynomial S (a constant when s is rational)
    nums, den = TPoly._parts(s)
    pows, dens = [(1,)], [1]
    for _ in range(n):
        prev = pows[-1]
        pows.append(tuple(_convolve(prev, nums, len(prev) + len(nums) - 1))
                    if nums else ())
        dens.append(dens[-1] * den)
    terms = [[(j, x) for j, x in enumerate(p) if x] for p in pows]
    poly = type(s) is TPoly

    def weigh(ys, c, k):
        top = len(ys) - 1
        acc = [0] * len(pows[top])
        for e in range(top + 1):
            y = ys[e]
            if y:
                y *= dens[top - e]
                for j, x in terms[e]:
                    acc[j] += y * x
        c *= dens[top] * d ** k
        if poly:
            return _canonical(acc, c, c)
        return Fraction(acc[0] if acc else 0, c)
    return seqs, rows, weigh


def _free_moments(rows, weigh):
    """m_1..m_n with R-transform s R, from ``_expansion`` in s on R:

        m_n = [w^n] (1 + sR)^{n+1} / (n+1)
            = sum_{i=1..n} C(n+1, i)/(n+1) s^i [w^n] R^i.
    """
    return [weigh([comb(k + 1, i) * rows[i][k] for i in range(k + 1)], k + 1, k)
            for k in range(1, len(rows))]


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

    one ``_expansion`` in t on R = B, with A graded by the same D, and the
    power rows of 1 + A.  s = t is a ``TPoly``, so every m_n is one, as the
    forward solve gives it.
    """
    n = len(cs) - 1
    (_, ga), rb, weigh = _expansion(formal_t(), [b, a], n)
    ra = _power_rows(ga, n + 1, n, unit=True)
    return [weigh([comb(k + 1, i) * sum(map(mul, rb[i][i:k + 1],
                                             ra[k + 1 - i][k - i::-1]))
                   for i in range(k + 1)], k + 1, k)
            for k in range(1, n + 1)]


def moments_from_scaled_r(r, s, order):
    """The moments with R-transform s R, such as mu^{boxplus s} from R_mu:
    m_n = sum_{i=1..n} C(n+1, i)/(n+1) s^i [w^n] R^i (Lagrange-Burmann for
    W = z(1 + sR(W))), which is the sum over NC(n) of
    s^{|pi|} prod kappa_{|V|} (Nica-Speicher, *Lectures on the Combinatorics
    of Free Probability*).

    Equal, value and ring, to ``moments_from_r(r.scale(s), order)``, which
    it returns when one of r_0..r_order is a ``TPoly``; over Q it expands,
    on the first read of the moments, and the functional carries (r, s).
    """
    if order > r.order:
        raise ValueError(f"cumulants known to order {r.order} < {order}")
    s = as_coeff(s)
    cs = r.coeffs()[:order + 1]
    if _polys(cs):
        return moments_from_r(r.scale(s), order)
    return MomentFunctional._deferred(
        order, lambda: _free_moments(*_expansion(s, [cs], order)[1:]),
        ("R", r, s), type(s) is TPoly)


def two_state_from_scaled_r(r2, r, s, order):
    """The pair (mu~, mu) with R-transform s R and two-state R-transform s R2.

    mu is ``moments_from_scaled_r(r, s, order)``.  With phi = 1 + sR,
    eta~ = s R2(W) / phi(W), and Lagrange-Burmann in the form
    [z^n] H(W) = [w^n] H phi^{n-1} (phi - w phi') gives eta~_1 = s R2_1 and

        eta~_n = [w^n] s R2 (1 + sR)^{n-2} (1 + s(R - wR'))
               = sum_{i=0..n-2} C(n-1, i)/(n-1) s^{i+1} [w^n] (wR2' - R2) R^i

    for n >= 2, on the powers of R that mu reads; ``moments_from_eta`` then
    gives mu~.  Equal, value and ring, to
    ``tilde_from_two_state_r(r2.scale(s), mu)``, which gives mu~ when R or
    R2 holds a ``TPoly``.
    """
    if order > min(r.order, r2.order):
        raise ValueError(
            f"R-transforms known to order {min(r.order, r2.order)} < {order}")
    s = as_coeff(s)
    rc, r2c = r.coeffs()[:order + 1], r2.coeffs()[:order + 1]
    if _polys(rc, r2c):
        base = moments_from_scaled_r(r, s, order)
        return TwoStatePair(tilde_from_two_state_r(r2.scale(s), base), base)
    (_, g2), rows, weigh = _expansion(s, [rc, r2c], order)
    base = MomentFunctional._made(order, _free_moments(rows, weigh))
    base._from, base._poly = ("R", r, s), type(s) is TPoly
    eta = [weigh([0, g2[1]], 1, 1)]
    r2o = [(l - 1) * c for l, c in enumerate(g2)]  # wR2' - R2
    for n in range(2, order + 1):
        ys = [0] + [comb(n - 1, i) * sum(map(mul, r2o[2:n - i + 1],
                                             rows[i][i:n - 1][::-1]))
                    for i in range(n - 1)]
        eta.append(weigh(ys, n - 1, n))
    return TwoStatePair(
        moments_from_eta(_series(order, [ZERO] + eta), order), base)


def belinschi_nica_eta(r, s, order):
    """eta_1..eta_order of B_t[mu] for s = 1 + t, from r = R_mu.

    B_t[mu] = (mu^{boxplus s})^{uplus 1/s} has eta = eta^{mu^{boxplus s}} / s.
    With phi = 1 + sR, eta^{mu^{boxplus s}} = 1 - 1/phi(W), and
    Lagrange-Burmann gives [z^n] of it as [w^n] phi^{n-1} / (n-1) for n >= 2,
    so that over Q

        eta_1 = kappa_1,
        eta_n = sum_{i=1..n-1} C(n-2, i-1)/i s^{i-1} [w^n] R^i   (n >= 2),

    on ``_expansion``'s power rows of R, with no division by s.  An R that
    holds a ``TPoly`` takes ``_eta`` of ``moments_from_r(r.scale(s), order)``
    divided by s, exactly, as eta^{mu^{boxplus s}} = s R(W) (1+M)^{-1}.
    Every eta_k is a ``TPoly`` when s or a kappa is one, as the Boolean
    cumulants of ``free_power(mu, s)``, divided by s, are.
    """
    if order > r.order:
        raise ValueError(f"cumulants known to order {r.order} < {order}")
    cs = r.coeffs()[:order + 1]
    if _polys(cs):
        eta = _eta(moments_from_r(r.scale(s), order))[1:]
        return _series(order, [ZERO] + [exact_div(c, s) for c in eta])
    (g,), rows, weigh = _expansion(s, [cs], order)
    return _series(order, [ZERO, weigh([g[1]], 1, 1)] + [
        weigh([comb(k - 1, e + 1) * rows[e + 1][k] for e in range(k - 1)],
              k - 1, k) for k in range(2, order + 1)])
