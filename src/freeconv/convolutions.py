"""The four convolutions and their (fractional or formal-t) powers.

Free convolution adds free cumulants, Boolean convolution adds eta
coefficients, monotone convolution composes F-transforms (one substitution,
``transforms._composition``), and two-state free convolution adds two-state
R-transforms on pairs.  In the algebraic setting every power t is defined,
including a formal parameter.

The free and two-state powers multiply the R-transforms by t and, over Q,
expand in t by Lagrange-Burmann over the powers of R_mu (Stanley, *EC2*,
Thm 5.4.2): m_n = sum_i C(n+1, i)/(n+1) t^i [w^n] R^i, the NC(n) sum of
t^{|pi|} prod kappa_{|V|} (Nica-Speicher), and its twin for eta~ (see
``transforms.two_state_from_scaled_r``).  For a formal t that is about n^3
integer operations where a forward solve runs a power table of polynomials
in t; R-transforms over Q[t] take that solve.  Each free result carries
its R-transform and each Boolean result its eta (see
``functionals.MomentFunctional``), so a free power handed to free
convolution, or a Boolean power handed to Boolean convolution, is not
solved back; and each builds its moments only when they are read, so such
a power is not expanded or solved forward either, unless its moments are
read too.
"""

from __future__ import annotations

from .coeffs import as_coeff
from .functionals import MomentFunctional, TwoStatePair
from .transforms import (
    _composition,
    eta_from_moments,
    moments_from_eta,
    moments_from_r,
    moments_from_scaled_r,
    r_from_moments,
    tilde_from_two_state_r,
    two_state_from_scaled_r,
    two_state_r,
)


def free_convolve(a, b):
    """a boxplus b: the R-transforms add.

    An operand built from an R-transform, such as a free power, hands it
    over without a solve, and where the sum is affine in t, as in
    rho boxplus sigma^{boxplus t} for rational rho and sigma,
    ``moments_from_r`` expands it in t over Q instead of solving over Q[t].
    """
    return moments_from_r(r_from_moments(a) + r_from_moments(b),
                          min(a.order, b.order))


def free_power(a, t):
    """a^{boxplus t}: R_a times t, expanded in t over the powers of R_a when
    R_a is over Q (``transforms.moments_from_scaled_r``)."""
    return moments_from_scaled_r(r_from_moments(a), t, a.order)


def free_deconvolve(a, b):
    """The functional c with c boxplus b = a."""
    return moments_from_r(r_from_moments(a) - r_from_moments(b),
                          min(a.order, b.order))


def boolean_convolve(a, b):
    return moments_from_eta(eta_from_moments(a) + eta_from_moments(b),
                            min(a.order, b.order))


def boolean_power(a, t):
    t = as_coeff(t)
    return moments_from_eta(eta_from_moments(a).scale(t), a.order)


def monotone_convolve(a, b):
    """The functional a |> b, whose F-transform is F_a o F_b.

    With W = z(1 + M^b) that is 1 + M^{a |> b} = (1 + M^b)(1 + M^a(W))
    (``transforms._composition``).  Every moment is a TPoly when one of
    m_1..m_n of a or b is.
    """
    n = min(a.order, b.order)
    return MomentFunctional._made(n, _composition(a, b, n)[1:])


def two_state_convolve(p, q):
    """(rho, mu boxplus nu) with the two-state R-transforms adding."""
    n = min(p.order, q.order)
    p = TwoStatePair(p.tilde.truncate(n), p.base.truncate(n))
    q = TwoStatePair(q.tilde.truncate(n), q.base.truncate(n))
    base = free_convolve(p.base, q.base)
    r2 = two_state_r(p) + two_state_r(q)
    return TwoStatePair(tilde_from_two_state_r(r2, base), base)


def two_state_power(p, t):
    """p^{boxplus_c t}: both R-transforms times t, over Q expanded in t over
    the powers of R_base by Lagrange-Burmann, m_n = sum_i C(n+1, i)/(n+1) t^i
    [w^n] R^i and eta~_n = [w^n] t (wR2' - R2) (1 + tR)^{n-1} / (n-1) for
    n >= 2 (``transforms.two_state_from_scaled_r``)."""
    return two_state_from_scaled_r(two_state_r(p), r_from_moments(p.base), t,
                                   p.order)
