"""Evolution operators.

Implements the Jacobi shift maps Phi and J (coefficient stripping), the
Bercovici-Pata bijection B and the Belinschi-Nica maps B_t, subordination
distributions and their inverse, the canonical-triple semigroup builders
(single- and two-state) and exact residuals for the two evolution PDEs.
The identities they satisfy are checked in ``catalog``.

"For all t >= 0" statements are checked over the polynomial ring Q[t], where
they become finite exact comparisons, with rational specializations available
through the same entry points.
"""

from __future__ import annotations

from .coeffs import (ExactDivisionError, ZERO, ONE, as_coeff, exact_div,
                     formal_t)
from .functionals import (CanonicalTriple, ConsistencyError, JacobiParams,
                          MomentFunctional, NoJacobiRepresentationError,
                          ZeroVarianceError, jacobi_from_moments)
from .series import TruncSeries
from .transforms import (
    belinschi_nica_eta, cauchy_g, eta_from_moments, f_at_infinity,
    moments_from_eta, moments_from_r, moments_from_scaled_r, phi_from_r_series,
    r_from_moments, _strip_once, _substitute_divide, two_state_from_scaled_r)
from .convolutions import free_deconvolve, monotone_convolve


def __getattr__(name):
    # perfbench/workloads.py and perfbench/run.py read evolution.CATALOG,
    # served on first use from ``catalog``, which imports this module
    if name == "CATALOG":
        from .catalog import CATALOG
        return CATALOG
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# -- Phi and J (Jacobi right and left shifts) ---------------------------------


def _check_shift(label, mf, out, shift):
    """Raise ConsistencyError unless the Jacobi rows of ``mf``, where it has
    them, moved by ``shift`` to (betas, gammas), are the rows of ``out``."""
    try:
        jp = jacobi_from_moments(mf, mf.order // 2)
    except (NoJacobiRepresentationError, ExactDivisionError):
        return
    try:
        got = jacobi_from_moments(out, out.order // 2)
    except (NoJacobiRepresentationError, ExactDivisionError):
        got = None
    if got != JacobiParams(*shift(jp), terminated=jp.terminated):
        raise ConsistencyError(f"{label}: transform and Jacobi paths disagree")


def phi_map(nu):
    """The mean-0 variance-1 lift: eta_{Phi[nu]}(w) = w^2 (1 + M^nu(w)).

    Equivalently the right shift on Jacobi parameters, inserting the row
    (0; 1): where the input has Jacobi rows, the output's rows, both read by
    ``jacobi_from_moments``, which shares no solve kernel with this path,
    must be them shifted.  The output order is nu.order + 2.
    """
    n = nu.order + 2
    eta = TruncSeries(n, (ZERO, ZERO, ONE) + nu.moments())
    out = moments_from_eta(eta, n)
    _check_shift("Phi", nu, out,
                 lambda jp: ((ZERO,) + jp.betas, (ONE,) + jp.gammas))
    return out


def strip(mu):
    """Coefficient stripping J: F_mu(z) = z - beta - gamma G_{J[mu]}(z).

    Transform-level computation (eta_mu(w) - beta w)/(gamma w^2), checked,
    where the input has Jacobi rows, against them shifted left, both rows
    read by ``jacobi_from_moments``, which shares no solve kernel with this
    path.  The output order is mu.order - 2.
    """
    if mu.order < 3:
        raise ValueError(f"strip needs order >= 3, got {mu.order}")
    beta, gamma = mu.mean_var()
    if not gamma:
        raise ZeroVarianceError("cannot strip a zero-variance functional")
    out = _strip_once(mu, beta, gamma)
    _check_shift("J", mu, out, lambda jp: (jp.betas[1:], jp.gammas[1:]))
    return out


def bercovici_pata(mu):
    """Boolean-to-free bijection: R^{B[mu]} = eta^mu."""
    return moments_from_r(eta_from_moments(mu), mu.order)


def bercovici_pata_inverse(mu):
    """eta^{B^{-1}[mu]} = R^mu."""
    return moments_from_eta(r_from_moments(mu), mu.order)


def belinschi_nica(mu, t):
    """B_t[mu] = (mu^{boxplus s})^{uplus 1/s} with s = 1 + t.

    Boolean powers scale eta, so eta^{B_t[mu]} = eta^{mu^{boxplus s}} / s.
    Lagrange-Burmann for W = z(1 + sR(W)) gives that quotient on the powers
    of R = R_mu as eta_1 = kappa_1 and, for n >= 2,

        eta_n = sum_{i=1..n-1} C(n-2, i-1)/i s^{i-1} [w^n] R^i

    (``transforms.belinschi_nica_eta``), a polynomial in s: for formal t it
    is in Q[t] as it stands, with nothing left to divide.  t = -1 is refused,
    since B_t is defined through the division by 1 + t.
    """
    s = 1 + as_coeff(t)
    if not s:
        raise ZeroDivisionError("B_t divides by 1 + t, which is 0 at t = -1")
    return moments_from_eta(
        belinschi_nica_eta(r_from_moments(mu), s, mu.order), mu.order)


# -- subordination ------------------------------------------------------------


def subordination(mu, nu):
    """The subordination distribution mu |> nu with G_{mu boxplus nu} = G_nu o F_{mu |> nu}.

    Solved through R^{mu |> nu} = R^mu(z(1+M^nu)) * (1+M^nu)^{-1}.
    """
    n = min(mu.order, nu.order)
    return moments_from_r(
        _substitute_divide(r_from_moments(mu.truncate(n)), nu, n), n)


def subordination_inverse(lam, nu):
    """The unique mu with subordination(mu, nu) = lam.

    Recovers mu boxplus nu from
    1 + M^{mu boxplus nu} = (1 + M^lam) * (1 + M^nu(W)), W = z(1+M^lam),
    which is the monotone convolution nu |> lam, and removes nu by free
    cumulant subtraction.
    """
    return free_deconvolve(monotone_convolve(nu, lam), nu)


def phi_two(mu, nu):
    """Phi[mu, nu] = B^{-1}[mu |> nu] (always defined algebraically)."""
    return bercovici_pata_inverse(subordination(mu, nu))


# -- canonical-triple semigroups ----------------------------------------------


def _triple_r_series(triple, t, order):
    """t(beta w + gamma w^2 (1 + M^rho(w))): the R-transform of mu_t, and for
    a relative triple the two-state R-transform of (mu~_t, mu_t)."""
    kap = [ZERO, triple.beta * t]
    if triple.rho is not None and order >= 2:
        gt = triple.gamma * t
        kap.append(gt)
        kap.extend(gt * triple.rho.m(k) for k in range(1, order - 1))
    return TruncSeries(order, kap)


def maassen_semigroup(triple, t, order=None):
    """mu_t with phi_{mu_t} = beta t + gamma t G_rho: kappa_1 = t beta,
    kappa_{n+2} = t gamma m_n(rho).

    R_{mu_t} is t times the R-transform R at t = 1, so the moments expand in
    t over the powers of R, m_n = sum_i C(n+1, i)/(n+1) t^i [w^n] R^i
    (Lagrange-Burmann, ``transforms.moments_from_scaled_r``)."""
    t = as_coeff(t)
    if order is None:
        if triple.rho is None:
            raise ValueError("order required for a zero-variance triple")
        order = triple.rho.order + 2
    if order < 1:
        raise ValueError("order must be >= 1")
    if triple.rho is not None and triple.rho.order < order - 2:
        raise ValueError(
            f"rho needs order >= {order - 2}, has {triple.rho.order}")
    return moments_from_scaled_r(_triple_r_series(triple, ONE, order), t, order)


def triple_from_semigroup(mu):
    """Invert the Maassen parametrization: beta = kappa_1, gamma = kappa_2,
    m_n(rho) = kappa_{n+2}/gamma."""
    if mu.order < 2:
        raise ValueError("need order >= 2 to read gamma = kappa_2")
    r = r_from_moments(mu)
    beta, gamma = r.coeff(1), r.coeff(2)
    if not gamma:
        if any(r.coeff(k) for k in range(3, mu.order + 1)):
            raise ZeroVarianceError(
                "zero variance with nonzero higher cumulants: not a "
                "finite-variance semigroup element")
        return CanonicalTriple(beta, ZERO, None)
    if mu.order < 4:
        raise ValueError("need order >= 4 to extract rho")
    rho = MomentFunctional(
        mu.order - 2,
        [exact_div(r.coeff(k + 2), gamma) for k in range(1, mu.order - 1)])
    return CanonicalTriple(beta, gamma, rho)


def _tilde_by_monotone(rel, base_t, t):
    """(mu~_t, sub): mu~_t = delta_{beta~ t} uplus Phi[rho~ |> mu_t]^{uplus
    gamma~ t}, and sub = rho~ |> mu_t at order - 2 (None without rho~ or
    below order 3)."""
    order = base_t.order
    eta = [ZERO, rel.beta * t] + [ZERO] * (order - 1)
    sub = None
    if rel.rho is not None and order > 1:
        gt = rel.gamma * t
        eta[2] = gt
        if order > 2:  # rho~ enters from eta_3 on
            sub = monotone_convolve(rel.rho.truncate(order - 2),
                                    base_t.truncate(order - 2))
            eta[3:] = [gt * c for c in sub.moments()]
    return moments_from_eta(TruncSeries(order, eta), order), sub


def two_state_semigroup(rel, base, t, order=None):
    """The pair (mu_tilde_t, mu_t) from relative and base canonical triples.

    Both R-transforms are t times those at t = 1, and the pair expands in t
    over the powers of the base's R: eta~_n = [w^n] t (wR2' - R2)
    (1 + tR)^{n-1} / (n-1) for n >= 2 (Lagrange-Burmann,
    ``transforms.two_state_from_scaled_r``).  The tilde component is then
    re-derived through the Boolean/monotone formula; the two must agree.
    """
    t = as_coeff(t)
    if order is None:
        candidates = [tr.rho.order + 2 for tr in (rel, base) if tr.rho is not None]
        if not candidates:
            raise ValueError("order required when both triples have gamma = 0")
        order = min(candidates)
    if order < 1:
        raise ValueError("order must be >= 1")
    for tr, name in ((rel, "rel"), (base, "base")):
        if tr.rho is not None and tr.rho.order < order - 2:
            raise ValueError(f"{name}.rho needs order >= {order - 2}")
    pair = two_state_from_scaled_r(_triple_r_series(rel, ONE, order),
                                   _triple_r_series(base, ONE, order), t, order)
    if pair.tilde != _tilde_by_monotone(rel, pair.base, t)[0]:
        raise ConsistencyError(
            "two-state semigroup: R-transform and monotone paths disagree")
    return pair


# -- evolution-equation residuals ----------------------------------------------


def pde_residual(rel, base, order):
    """LHS - RHS of the two F-transform evolution equations, over Q[t].

    First equation:  d_t F~ = phi_mu(F_t) - phi_{mu~,mu}(F_t)
                                - phi_mu(F_t) d_z F~.
    Second equation: d_t F = -phi_mu(F_t) d_z F.
    Both residuals are identically zero; they are returned truncated to the
    requested tail order.
    """
    t = formal_t()
    work = order + 2
    pair_t = two_state_semigroup(rel, base, t, work)
    phi_mu = phi_from_r_series(_triple_r_series(base, ONE, work))
    phi_two_state = phi_from_r_series(_triple_r_series(rel, ONE, work))
    f_t = f_at_infinity(pair_t.base)
    f_tilde = f_at_infinity(pair_t.tilde)
    a = phi_mu.compose_descending(f_t)          # phi_mu(F_{mu_t})
    b = phi_two_state.compose_descending(f_t)   # phi_{mu~,mu}(F_{mu_t})
    res1 = f_tilde.t_derivative() - (a - b - a * f_tilde.derivative())
    res2 = f_t.t_derivative() + a * f_t.derivative()
    return res1.truncate(order), res2.truncate(order)


def cauchy_evolution_residual(rel, base, order):
    """Residuals of the d_t G_{mu~_t} equation from the generator analysis.

    With nu_t = J[mu_t], nu~_t = J[mu~_t]:

        d_t G~ + (beta + gamma G_{nu_t} - beta~ - gamma~ G_{nu~_t}) G~^2
              + (beta + gamma G_{nu_t}) d_z G~  =  0.

    Returns (corrected, printed) to the requested tail order: the residual
    of this equation, identically zero, and that of the variant with
    "- beta~ + gamma~ G_{nu~_t}" in the bracket as printed in the source
    display, which does not vanish (see the verify report).
    """
    if base.rho is None or rel.rho is None:
        raise ZeroVarianceError("residual needs gamma, gamma~ != 0")
    t = formal_t()
    work = order + 4
    pair_t = two_state_semigroup(rel, base, t, work)
    g_tilde = cauchy_g(pair_t.tilde)
    g_nu = cauchy_g(strip(pair_t.base))  # G_{nu_t}
    g_nu_tilde = cauchy_g(strip(pair_t.tilde))  # G_{nu~_t}
    drift = g_nu.scale(base.gamma) + base.beta  # beta + gamma G_{nu_t}
    g_sq = g_tilde * g_tilde
    rest = g_tilde.t_derivative() + drift * g_tilde.derivative()
    rel_part = g_nu_tilde.scale(rel.gamma)
    corrected = rest + (drift - rel.beta - rel_part) * g_sq
    printed = rest + (drift - rel.beta + rel_part) * g_sq
    return corrected.truncate(order), printed.truncate(order)
