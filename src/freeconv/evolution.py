"""Evolution operators and the identity-verification catalog.

Implements the Jacobi shift maps Phi and J (coefficient stripping), the
Bercovici-Pata bijection B and the Belinschi-Nica maps B_t, subordination
distributions and their inverse, the canonical-triple semigroup builders
(single- and two-state), exact residuals for the two evolution PDEs, and a
catalog of machine-checked identities.

"For all t >= 0" statements are checked over the polynomial ring Q[t], where
they become finite exact comparisons, with rational specializations available
through the same entry points.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import get_args

from .coeffs import (
    ExactDivisionError,
    ZERO,
    ONE,
    TPoly,
    all_digits,
    as_coeff,
    exact_div,
    formal_t,
)
from .functionals import (
    CanonicalTriple,
    ConsistencyError,
    FAMILIES,
    JacobiParams,
    MomentFunctional,
    NoJacobiRepresentationError,
    TwoStatePair,
    ZeroVarianceError,
    _fill,
    _graded,
    _moment_table,
    _split_sum,
    _strip_once,
    arcsine,
    bernoulli_sym,
    family,
    free_meixner,
    jacobi_from_moments,
    moments_from_jacobi,
    point_mass,
    semicircular,
)
from .series import LaurentAtInfinity, TruncSeries
from .transforms import (
    belinschi_nica_eta,
    cauchy_g,
    eta_from_moments,
    f_at_infinity,
    moments_from_eta,
    moments_from_r,
    moments_from_scaled_r,
    phi_from_r_series,
    r_from_moments,
    tilde_from_two_state_r,
    two_state_from_scaled_r,
    voiculescu_phi,
)
from .convolutions import (
    boolean_convolve,
    boolean_power,
    free_convolve,
    free_deconvolve,
    free_power,
    monotone_convolve,
    two_state_convolve,
)


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
    ksub = _graded(lambda kap, m: _fill(n, lambda k, ksub, s: (
        s - _split_sum(ksub, m, k)), (kap, m)),
        r_from_moments(mu.truncate(n)).coeffs(), _moment_table(nu)[:n + 1])
    return moments_from_r(TruncSeries(n, ksub), n)


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
    if triple.rho is None:
        if order is None:
            raise ValueError("order required for a zero-variance triple")
    else:
        if order is None:
            order = triple.rho.order + 2
        elif triple.rho.order < order - 2:
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
    """mu_tilde_t = delta_{beta~ t} uplus Phi[rho~ |> mu_t]^{uplus gamma~ t}."""
    order = base_t.order
    eta = [ZERO, rel.beta * t] + [ZERO] * (order - 1)
    if rel.rho is not None and order > 1:
        gt = rel.gamma * t
        eta[2] = gt
        if order > 2:  # rho~ enters from eta_3 on
            sub = monotone_convolve(rel.rho.truncate(order - 2),
                                    base_t.truncate(order - 2))
            eta[3:] = [gt * c for c in sub.moments()]
    return moments_from_eta(TruncSeries(order, eta), order)


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
    for tr, name in ((rel, "rel"), (base, "base")):
        if tr.rho is not None and tr.rho.order < order - 2:
            raise ValueError(f"{name}.rho needs order >= {order - 2}")
    pair = two_state_from_scaled_r(_triple_r_series(rel, ONE, order),
                                   _triple_r_series(base, ONE, order), t, order)
    if pair.tilde != _tilde_by_monotone(rel, pair.base, t):
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
    mu1 = maassen_semigroup(base, 1, work)
    phi_mu = voiculescu_phi(mu1)
    phi_two_state = phi_from_r_series(_triple_r_series(rel, ONE, work))
    f_t = f_at_infinity(pair_t.base)
    f_tilde = f_at_infinity(pair_t.tilde)
    a = phi_mu.compose_descending(f_t)          # phi_mu(F_{mu_t})
    b = phi_two_state.compose_descending(f_t)   # phi_{mu~,mu}(F_{mu_t})
    res1 = f_tilde.t_derivative() - (a - b - a * f_tilde.derivative())
    res2 = f_t.t_derivative() + a * f_t.derivative()
    return res1.truncate(order), res2.truncate(order)


def cauchy_evolution_residual(rel, base, order, printed_sign=False):
    """Residual of the d_t G_{mu~_t} equation from the generator analysis.

    With nu_t = J[mu_t], nu~_t = J[mu~_t]:

        d_t G~ + (beta + gamma G_{nu_t} - beta~ - gamma~ G_{nu~_t}) G~^2
              + (beta + gamma G_{nu_t}) d_z G~  =  0.

    ``printed_sign=True`` flips the relative-triple part of the bracket to
    "- beta~ + gamma~ G_{nu~_t}" as printed in the source display; that
    variant does not vanish (see the verify report).
    """
    if base.rho is None or rel.rho is None:
        raise ZeroVarianceError("residual needs gamma, gamma~ != 0")
    t = formal_t()
    work = order + 4
    pair_t = two_state_semigroup(rel, base, t, work)
    nu_t = strip(pair_t.base)
    nu_tilde_t = strip(pair_t.tilde)
    g_tilde = cauchy_g(pair_t.tilde)
    g_nu = cauchy_g(nu_t)
    g_nu_tilde = cauchy_g(nu_tilde_t)
    drift = g_nu.scale(base.gamma) + base.beta  # beta + gamma G_{nu_t}
    if printed_sign:
        bracket = drift - rel.beta + g_nu_tilde.scale(rel.gamma)
    else:
        bracket = drift - rel.beta - g_nu_tilde.scale(rel.gamma)
    res = (g_tilde.t_derivative() + bracket * (g_tilde * g_tilde)
           + drift * g_tilde.derivative())
    return res.truncate(order)


# -- verification catalog -------------------------------------------------------


@dataclass
class Check:
    label: str
    ok: bool
    detail: str = ""


def _first_difference(lhs, rhs):
    """Human-readable locator of the first disagreeing coefficient."""
    if isinstance(lhs, MomentFunctional) and isinstance(rhs, MomentFunctional):
        n = min(lhs.order, rhs.order)
        for k in range(1, n + 1):
            if not (lhs.m(k) == rhs.m(k)):
                return f"m_{k}: {lhs.m(k)!r} != {rhs.m(k)!r}"
        return "orders differ"
    if isinstance(lhs, TwoStatePair) and isinstance(rhs, TwoStatePair):
        if lhs.tilde != rhs.tilde:
            return "tilde: " + _first_difference(lhs.tilde, rhs.tilde)
        return "base: " + _first_difference(lhs.base, rhs.base)
    if isinstance(lhs, LaurentAtInfinity) and isinstance(rhs, LaurentAtInfinity):
        n = min(lhs.tail_order, rhs.tail_order)
        for k in range(-1, n + 1):
            if not (lhs.coeff(k) == rhs.coeff(k)):
                return f"[z^{-k}]: {lhs.coeff(k)!r} != {rhs.coeff(k)!r}"
        return "tail orders differ"
    if isinstance(lhs, TruncSeries) and isinstance(rhs, TruncSeries):
        n = min(lhs.order, rhs.order)
        for k in range(n + 1):
            if not (lhs.coeff(k) == rhs.coeff(k)):
                return f"[z^{k}]: {lhs.coeff(k)!r} != {rhs.coeff(k)!r}"
        return "orders differ"
    return f"{lhs!r} != {rhs!r}"


def check_eq(label, lhs, rhs):
    """A Check comparing two values exactly, with the residual on failure."""
    if lhs == rhs:
        return Check(label, True)
    with all_digits():
        return Check(label, False, _first_difference(lhs, rhs))


def check_zero(label, series):
    if series.is_zero():
        return Check(label, True)
    with all_digits():
        return Check(label, False, f"residual = {series!r}")


@dataclass
class VerifyReport:
    name: str
    order: int
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def verified(self):
        return all(c.ok for c in self.checks)


def _rand_q(rng, span=3, den=3, nonzero=False):
    while True:
        x = Fraction(rng.randint(-span, span), rng.randint(1, den))
        if not nonzero or x != 0:
            return x


# The classes an entry parameter may have, as its annotation states: a
# coefficient, or a value ``_functional`` makes a moment functional of.
Coeff = int | Fraction | TPoly
Functional = MomentFunctional | JacobiParams | str


class _NonzeroCoeffType(type):
    def __instancecheck__(cls, value):
        return isinstance(value, Coeff) and bool(value)


class NonzeroCoeff(metaclass=_NonzeroCoeffType):
    """The annotation of a coefficient an entry divides by: a Coeff other
    than zero, so that a zero is rejected before the entry runs."""


class _BadParameter(ValueError):
    """(value, problem) of a supplied entry parameter of the wrong kind."""


def _q(value, default):
    """A supplied coefficient, or ``default`` when None."""
    return default if value is None else as_coeff(value)


def _functional(value, order, rng):
    """A supplied functional at ``order``, or one drawn from ``rng``."""
    if value is None:
        return MomentFunctional(order, [_rand_q(rng, 2) for _ in range(order)])
    if isinstance(value, JacobiParams):
        value = moments_from_jacobi(value, order)
    if isinstance(value, MomentFunctional) and value.order >= order:
        return value.truncate(order)
    if isinstance(value, str) and value in FAMILIES:
        defaults = {"b": ONE, "c": ONE, "beta": ZERO, "gamma": ONE}
        _, argnames = FAMILIES[value]
        return family(value, {a: defaults[a] for a in argnames}, order)
    raise _BadParameter(value, f"want a moment functional of order >= {order}"
                               f", Jacobi rows or a family: {sorted(FAMILIES)}")


def _triples(rng, rho_order, beta_t, gamma_t, rho_t, beta, gamma, rho):
    """The relative and base canonical triples, drawing what is not given."""
    rel = CanonicalTriple(_q(beta_t, _rand_q(rng)),
                          _q(gamma_t, _rand_q(rng, nonzero=True)),
                          _functional(rho_t, rho_order, rng))
    base = CanonicalTriple(_q(beta, _rand_q(rng)),
                           _q(gamma, _rand_q(rng, nonzero=True)),
                           _functional(rho, rho_order, rng))
    return rel, base


def _meixner_params(rng, b, c, beta, gamma, beta2, gamma2):
    """The parameters of two free Meixner laws, drawing what is not given."""
    return (_q(b, _rand_q(rng)), _q(c, _rand_q(rng)),
            _q(beta, _rand_q(rng)), _q(gamma, _rand_q(rng, nonzero=True)),
            _q(beta2, _rand_q(rng)), _q(gamma2, _rand_q(rng, nonzero=True)))


def _delta_bool_phi(beta_c, inner, gamma_c, order):
    """delta_{beta_c} uplus Phi[inner]^{uplus gamma_c} at the given order."""
    lifted = phi_map(inner)  # order inner.order + 2
    return boolean_convolve(point_mass(beta_c, order),
                            boolean_power(lifted.truncate(order), gamma_c))


def _verify_free_evolution(order, rng, beta: Coeff = None, gamma: Coeff = None,
                           rho: Functional = None, beta0: Coeff = None):
    beta = _q(beta, _rand_q(rng))
    gamma = _q(gamma, _rand_q(rng, nonzero=True))
    rho = _functional(rho, order - 2, rng)
    t = formal_t()
    checks, notes = [], []
    triple = CanonicalTriple(beta, gamma, rho)
    mu_t = maassen_semigroup(triple, t, order)
    inner = free_convolve(rho, free_power(semicircular(beta, gamma, order - 2), t))
    display = _delta_bool_phi(beta * t, inner, gamma * t, order)
    checks.append(check_eq(
        "mu_t = delta_{bt} uplus Phi[rho boxplus sigma_{b,g}^t]^{uplus gt}",
        mu_t, display))
    checks.append(check_eq("J[mu_t] = rho boxplus sigma_{b,g}^{boxplus t}",
                        strip(mu_t), inner))
    beta0 = _q(beta0, _rand_q(rng))
    mu0_t = maassen_semigroup(CanonicalTriple(beta0, ZERO, None), t, order)
    checks.append(check_eq("gamma = 0 branch: mu_t = delta_{beta t}",
                        mu0_t, point_mass(beta0 * t, order)))
    return checks, notes


def _verify_bn_mean(order, rng, beta: Coeff = None, gamma: Coeff = None,
                    rho: Functional = None):
    beta = _q(beta, _rand_q(rng))
    gamma = _q(gamma, _rand_q(rng, nonzero=True))
    rho = _functional(rho, order - 2, rng)
    t = formal_t()
    checks, notes = [], []
    start = _delta_bool_phi(beta, rho, gamma, order)
    lhs = belinschi_nica(start, t)
    inner = free_convolve(
        free_convolve(rho, point_mass(beta * t, order - 2)),
        free_power(semicircular(0, 1, order - 2), gamma * t))
    rhs = _delta_bool_phi(beta, inner, gamma, order)
    checks.append(check_eq(
        "B_t[delta_b uplus Phi[rho]^{uplus g}] = "
        "delta_b uplus Phi[rho boxplus delta_{bt} boxplus sigma^{gt}]^{uplus g}",
        lhs, rhs))
    checks.append(check_eq("gamma = 0 branch: B_t[delta_b] = delta_b",
                        belinschi_nica(point_mass(beta, order), t),
                        point_mass(beta, order)))
    return checks, notes


def _verify_monotone_lemma(order, rng, beta_t: Coeff = None,
                           gamma_t: Coeff = None, rho_t: Functional = None,
                           beta: Coeff = None, gamma: Coeff = None,
                           rho: Functional = None):
    rel, base = _triples(rng, order - 2, beta_t, gamma_t, rho_t,
                         beta, gamma, rho)
    t = formal_t()
    checks, notes = [], []
    base_t = maassen_semigroup(base, t, order)
    tilde_r = tilde_from_two_state_r(_triple_r_series(rel, t, order), base_t)
    tilde_mono = _tilde_by_monotone(rel, base_t, t)
    checks.append(check_eq(
        "mu~_t = delta_{b~t} uplus Phi[rho~ |> mu_t]^{uplus g~t}",
        tilde_r, tilde_mono))
    sub = monotone_convolve(rel.rho.truncate(order - 2),
                            base_t.truncate(order - 2))
    checks.append(check_eq("J[mu~_t] = rho~ |> mu_t (gamma~ != 0)",
                        strip(tilde_r), sub))
    return checks, notes


def _thm_b_tilde(rho_t, omega, p, beta_t, gamma_t, s, order):
    """mu~_s = delta_{b~s} uplus Phi[rho~ boxplus omega^{boxplus s/p}]^{uplus g~s}."""
    inner = free_convolve(rho_t.truncate(order - 2),
                          free_power(omega.truncate(order - 2), s / p))
    return _delta_bool_phi(beta_t * s, inner, gamma_t * s, order)


def _verify_thm_b(order, rng, omega: Functional = None,
                  rho_t: Functional = None, p: NonzeroCoeff = None,
                  beta_t: Coeff = None, gamma_t: Coeff = None):
    omega = _functional(omega, order, rng)
    rho_t = _functional(rho_t, order, rng)
    p = _q(p, Fraction(rng.randint(1, 3), rng.randint(1, 2)))
    beta_t = _q(beta_t, _rand_q(rng))
    gamma_t = _q(gamma_t, _rand_q(rng, nonzero=True))
    t = formal_t()
    checks, notes = [], []
    mu = free_power(subordination(omega, rho_t), ONE / p)

    @cache  # one pair per s within this call
    def make_pair(s):
        return TwoStatePair(
            _thm_b_tilde(rho_t, omega, p, beta_t, gamma_t, s, order),
            free_power(mu, s))

    pair_t = make_pair(t)
    stripped = free_convolve(rho_t.truncate(order - 2),
                             free_power(omega.truncate(order - 2), t / p))
    checks.append(check_eq("J[mu~_t] = rho~ boxplus omega^{boxplus t/p}",
                        strip(pair_t.tilde), stripped))
    chain = monotone_convolve(rho_t, free_power(mu, t))
    full = free_convolve(rho_t, free_power(omega, t / p))
    checks.append(check_eq("rho~ boxplus omega^{t/p} = rho~ |> mu_t",
                        full, chain))
    lhs_phi = voiculescu_phi(rho_t) + voiculescu_phi(omega).scale(
        t / p)
    rhs_phi = voiculescu_phi(chain)
    checks.append(check_eq("phi_{rho~} + (t/p) phi_omega = phi_{rho~ |> mu_t}",
                        lhs_phi, rhs_phi))
    for s, u in ((Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(1, 3)),
                 (Fraction(2), Fraction(1, 2))):
        got = two_state_convolve(make_pair(s), make_pair(u))
        checks.append(check_eq(
            f"semigroup law at rational (s,t) = ({s},{u})",
            got, make_pair(s + u)))
    s = Fraction(1, 2)
    got = two_state_convolve(make_pair(s), pair_t)
    checks.append(check_eq("semigroup law at (s rational, t formal)",
                        got, make_pair(s + t)))
    return checks, notes


def _verify_subord_id_power(order, rng, mu: Functional = None,
                            nu: Functional = None):
    mu = _functional(mu, order, rng)
    nu = _functional(nu, order, rng)
    t = formal_t()
    lhs = free_power(subordination(mu, nu), t)
    rhs = subordination(free_power(mu, t), nu)
    return [check_eq("(mu |> nu)^{boxplus t} = mu^{boxplus t} |> nu",
                     lhs, rhs)], []


def _verify_subord_id_absorb(order, rng, mu: Functional = None,
                             nu_prime: Functional = None):
    mu = _functional(mu, order, rng)
    nu_prime = _functional(nu_prime, order, rng)
    lhs = subordination(mu, free_convolve(mu, nu_prime))
    rhs = bercovici_pata(subordination(mu, nu_prime))
    return [check_eq("mu |> (mu boxplus nu') = B[mu |> nu']", lhs, rhs)], []


def _verify_subord_linear(order, rng, mu: Functional = None,
                          nu: Functional = None, rho: Functional = None,
                          a: Coeff = None):
    mu = _functional(mu, order, rng)
    nu = _functional(nu, order, rng)
    rho = _functional(rho, order, rng)
    a = _q(a, _rand_q(rng))
    sigma = semicircular(0, 1, order)
    checks = [
        check_eq("(mu boxplus nu) |> rho = (mu |> rho) boxplus (nu |> rho)",
                 subordination(free_convolve(mu, nu), rho),
                 free_convolve(subordination(mu, rho),
                               subordination(nu, rho))),
        check_eq("sigma |> mu = B[Phi[mu]]",
                 subordination(sigma, mu),
                 bercovici_pata(phi_map(mu.truncate(order - 2)))),
        check_eq("mu |> delta_0 = mu",
                 subordination(mu, MomentFunctional(order, ())), mu),
        check_eq("mu |> mu = B[mu]",
                 subordination(mu, mu), bercovici_pata(mu)),
        check_eq("delta_a |> mu = delta_a",
                 subordination(point_mass(a, order), mu),
                 point_mass(a, order)),
    ]
    return checks, []


def _verify_meixner_subord(order, rng, b: Coeff = None, c: Coeff = None,
                           beta: Coeff = None, gamma: Coeff = None,
                           beta2: Coeff = None, gamma2: Coeff = None):
    b, c, beta, gamma, beta2, gamma2 = _meixner_params(
        rng, b, c, beta, gamma, beta2, gamma2)
    lhs = subordination(free_meixner(b, c, beta2, gamma2, order),
                        free_meixner(b, c, beta, gamma, order))
    rhs = free_meixner(b + beta, c + gamma, beta2, gamma2, order)
    return [check_eq(
        "mu_{b,c,b',g'} |> mu_{b,c,b,g} = mu_{b+b,c+g,b',g'}", lhs, rhs)], []


def _verify_meixner_monotone(order, rng, b: Coeff = None, c: Coeff = None,
                             beta: Coeff = None, gamma: Coeff = None,
                             beta2: Coeff = None, gamma2: Coeff = None):
    b, c, beta, gamma, beta2, gamma2 = _meixner_params(
        rng, b, c, beta, gamma, beta2, gamma2)
    checks = [
        check_eq("mu_{b,c,b,g} |> mu_{b+b,c+g,b',g'} = mu_{b,c,b+b',g+g'}",
                 monotone_convolve(free_meixner(b, c, beta, gamma, order),
                                   free_meixner(b + beta, c + gamma,
                                                beta2, gamma2, order)),
                 free_meixner(b, c, beta + beta2, gamma + gamma2, order)),
        check_eq("mu_{b,c} |> mu_{b,c+1} = mu_{b,c}^{boxplus 2}",
                 monotone_convolve(free_meixner(b, c, 0, 1, order),
                                   free_meixner(b, c + 1, 0, 1, order)),
                 free_power(free_meixner(b, c, 0, 1, order), 2)),
        check_eq("Bernoulli |> Semicircle = Arcsine",
                 monotone_convolve(bernoulli_sym(order),
                                   semicircular(0, 1, order)),
                 arcsine(1, order)),
    ]
    return checks, []


def _verify_bt_semigroup(order, rng, mu: Functional = None):
    mu = _functional(mu, order, rng)
    t = formal_t()
    s, u = Fraction(1, 2), Fraction(1, 3)
    checks = [
        check_eq("B_1 = B", belinschi_nica(mu, 1), bercovici_pata(mu)),
        check_eq("B_0 = id", belinschi_nica(mu, 0), mu),
        check_eq(f"B_s o B_t = B_(s+t) at rational ({s},{u})",
                 belinschi_nica(belinschi_nica(mu, u), s),
                 belinschi_nica(mu, s + u)),
        check_eq("B_t o B_t = B_2t (formal t)",
                 belinschi_nica(belinschi_nica(mu, t), t),
                 belinschi_nica(mu, t + t)),
        check_eq("B_s o B_t = B_(s+t) (s rational, t formal)",
                 belinschi_nica(belinschi_nica(mu, t), s),
                 belinschi_nica(mu, t + s)),
    ]
    return checks, []


def _verify_prop_equiv_b(order, rng, rho_t: Functional = None,
                         tau: Functional = None):
    rho_t = _functional(rho_t, order, rng)
    tau = _functional(tau, order, rng)
    t = formal_t()
    theta = f_at_infinity(free_power(subordination(tau, rho_t), t))
    lhs = f_at_infinity(free_convolve(rho_t, free_power(tau, t)))
    desc = f_at_infinity(rho_t) - LaurentAtInfinity.ident_z(order - 1)
    rhs = theta + desc.compose_descending(theta)
    return [check_eq(
        "F_{rho~ boxplus tau^t} = F_{rho~} o theta_t, "
        "theta_t = F_{(tau |> rho~)^{boxplus t}}", lhs, rhs)], []


def _verify_general_b(order, rng, b_t: Coeff = None, c_t: Coeff = None,
                      beta: Coeff = None, gamma: Coeff = None,
                      rho: Functional = None):
    b_t = _q(b_t, _rand_q(rng))
    c_t = _q(c_t, _rand_q(rng, nonzero=True))
    beta = _q(beta, _rand_q(rng))
    gamma = _q(gamma, _rand_q(rng, nonzero=True))
    rho = _functional(rho, order - 2, rng)
    rho_t = _delta_bool_phi(b_t, rho, c_t, order)
    p = exact_div(c_t, gamma)
    u = b_t - beta * exact_div(c_t, gamma)
    mu = maassen_semigroup(CanonicalTriple(beta, gamma, rho), 1, order)
    lhs = free_power(
        subordination(free_convolve(point_mass(-u, order), rho_t), rho_t),
        ONE / p)
    return [check_eq(
        "((delta_{-u} boxplus rho~) |> rho~)^{boxplus 1/p} = mu", lhs, mu)], []


def _verify_two_state_meixner(order, rng, b_t: Coeff = None, b: Coeff = None,
                              beta_t: Coeff = None, gamma_t: Coeff = None,
                              beta: Coeff = None, c_t: Coeff = None,
                              c: Coeff = None, gamma: Coeff = None,
                              t: Coeff = None):
    b_t = _q(b_t, _rand_q(rng))
    b = _q(b, _rand_q(rng))
    beta_t = _q(beta_t, _rand_q(rng))
    gamma_t = _q(gamma_t, _rand_q(rng, nonzero=True))
    beta = _q(beta, _rand_q(rng))
    while True:
        # redraw until the displays' Jacobi rows are nonzero for extraction
        ct, cc, g, tt = (_q(c_t, _rand_q(rng, nonzero=True)),
                         _q(c, _rand_q(rng, nonzero=True)),
                         _q(gamma, _rand_q(rng, nonzero=True)),
                         _q(t, Fraction(rng.randint(1, 4), rng.randint(1, 3))))
        if ct + g * tt != 0 and cc + g * tt != 0 and g + cc - ct != 0:
            break
        if any(v is not None for v in (c_t, c, gamma, t)):
            raise ValueError("supplied parameters give degenerate Jacobi rows")
    c_t, c, gamma, t = ct, cc, g, tt
    checks, notes = [], []
    rho = semicircular(b, c, order - 2)       # constant rows (b..; c..)
    rho_t = free_meixner(b - b_t, c - c_t, b_t, c_t, order)
    rel = CanonicalTriple(beta_t, gamma_t, rho_t.truncate(order - 2))
    base = CanonicalTriple(beta, gamma, rho)
    pair = two_state_semigroup(rel, base, t, order)
    depth = order // 2

    def jrows(head_b, head_g, tail_b, tail_g, extra_b=None, extra_g=None):
        betas = [head_b] + ([extra_b] if extra_b is not None else [])
        gammas = [head_g] + ([extra_g] if extra_g is not None else [])
        return JacobiParams(betas, gammas, repeat=(tail_b, tail_g))

    j_tilde = jacobi_from_moments(pair.tilde, depth)
    expect_tilde = jrows(beta_t * t, gamma_t * t, b + beta * t, c + gamma * t,
                         extra_b=b_t + beta * t, extra_g=c_t + gamma * t)
    checks.append(check_eq("J(mu~_t) rows", j_tilde, expect_tilde))
    j_base = jacobi_from_moments(pair.base, depth)
    checks.append(check_eq(
        "J(mu_t) rows",
        j_base, jrows(beta * t, gamma * t, b + beta * t, c + gamma * t)))
    j_stripped = jacobi_from_moments(strip(pair.tilde), (order - 2) // 2)
    checks.append(check_eq(
        "J(J[mu~_t]) rows",
        j_stripped, jrows(b_t + beta * t, c_t + gamma * t,
                          b + beta * t, c + gamma * t)))
    u = b_t - beta * exact_div(c_t, gamma)
    omega = free_convolve(point_mass(-u, order), rho_t)
    checks.append(check_eq(
        "J(omega) rows",
        jacobi_from_moments(omega, depth),
        jrows(beta * exact_div(c_t, gamma),
              c_t, beta * exact_div(c_t, gamma) + b - b_t, c)))
    tau = free_power(omega, exact_div(gamma, c_t))
    checks.append(check_eq(
        "J(tau) rows",
        jacobi_from_moments(tau, depth),
        jrows(beta, gamma, beta + b - b_t, gamma + c - c_t)))
    checks.append(check_eq(
        "J[mu~_t] = rho~ boxplus omega^{boxplus (gamma/c~) t}",
        strip(pair.tilde),
        free_convolve(rho_t, free_power(omega, exact_div(gamma, c_t) * t))
        .truncate(order - 2)))
    return checks, notes


def _verify_counterexample_r(order, rng):
    eps = formal_t()  # the one parameter of Q[t], here read as eps
    moments = [eps ** n if n % 2 == 0 else ZERO for n in range(1, order + 1)]
    two_point = MomentFunctional(order, moments)
    kappa = r_from_moments(two_point)
    # reference: R(z) = (sqrt(1 + 4 eps^2 z^2) - 1)/(2z)
    #   = sum_{k>=1} binom(1/2, k) 4^k eps^{2k} z^{2k-1} / 2,
    # so the series R^tau(z) = z R(z) has kappa_{2k} = binom(1/2,k) 4^k eps^{2k}/2
    expected = [ZERO] * (order + 1)
    binom = Fraction(1, 2)  # binom(1/2, 1)
    k = 1
    while 2 * k <= order:
        expected[2 * k] = (eps ** (2 * k)) * (binom * Fraction(4 ** k, 2))
        binom = binom * (Fraction(1, 2) - k) / (k + 1)
        k += 1
    checks = [check_eq(
        "series of 2 eps^2 z / (sqrt(1 + 4 eps^2 z^2) + 1) = "
        "free cumulant series of (delta_-eps + delta_eps)/2",
        kappa, TruncSeries(order, expected))]
    return checks, []


def _verify_pde(order, rng, beta_t: Coeff = None, gamma_t: Coeff = None,
                rho_t: Functional = None, beta: Coeff = None,
                gamma: Coeff = None, rho: Functional = None):
    rel, base = _triples(rng, order + 2, beta_t, gamma_t, rho_t,
                         beta, gamma, rho)
    res1, res2 = pde_residual(rel, base, order)
    return [
        check_zero("d_t F~ equation residual = 0", res1),
        check_zero("d_t F equation residual = 0", res2),
    ], []


def _verify_generator(order, rng, beta_t: Coeff = None, gamma_t: Coeff = None,
                      rho_t: Functional = None, beta: Coeff = None,
                      gamma: Coeff = None, rho: Functional = None):
    rel, base = _triples(rng, order + 4, beta_t, gamma_t, rho_t,
                         beta, gamma, rho)
    res = cauchy_evolution_residual(rel, base, order)
    res_printed = cauchy_evolution_residual(rel, base, order, printed_sign=True)
    notes = [
        "d_t G~ bracket resolved as (beta + gamma G_nu - beta~ - gamma~ G_nu~):"
        " residual vanishes identically;",
        "the printed variant (beta + gamma G_nu - beta~ + gamma~ G_nu~) "
        "leaves a nonzero residual, as reported below.",
    ]
    return [
        check_zero("d_t G~ residual (corrected sign) = 0", res),
        Check("d_t G~ residual (printed sign) != 0",
              not res_printed.is_zero()),
    ], notes


CATALOG = {
    "free-evolution": (_verify_free_evolution, 10),
    "bn-mean": (_verify_bn_mean, 10),
    "monotone-lemma": (_verify_monotone_lemma, 10),
    "thm-b": (_verify_thm_b, 10),
    "subord-id-power": (_verify_subord_id_power, 10),
    "subord-id-absorb": (_verify_subord_id_absorb, 10),
    "subord-linear": (_verify_subord_linear, 10),
    "meixner-subord": (_verify_meixner_subord, 12),
    "meixner-monotone": (_verify_meixner_monotone, 12),
    "bt-semigroup": (_verify_bt_semigroup, 8),
    "prop-equiv-b": (_verify_prop_equiv_b, 10),
    "general-b": (_verify_general_b, 10),
    "two-state-meixner": (_verify_two_state_meixner, 12),
    "counterexample-r": (_verify_counterexample_r, 10),
    "pde": (_verify_pde, 8),
    "generator": (_verify_generator, 8),
}


# The lowest order at which every check of an entry compares a coefficient
# that each input of the check reaches, as at the default order, and that the
# operation under test changes; below it a check compares too little to tell
# a wrong identity from a right one, or cannot be built.
MIN_ORDER = {
    "free-evolution": 4, "bn-mean": 3, "monotone-lemma": 5, "thm-b": 3,
    "subord-id-power": 3, "subord-id-absorb": 3, "subord-linear": 3,
    "meixner-subord": 4, "meixner-monotone": 4,
    "bt-semigroup": 3,  # every B_t fixes m_1 and m_2
    "prop-equiv-b": 3,  # tau |> rho~ and tau share kappa_1 and kappa_2
    "general-b": 3, "two-state-meixner": 6,
    "counterexample-r": 4,  # the first cumulant past eps^2 z
    "pde": 4, "generator": 6,
}


def entry_params(fn):
    """Each parameter after order and rng -> the class (or union of classes)
    its value must be."""
    params = list(inspect.signature(fn, eval_str=True).parameters.values())
    return {p.name: object if p.annotation is p.empty else p.annotation
            for p in params[2:]}


def class_names(cls):
    """The classes an entry parameter's annotation ``cls`` admits, by name."""
    return " or ".join(c.__name__ for c in get_args(cls) or (cls,))


def _entry_order(kind, catalog, min_order, name, order, high=None, params=()):
    """The order a catalog entry runs at: its default when ``order`` is None.
    Raises ValueError for an unknown entry, a parameter it does not take or
    not of the class it needs, or an order outside min_order[name]..high."""
    try:
        (fn, default_order), low = catalog[name], min_order[name]
    except KeyError:
        raise ValueError(f"unknown {kind} entry {name!r}; "
                         f"choose from {sorted(catalog)}") from None
    takes = entry_params(fn)
    for key in params:
        if key not in takes:
            raise ValueError(f"{kind} entry {name!r} takes no parameter {key}; "
                             f"it takes {', '.join(takes) or 'none'}")
        if not isinstance(params[key], takes[key]):
            raise ValueError(f"{kind} entry {name!r}: parameter {key}: want "
                             f"{class_names(takes[key])}")
    if order is None:
        return default_order
    if order < low or (high is not None and order > high):
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{kind} entry {name!r} needs an order {span}, "
                         f"got {order}")
    return order


def _run_entry(kind, catalog, name, order, params, seed):
    """The checks and notes of a catalog entry run with ``params``."""
    try:
        return catalog[name][0](order, random.Random(seed), **params)
    except _BadParameter as e:
        value, problem = e.args
        keys = [k for k, v in params.items() if v is value]
        which = keys[0] if len(keys) == 1 else f"value {value!r}"
        raise ValueError(f"{kind} entry {name!r}: parameter {which}: "
                         f"{problem}") from None


def verify_order(name, order=None, params=()):
    """The order ``verify(name, params, order)`` runs at, or ValueError."""
    return _entry_order("verify", CATALOG, MIN_ORDER, name, order, params=params)


def verify(name, params=None, order=None, seed=0):
    """Check a named identity exactly at the given truncation order."""
    params = dict(params or {})
    order = verify_order(name, order, params)
    return VerifyReport(name, order, *_run_entry("verify", CATALOG, name,
                                                 order, params, seed))


def verify_all(order=None, seed=0):
    """Run every catalog entry, after checking the order against each one."""
    for name in CATALOG:
        verify_order(name, order)
    return [verify(name, order=order, seed=seed) for name in CATALOG]
