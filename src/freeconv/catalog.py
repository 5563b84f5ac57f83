"""The verify catalogs: the paper's identities as exact checks.

An entry of CATALOG, or of the word layer's NC_CATALOG as ``nc:<entry>``,
draws each parameter it is not given from a seeded rng and compares both
sides of its identities coefficient by coefficient, over Q[t] for a
statement "for all t >= 0".  It calls strip, Phi and the two-state
semigroup through the ``_CrossChecks`` it is handed, whose second paths end
its report as checks marked ``cross_check``: the operators only compute.
One runner, ``verify_runs``, owns every verify run: it validates, routes
parameters, holds a word-layer entry to the size rule ``nc_max_order`` and
notes what it changed.  ``verify`` is its one-name case.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import get_args

from .coeffs import (ExactDivisionError, TPoly, ZERO, ONE, all_digits,
                     as_coeff, exact_div, formal_t)
from .convolutions import (boolean_convolve, boolean_power, free_convolve,
                           free_power, monotone_convolve, two_state_convolve)
from .docs import MAX_ORDER
from .evolution import (_triple_r_series, belinschi_nica, bercovici_pata,
                        cauchy_evolution_residual, maassen_semigroup,
                        pde_residual, phi_map, strip, subordination,
                        subordination_inverse, two_state_semigroup)
from .functionals import (FAMILIES, CanonicalTriple, JacobiParams,
                          MomentFunctional, NoJacobiRepresentationError,
                          TwoStatePair, arcsine, bernoulli_sym, family,
                          free_meixner, jacobi_from_moments,
                          moments_from_jacobi, point_mass, semicircular)
from .multivariate import (NCFunctional, _composition_product,
                           nc_boolean_convolve, nc_boolean_power,
                           nc_free_convolve, nc_free_power, nc_from_univariate,
                           nc_phi, nc_point_mass, nc_subordination,
                           nc_subordination_inverse, nc_tilde_from_two_state_r,
                           nc_to_univariate, words)
from .series import LaurentAtInfinity, TruncSeries
from .transforms import (f_at_infinity, moments_from_eta, r_from_moments,
                         tilde_from_two_state_r, voiculescu_phi)


# -- checks and reports -------------------------------------------------------


@dataclass
class Check:
    label: str
    ok: bool
    detail: str = ""
    # a comparison of two independent paths of one operator, whose failure
    # is an internal inconsistency rather than a violated identity
    cross_check: bool = False


def _order(value):
    """The truncation order a compared value carries; None for Jacobi rows."""
    if isinstance(value, LaurentAtInfinity):
        return value.tail_order
    return getattr(value, "order", None)


def _first_difference(lhs, rhs):
    """Human-readable locator of the first disagreeing coefficient, or both
    orders when every coefficient the two carry in common agrees."""
    if type(lhs) is not type(rhs) or _order(lhs) is None:
        return f"{lhs!r} != {rhs!r}"
    n = min(_order(lhs), _order(rhs))
    if isinstance(lhs, TwoStatePair):
        for part in ("tilde", "base"):
            a, b = getattr(lhs, part), getattr(rhs, part)
            if a != b:
                return f"{part}: {_first_difference(a, b)}"
        pairs = ()
    elif isinstance(lhs, MomentFunctional):
        pairs = ((f"m_{k}", lhs.m(k), rhs.m(k)) for k in range(1, n + 1))
    elif isinstance(lhs, LaurentAtInfinity):
        pairs = ((f"[z^{-k}]", lhs.coeff(k), rhs.coeff(k))
                 for k in range(-1, n + 1))
    elif isinstance(lhs, NCFunctional):
        if lhs.d != rhs.d:
            return f"d: {lhs.d} != {rhs.d}"
        # shortest first; words of one length sort by rank as tuples
        pairs = ((f"m_{w}", lhs.m(w), rhs.m(w)) for w in sorted(
            lhs._upto(n).keys() | rhs._upto(n).keys(),
            key=lambda w: (len(w), w)))
    else:
        pairs = ((f"[z^{k}]", lhs.coeff(k), rhs.coeff(k))
                 for k in range(n + 1))
    for where, a, b in pairs:
        if not (a == b):
            return f"{where}: {a!r} != {b!r}"
    return f"orders differ: {_order(lhs)} != {_order(rhs)}"


def check_eq(label, lhs, rhs):
    """A Check comparing two values exactly, with the residual on failure.
    Values that carry truncation orders must carry the same one: == reads
    only the coefficients both carry."""
    if lhs == rhs and _order(lhs) == _order(rhs):
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


# Short names a family may be given by, as in ``--param rho=bernoulli``.
FAMILY_ALIASES = {"bernoulli": "bernoulli_sym", "semicircle": "semicircular"}


def _functional(value, order, rng):
    """A supplied functional at ``order``, or one drawn from ``rng``; a
    family is named in full or by its alias."""
    if value is None:
        return MomentFunctional(order, [_rand_q(rng, 2) for _ in range(order)])
    if isinstance(value, JacobiParams):
        value = moments_from_jacobi(value, order)
    if isinstance(value, MomentFunctional) and value.order >= order:
        return value.truncate(order)
    if isinstance(value, str):
        value = FAMILY_ALIASES.get(value, value)
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


# -- cross-checks: the operators' second paths --------------------------------


def _jacobi_rows(mf):
    """The Jacobi rows of ``mf`` at every level it decides, read by the
    Chebyshev algorithm, which shares no solve kernel with the transform
    paths; None where they are not over Q[t]."""
    try:
        return jacobi_from_moments(mf, mf.order // 2)
    except (NoJacobiRepresentationError, ExactDivisionError):
        return None


# The Jacobi shift of each operator: Phi inserts the row (0; 1), J drops the
# first row.
_SHIFTS = {
    "Phi": ("rows of Phi[nu] = (0; 1) then the rows of nu",
            lambda jp: ((ZERO,) + jp.betas, (ONE,) + jp.gammas)),
    "J": ("rows of J[mu] = the rows of mu after the first",
          lambda jp: (jp.betas[1:], jp.gammas[1:])),
}


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


def _monotone_check(rel, tilde, base_t, t):
    """(check, sub): ``tilde`` against the Boolean/monotone formula on the
    base mu_t = ``base_t``, and sub = rho~ |> mu_t (``_tilde_by_monotone``)."""
    by_monotone, sub = _tilde_by_monotone(rel, base_t, t)
    return check_eq("mu~_t = delta_{b~t} uplus Phi[rho~ |> mu_t]^{uplus g~t}",
                    tilde, by_monotone), sub


class _CrossChecks:
    """The second paths of the operators one entry calls through it.

    Each two-state semigroup is checked against the Boolean/monotone formula
    when it is built.  Each strip and Phi is kept with its input, and
    ``report`` checks them against the Jacobi shift: one check per operator
    over the inputs whose rows are over Q[t], and a note counting the rest.
    """

    def __init__(self):
        self.checks = []
        self.seen = {op: [] for op in _SHIFTS}

    def phi_map(self, nu):
        out = phi_map(nu)
        self.seen["Phi"].append((nu, out))
        return out

    def strip(self, mu):
        out = strip(mu)
        self.seen["J"].append((mu, out))
        return out

    def two_state_semigroup(self, rel, base, t, order):
        pair = two_state_semigroup(rel, base, t, order)
        check, _ = _monotone_check(rel, pair.tilde, pair.base, t)
        self.checks.append(replace(check, cross_check=True))
        return pair

    def report(self, checks, notes=()):
        """(checks, notes) of the entry: its own, then the cross-checks and
        the notes of the Jacobi reads that could not run."""
        checks, notes = checks + self.checks, list(notes)
        for op, seen in self.seen.items():
            label, shift = _SHIFTS[op]
            ran, wrong = 0, []
            for i, (mf, out) in enumerate(seen, 1):
                jp = _jacobi_rows(mf)
                if jp is None:
                    continue
                ran += 1
                if _jacobi_rows(out) != JacobiParams(
                        *shift(jp), terminated=jp.terminated):
                    wrong.append(str(i))
            n = len(seen)
            if ran:
                checks.append(Check(
                    f"Jacobi shift: {label} ({ran} of {n} inputs)", not wrong,
                    f"{op}: transform and Jacobi paths disagree on input "
                    f"{', '.join(wrong)} of {n}" if wrong else "",
                    cross_check=True))
            if ran < n:
                notes.append(f"{op}: Jacobi-shift cross-check skipped on "
                             f"{n - ran} of {n} inputs, whose Jacobi rows "
                             f"are not over Q[t]")
        return checks, notes


def _delta_bool_phi(cross, beta_c, inner, gamma_c, order):
    """delta_{beta_c} uplus Phi[inner]^{uplus gamma_c} at the given order."""
    lifted = cross.phi_map(inner)  # order inner.order + 2
    return boolean_convolve(point_mass(beta_c, order),
                            boolean_power(lifted.truncate(order), gamma_c))


def _verify_free_evolution(order, rng, cross, beta: Coeff = None,
                           gamma: NonzeroCoeff = None, rho: Functional = None,
                           beta0: Coeff = None):
    beta = _q(beta, _rand_q(rng))
    gamma = _q(gamma, _rand_q(rng, nonzero=True))
    rho = _functional(rho, order - 2, rng)
    t = formal_t()
    checks = []
    triple = CanonicalTriple(beta, gamma, rho)
    mu_t = maassen_semigroup(triple, t, order)
    inner = free_convolve(rho, free_power(semicircular(beta, gamma, order - 2), t))
    display = _delta_bool_phi(cross, beta * t, inner, gamma * t, order)
    checks.append(check_eq(
        "mu_t = delta_{bt} uplus Phi[rho boxplus sigma_{b,g}^t]^{uplus gt}",
        mu_t, display))
    checks.append(check_eq("J[mu_t] = rho boxplus sigma_{b,g}^{boxplus t}",
                        cross.strip(mu_t), inner))
    beta0 = _q(beta0, _rand_q(rng))
    mu0_t = maassen_semigroup(CanonicalTriple(beta0, ZERO, None), t, order)
    checks.append(check_eq("gamma = 0 branch: mu_t = delta_{beta t}",
                        mu0_t, point_mass(beta0 * t, order)))
    return checks, []


def _verify_bn_mean(order, rng, cross, beta: Coeff = None,
                    gamma: Coeff = None, rho: Functional = None):
    beta = _q(beta, _rand_q(rng))
    gamma = _q(gamma, _rand_q(rng, nonzero=True))
    rho = _functional(rho, order - 2, rng)
    t = formal_t()
    checks = []
    start = _delta_bool_phi(cross, beta, rho, gamma, order)
    lhs = belinschi_nica(start, t)
    inner = free_convolve(
        free_convolve(rho, point_mass(beta * t, order - 2)),
        free_power(semicircular(0, 1, order - 2), gamma * t))
    rhs = _delta_bool_phi(cross, beta, inner, gamma, order)
    checks.append(check_eq(
        "B_t[delta_b uplus Phi[rho]^{uplus g}] = "
        "delta_b uplus Phi[rho boxplus delta_{bt} boxplus sigma^{gt}]^{uplus g}",
        lhs, rhs))
    checks.append(check_eq("gamma = 0 branch: B_t[delta_b] = delta_b",
                        belinschi_nica(point_mass(beta, order), t),
                        point_mass(beta, order)))
    return checks, []


def _verify_monotone_lemma(order, rng, cross, beta_t: Coeff = None,
                           gamma_t: NonzeroCoeff = None,
                           rho_t: Functional = None, beta: Coeff = None,
                           gamma: NonzeroCoeff = None, rho: Functional = None):
    rel, base = _triples(rng, order - 2, beta_t, gamma_t, rho_t,
                         beta, gamma, rho)
    t = formal_t()
    base_t = maassen_semigroup(base, t, order)
    tilde_r = tilde_from_two_state_r(_triple_r_series(rel, t, order), base_t)
    lemma, sub = _monotone_check(rel, tilde_r, base_t, t)
    checks = [lemma, check_eq("J[mu~_t] = rho~ |> mu_t (gamma~ != 0)",
                              cross.strip(tilde_r), sub)]
    return checks, []


def _thm_b_tilde(cross, rho_t, omega, p, beta_t, gamma_t, s, order):
    """mu~_s = delta_{b~s} uplus Phi[rho~ boxplus omega^{boxplus s/p}]^{uplus g~s}."""
    inner = free_convolve(rho_t.truncate(order - 2),
                          free_power(omega.truncate(order - 2), s / p))
    return _delta_bool_phi(cross, beta_t * s, inner, gamma_t * s, order)


def _verify_thm_b(order, rng, cross, omega: Functional = None,
                  rho_t: Functional = None, p: NonzeroCoeff = None,
                  beta_t: Coeff = None, gamma_t: NonzeroCoeff = None):
    omega = _functional(omega, order, rng)
    rho_t = _functional(rho_t, order, rng)
    p = _q(p, Fraction(rng.randint(1, 3), rng.randint(1, 2)))
    beta_t = _q(beta_t, _rand_q(rng))
    gamma_t = _q(gamma_t, _rand_q(rng, nonzero=True))
    t = formal_t()
    checks = []
    mu = free_power(subordination(omega, rho_t), ONE / p)

    @cache  # one pair per s within this call
    def make_pair(s):
        return TwoStatePair(
            _thm_b_tilde(cross, rho_t, omega, p, beta_t, gamma_t, s, order),
            free_power(mu, s))

    pair_t = make_pair(t)
    full = free_convolve(rho_t, free_power(omega, t / p))
    checks.append(check_eq("J[mu~_t] = rho~ boxplus omega^{boxplus t/p}",
                        cross.strip(pair_t.tilde), full.truncate(order - 2)))
    chain = monotone_convolve(rho_t, pair_t.base)
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
    return checks, []


def _verify_subord_id_power(order, rng, cross, mu: Functional = None,
                            nu: Functional = None):
    mu = _functional(mu, order, rng)
    nu = _functional(nu, order, rng)
    t = formal_t()
    lhs = free_power(subordination(mu, nu), t)
    rhs = subordination(free_power(mu, t), nu)
    return [check_eq("(mu |> nu)^{boxplus t} = mu^{boxplus t} |> nu",
                     lhs, rhs)], []


def _verify_subord_id_absorb(order, rng, cross, mu: Functional = None,
                             nu_prime: Functional = None):
    mu = _functional(mu, order, rng)
    nu_prime = _functional(nu_prime, order, rng)
    lhs = subordination(mu, free_convolve(mu, nu_prime))
    rhs = bercovici_pata(subordination(mu, nu_prime))
    return [check_eq("mu |> (mu boxplus nu') = B[mu |> nu']", lhs, rhs)], []


def _verify_subord_linear(order, rng, cross, mu: Functional = None,
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
                 bercovici_pata(cross.phi_map(mu.truncate(order - 2)))),
        check_eq("mu |> delta_0 = mu",
                 subordination(mu, MomentFunctional(order, ())), mu),
        check_eq("mu |> mu = B[mu]",
                 subordination(mu, mu), bercovici_pata(mu)),
        check_eq("delta_a |> mu = delta_a",
                 subordination(point_mass(a, order), mu),
                 point_mass(a, order)),
    ]
    return checks, []


def _verify_meixner_subord(order, rng, cross, b: Coeff = None,
                           c: Coeff = None, beta: Coeff = None,
                           gamma: Coeff = None, beta2: Coeff = None,
                           gamma2: Coeff = None):
    b, c, beta, gamma, beta2, gamma2 = _meixner_params(
        rng, b, c, beta, gamma, beta2, gamma2)
    lhs = subordination(free_meixner(b, c, beta2, gamma2, order),
                        free_meixner(b, c, beta, gamma, order))
    rhs = free_meixner(b + beta, c + gamma, beta2, gamma2, order)
    return [check_eq(
        "mu_{b,c,b',g'} |> mu_{b,c,b,g} = mu_{b+b,c+g,b',g'}", lhs, rhs)], []


def _verify_meixner_monotone(order, rng, cross, b: Coeff = None,
                             c: Coeff = None, beta: Coeff = None,
                             gamma: Coeff = None, beta2: Coeff = None,
                             gamma2: Coeff = None):
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


def _verify_bt_semigroup(order, rng, cross, mu: Functional = None):
    mu = _functional(mu, order, rng)
    t = formal_t()
    s, u = Fraction(1, 2), Fraction(1, 3)
    bt = belinschi_nica(mu, t)
    checks = [
        check_eq("B_1 = B", belinschi_nica(mu, 1), bercovici_pata(mu)),
        check_eq("B_0 = id", belinschi_nica(mu, 0), mu),
        check_eq(f"B_s o B_t = B_(s+t) at rational ({s},{u})",
                 belinschi_nica(belinschi_nica(mu, u), s),
                 belinschi_nica(mu, s + u)),
        check_eq("B_t o B_t = B_2t (formal t)",
                 belinschi_nica(bt, t),
                 belinschi_nica(mu, t + t)),
        check_eq("B_s o B_t = B_(s+t) (s rational, t formal)",
                 belinschi_nica(bt, s),
                 belinschi_nica(mu, t + s)),
    ]
    return checks, []


def _verify_prop_equiv_b(order, rng, cross, rho_t: Functional = None,
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


def _verify_general_b(order, rng, cross, b_t: Coeff = None,
                      c_t: NonzeroCoeff = None, beta: Coeff = None,
                      gamma: NonzeroCoeff = None, rho: Functional = None):
    b_t = _q(b_t, _rand_q(rng))
    c_t = _q(c_t, _rand_q(rng, nonzero=True))
    beta = _q(beta, _rand_q(rng))
    gamma = _q(gamma, _rand_q(rng, nonzero=True))
    rho = _functional(rho, order - 2, rng)
    rho_t = _delta_bool_phi(cross, b_t, rho, c_t, order)
    p = exact_div(c_t, gamma)
    u = b_t - beta * p
    mu = maassen_semigroup(CanonicalTriple(beta, gamma, rho), 1, order)
    lhs = free_power(
        subordination(free_convolve(point_mass(-u, order), rho_t), rho_t),
        ONE / p)
    return [check_eq(
        "((delta_{-u} boxplus rho~) |> rho~)^{boxplus 1/p} = mu", lhs, mu)], []


def _verify_two_state_meixner(order, rng, cross, b_t: Coeff = None,
                              b: Coeff = None, beta_t: Coeff = None,
                              gamma_t: NonzeroCoeff = None,
                              beta: Coeff = None, c_t: NonzeroCoeff = None,
                              c: NonzeroCoeff = None,
                              gamma: NonzeroCoeff = None,
                              t: NonzeroCoeff = None):
    b_t = _q(b_t, _rand_q(rng))
    b = _q(b, _rand_q(rng))
    beta_t = _q(beta_t, _rand_q(rng))
    gamma_t = _q(gamma_t, _rand_q(rng, nonzero=True))
    beta = _q(beta, _rand_q(rng))
    while True:
        # redraw what is not supplied until every gamma row of the displays
        # is nonzero; a zero row of supplied values alone stays zero
        ct, cc, g, tt = (_q(c_t, _rand_q(rng, nonzero=True)),
                         _q(c, _rand_q(rng, nonzero=True)),
                         _q(gamma, _rand_q(rng, nonzero=True)),
                         _q(t, Fraction(rng.randint(1, 4), rng.randint(1, 3))))
        zero = [given for row, given in (
            (ct + g * tt, (c_t, gamma, t)), (cc + g * tt, (c, gamma, t)),
            (g + cc - ct, (gamma, c, c_t)))
            if not row]
        if not zero:
            break
        if any(all(v is not None for v in given) for given in zero):
            raise ValueError("supplied parameters give degenerate Jacobi rows")
    c_t, c, gamma, t = ct, cc, g, tt
    checks = []
    rho = semicircular(b, c, order - 2)       # constant rows (b..; c..)
    rho_t = free_meixner(b - b_t, c - c_t, b_t, c_t, order)
    rel = CanonicalTriple(beta_t, gamma_t, rho_t.truncate(order - 2))
    base = CanonicalTriple(beta, gamma, rho)
    pair = cross.two_state_semigroup(rel, base, t, order)
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
    stripped = cross.strip(pair.tilde)
    j_stripped = jacobi_from_moments(stripped, (order - 2) // 2)
    checks.append(check_eq(
        "J(J[mu~_t]) rows",
        j_stripped, jrows(b_t + beta * t, c_t + gamma * t,
                          b + beta * t, c + gamma * t)))
    shift = beta * exact_div(c_t, gamma)
    u = b_t - shift
    omega = free_convolve(point_mass(-u, order), rho_t)
    checks.append(check_eq(
        "J(omega) rows", jacobi_from_moments(omega, depth),
        jrows(shift, c_t, shift + b - b_t, c)))
    tau = free_power(omega, exact_div(gamma, c_t))
    checks.append(check_eq(
        "J(tau) rows",
        jacobi_from_moments(tau, depth),
        jrows(beta, gamma, beta + b - b_t, gamma + c - c_t)))
    checks.append(check_eq(
        "J[mu~_t] = rho~ boxplus omega^{boxplus (gamma/c~) t}",
        stripped,
        free_convolve(rho_t, free_power(omega, exact_div(gamma, c_t) * t))
        .truncate(order - 2)))
    return checks, []


def _verify_counterexample_r(order, rng, cross):
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


def _verify_pde(order, rng, cross, beta_t: Coeff = None,
                gamma_t: NonzeroCoeff = None, rho_t: Functional = None,
                beta: Coeff = None, gamma: NonzeroCoeff = None,
                rho: Functional = None):
    rel, base = _triples(rng, order + 2, beta_t, gamma_t, rho_t,
                         beta, gamma, rho)
    pair_t = cross.two_state_semigroup(rel, base, formal_t(), order + 2)
    res1, res2 = pde_residual(rel, base, order, pair_t)
    return [
        check_zero("d_t F~ equation residual = 0", res1),
        check_zero("d_t F equation residual = 0", res2),
    ], []


def _verify_generator(order, rng, cross, beta_t: Coeff = None,
                      gamma_t: NonzeroCoeff = None, rho_t: Functional = None,
                      beta: Coeff = None, gamma: NonzeroCoeff = None,
                      rho: Functional = None):
    rel, base = _triples(rng, order + 4, beta_t, gamma_t, rho_t,
                         beta, gamma, rho)
    pair_t = cross.two_state_semigroup(rel, base, formal_t(), order + 4)
    stripped = TwoStatePair(cross.strip(pair_t.tilde), cross.strip(pair_t.base))
    res, res_printed = cauchy_evolution_residual(rel, base, order, pair_t,
                                                 stripped)
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


# entry function -> its entry_params, read-only: a function's signature
# does not change, so its annotations are evaluated once per process
_ENTRY_PARAMS = {}


def entry_params(fn):
    """Each parameter after order, rng and cross -> the class (or union of
    classes) its value must be, as a read-only mapping."""
    takes = _ENTRY_PARAMS.get(fn)
    if takes is None:
        params = list(inspect.signature(fn, eval_str=True).parameters.values())
        takes = _ENTRY_PARAMS[fn] = MappingProxyType({
            p.name: object if p.annotation is p.empty else p.annotation
            for p in params[3:]})
    return takes


def class_names(cls):
    """The classes an entry parameter's annotation ``cls`` admits, by name."""
    return " or ".join(c.__name__ for c in get_args(cls) or (cls,))


# -- the word layer's catalog -------------------------------------------------


def _nc_functional(value, rng, d, order):
    """A supplied word functional over 1..d of order >= ``order``, truncated
    to it, or one drawn from ``rng`` when None."""
    if value is None:
        return NCFunctional(d, order, {
            w: Fraction(rng.randint(-2, 2), rng.randint(1, 2))
            for w in words(d, order)})
    if value.d != d or value.order < order:
        raise _BadParameter(value, f"want a word functional over 1..{d} of "
                                   f"order >= {order}, got d = {value.d} and "
                                   f"order {value.order}")
    return value.truncate(order)


def _nc_verify_composition(order, rng, cross, d=2, mu: NCFunctional = None,
                           nu: NCFunctional = None):
    mu = _nc_functional(mu, rng, d, order)
    nu = _nc_functional(nu, rng, d, order)
    lam = nc_subordination(mu, nu)
    lhs = nc_free_convolve(mu, nu)
    rhs = _composition_product(lam, nu)
    checks = [
        check_eq("1 + M^{mu boxplus nu} = "
                 "(1 + M^{mu|>nu})(1 + M^nu(z_i(1+M^{mu|>nu})))", lhs, rhs),
        check_eq("mu |> nu inverts: subordination_inverse recovers mu",
                 nc_subordination_inverse(lam, nu), mu),
    ]
    return checks, []


def _nc_verify_final_prop(order, rng, cross, d=2, rho_t: NCFunctional = None,
                          tau: NCFunctional = None, beta_t: list = None,
                          gamma_t: Coeff = None):
    rho_t = _nc_functional(rho_t, rng, d, order)
    tau = _nc_functional(tau, rng, d, order)
    if beta_t is None:
        beta_t = [Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                  for _ in range(d)]
    elif len(beta_t) != d:
        raise _BadParameter(beta_t, f"want a list of {d} rationals")
    gamma_t = _q(gamma_t, Fraction(rng.randint(1, 3), rng.randint(1, 2)))
    t = formal_t()
    mu = nc_subordination(tau, rho_t)
    mu_t = nc_free_power(mu, t)
    # two-state R: R~ = t beta~.z + t gamma~ sum_i z_i (1+M^{rho~}) z_i
    r2, gt = {}, gamma_t * t
    inner_r2 = [(w, gt * c) for w, c in rho_t.truncate(order - 2).items()]
    for i in range(1, d + 1):
        r2[(i,)] = as_coeff(beta_t[i - 1]) * t
        r2[(i, i)] = gt
        for w, c in inner_r2:
            r2[(i,) + w + (i,)] = c
    tilde = nc_tilde_from_two_state_r(r2, mu_t)
    inner = nc_free_convolve(rho_t.truncate(order - 2),
                             nc_free_power(tau, t).truncate(order - 2))
    rhs = nc_boolean_convolve(
        nc_point_mass([as_coeff(x) * t for x in beta_t], d, order),
        nc_boolean_power(nc_phi(inner).truncate(order), gt))
    checks = [check_eq(
        "mu~_t = delta_{t beta~} uplus "
        "Phi[rho~ boxplus tau^{boxplus t}]^{uplus gamma~ t}", tilde, rhs)]
    return checks, []


def _nc_verify_recover_tau(order, rng, cross, b_t: Coeff = Fraction(1, 2),
                           c_t: Coeff = Fraction(2), b: Coeff = Fraction(-1),
                           c: Coeff = Fraction(1), beta_t: Coeff = Fraction(1),
                           gamma_t: NonzeroCoeff = Fraction(3, 2),
                           beta: Coeff = Fraction(1, 3),
                           gamma: NonzeroCoeff = Fraction(2),
                           t: NonzeroCoeff = Fraction(1)):
    # d = 1 reduction: recover tau from a two-state free Meixner semigroup and
    # reproduce its Jacobi display, cross-checked against the single-variable path.
    b_t, c_t, b, c, beta_t, gamma_t, beta, gamma, t = (
        _q(v, None) for v in (b_t, c_t, b, c, beta_t, gamma_t, beta, gamma, t))
    rho = semicircular(b, c, order - 2)
    rho_t = free_meixner(b - b_t, c - c_t, b_t, c_t, order)
    rel = CanonicalTriple(beta_t, gamma_t, rho_t.truncate(order - 2))
    base = CanonicalTriple(beta, gamma, rho)
    pair = cross.two_state_semigroup(rel, base, t, order)
    mu = maassen_semigroup(base, 1, order)
    tau_nc = nc_subordination_inverse(nc_from_univariate(mu),
                                      nc_from_univariate(rho_t))
    tau = nc_to_univariate(tau_nc)
    tau_sv = subordination_inverse(mu, rho_t)
    expect = JacobiParams((beta,), (gamma,),
                          repeat=(beta + b - b_t, gamma + c - c_t))
    checks = [
        check_eq("d=1 reduction: nc path matches single-variable inverse",
                 tau, tau_sv),
        check_eq("J(tau) = (beta, beta+b-b~, ...; gamma, gamma+c-c~, ...)",
                 jacobi_from_moments(tau, order // 2), expect),
        check_eq("J[mu~_t] = rho~ boxplus tau^{boxplus t} (J-level display)",
                 cross.strip(pair.tilde),
                 free_convolve(rho_t, free_power(tau, t)).truncate(order - 2)),
    ]
    return checks, []


NC_CATALOG = {
    "composition": (_nc_verify_composition, 6),
    "final-prop": (_nc_verify_final_prop, 6),
    "recover-tau": (_nc_verify_recover_tau, 8),
}

# As MIN_ORDER; nc_max_order caps every entry.
NC_MIN_ORDER = {"composition": 3, "final-prop": 3, "recover-tau": 4}

# The word layer's size rule, set by one measured corner: final-prop, the
# slowest entry, at d = 4 and order 8.  The number of words grows as d^n and
# the fill's work as n^2 d^n, so nc_max_order admits no more words than
# (4, 8) up to order 8, and no more n^2 d^n past it.  final-prop, in-process
# at seed 0 (CPython 3.11.7, a 2-core x86 host whose speed drifts by up to
# 2x between sessions), on the dense-row fill, at corners the rule admits:
# (4, 8) 4.5-9.8 s and 183 MB (6 runs in two sessions), (2, 14) 5.3-9.0 s
# and 161 MB (6 runs), (1, 64) 5.6-8.6 s and 20 MB (16 runs), (3, 9) 2.0 s
# and 83 MB, (6, 6) 2.2 s and 108 MB, (16, 4) 1.8 s and 99 MB, (40, 3)
# 1.6 s and 91 MB.  Bare n^2 d^n would admit corners past (4, 8), which on
# the earlier per-word fill took 12.5 s and 224 MB at (5, 7), 13.4 s and
# 250 MB at (20, 4) and 29.9 s and 537 MB at (75, 3); and at d = 1 it would
# admit every order up to 2048, so docs.MAX_ORDER bounds n as it bounds a
# document's order.
_NC_WORK = 4 ** 8 * 8 ** 2


def nc_max_order(d):
    """The largest order a word-layer verify entry runs at over an alphabet
    of size d >= 1: the largest n <= docs.MAX_ORDER with
    d^n max(n, 8)^2 <= 4^8 8^2, or 0 if there is none."""
    n = 0
    while n < MAX_ORDER and d ** (n + 1) * max(n + 1, 8) ** 2 <= _NC_WORK:
        n += 1
    return n


def nc_entry_d(name, params=()):
    """The alphabet size the word-layer entry ``name`` runs at: ``params``'
    d (see nc_verify_d), else the entry's default; 1 for an entry that takes
    no d (recover-tau, a d = 1 reduction)."""
    takes = inspect.signature(NC_CATALOG[name][0]).parameters.get("d")
    if takes is None:
        return 1
    return nc_verify_d(params["d"]) if "d" in params else takes.default


def nc_capped_order(name, order, params=()):
    """``order`` lowered to nc_max_order at the d the word-layer entry
    ``name`` runs at, but not below the entry's minimum order: an order the
    rule refuses there stays refused."""
    high = nc_max_order(nc_entry_d(name, params))
    return min(order, max(high, NC_MIN_ORDER[name]))


def nc_verify_d(d):
    """The alphabet size ``d`` as an int, or ValueError unless it is an
    integer >= 1 (a bool is not; an integral Fraction, as the CLI parses
    ``--param d=3``, is)."""
    if isinstance(d, Fraction) and d.denominator == 1:
        d = d.numerator
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise ValueError(f"d must be an integer >= 1, got {d}")
    return d


# -- the runner ---------------------------------------------------------------


def _split(name):
    """(kind, entry, catalog, min_order) of the verify name ``name``, kind
    naming the catalog in errors: an ``nc:`` name is a word-layer entry."""
    if name.startswith("nc:"):
        return "nc verify", name[3:], NC_CATALOG, NC_MIN_ORDER
    return "verify", name, CATALOG, MIN_ORDER


def entry(name):
    """(fn, default order) of the verify entry ``name``; KeyError if none."""
    _, key, catalog, _ = _split(name)
    return catalog[key]


def verify_order(name, order=None, params=()):
    """The order ``verify(name, params, order)`` runs at: the entry's
    default when ``order`` is None, for a word-layer entry lowered to
    nc_max_order of its d.  Makes a word-layer d an int.  Raises ValueError
    for an unknown entry, a parameter it does not take or not of the class
    it needs, an order below its minimum order, and for a word-layer entry
    an order past nc_max_order of its d, or a d where that is below its
    minimum order."""
    kind, key, catalog, min_order = _split(name)
    try:
        (fn, default_order), low = catalog[key], min_order[key]
    except KeyError:
        raise ValueError(f"unknown {kind} entry {key!r}; "
                         f"choose from {sorted(catalog)}") from None
    takes = entry_params(fn)
    for p in params:
        if p not in takes:
            raise ValueError(f"{kind} entry {key!r} takes no parameter {p}; "
                             f"it takes {', '.join(takes) or 'none'}")
        if not isinstance(params[p], takes[p]):
            raise ValueError(f"{kind} entry {key!r}: parameter {p}: want "
                             f"{class_names(takes[p])}")
    if order is not None and order < low:
        raise ValueError(f"{kind} entry {key!r} needs an order >= {low}, "
                         f"got {order}")
    if catalog is NC_CATALOG:
        d = nc_entry_d(key, params)
        if "d" in params:
            params["d"] = d
        high = nc_max_order(d)
        if high < low:
            raise ValueError(f"{kind} entry {key!r} runs at no order at d = "
                             f"{d}: nc_max_order admits at most {high}, below "
                             f"its minimum order {low}")
        if order is not None and order > high:
            raise ValueError(f"{kind} entry {key!r} at d = {d} needs an order "
                             f"<= {high} (nc_max_order), got {order}")
        default_order = min(default_order, max(high, low))
    return default_order if order is None else order


def verify_runs(names, params=None, order=None, seed=0):
    """The reports of the verify entries ``names``, each validated by
    verify_order before any runs.  One entry must take every parameter;
    each of several gets those it takes, by name and class, each must go to
    some entry, and a word-layer entry's ``order`` is lowered to
    nc_max_order at its d, as its default always is.  A report ends with
    its entry's cross-checks and notes an order so lowered and the
    parameters its entry ran without."""
    params = dict(params or {})
    several = len(names) > 1
    # every cap first, so that a bad d is refused before any entry's order
    runs = [(name, order if order is None or not several
             or not name.startswith("nc:")
             else nc_capped_order(name[3:], order, params)) for name in names]
    planned = []
    refused = {}  # parameter -> the first entry to refuse its class, and why
    for name, at in runs:
        own = params
        if several:  # the names of several come from the catalogs
            takes = entry_params(entry(name)[0])
            own = {k: v for k, v in params.items()
                   if k in takes and isinstance(v, takes[k])}
            for k in takes.keys() & params.keys() - own.keys():
                refused.setdefault(
                    k, f" as given: {name} wants {class_names(takes[k])}")
        planned.append((name, verify_order(name, at, own), own))
    unused = set(params).difference(*(own for *_, own in planned))
    if unused:
        raise ValueError("; ".join(f"no entry takes parameter {k}"
                                   f"{refused.get(k, '')}"
                                   for k in sorted(unused)))
    reports = []
    for name, at, own in planned:
        kind, key, catalog, _ = _split(name)
        fn, default = catalog[key]
        cross = _CrossChecks()
        try:
            checks, notes = fn(at, random.Random(seed), cross, **own)
        except _BadParameter as e:
            value, problem = e.args
            keys = [k for k, v in own.items() if v is value]
            which = keys[0] if len(keys) == 1 else f"value {value!r}"
            raise ValueError(f"{kind} entry {key!r}: parameter {which}: "
                             f"{problem}") from None
        checks, notes = cross.report(checks, notes)
        asked = default if order is None else order
        if at != asked:
            notes.append(f"run at order {at}, the largest the word layer's "
                         f"size rule nc_max_order admits at d = "
                         f"{nc_entry_d(key, own)}, not at "
                         f"{'the default ' if order is None else ''}{asked}")
        skipped = [k for k in params if k not in own]
        if skipped:
            notes.append(f"run without {', '.join(skipped)}, which this "
                         f"entry does not take as given")
        reports.append(VerifyReport(name, at, checks, notes))
    return reports


def verify(name, params=None, order=None, seed=0):
    """Check the identities of a catalog entry exactly at the given
    truncation order: ``name`` is a CATALOG entry, or ``nc:`` and an
    NC_CATALOG entry.  The report of ``verify_runs([name], ...)``."""
    return verify_runs([name], params, order, seed)[0]


def nc_verify(name, params=None, order=None, seed=0):
    """``verify`` of the word-layer entry ``name``, that is of ``nc:name``."""
    return verify(f"nc:{name}", params, order, seed)
