import inspect
import json
import random
from fractions import Fraction as F

import pytest
from extra_ops import solve_moments
from hypothesis import given, settings, strategies as st
from test_convolutions import _draw

import freeconv
from freeconv import catalog, evolution, transforms
from freeconv.catalog import CATALOG, MIN_ORDER, check_eq, check_zero, verify
from freeconv.cli import run
from freeconv.coeffs import ExactDivisionError, TPoly, evaluate, formal_t
from freeconv.convolutions import free_convolve, free_power
from freeconv.evolution import (
    _triple_r_series,
    belinschi_nica,
    bercovici_pata,
    bercovici_pata_inverse,
    cauchy_evolution_residual,
    maassen_semigroup,
    pde_residual,
    phi_map,
    phi_two,
    strip,
    subordination,
    subordination_inverse,
    triple_from_semigroup,
    two_state_semigroup,
)
from freeconv.functionals import (
    CanonicalTriple,
    MomentFunctional,
    NoJacobiRepresentationError,
    TwoStatePair,
    ZeroVarianceError,
    bernoulli_sym,
    free_meixner,
    jacobi_from_moments,
    point_mass,
    semicircular,
)
from freeconv.multivariate import NCFunctional
from freeconv.series import TruncSeries
from freeconv.transforms import (
    cauchy_g,
    eta_from_moments,
    f_at_infinity,
    moments_from_eta,
    r_from_moments,
    tilde_from_two_state_r,
    voiculescu_phi,
)


def rand_functional(rng, order, span=3):
    return MomentFunctional(
        order, [F(rng.randint(-span, span), rng.randint(1, 3))
                for _ in range(order)])


def rand_triple(rng, order):
    g = 0
    while g == 0:
        g = F(rng.randint(-3, 3), rng.randint(1, 3))
    return CanonicalTriple(F(rng.randint(-3, 3), rng.randint(1, 3)), g,
                           rand_functional(rng, order))


def test_phi_map_examples():
    assert phi_map(MomentFunctional(6, ())) == bernoulli_sym(8)
    assert phi_map(semicircular(0, 1, 8)) == semicircular(0, 1, 10)
    assert phi_map(point_mass(1, 6)).mean_var() == (0, 1)


def test_phi_jacobi_right_shift():
    mu = free_meixner(F(1, 2), F(1, 3), F(-1), F(2), 12)
    out = phi_map(mu)
    j_in = jacobi_from_moments(mu, 5)
    j_out = jacobi_from_moments(out, 6)
    assert j_out.levels(6) == [(F(0), F(1))] + j_in.levels(5)


def test_strip_examples():
    rng = random.Random(1)
    rho = rand_functional(rng, 8)
    assert strip(phi_map(rho)) == rho
    mu = free_meixner(1, 2, F(1, 2), F(3), 12)
    assert strip(mu) == semicircular(F(3, 2), F(5), 10)
    assert strip(bernoulli_sym(8)) == MomentFunctional(6, ())
    with pytest.raises(ZeroVarianceError):
        strip(point_mass(2, 6))


def test_phi_strip_roundtrip_on_normalized():
    rng = random.Random(2)
    mu = rand_functional(rng, 8)
    normalized = phi_map(mu)  # mean 0 variance 1 by construction
    assert phi_map(strip(normalized)) == normalized


def test_bp_examples():
    assert bercovici_pata(bernoulli_sym(10)) == semicircular(0, 1, 10)
    assert bercovici_pata(point_mass(F(-2, 3), 8)) == point_mass(F(-2, 3), 8)
    rng = random.Random(3)
    mu = rand_functional(rng, 10)
    assert bercovici_pata_inverse(bercovici_pata(mu)) == mu
    assert bercovici_pata(bercovici_pata_inverse(mu)) == mu


def test_belinschi_nica_meixner_action():
    t = formal_t()
    b, c, beta, gamma = F(1, 2), F(-1, 3), F(1), F(2)
    lhs = belinschi_nica(free_meixner(b, c, beta, gamma, 10), t)
    rhs = free_meixner(b + beta * t, c + gamma * t, beta, gamma, 10)
    assert lhs == rhs


def test_belinschi_nica_b1_is_bp():
    rng = random.Random(4)
    mu = rand_functional(rng, 10)
    assert belinschi_nica(mu, 1) == bercovici_pata(mu)
    assert belinschi_nica(mu, 0) == mu


def specialize(mf, value):
    return MomentFunctional(mf.order, [evaluate(c, value) for c in mf.moments()])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 16), st.integers(1, 8), st.booleans())
def test_belinschi_nica_exact_over_q_t(seed, order, formal):
    """B_t over Q[t] with no truncation in t.

    eta(B_t[mu]) (1+t) = eta(mu^{boxplus(1+t)}) holds exactly, B_t
    specialises to B_s, and for rational mu the moment m_k is a polynomial of
    t-degree at most k - 2 (k >= 2): the Boolean cumulant b_j of
    mu^{boxplus(1+t)} has t-degree at most the number of blocks of an
    irreducible non-crossing partition of {1..j}, j - 1 for j >= 2.
    """
    rng = random.Random(seed)
    t = formal_t()
    mu = rand_functional(rng, order)
    if formal:
        mu = free_power(mu, t)
    bt = belinschi_nica(mu, t)
    assert (eta_from_moments(bt).scale(1 + t)
            == eta_from_moments(free_power(mu, 1 + t)))
    for s in (F(1, 2), F(1), F(2)):
        assert specialize(bt, s) == specialize(belinschi_nica(mu, s), s)
    if not formal:
        assert all(c.degree <= max(k - 2, 0)
                   for k, c in enumerate(bt.moments(), start=1))


def _bt_by_composition(mu, t):
    """B_t as the composition that belinschi_nica replaced: the Boolean
    cumulants of the free power mu^{boxplus(1+t)}, divided by 1 + t."""
    s = 1 + t
    eta = eta_from_moments(free_power(mu, s))
    return moments_from_eta(
        TruncSeries(mu.order, [c / s for c in eta.coeffs()]), mu.order)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 14), st.booleans(),
       st.sampled_from(("plain", "zeros", "zero-polys", "constants")),
       st.sampled_from(("formal", "rational", "zero", "zero TPoly", "t/p")),
       st.booleans())
def test_belinschi_nica_matches_the_composition_it_replaces(
        seed, order, formal, kind, t_kind, powered):
    """B_t by its expansion in s = 1 + t over the powers of R_mu gives the
    moments of (mu^{boxplus s})^{uplus 1/s}, value for value and ring for
    ring (all TPolys when t or a moment of mu is one, else all Fractions),
    over Q and Q[t], for formal, rational and zero t, and on a mu that
    carries its R-transform; t = -1 is refused by name."""
    rng = random.Random(seed)
    t = {"formal": formal_t(),
         "rational": F(rng.choice((-7, -4, -2, -1, 1, 2, 5)), 3),
         "zero": F(0), "zero TPoly": TPoly(()),
         "t/p": formal_t() / rng.choice((2, 3))}[t_kind]
    mu = _draw(rng, order, formal, kind)
    if powered:
        mu = free_power(mu, rng.choice((F(1, 2), formal_t(), 2)))
    assert _typed(belinschi_nica(mu, t)) == _typed(_bt_by_composition(mu, t))
    for minus_one in (F(-1), TPoly.constant(-1)):
        with pytest.raises(ZeroDivisionError, match=r"1 \+ t"):
            belinschi_nica(mu, minus_one)


def test_subordination_examples():
    rng = random.Random(5)
    mu, nu = rand_functional(rng, 10), rand_functional(rng, 10)
    d0 = MomentFunctional(10, ())
    assert subordination(mu, d0) == mu
    assert subordination(point_mass(F(5), 10), mu) == point_mass(F(5), 10)
    assert subordination(mu, mu) == bercovici_pata(mu)
    sigma = semicircular(0, 1, 10)
    assert subordination(sigma, mu) == bercovici_pata(phi_map(mu.truncate(8)))
    got = subordination(sigma, sigma)
    assert got == free_meixner(0, 1, 0, 1, 10)
    assert got.m(2) == 1 and got.m(4) == 3


def test_subordination_composition_lemma():
    rng = random.Random(6)
    mu, nu = rand_functional(rng, 10), rand_functional(rng, 10)
    lhs = voiculescu_phi(subordination(mu, nu))
    rhs = voiculescu_phi(mu).compose_descending(f_at_infinity(nu))
    assert lhs == rhs
    # the semicircular instance: phi_sigma = 1/z composed into F_sigma
    sigma = semicircular(0, 1, 10)
    lhs = voiculescu_phi(subordination(sigma, sigma))
    rhs = voiculescu_phi(sigma).compose_descending(f_at_infinity(sigma))
    assert lhs == rhs
    assert [rhs.coeff(k) for k in range(4)] == [F(0), F(1), F(0), F(1)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 16), st.integers(1, 10), st.booleans())
def test_subordination_inverse_roundtrip(seed, order, formal):
    rng = random.Random(seed)
    mu, nu = rand_functional(rng, order), rand_functional(rng, order)
    if formal:
        mu = free_power(mu, formal_t())
    assert subordination_inverse(subordination(mu, nu), nu) == mu
    assert subordination_inverse(mu, MomentFunctional(order, ())) == mu
    assert subordination_inverse(bercovici_pata(mu), mu) == mu


def test_phi_two_examples():
    rng = random.Random(8)
    mu, nu = rand_functional(rng, 10), rand_functional(rng, 10)
    d0 = MomentFunctional(10, ())
    assert phi_two(mu, d0) == bercovici_pata_inverse(mu)
    assert phi_two(mu, mu) == mu
    sigma = semicircular(0, 1, 10)
    assert phi_two(sigma, nu) == phi_map(nu.truncate(8))


def test_maassen_semigroup_examples():
    t = formal_t()
    st = maassen_semigroup(CanonicalTriple(0, 1, MomentFunctional(8, ())), t, 10)
    assert st.m(2) == t and st.m(4) == 2 * t * t
    d = maassen_semigroup(CanonicalTriple(F(1, 2), 0, None), t, 8)
    assert d == point_mass(F(1, 2) * t, 8)
    rng = random.Random(9)
    rho = rand_functional(rng, 8)
    one = maassen_semigroup(CanonicalTriple(0, 1, rho), 1, 10)
    assert one == bercovici_pata(phi_map(rho))


def test_normalized_free_evolution_specialization():
    """For the triple (0, 1, rho): J[mu_t] = rho boxplus sigma^{boxplus t}."""
    rng = random.Random(16)
    rho = rand_functional(rng, 8)
    t = formal_t()
    mu_t = maassen_semigroup(CanonicalTriple(0, 1, rho), t, 10)
    assert strip(mu_t) == free_convolve(rho, free_power(semicircular(0, 1, 8), t))


def test_triple_from_semigroup_roundtrip():
    rng = random.Random(10)
    tri = rand_triple(rng, 8)
    mu1 = maassen_semigroup(tri, 1, 10)
    back = triple_from_semigroup(mu1)
    assert back.beta == tri.beta and back.gamma == tri.gamma
    assert back.rho == tri.rho
    assert triple_from_semigroup(point_mass(F(3, 2), 8)).rho is None
    with pytest.raises(ZeroVarianceError):
        triple_from_semigroup(MomentFunctional(6, (0, 0, 1, 0, 0, 0)))


def test_two_state_semigroup_boolean_case():
    # rel = (0,1,delta_0), base gamma = 0: the tilde family is the Boolean
    # semigroup of the symmetric Bernoulli (eta = t w^2)
    t = formal_t()
    rel = CanonicalTriple(0, 1, MomentFunctional(8, ()))
    base = CanonicalTriple(0, 0, None)
    pair = two_state_semigroup(rel, base, t, 10)
    assert pair.base == point_mass(0, 10)
    assert pair.tilde.m(2) == t and pair.tilde.m(4) == t * t


def test_two_state_semigroup_zero_relative_variance():
    # gamma~ = 0: the tilde family is the point-mass flow delta_{beta~ t}
    rng = random.Random(17)
    base = rand_triple(rng, 8)
    t = formal_t()
    pair = two_state_semigroup(CanonicalTriple(F(2, 3), 0, None), base, t, 10)
    assert pair.tilde == point_mass(F(2, 3) * t, 10)


def test_two_state_semigroup_diagonal_case():
    rng = random.Random(11)
    tri = rand_triple(rng, 8)
    pair = two_state_semigroup(tri, tri, F(2, 3), 10)
    assert pair.tilde == pair.base


@pytest.mark.parametrize("order", [1, 2])
def test_two_state_semigroup_at_low_orders(order):
    """rho~ enters the tilde family from m_3 on: at orders 1 and 2 both
    paths still build the pair, the order-10 pair truncated."""
    rng = random.Random(19)
    rel, base = rand_triple(rng, 8), rand_triple(rng, 8)
    t = formal_t()
    pair = two_state_semigroup(rel, base, t, order)
    full = two_state_semigroup(rel, base, t, 10)
    assert pair.order == order
    assert pair.tilde == full.tilde and pair.base == full.base


@pytest.mark.parametrize("order", [0, -1])
def test_semigroups_reject_orders_below_one(order):
    rng = random.Random(19)
    rel, base = rand_triple(rng, 8), rand_triple(rng, 8)
    t = formal_t()
    for build in (lambda: maassen_semigroup(base, t, order),
                  lambda: maassen_semigroup(CanonicalTriple(1, 0), t, order),
                  lambda: two_state_semigroup(rel, base, t, order)):
        with pytest.raises(ValueError, match="order must be >= 1"):
            build()


def _typed(mf):
    return [(type(c), c) for c in mf.moments()]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12),
       st.sampled_from(("t", "1 + t", "rational", "zero TPoly")))
def test_semigroups_by_expansion_match_the_solves(seed, order, exponent):
    """maassen_semigroup and two_state_semigroup expand in t over the powers
    of the triple's R at t = 1; the solves they replace, on the R-transforms
    built at t, give the same moments, value for value and ring for ring:
    all TPolys when t or a coefficient of the triples is one, else all
    Fractions.  The triples take zero or formal beta and zero gamma, where
    the R-transform at t pads its tail with rational zeros."""
    rng = random.Random(seed)
    t = formal_t()
    s = {"t": t, "1 + t": 1 + t, "rational": F(rng.randint(-3, 3), 2),
         "zero TPoly": TPoly(())}[exponent]

    def triple():
        beta = rng.choice((F(0), F(rng.randint(-3, 3), 3), t - 1,
                           TPoly.constant(2)))
        if rng.random() < 0.3:
            return CanonicalTriple(beta, 0, None)
        rho = [rng.choice((F(0), F(rng.randint(-2, 2), rng.randint(1, 3)),
                           2 * t)) for _ in range(max(order - 2, 1))]
        return CanonicalTriple(beta, rng.choice((F(1, 2), F(-3), 1 + t)),
                               MomentFunctional(max(order - 2, 1), rho))

    rel, base = triple(), triple()
    want = solve_moments(_triple_r_series(base, s, order), order)
    assert _typed(maassen_semigroup(base, s, order)) == _typed(want)
    tilde = tilde_from_two_state_r(_triple_r_series(rel, s, order), want)
    pair = two_state_semigroup(rel, base, s, order)
    assert _typed(pair.base) == _typed(want)
    assert _typed(pair.tilde) == _typed(tilde)


def test_two_state_strip_is_monotone():
    from freeconv.convolutions import monotone_convolve
    rng = random.Random(12)
    rel, base = rand_triple(rng, 8), rand_triple(rng, 8)
    t = formal_t()
    pair = two_state_semigroup(rel, base, t, 10)
    assert strip(pair.tilde) == monotone_convolve(rel.rho, pair.base.truncate(8))


def test_stripped_tilde_families_worked_examples():
    """Three special relative triples with closed-form J[mu~_t]."""
    rng = random.Random(18)
    t = formal_t()
    rho = rand_functional(rng, 8)
    beta, gamma = F(1, 2), F(2)
    base = CanonicalTriple(beta, gamma, rho)
    # rho~ = rho: J[mu~_t] = rho boxplus sigma_{beta,gamma}^{boxplus t}
    rel = CanonicalTriple(F(-1), F(3), rho)
    pair = two_state_semigroup(rel, base, t, 10)
    assert strip(pair.tilde) == free_convolve(
        rho, free_power(semicircular(beta, gamma, 8), t))
    # rho~ = delta_0: J[mu~_t] = mu_t (two-state free Brownian motions)
    rel = CanonicalTriple(F(0), F(1), MomentFunctional(8, ()))
    pair = two_state_semigroup(rel, base, t, 10)
    assert strip(pair.tilde) == pair.base.truncate(8)
    # gamma = 0 (mu_t = delta_{beta t}): J[mu~_t] = rho~ boxplus delta_{beta t}
    rho_t = rand_functional(rng, 8)
    rel = CanonicalTriple(F(1), F(1, 2), rho_t)
    pair = two_state_semigroup(rel, CanonicalTriple(beta, 0, None), t, 10)
    assert strip(pair.tilde) == free_convolve(rho_t, point_mass(beta * t, 8))


def test_pde_residuals_vanish():
    rng = random.Random(13)
    rel = rand_triple(rng, 10)
    base = rand_triple(rng, 10)
    res1, res2 = pde_residual(rel, base, 8)
    assert res1.is_zero() and res2.is_zero()


def test_pde_second_equation_alone():
    base = CanonicalTriple(0, 1, MomentFunctional(10, ()))
    rel = CanonicalTriple(0, 1, MomentFunctional(10, ()))
    res1, res2 = pde_residual(rel, base, 8)
    assert res2.is_zero()
    assert res1.is_zero()  # rel = base reduces the first equation to the second


def test_cauchy_residual_and_sign():
    rng = random.Random(14)
    rel = rand_triple(rng, 12)
    base = rand_triple(rng, 12)
    corrected, printed = cauchy_evolution_residual(rel, base, 8)
    assert corrected.is_zero()
    assert not printed.is_zero()


def test_cauchy_residual_consistent_with_pde():
    """The G-equation residual equals -G~^2 times the F-equation residual."""
    rng = random.Random(15)
    rel = rand_triple(rng, 12)
    base = rand_triple(rng, 12)
    order = 6
    res_g, res_printed = cauchy_evolution_residual(rel, base, order)
    assert not res_printed.is_zero()
    t = formal_t()
    work = order + 4
    pair_t = two_state_semigroup(rel, base, t, work)
    res_f, _ = pde_residual(rel, base, work - 2)
    g_tilde = cauchy_g(pair_t.tilde)
    product = (g_tilde * g_tilde) * res_f
    assert res_g == -product


def _count_calls(monkeypatch, module, *names):
    """Wrap each named function of ``module`` with a counter; returns the
    dict of counts."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("entry,want", (
    ("generator", {"two_state_semigroup": 1, "strip": 2,
                   "monotone_convolve": 1}),
    ("two-state-meixner", {"two_state_semigroup": 1, "strip": 1,
                           "monotone_convolve": 1}),
    ("monotone-lemma", {"monotone_convolve": 1}),
    ("pde", {"two_state_semigroup": 1, "monotone_convolve": 1}),
))
def test_evolution_entries_build_each_value_once(monkeypatch, entry, want):
    """generator takes both d_t G~ residuals from one two-state pair and its
    two strips, pde both F residuals from one pair, two-state-meixner strips
    mu~_t once for both checks that read J[mu~_t], and monotone-lemma builds
    rho~ |> mu_t once for its display and its J check.  The cross-checks
    read the same values: each pair's monotone path builds rho~ |> mu_t
    once.  Each function is counted in ``catalog``, where the entries and
    their cross-checks look it up, and hand the pair and its strips to the
    residual."""
    counts = _count_calls(monkeypatch, catalog, *want)
    assert verify(entry).verified
    assert counts == want


def test_operators_run_no_cross_check(monkeypatch):
    """The operators only compute: a library call of two_state_semigroup
    runs no monotone convolution, and strip and phi_map read no Jacobi
    rows.  The second paths run in ``catalog``."""
    def ran(*args):
        raise AssertionError("a cross-check path ran")

    for module in vars(freeconv).values():
        if inspect.ismodule(module):
            for name in ("monotone_convolve", "jacobi_from_moments"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, ran)
    rel = CanonicalTriple(F(1, 2), F(1), bernoulli_sym(6))
    base = CanonicalTriple(F(-1), F(2), semicircular(0, 1, 6))
    pair = two_state_semigroup(rel, base, formal_t(), 8)
    strip(pair.tilde)
    strip(semicircular(0, 1, 8))
    phi_map(bernoulli_sym(8))
    with pytest.raises(AssertionError, match="^a cross-check path ran$"):
        catalog._monotone_check(rel, pair.tilde, pair.base, formal_t())


def test_verify_unknown_name():
    with pytest.raises(ValueError):
        verify("no-such-identity")


def test_verify_catalog_all_entries():
    for name in CATALOG:
        rep = verify(name, seed=99)
        assert rep.verified, (name, [(c.label, c.detail)
                                     for c in rep.checks if not c.ok])


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(CATALOG)), st.integers(0, 2 ** 32 - 1),
       st.integers(0, 2))
def test_verify_sweep_seeds_and_low_orders(name, seed, extra):
    """Every entry at random seeds, from its minimum order to two above it."""
    rep = verify(name, order=MIN_ORDER[name] + extra, seed=seed)
    assert rep.verified, (name, seed, [(c.label, c.detail)
                                       for c in rep.checks if not c.ok])


def test_two_state_meixner_redraws_what_was_not_supplied():
    """With t = 1 supplied, a draw that zeroes a gamma row (such as c~ = 1
    and gamma = -1, at seed 0) is drawn again, not blamed on t; only
    supplied values that zero a row alone are refused, and a zero t or
    gamma is refused by name before the entry runs."""
    for seed in range(200):
        rep = verify("two-state-meixner", params={"t": F(1)}, order=6,
                     seed=seed)
        assert rep.verified, seed
    for p in ("t", "gamma"):
        with pytest.raises(ValueError, match=f"parameter {p}: want "
                           "NonzeroCoeff$"):
            verify("two-state-meixner", params={p: F(0)}, order=6)
    for params in ({"c_t": F(1), "gamma": F(-1), "t": F(1)},
                   {"gamma": F(1), "c": F(1), "c_t": F(2)}):
        with pytest.raises(ValueError, match="^supplied parameters give "
                           "degenerate Jacobi rows$"):
            verify("two-state-meixner", params=params, order=6)


def test_verify_accepts_explicit_params():
    rep = verify("meixner-subord", params={"b": F(1), "c": F(1), "beta": F(0),
                                           "gamma": F(1), "beta2": F(0),
                                           "gamma2": F(1)}, seed=0)
    assert rep.verified
    rep = verify("subord-linear", params={"mu": bernoulli_sym(10)}, seed=0)
    assert rep.verified
    rep = verify("free-evolution", params={"beta": F(1, 2), "gamma": F(1),
                                           "rho": "bernoulli_sym"}, seed=0)
    assert rep.verified


def test_check_eq_reports_residual():
    chk = check_eq("label", point_mass(1, 4), point_mass(2, 4))
    assert not chk.ok
    assert "m_1" in chk.detail and "1" in chk.detail
    chk = check_eq("label", point_mass(1, 4), point_mass(1, 4))
    assert chk.ok and chk.detail == ""


def test_check_eq_locates_the_residual_on_every_value_kind():
    """The residual names the first coefficient that differs: m_k of a
    functional, the component of a pair, [z^k] of a Laurent series at
    infinity or of a power series, m_w of a word functional, shortest word
    first and then by rank, or its d, or both values when their kinds
    differ.  == reads only the coefficients both operands carry, so operands
    that agree on all of them but differ in truncation order fail too, with
    both orders."""
    sigma, sigma2 = semicircular(0, 1, 6), semicircular(0, 2, 6)
    m2 = "m_2: Fraction(1, 1) != Fraction(2, 1)"
    words = NCFunctional(2, 3, {(2,): 1, (1, 1): 1, (2, 1): 1})
    longer = semicircular(0, 1, 8)
    cases = (
        (longer, sigma, "orders differ: 8 != 6"),
        (TwoStatePair(longer, longer), TwoStatePair(sigma, sigma),
         "orders differ: 8 != 6"),
        (voiculescu_phi(longer), voiculescu_phi(sigma),
         "orders differ: 7 != 5"),
        (r_from_moments(sigma), r_from_moments(longer),
         "orders differ: 6 != 8"),
        (words, words.truncate(2), "orders differ: 3 != 2"),
        (words, NCFunctional(2, 3, {(2,): 2, (1, 1): 1}),
         "m_(2,): Fraction(1, 1) != Fraction(2, 1)"),
        (words, NCFunctional(2, 2, {(2,): 1, (1, 1): 1, (1, 2): 4}),
         "m_(1, 2): Fraction(0, 1) != Fraction(4, 1)"),
        (words, NCFunctional(3, 3, {(2,): 1, (1, 1): 1, (2, 1): 1}),
         "d: 2 != 3"),
        (TwoStatePair(sigma, sigma), TwoStatePair(sigma2, sigma),
         f"tilde: {m2}"),
        (TwoStatePair(sigma, sigma), TwoStatePair(sigma, sigma2),
         f"base: {m2}"),
        (voiculescu_phi(sigma), voiculescu_phi(sigma2),
         "[z^-1]: Fraction(1, 1) != Fraction(2, 1)"),
        (f_at_infinity(sigma), voiculescu_phi(sigma),
         "[z^1]: Fraction(1, 1) != Fraction(0, 1)"),
        (r_from_moments(sigma), r_from_moments(sigma2),
         "[z^2]: Fraction(1, 1) != Fraction(2, 1)"),
        (sigma, r_from_moments(sigma),
         f"{sigma!r} != {r_from_moments(sigma)!r}"),
    )
    for lhs, rhs, detail in cases:
        assert check_eq("label", lhs, rhs) == catalog.Check(
            "label", False, detail)
    assert check_zero("label", voiculescu_phi(sigma2) - voiculescu_phi(
        sigma)) == catalog.Check(
            "label", False, "residual = <Laurent tail_order=5: (1)/z^1>")


_BOTH_CATALOGS = {**{name: (MIN_ORDER[name], order)
                     for name, (_, order) in CATALOG.items()},
                  **{f"nc:{name}": (catalog.NC_MIN_ORDER[name], order)
                     for name, (_, order) in catalog.NC_CATALOG.items()}}


@pytest.mark.parametrize("name", sorted(_BOTH_CATALOGS))
def test_every_check_compares_operands_of_one_order(name, monkeypatch):
    """Every check_eq of both catalogs, at the minimum and the default
    order, compares operands of one truncation order, so none passes on the
    prefix of a longer operand."""
    seen = []

    def spy(label, lhs, rhs):
        seen.append((label, catalog._order(lhs), catalog._order(rhs)))
        return check_eq(label, lhs, rhs)

    monkeypatch.setattr(catalog, "check_eq", spy)
    for order in _BOTH_CATALOGS[name]:
        assert verify(name, order=order).verified
    assert [x for x in seen if x[1] != x[2]] == []


def test_cli_prints_the_residual_of_a_failed_semigroup_law(monkeypatch,
                                                           capsys):
    """A two-state convolution that is off by one in every tilde moment
    fails thm-b's semigroup law: exit 1, with the pair's residual."""
    convolve = catalog.two_state_convolve

    def off_by_one(a, b):
        pair = convolve(a, b)
        return TwoStatePair(MomentFunctional(
            pair.order, [m + 1 for m in pair.tilde.moments()]), pair.base)

    monkeypatch.setattr(catalog, "two_state_convolve", off_by_one)
    assert run(["verify", "thm-b", "--order", "6"]) == 1
    out = capsys.readouterr().out
    assert "FAIL [thm-b] semigroup law at rational (s,t) = (1,1)" in out
    assert "     residual: tilde: m_1: " in out


def _off_by_one(mf):
    """``mf`` with 1 added to every moment."""
    return MomentFunctional(mf.order, [m + 1 for m in mf.moments()])


def _failed_cross_checks(argv, capsys):
    """The failed cross-checks of the JSON verify run ``argv``, which must
    exit 4 and fail at least one."""
    assert run(argv + ["--format", "json"]) == 4, argv
    failed = [c for r in json.loads(capsys.readouterr().out)["reports"]
              for c in r["checks"] if not c["ok"] and c.get("cross_check")]
    assert failed
    return failed


@pytest.mark.parametrize("target", ("two_state_from_scaled_r",
                                    "_tilde_by_monotone"))
def test_two_state_semigroup_cross_check_rejects_a_wrong_path(
        monkeypatch, capsys, target):
    """The catalog checks each two-state semigroup against the tilde of the
    Boolean/monotone formula; a tilde off by one in every moment on either
    path fails that cross-check, and verify exits 4 naming it, also where a
    residual identity fails with it."""
    module = evolution if target == "two_state_from_scaled_r" else catalog
    path = getattr(module, target)
    if target == "two_state_from_scaled_r":
        def wrong(*args):
            pair = path(*args)
            return TwoStatePair(_off_by_one(pair.tilde), pair.base)
    else:
        def wrong(*args):
            tilde, sub = path(*args)
            return _off_by_one(tilde), sub

    rel = CanonicalTriple(F(1, 2), F(1), bernoulli_sym(6))
    base = CanonicalTriple(F(-1), F(2), semicircular(0, 1, 6))
    cross = catalog._CrossChecks()
    cross.two_state_semigroup(rel, base, formal_t(), 8)
    assert [c.ok for c in cross.checks] == [True]
    monkeypatch.setattr(module, target, wrong)
    cross.two_state_semigroup(rel, base, formal_t(), 8)
    label = "mu~_t = delta_{b~t} uplus Phi[rho~ |> mu_t]^{uplus g~t}"
    assert [(c.label, c.ok, c.cross_check) for c in cross.report([])[0]] == [
        (label, True, True), (label, False, True)]
    assert [c["label"] for c in _failed_cross_checks(
        ["verify", "generator"], capsys)] == [label]
    assert run(["verify", "generator"]) == 4
    assert f"FAIL [generator] cross-check: {label}\n" in capsys.readouterr().out


# Where verify runs each operator's Jacobi-shift cross-check on rational rows.
_SHIFT_ENTRY = {"Phi": "subord-linear", "J": "two-state-meixner"}


@pytest.mark.parametrize("mf", (semicircular(0, 1, 8), bernoulli_sym(8)),
                         ids=("rows-repeat", "rows-terminate"))
@pytest.mark.parametrize("target,op,label", (
    ("moments_from_eta", phi_map, "Phi"),
    ("_strip_once", strip, "J"),
))
def test_jacobi_shift_cross_check_rejects_a_wrong_transform_path(
        monkeypatch, capsys, mf, target, op, label):
    """The catalog checks each Phi and J against the shifted Jacobi rows of
    a rational input; a transform path that is off by one in every moment
    fails that cross-check, and verify exits 4 naming it."""
    transform = getattr(evolution, target)
    monkeypatch.setattr(evolution, target,
                        lambda *args: _off_by_one(transform(*args)))
    cross = catalog._CrossChecks()
    getattr(cross, op.__name__)(mf)
    (check,), notes = cross.report([])
    assert (check.ok, check.cross_check, notes) == (False, True, [])
    assert check.detail == (f"{label}: transform and Jacobi paths disagree "
                            f"on input 1 of 1")
    failed = _failed_cross_checks(["verify", _SHIFT_ENTRY[label]], capsys)
    assert any(c["label"].startswith("Jacobi shift: ")
               and c["residual"].startswith(f"{label}: ") for c in failed)


def _wrong_eta(mf, k):
    """mf, its carried eta changed in place by 1 at coefficient k."""
    kind, eta = mf._from
    assert kind == "eta"
    cs = list(eta.coeffs())
    cs[k] += 1
    mf._from = (kind, TruncSeries(eta.order, cs))
    return mf


@pytest.mark.parametrize("target", ("phi_map", "point_mass"))
def test_a_wrong_carried_eta_fails_the_display_check(monkeypatch, capsys,
                                                     target):
    """free-evolution builds the display delta_{bt} uplus Phi[.]^{uplus gt}
    from the carried eta of Phi's output and of the point mass, and compares
    it with mu_t, built through R.  Either eta changed in one coefficient,
    the moments left as they are, fails that identity and exits 1, and
    fails no other check."""
    build = getattr(catalog, target)
    monkeypatch.setattr(catalog, target,
                        lambda *args: _wrong_eta(build(*args), 1))
    assert run(["verify", "free-evolution", "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["reports"][0]["checks"]
    assert [c["label"] for c in checks if not c["ok"]] == [
        "mu_t = delta_{bt} uplus Phi[rho boxplus sigma_{b,g}^t]^{uplus gt}"]


def test_strip_and_the_jacobi_shift_do_not_read_a_carried_eta(monkeypatch):
    """strip and the Jacobi-shift cross-check solve for eta, or read rows,
    from the moments: on functionals built from eta, over Q and over Q[t],
    a carried eta changed in every coefficient leaves their results as they
    were, and strip runs ``_eta`` once per functional all the same."""
    t = formal_t()
    nu = semicircular(F(1, 2), 2, 8)
    inner = free_convolve(nu, free_power(semicircular(1, 1, 8), t))

    def run_checks(wrong):
        cross = catalog._CrossChecks()
        outs = [cross.phi_map(nu),
                catalog._delta_bool_phi(cross, t, inner, 2 * t, 10)]
        if wrong:
            for mf in outs:
                for k in range(1, mf.order + 1):
                    _wrong_eta(mf, k)
        return [cross.strip(mf) for mf in outs], cross.report([])

    want = run_checks(False)
    eta, solved = transforms._eta, []
    monkeypatch.setattr(transforms, "_eta",
                        lambda mf: solved.append(mf.order) or eta(mf))
    got = run_checks(True)
    assert solved == [10, 10]
    assert got == want
    assert [c.ok for c in got[1][0]] == [True, True]
    assert got[0][1] == inner.truncate(8)


@pytest.mark.parametrize("moments", (
    (0, 0, 1),  # gamma_0 = 0, but m_3 is not that of the point mass at 0
    (0, formal_t(), 1),  # beta_1 = m_3 / gamma_0 = 1/t is not in Q[t]
), ids=("gamma-0-inconsistent", "rows-not-polynomial"))
@pytest.mark.parametrize("target,op,label", (
    ("moments_from_eta", phi_map, "Phi"),
    ("_strip_once", strip, "J"),
))
def test_jacobi_shift_cross_check_rejects_an_output_without_rows(
        monkeypatch, moments, target, op, label):
    """When the input has Jacobi rows and the transform path returns a
    functional that has none, the two paths disagree: the cross-check must
    fail, not skip as it does for an input without rows."""
    mf = semicircular(0, 1, 8)
    order = op(mf).order
    rowless = MomentFunctional(order, moments)
    with pytest.raises((NoJacobiRepresentationError, ExactDivisionError)):
        jacobi_from_moments(rowless, order // 2)
    monkeypatch.setattr(evolution, target, lambda *args: rowless)
    cross = catalog._CrossChecks()
    getattr(cross, op.__name__)(mf)
    checks, notes = cross.report([])
    assert [(c.label, c.ok, c.detail, c.cross_check) for c in checks] == [(
        f"Jacobi shift: {catalog._SHIFTS[label][0]} (1 of 1 inputs)", False,
        f"{label}: transform and Jacobi paths disagree on input 1 of 1",
        True)]
    assert notes == []


def test_jacobi_shift_cross_check_notes_the_inputs_it_skips():
    """An input whose Jacobi rows leave Q[t] is not checked, and the report
    says so: one note per operator, with the count, and one check over the
    inputs that were read.  At seed 0 and the default orders, verify all
    reads 10 inputs' rows and notes 10 it could not read, and each of the
    10 entries that reach strip, Phi or the two-state semigroup, those the
    CI step of that name reads, reports a cross-check or such a note."""
    cross = catalog._CrossChecks()
    t = formal_t()
    mu_t = maassen_semigroup(CanonicalTriple(F(1, 2), F(1), bernoulli_sym(4)),
                             t, 6)
    for mf in (mu_t, semicircular(0, 1, 6)):
        cross.strip(mf)
    cross.phi_map(MomentFunctional(4, (0, t, 1, 0)))  # beta_1 = 1/t
    checks, notes = cross.report([catalog.Check("identity", True)], ["note"])
    assert [(c.label, c.ok, c.cross_check) for c in checks] == [
        ("identity", True, False),
        (f"Jacobi shift: {catalog._SHIFTS['J'][0]} (1 of 2 inputs)", True,
         True)]
    assert notes == ["note"] + [
        f"{op}: Jacobi-shift cross-check skipped on 1 of {n} inputs, whose "
        f"Jacobi rows are not over Q[t]" for op, n in (("Phi", 1), ("J", 2))]
    ran = skipped = 0
    crossed = set()
    for name in [*CATALOG, *(f"nc:{k}" for k in catalog.NC_CATALOG)]:
        rep = verify(name)
        assert rep.verified, name
        for c in rep.checks:
            if c.label.startswith("Jacobi shift: "):
                ran += int(c.label.split("(")[-1].split()[0])
            if c.cross_check:
                crossed.add(name)
        for note in rep.notes:
            if "Jacobi-shift cross-check skipped on " in note:
                skipped += int(note.split(" skipped on ")[1].split()[0])
                crossed.add(name)
    assert (ran, skipped) == (10, 10)
    assert crossed == {"free-evolution", "bn-mean", "monotone-lemma", "thm-b",
                       "subord-linear", "general-b", "two-state-meixner",
                       "pde", "generator", "nc:recover-tau"}


@pytest.mark.parametrize("entry", ("two-state-meixner", "pde", "generator"))
def test_a_wrong_monotone_convolution_exits_4(monkeypatch, capsys, entry):
    """A monotone convolution off by one, patched where ``catalog`` looks it
    up, is caught by the monotone cross-check of the entries that build a
    two-state semigroup: exit 4, naming that cross-check."""
    convolve = catalog.monotone_convolve
    monkeypatch.setattr(catalog, "monotone_convolve",
                        lambda *args: _off_by_one(convolve(*args)))
    assert [c["label"] for c in _failed_cross_checks(
        ["verify", entry], capsys)] == [
        "mu~_t = delta_{b~t} uplus Phi[rho~ |> mu_t]^{uplus g~t}"]
