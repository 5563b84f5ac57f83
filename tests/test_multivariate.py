import inspect
import itertools
import operator
import random
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from freeconv import multivariate, transforms
from freeconv.catalog import NC_CATALOG, NC_MIN_ORDER, nc_verify
from freeconv.coeffs import ZERO, TPoly, formal_t
from freeconv.convolutions import boolean_power, free_convolve, free_power
from freeconv.evolution import (
    bercovici_pata,
    phi_map,
    subordination,
    subordination_inverse,
)
from freeconv.functionals import MomentFunctional
from freeconv.multivariate import (
    NCFunctional,
    NCPair,
    _composition_product,
    nc_bp,
    nc_bp_inverse,
    nc_boolean_convolve,
    nc_boolean_power,
    nc_eta,
    nc_free_convolve,
    nc_free_deconvolve,
    nc_free_power,
    nc_from_univariate,
    nc_moments_from_eta,
    nc_moments_from_r,
    nc_phi,
    nc_point_mass,
    nc_r,
    nc_subordination,
    nc_subordination_inverse,
    nc_tilde_from_two_state_r,
    nc_to_univariate,
    nc_two_state_r,
    nc_zero,
    words,
)
from freeconv.transforms import (
    eta_from_moments,
    r_from_moments,
    two_state_r,
)
from freeconv.functionals import TwoStatePair
from freeconv.series import TruncSeries
from ncseries import NCSeries, nc_m_series, nc_series_from_cumulants
from test_transforms import _nine_solves, _patch_kernel


def rand_nc(rng, d, order, span=2):
    return NCFunctional(d, order, {
        w: F(rng.randint(-span, span), rng.randint(1, 2))
        for w in words(d, order)})


def rand_functional(rng, order, span=3):
    return MomentFunctional(
        order, [F(rng.randint(-span, span), rng.randint(1, 3))
                for _ in range(order)])


def test_series_concatenation_examples():
    z1 = NCSeries.letter(1, 2, 4)
    z2 = NCSeries.letter(2, 2, 4)
    prod = z1 * z2
    assert prod.coeff((1, 2)) == 1 and prod.coeff((2, 1)) == 0
    assert z1 * z2 != z2 * z1
    # (1 + z1)^{-1} = 1 - z1 + z1 z1 - ...
    inv = (NCSeries.one(2, 4) + z1).reciprocal()
    assert inv.coeff(()) == 1
    assert inv.coeff((1,)) == -1
    assert inv.coeff((1, 1)) == 1
    assert inv.coeff((1, 1, 1)) == -1
    assert inv.coeff((2,)) == 0


def test_series_reciprocal_is_two_sided():
    rng = random.Random(61)
    mu = rand_nc(rng, 2, 5)
    one = NCSeries.one(2, 5)
    one_plus_m = one + nc_m_series(mu)
    inv = one_plus_m.reciprocal()
    assert one_plus_m * inv == one
    assert inv * one_plus_m == one
    with pytest.raises(Exception):
        nc_m_series(mu).reciprocal()


def test_series_substitute_examples():
    d, order = 2, 4
    z1 = NCSeries.letter(1, d, order)
    z2 = NCSeries.letter(2, d, order)
    a = z1 * z2
    ident = [z1, z2]
    assert a.substitute(ident) == a
    # z1 -> z1(1 + z2) sends z1 to z1 + z1 z2
    got = z1.substitute([z1 * (NCSeries.one(d, order) + z2), z2])
    assert got.coeff((1,)) == 1 and got.coeff((1, 2)) == 1
    with pytest.raises(ValueError):
        z1.substitute([NCSeries.one(d, order), z2])


def test_series_substitute_reduces_to_compose_at_d1():
    from freeconv.series import TruncSeries
    rng = random.Random(62)
    outer = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(6)]
    inner = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(5)]
    ts_outer = TruncSeries(6, [0] + outer)
    ts_inner = TruncSeries(6, [0, 1] + inner)
    s_outer = NCSeries(1, 6, {(1,) * (k + 1): c for k, c in enumerate(outer)})
    s_inner = NCSeries(1, 6, {(1,) * (k + 1): c
                              for k, c in enumerate([F(1)] + inner)})
    got = s_outer.substitute([s_inner])
    expect = ts_outer.compose(ts_inner)
    assert all(got.coeff((1,) * n) == expect.coeff(n) for n in range(7))


def test_solvers_satisfy_defining_equations_via_series():
    """R(z_i(1+M)) = M and eta = (1+M)^{-1} M, checked with NCSeries ops."""
    rng = random.Random(63)
    d, order = 2, 5
    mu = rand_nc(rng, d, order)
    one = NCSeries.one(d, order)
    m = nc_m_series(mu)
    one_plus_m = one + m
    subs = [NCSeries.letter(i, d, order) * one_plus_m for i in range(1, d + 1)]
    r = nc_series_from_cumulants(nc_r(mu), d, order)
    assert r.substitute(subs) == m
    eta = nc_series_from_cumulants(nc_eta(mu), d, order)
    assert eta == one_plus_m.reciprocal() * m
    # two-state: eta~ = R2(z_i(1+M)) (1+M)^{-1}
    tilde = rand_nc(rng, d, order)
    r2 = nc_series_from_cumulants(nc_two_state_r(NCPair(tilde, mu)), d, order)
    eta_tilde = nc_series_from_cumulants(nc_eta(tilde), d, order)
    assert r2.substitute(subs) * one_plus_m.reciprocal() == eta_tilde
    # subordination: R^{mu|>nu}(z) = R^mu(z_i(1+M^nu)) (1+M^nu)^{-1}
    nu = rand_nc(rng, d, order)
    m_nu = nc_m_series(nu)
    one_plus_nu = one + m_nu
    subs_nu = [NCSeries.letter(i, d, order) * one_plus_nu
               for i in range(1, d + 1)]
    r_mu = nc_series_from_cumulants(nc_r(mu), d, order)
    r_sub = nc_series_from_cumulants(nc_r(nc_subordination(mu, nu)), d, order)
    assert r_sub == r_mu.substitute(subs_nu) * one_plus_nu.reciprocal()
    # Phi: eta^{Phi[nu]} = sum_i z_i (1+M^nu) z_i
    phi = nc_phi(nu.truncate(order - 2))
    eta_phi = nc_series_from_cumulants(nc_eta(phi), d, order)
    total = NCSeries(d, order, {})
    for i in range(1, d + 1):
        zi = NCSeries.letter(i, d, order)
        total = total + zi * (one + nc_m_series(nu.truncate(order - 2))) * zi
    assert eta_phi == total


def test_word_validation():
    with pytest.raises(ValueError):
        NCFunctional(2, 3, {(3,): F(1)})
    with pytest.raises(ValueError):
        NCFunctional(2, 3, {(): F(2)})
    f = NCFunctional(2, 3, {(1, 2): F(1, 2), (2, 1): 0})
    assert f.m((1, 2)) == F(1, 2)
    assert f.m((2, 1)) == 0
    assert f.m(()) == 1
    with pytest.raises(IndexError):
        f.m((1, 1, 1, 1))


def test_point_mass_products():
    delta = nc_point_mass([F(2), F(-1)], 2, 3)
    assert delta.m((1,)) == 2 and delta.m((2,)) == -1
    assert delta.m((1, 2)) == -2 and delta.m((2, 1, 1)) == -4
    # eta of a point mass is linear: test via Boolean power
    k = nc_eta(delta)
    assert k == {(1,): F(2), (2,): F(-1)}


def test_concatenation_noncommutative():
    mu = NCFunctional(2, 4, {(1,): 1, (2,): 0, (1, 2): 1})
    kappa = nc_r(mu)
    assert kappa.get((1, 2)) != kappa.get((2, 1), F(0))


def test_r_and_eta_roundtrips():
    rng = random.Random(31)
    for d in (1, 2, 3):
        mu = rand_nc(rng, d, 4 if d == 3 else 5)
        assert nc_moments_from_r(nc_r(mu), d, mu.order) == mu
        assert nc_moments_from_eta(nc_eta(mu), d, mu.order) == mu


def test_pairwise_cumulant_recursion():
    # functional with only pair moments: kappa agrees on pairs, and the
    # length-3 cumulants vanish per the recursion
    c = {(1, 1): F(2), (1, 2): F(1, 2), (2, 1): F(-1), (2, 2): F(3)}
    mu = NCFunctional(2, 3, c)
    kappa = nc_r(mu)
    for w, v in c.items():
        assert kappa.get(w) == v
    assert all(len(w) != 1 for w in kappa)
    assert all(len(w) != 3 for w in kappa)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 16), st.integers(1, 8))
def test_d1_reductions_match_single_variable(seed, order):
    rng = random.Random(seed)
    mf = rand_functional(rng, order)
    nf = rand_functional(rng, order)
    wmf, wnf = nc_from_univariate(mf), nc_from_univariate(nf)
    k = nc_r(wmf)
    ks = r_from_moments(mf)
    assert all(k.get((1,) * n, F(0)) == ks.coeff(n) for n in range(1, order + 1))
    e = nc_eta(wmf)
    es = eta_from_moments(mf)
    assert all(e.get((1,) * n, F(0)) == es.coeff(n) for n in range(1, order + 1))
    assert nc_to_univariate(nc_moments_from_r(k, 1, order)) == mf
    assert nc_to_univariate(nc_moments_from_eta(e, 1, order)) == mf
    assert nc_to_univariate(nc_subordination(wmf, wnf)) == subordination(mf, nf)
    assert nc_to_univariate(nc_subordination_inverse(wmf, wnf)) == \
        subordination_inverse(mf, nf)
    assert nc_to_univariate(nc_bp(wmf)) == bercovici_pata(mf)
    if order >= 3:
        assert nc_to_univariate(nc_phi(wmf.truncate(order - 2))) == \
            phi_map(mf.truncate(order - 2))
    r2 = nc_two_state_r(NCPair(wmf, wnf))
    r2s = two_state_r(TwoStatePair(mf, nf))
    assert all(r2.get((1,) * n, F(0)) == r2s.coeff(n) for n in range(1, order + 1))
    assert nc_to_univariate(nc_tilde_from_two_state_r(r2, wnf)) == mf
    # over Q[t]: the packed word solves against the single-variable ones
    t = formal_t()
    wp, p = nc_free_power(wmf, t), free_power(mf, t)
    assert nc_to_univariate(wp) == p
    assert nc_to_univariate(nc_free_convolve(wnf, wp)) == free_convolve(nf, p)
    assert nc_to_univariate(nc_boolean_power(wmf, t)) == boolean_power(mf, t)
    assert nc_to_univariate(nc_subordination(wp, wnf)) == subordination(p, nf)
    assert nc_to_univariate(nc_subordination(wnf, wp)) == subordination(nf, p)
    if order >= 3:
        assert nc_to_univariate(nc_phi(wp.truncate(order - 2))) == \
            phi_map(p.truncate(order - 2))


def test_free_boolean_convolutions_assoc_comm():
    rng = random.Random(33)
    d, order = 2, 5
    a, b, c = (rand_nc(rng, d, order) for _ in range(3))
    assert nc_free_convolve(a, b) == nc_free_convolve(b, a)
    assert nc_boolean_convolve(a, b) == nc_boolean_convolve(b, a)
    assert nc_free_convolve(nc_free_convolve(a, b), c) == \
        nc_free_convolve(a, nc_free_convolve(b, c))
    assert nc_boolean_convolve(nc_boolean_convolve(a, b), c) == \
        nc_boolean_convolve(a, nc_boolean_convolve(b, c))


def test_eta_reciprocal_sides_commute():
    """(1+M)^{-1} commutes with M: left and right eta conventions agree."""
    rng = random.Random(34)
    mu = rand_nc(rng, 2, 5)
    # left: eta = M - eta M (the implementation); right: eta' = M - M eta'
    eta_left = nc_eta(mu)
    eta_right = {}
    import itertools
    for n in range(1, 6):
        for w in itertools.product((1, 2), repeat=n):
            s = mu.m(w)
            for k in range(1, n):
                e = eta_right.get(w[k:], F(0))
                if e:
                    s = s - mu.m(w[:k]) * e
            if s:
                eta_right[w] = s
    assert eta_left == eta_right


def test_phi_map_zero_example():
    phi0 = nc_phi(nc_zero(2, 3))
    assert phi0.m((1, 1)) == 1 and phi0.m((2, 2)) == 1
    assert phi0.m((1, 2)) == 0
    assert phi0.m((1, 1, 2, 2)) == 1
    assert phi0.m((1, 2, 2, 1)) == 0


def test_phi_map_output_order_is_two_more():
    for order in range(1, 11):
        assert nc_phi(nc_zero(2, order)).order == order + 2


def test_bp_bijection():
    rng = random.Random(35)
    mu = rand_nc(rng, 2, 5)
    assert nc_bp_inverse(nc_bp(mu)) == mu
    assert nc_bp(nc_bp_inverse(mu)) == mu


def test_subordination_properties_d2():
    rng = random.Random(36)
    d, order = 2, 5
    mu, nu = rand_nc(rng, d, order), rand_nc(rng, d, order)
    assert nc_subordination(mu, nc_zero(d, order)) == mu
    assert nc_subordination(mu, mu) == nc_bp(mu)
    delta = nc_point_mass([F(1, 2), F(-2)], d, order)
    assert nc_subordination(delta, mu) == delta
    assert nc_subordination_inverse(nc_subordination(mu, nu), nu) == mu


def test_two_state_r_trivializations_d2():
    rng = random.Random(37)
    d, order = 2, 5
    mu, tilde = rand_nc(rng, d, order), rand_nc(rng, d, order)
    assert nc_two_state_r(NCPair(mu, mu)) == nc_r(mu)
    assert nc_two_state_r(NCPair(tilde, nc_zero(d, order))) == nc_eta(tilde)
    r2 = nc_two_state_r(NCPair(tilde, mu))
    assert nc_tilde_from_two_state_r(r2, mu) == tilde


def test_unitality_preserved():
    rng = random.Random(38)
    mu, nu = rand_nc(rng, 2, 4), rand_nc(rng, 2, 4)
    for out in (nc_free_convolve(mu, nu), nc_boolean_convolve(mu, nu),
                nc_subordination(mu, nu), nc_bp(mu)):
        assert out.m(()) == 1


def test_formal_t_power():
    t = formal_t()
    rng = random.Random(39)
    mu = rand_nc(rng, 2, 4)
    mt = nc_free_power(mu, t)
    # specializing t = 1 recovers mu
    from freeconv.coeffs import evaluate
    spec = NCFunctional(2, 4, {w: evaluate(c, 1) for w, c in mt.items()})
    assert spec == mu


def test_nc_catalog():
    for name in NC_CATALOG:
        rep = nc_verify(name, seed=41)
        assert rep.verified, (name, [(c.label, c.detail)
                                     for c in rep.checks if not c.ok])
    with pytest.raises(ValueError):
        nc_verify("nope")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(NC_CATALOG)), st.integers(1, 2),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 2))
def test_nc_verify_sweep_seeds_and_low_orders(name, d, seed, extra):
    """Every word-layer entry at d <= 2 and random seeds, from its minimum
    order to two above it (recover-tau is a d = 1 reduction and takes no d)."""
    params = {} if name == "recover-tau" else {"d": d}
    rep = nc_verify(name, params=params, order=NC_MIN_ORDER[name] + extra,
                    seed=seed)
    assert rep.verified, (name, d, seed, [(c.label, c.detail)
                                          for c in rep.checks if not c.ok])


def test_nc_verify_rejects_a_parameter_the_entry_does_not_take():
    with pytest.raises(ValueError, match="takes no parameter d"):
        nc_verify("recover-tau", params={"d": 2})


def test_nc_verify_rejects_a_beta_t_of_the_wrong_length():
    with pytest.raises(ValueError, match=r"^nc verify entry 'final-prop': "
                       r"parameter beta_t: want a list of 2 rationals$"):
        nc_verify("final-prop", params={"beta_t": [F(1)]}, order=4)


def test_nc_verify_checks_a_supplied_word_functional(monkeypatch):
    """A supplied functional over another alphabet or of a lower order is
    refused, as the single-variable entries refuse a moment functional; a
    longer one is truncated to the order the report gives, so no word solve
    runs past it."""
    rng = random.Random(8)
    for name, key in (("composition", "mu"), ("composition", "nu"),
                      ("final-prop", "rho_t"), ("final-prop", "tau")):
        for d, order in ((2, 3), (3, 6), (1, 6)):
            with pytest.raises(ValueError, match=f"parameter {key}: want a "
                               "word functional over 1..2 of order >= 6"):
                nc_verify(name, params={key: rand_nc(rng, d, order)}, order=6)
    orders = []
    graded_words = multivariate._graded_words

    def spy(solve, d, order, *dicts, **kw):
        orders.append(order)
        return graded_words(solve, d, order, *dicts, **kw)

    monkeypatch.setattr(multivariate, "_graded_words", spy)
    mu = rand_nc(rng, 2, 8)
    rep = nc_verify("composition", params={"mu": mu}, order=5, seed=3)
    assert rep.verified and rep.order == 5
    assert rep == nc_verify("composition", params={"mu": mu.truncate(5)},
                            order=5, seed=3)
    rep = nc_verify("final-prop", params={"d": 3, "tau": rand_nc(rng, 3, 7)},
                    order=4)
    assert rep.verified and rep.order == 4
    assert max(orders) == 5


def test_composition_identity_d3():
    rep = nc_verify("composition", params={"d": 3}, order=4, seed=42)
    assert rep.verified


def _sparse_nc(rng, d, order, denominators):
    """Word coefficients over 1..order with a third of the words zero."""
    return {w: F(rng.choice((-3, -1, 1, 2)), rng.choice(denominators))
            for w in words(d, order) if rng.random() >= 1 / 3}


def _six_word_solves(mu, nu, kappa):
    """The fills that substitute z_i -> z_i(1+M), as word dicts."""
    d, n = mu.d, mu.order
    return {
        "nc_r": nc_r(mu),
        "nc_moments_from_r": dict(nc_moments_from_r(kappa, d, n).items()),
        "nc_two_state_r": nc_two_state_r(NCPair(mu, nu)),
        "nc_tilde_from_two_state_r": dict(
            nc_tilde_from_two_state_r(kappa, nu).items()),
        "nc_subordination": dict(nc_subordination(mu, nu).items()),
        "_composition_product": dict(_composition_product(mu, nu).items()),
    }


def _composite_word_ops(mu, nu):
    """The operations that chain several fills, as word dicts."""
    return {
        "nc_free_convolve": nc_free_convolve(mu, nu),
        "nc_free_deconvolve": nc_free_deconvolve(mu, nu),
        "nc_boolean_convolve": nc_boolean_convolve(mu, nu),
        "nc_bp": nc_bp(mu),
        "nc_bp_inverse": nc_bp_inverse(mu),
        "nc_subordination_inverse": nc_subordination_inverse(mu, nu),
    }


def _composite_by_single_solves(mu, nu):
    """``_composite_word_ops`` by chaining the one-fill operations, each
    graded on its own, with the cumulants merged over ``Fraction`` zero."""
    d, n = mu.d, mu.order

    def merged(x, y, op):
        out = dict(x)
        for w, c in y.items():
            out[w] = op(out.get(w, ZERO), c)
        return out

    lam = _composition_product(mu, nu)
    return {
        "nc_free_convolve": nc_moments_from_r(
            merged(nc_r(mu), nc_r(nu), operator.add), d, n),
        "nc_free_deconvolve": nc_moments_from_r(
            merged(nc_r(mu), nc_r(nu), operator.sub), d, n),
        "nc_boolean_convolve": nc_moments_from_eta(
            merged(nc_eta(mu), nc_eta(nu), operator.add), d, n),
        "nc_bp": nc_moments_from_r(nc_eta(mu), d, n),
        "nc_bp_inverse": nc_moments_from_eta(nc_r(mu), d, n),
        "nc_subordination_inverse": nc_moments_from_r(
            merged(nc_r(lam), nc_r(nu), operator.sub), d, n),
    }


def _typed(pairs):
    """Each value with its type, so that == compares rings as well."""
    return {w: (type(c), c) for w, c in pairs}


def _check_with_series(mu, nu, kappa, out):
    """Each solve against its defining equation in NCSeries operations."""
    d, n = mu.d, mu.order
    one = NCSeries.one(d, n)

    def series(coeffs):
        return NCSeries(d, n, dict(coeffs))

    def subs(m):
        return [NCSeries.letter(i, d, n) * (one + m) for i in range(1, d + 1)]

    m_mu, m_nu, k = series(mu.items()), series(nu.items()), series(kappa)
    r_mu = series(out["nc_r"])
    assert r_mu.substitute(subs(m_mu)) == m_mu
    m_k = series(out["nc_moments_from_r"])
    assert k.substitute(subs(m_k)) == m_k
    eta_mu = m_mu * (one + m_mu).reciprocal()
    assert series(out["nc_two_state_r"]).substitute(subs(m_nu)) == \
        eta_mu * (one + m_nu)
    m_t = series(out["nc_tilde_from_two_state_r"])
    assert m_t * (one + m_t).reciprocal() == \
        k.substitute(subs(m_nu)) * (one + m_nu).reciprocal()
    m_l = series(out["nc_subordination"])
    r_l = r_mu.substitute(subs(m_nu)) * (one + m_nu).reciprocal()
    assert r_l.substitute(subs(m_l)) == m_l
    assert series(out["_composition_product"]) == \
        (one + m_mu) * (one + m_nu.substitute(subs(m_mu))) - one


def _wrap_first(coeffs):
    """The coefficients with the first one a constant TPoly."""
    coeffs = dict(coeffs)
    for w in coeffs:
        coeffs[w] = TPoly.constant(coeffs[w])
        break
    return coeffs


def _int_first(coeffs):
    """The coefficients with the first one its numerator, a plain int."""
    coeffs = dict(coeffs)
    for w in coeffs:
        coeffs[w] = coeffs[w].numerator
        break
    return coeffs


def _nc_as_is(d, order, coeffs):
    """A word functional holding nonzero ``coeffs`` as they are, a plain int
    included, which the constructor would make a Fraction."""
    ncf = NCFunctional(d, order, {})
    ncf._m = dict(coeffs)
    return ncf


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from([(d, n) for d in (1, 2, 3) for n in range(1, 8)
                        if d ** n <= 3 ** 5]),
       st.sampled_from([(1,), (1, 2), (3, 5, 7), (1, 2, 3, 5)]))
def test_word_solves_match_series_and_generic_path(seed, shape, denominators):
    """The six substituting word solves satisfy their defining equations in
    NCSeries operations, which share no code with the prefix recursion, on
    sparse draws; over Q every fill runs on ints, and the result equals the
    generic path's, which the first coefficient of each input selects when
    it is held as a plain int.  The operations that chain fills in one
    graded call match the same chain of one-fill operations, type for type,
    on both paths, and subordination_inverse undoes subordination.  d and
    the order stop where the NCSeries reference takes seconds per example."""
    d, n = shape
    rng = random.Random(seed)
    ints = [_int_first(_sparse_nc(rng, d, n, denominators)) for _ in range(3)]
    mu, nu = (NCFunctional(d, n, cs) for cs in ints[:2])
    kappa = {w: F(c) for w, c in ints[2].items()}
    kernel, filled = multivariate._fill_words, []

    def spy(*args):
        out = kernel(*args)
        filled.append(all(type(c) is int
                          for row in out[1:] for c in row if c is not None))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multivariate, "_fill_words", spy)
        graded = _six_word_solves(mu, nu, kappa)
        composite = _composite_word_ops(mu, nu)
    assert filled and all(filled)
    for out in graded.values():
        assert all(type(c) is F for c in out.values())
    _check_with_series(mu, nu, kappa, graded)
    assert nc_subordination_inverse(nc_subordination(mu, nu), nu) == mu

    mu_g, nu_g = (_nc_as_is(d, n, cs) for cs in ints[:2])
    generic = _six_word_solves(mu_g, nu_g, ints[2])
    if mu.items():  # nc_r keeps mu's first word as it is
        assert any(type(c) is int
                   for out in generic.values() for c in out.values())
    assert generic == graded

    generic = _composite_word_ops(mu_g, nu_g)
    for ins, outs in (((mu, nu), composite), ((mu_g, nu_g), generic)):
        chained = _composite_by_single_solves(*ins)
        for name, out in outs.items():
            assert _typed(out.items()) == _typed(chained[name].items()), name
    for name, out in composite.items():
        assert all(type(c) is F for _, c in out.items()), name
        assert generic[name] == out, name


@pytest.mark.parametrize("formal", [False, True])
def test_every_fill_runs_inside_the_graded_seam(formal):
    """Each fill of the single-variable solves runs inside
    ``transforms._graded``, and each of the word solves inside
    ``multivariate._graded_words``: no site grades, or skips grading, on its
    own.  Checked on Q inputs and on inputs with one constant TPoly
    coefficient, which take the packed path."""
    rng = random.Random(41)
    depth, fills = [0], []

    def seam(helper):
        def spy(solve, *inputs):
            depth[0] += 1
            try:
                return helper(solve, *inputs)
            finally:
                depth[0] -= 1
        return spy

    def fill(kernel):
        def spy(*args):
            fills.append((kernel.__name__, depth[0] > 0))
            return kernel(*args)
        return spy

    def draw(n):
        cs = [F(rng.choice((-3, -1, 0, 1, 2)), rng.choice((1, 2, 3)))
              for _ in range(n)]
        return [TPoly.constant(cs[0])] + cs[1:] if formal else cs

    def draw_words():
        cs = _sparse_nc(rng, 2, 4, (1, 2, 3))
        return _wrap_first(cs) if formal else cs

    mu, nu = (MomentFunctional(6, draw(6)) for _ in range(2))
    r = TruncSeries(6, [0] + draw(6))
    mu_w, nu_w = (NCFunctional(2, 4, draw_words()) for _ in range(2))
    with pytest.MonkeyPatch.context() as mp:
        _patch_kernel(mp, "_graded", seam(transforms._graded))
        _patch_kernel(mp, "_fill", fill(transforms._fill))
        mp.setattr(multivariate, "_graded_words",
                   seam(multivariate._graded_words))
        mp.setattr(multivariate, "_fill_words",
                   fill(multivariate._fill_words))
        _nine_solves(mu, nu, r)
        _six_word_solves(mu_w, nu_w, draw_words())
    assert {name for name, _ in fills} == {"_fill", "_fill_words"}
    assert all(inside for _, inside in fills)


def test_generic_word_outputs_keep_their_rings():
    """A plain int in an input dict selects the generic path, and every
    output value is still a Fraction or a TPoly: the int comes back as a
    Fraction, and a value that a TPoly reaches stays a TPoly."""
    one = TPoly.constant(1)
    got = nc_moments_from_r({(1,): 2, (1, 1): one}, 1, 3)
    assert [type(got.m((1,) * k)) for k in (1, 2, 3)] == [F, TPoly, TPoly]
    assert [got.m((1,) * k) for k in (1, 2, 3)] == [2, 5, 14]
    got = nc_moments_from_eta({(1,): 2, (1, 1): one}, 1, 3)
    assert [type(got.m((1,) * k)) for k in (1, 2, 3)] == [F, TPoly, TPoly]
    base = NCFunctional(2, 3, {(1,): F(1, 2), (2, 1): F(-1)})
    got = nc_tilde_from_two_state_r({(1,): 1, (2,): one}, base)
    assert got.items() and all(type(c) in (F, TPoly) for _, c in got.items())
    assert type(got.m((1,))) is F and type(got.m((2,))) is TPoly


def _tpoly_path(solve, d, order, *dicts, t=None):
    """``_graded_words`` without grading or packing: the kernels on the
    coefficients as they are, which over Q[t] is TPoly arithmetic, on one
    row per word length, None at a missing or zero word."""
    ws = [None] + [list(itertools.product(range(1, d + 1), repeat=n))
                   for n in range(1, order + 1)]
    tables = [[None] + [[dct.get(w) or None for w in row] for row in ws[1:]]
              for dct in dicts]
    if t is not None:
        tables.insert(0, lambda tab: [None] + [
            [None if c is None else t * c for c in row] for row in tab[1:]])
    out = solve(d, order, *tables)
    return {w: c for row_w, row in zip(ws[1:], out[1:])
            for w, c in zip(row_w, row) if c is not None}


# Weights of (absent, zero, rational, constant TPoly, TPoly) per draw mode.
_SWEEP_MODES = {
    "zero-heavy": (6, 3, 1, 1, 1),
    "constant": (1, 1, 1, 5, 1),
    "mixed": (1, 0, 2, 1, 2),
    "large": (1, 0, 1, 0, 4),
}


def _sweep_value(rng, mode):
    """One coefficient for the packed-path sweep, or None for no word.  The
    "large" mode draws numerators of about 80 bits and t-degree up to 7."""
    kind = rng.choices(range(5), _SWEEP_MODES[mode])[0]
    big = mode == "large"

    def q():
        top = 2 ** 80 if big else 3
        return F(rng.randint(-top, top), rng.choice((1, 2, 3, 6)))

    if kind == 0:
        return None
    if kind == 1:
        return rng.choice((F(0), TPoly()))
    if kind == 2:
        return q()
    if kind == 3:
        return TPoly.constant(q())
    return TPoly([q() for _ in range(rng.randint(1, 8 if big else 4))])


def _sweep_ops(mu, nu, raw, t, beta):
    """Every public word operation on the sweep's draws, by name, with the
    cancellations of a deconvolution by itself, a free convolution undone
    and the cumulants of a point mass, which vanish past length 1."""
    d, n = mu.d, mu.order
    ops = {name: partial(op, mu, nu) for name, op in _SEAM_OPS.items()
           if name not in ("nc_phi", "nc_point_mass")}
    delta = nc_point_mass(beta, d, n)
    ops.update({
        "nc_moments_from_r(raw)": partial(nc_moments_from_r, raw, d, n),
        "nc_moments_from_eta(raw)": partial(nc_moments_from_eta, raw, d, n),
        "nc_tilde_from_two_state_r(raw)": partial(
            nc_tilde_from_two_state_r, raw, nu),
        "nc_free_power(t)": partial(nc_free_power, mu, t),
        "nc_boolean_power(t)": partial(nc_boolean_power, nu, t),
        "nc_point_mass": partial(nc_point_mass, beta, d, n),
        "mu boxminus mu": partial(nc_free_deconvolve, mu, mu),
        "(mu boxplus nu) boxminus nu": lambda: nc_free_deconvolve(
            nc_free_convolve(mu, nu), nu),
        "nc_r(delta)": partial(nc_r, delta),
        "delta boxplus nu": partial(nc_free_convolve, delta, nu),
        "delta uplus nu^{uplus t}": lambda: nc_boolean_convolve(
            delta, nc_boolean_power(nu, t)),
    })
    if n > 2:
        ops["nc_phi"] = partial(nc_phi, nu.truncate(n - 2))
    return ops


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from([(d, n) for d in (1, 2, 3) for n in range(1, 6)
                        if d ** n <= 2 ** 5]),
       st.sampled_from(sorted(_SWEEP_MODES)))
def test_packed_word_solves_match_the_tpoly_path_value_for_value(seed, shape,
                                                                 mode):
    """Every public word operation on Fraction and TPoly inputs (the packed
    path) gives what the same kernels give on TPoly arithmetic, value for
    value, and every ``_graded_words`` call keeps one ring rule: all
    Fractions when no input value and no t is a TPoly, otherwise all TPolys,
    each read from a packed int by ``_unpack``.  Rings are not compared with
    the TPoly path's: no word value is printed, and == ignores the ring.
    The draws hold absent words and explicit zeros, constant TPolys, large
    numerators and high t-degree, and the ops include exact cancellations."""
    d, n = shape
    rng = random.Random(seed)

    def draw(keep_zeros):
        cs = {w: _sweep_value(rng, mode) for w in words(d, n)}
        return {w: c for w, c in cs.items()
                if c is not None and (keep_zeros or c)}

    mu, nu = NCFunctional(d, n, draw(False)), NCFunctional(d, n, draw(False))
    raw = draw(True)
    t = rng.choice((formal_t(), F(0), TPoly(), F(rng.randint(-5, 5), 3),
                    _sweep_value(rng, "large") or formal_t(),
                    TPoly.constant(F(rng.randint(-5, 5), 2))))
    beta = [_sweep_value(rng, mode) or F(0) for _ in range(d)]
    seam, unpack = multivariate._graded_words, multivariate._unpack
    unpacked, calls = {}, []

    def spy_unpack(*args):
        out = unpack(*args)
        unpacked[id(out)] = out
        return out

    def spy_seam(solve, d, order, *dicts, t=None):
        out = seam(solve, d, order, *dicts, t=t)
        polys = type(t) is TPoly or any(
            type(c) is TPoly for dct in dicts for c in dct.values())
        calls.append(polys)
        if polys:
            assert all(type(c) is TPoly and id(c) in unpacked
                       for c in out.values())
        else:
            assert all(type(c) is F for c in out.values())
        return out

    for name, op in _sweep_ops(mu, nu, raw, t, beta).items():
        calls.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(multivariate, "_unpack", spy_unpack)
            mp.setattr(multivariate, "_graded_words", spy_seam)
            got = dict(op().items())
        assert calls, name
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(multivariate, "_graded_words", _tpoly_path)
            want = dict(op().items())
        assert got == want, (name, t)


_SEAM_OPS = {
    "nc_r": lambda mu, nu: nc_r(mu),
    "nc_eta": lambda mu, nu: nc_eta(mu),
    "nc_moments_from_r": lambda mu, nu: nc_moments_from_r(
        dict(mu.items()), mu.d, mu.order),
    "nc_moments_from_eta": lambda mu, nu: nc_moments_from_eta(
        dict(mu.items()), mu.d, mu.order),
    "nc_two_state_r": lambda mu, nu: nc_two_state_r(NCPair(mu, nu)),
    "nc_tilde_from_two_state_r": lambda mu, nu: nc_tilde_from_two_state_r(
        dict(mu.items()), nu),
    "nc_subordination": nc_subordination,
    "_composition_product": _composition_product,
    "nc_subordination_inverse": nc_subordination_inverse,
    "nc_free_convolve": nc_free_convolve,
    "nc_free_deconvolve": nc_free_deconvolve,
    "nc_boolean_convolve": nc_boolean_convolve,
    "nc_bp": lambda mu, nu: nc_bp(mu),
    "nc_bp_inverse": lambda mu, nu: nc_bp_inverse(mu),
    "nc_phi": lambda mu, nu: nc_phi(nu.truncate(2)),
    "nc_free_power": lambda mu, nu: nc_free_power(mu, F(3, 2)),
    "nc_boolean_power": lambda mu, nu: nc_boolean_power(mu, F(-2, 3)),
    "nc_point_mass": lambda mu, nu: nc_point_mass([F(1, 2), F(-3)], 2, 4),
}


@pytest.mark.parametrize("name", sorted(_SEAM_OPS))
def test_each_word_op_grades_once(name):
    """On Q inputs each public word operation runs all of its fills inside a
    single ``_graded_words`` call: intermediate results stay graded ints and
    are never converted back to Fractions between fills.  A power by a
    rational t = p/q is graded by D q, so t times a graded int stays one."""
    rng = random.Random(43)
    mu, nu = (NCFunctional(2, 4, _sparse_nc(rng, 2, 4, (1, 2, 3)))
              for _ in range(2))
    seam, calls = multivariate._graded_words, []

    def spy(solve, *args, **kwargs):
        calls.append(len(args))
        return seam(solve, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multivariate, "_graded_words", spy)
        _SEAM_OPS[name](mu, nu)
    assert len(calls) == 1, calls


# Each raw word kernel's defining equation in NCSeries operations, as
# check(one, subs, *inputs, output); subs(m) is [z_i (1+M)].
_KERNEL_EQUATIONS = {
    "_r": lambda one, subs, m, k: k.substitute(subs(m)) == m,
    "_moments_from_r": lambda one, subs, k, m: k.substitute(subs(m)) == m,
    "_eta": lambda one, subs, m, e: e * (one + m) == m,
    "_moments_from_eta": lambda one, subs, e, m: e * (one + m) == m,
    "_two_state_r": lambda one, subs, e, m, r:
        r.substitute(subs(m)) == e * (one + m),
    "_substitute_divide": lambda one, subs, a, m, e:
        e * (one + m) == a.substitute(subs(m)),
    "_composition": lambda one, subs, m, b, c:
        one + c == (one + m) * (one + b.substitute(subs(m))),
    "_products": lambda one, subs, b, m: m == b * (one + m),
}

# The kernel whose output, fed back as the first input, makes a kernel
# return the sparse draw it came from, through exact cancellations.
_KERNEL_INVERSES = {
    "_r": "_moments_from_r", "_moments_from_r": "_r",
    "_eta": "_moments_from_eta", "_moments_from_eta": "_eta",
    "_two_state_r": "_substitute_divide", "_substitute_divide": "_two_state_r",
}


def _kernel_draw(rng, d, n, mode):
    """A raw word dict: "sparse" keeps a quarter of the words, "zero-heavy"
    stores explicit zeros (int and Fraction) beside absent words, "dense"
    keeps every word."""
    out = {}
    for w in words(d, n):
        r = rng.random()
        if mode == "zero-heavy" and r < 2 / 3:
            if r < 1 / 3:
                out[w] = rng.choice((0, F(0)))
            continue
        if mode == "sparse" and r < 3 / 4:
            continue
        out[w] = F(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3)))
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from([(d, n) for d in (1, 2, 3, 4) for n in range(1, 7)
                        if d ** n <= 64]),
       st.sampled_from(["sparse", "zero-heavy", "dense", "cancel"]))
def test_each_word_kernel_satisfies_its_equation(seed, shape, mode):
    """Every raw word kernel, run on rows through ``_graded_words``, gives a
    dict that satisfies the kernel's defining equation in NCSeries
    operations and stores no zero; the generic path, which a plain int in
    an input selects, gives the same values, and both give Fractions as
    word functionals.  In "cancel" mode a kernel's first input is its
    inverse kernel's output on a sparse draw, so the kernel must return
    that draw through exact cancellations; mu boxminus mu must be zero and
    (mu boxplus nu) boxminus nu must be mu."""
    d, n = shape
    rng = random.Random(seed)
    one = NCSeries.one(d, n)

    def subs(m):
        return [NCSeries.letter(i, d, n) * (one + m) for i in range(1, d + 1)]

    def graded(name, *dicts):
        return multivariate._graded_words(getattr(multivariate, name), d, n,
                                          *dicts)

    for name, check in _KERNEL_EQUATIONS.items():
        arity = len(inspect.signature(getattr(multivariate, name)).parameters)
        ins = [_kernel_draw(rng, d, n, "sparse" if mode == "cancel" else mode)
               for _ in range(arity - 2)]
        if name == "_products":  # the kernel reads the letters only
            ins = [{w: c for w, c in ins[0].items() if len(w) == 1}]
        want = None
        if mode == "cancel" and name in _KERNEL_INVERSES:
            want = {w: c for w, c in ins[0].items() if c}
            ins[0] = graded(_KERNEL_INVERSES[name], *ins)
        out = graded(name, *ins)
        assert all(type(c) is F and c for c in out.values()), name
        if want is not None:
            assert out == want, name
        assert check(one, subs, *(NCSeries(d, n, x) for x in ins + [out])), \
            name
        if not any(ins[0].values()):
            continue
        w = next(w for w, c in ins[0].items() if c)
        ints = [dict(ins[0])] + ins[1:]
        ints[0][w] = F(ints[0][w]).numerator
        fracs = [{w: F(c) for w, c in x.items()} for x in ints]
        generic = graded(name, *ints)
        assert all(type(c) in (int, F) and c for c in generic.values()), name
        assert generic == graded(name, *fracs), name
        assert _typed(NCFunctional._filled(d, n, generic).items()) == \
            _typed(NCFunctional._filled(d, n, graded(name, *fracs)).items())
    if mode == "cancel":
        mu, nu = (NCFunctional(d, n, _kernel_draw(rng, d, n, "dense"))
                  for _ in range(2))
        assert dict(nc_free_deconvolve(mu, mu).items()) == {}
        assert dict(nc_free_deconvolve(nc_free_convolve(mu, nu), nu)
                    .items()) == dict(mu.items())


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["<", "=", ">", "p"]),
       st.integers(1, 3))
def test_add_products_matches_a_triple_loop(seed, shape, n_p):
    """The fill kernel against the plain loop over (p, g, i), along each
    axis, with None marks in row, x and y: an entry that gets no term keeps
    its None.  Shape "p" draws n_g, n_i <= 3 and n_p up to 9, longer than
    both, with mostly None entries."""
    rng = random.Random(seed)
    none_rate = 0.4
    if shape == "p":
        n_g, n_i = rng.randint(1, 3), rng.randint(1, 3)
        n_p = rng.randint(max(n_g, n_i) + 1, 9)
        none_rate = rng.choice((0.4, 0.7, 0.9))
    else:
        n_g = rng.randint(1, 9)
        n_i = {"<": rng.randint(n_g + 1, 10), "=": n_g,
               ">": rng.randint(1, n_g - 1) if n_g > 1 else None}[shape]
        if n_i is None:
            n_g, n_i = n_g + 1, n_g

    def draw(n):
        return [None if rng.random() < none_rate else rng.randint(-5, 5)
                for _ in range(n)]

    row, x, y = draw(n_p * n_g * n_i), draw(n_g), draw(n_p * n_i)
    want = row[:]
    for p in range(n_p):
        for g in range(n_g):
            for i in range(n_i):
                c, v = x[g], y[p * n_i + i]
                if c is not None and v is not None:
                    k = (p * n_g + g) * n_i + i
                    want[k] = c * v if want[k] is None else want[k] + c * v
    multivariate._add_products(row, x, y, n_p, n_g, n_i)
    assert row == want


def test_equality_reads_words_up_to_the_lower_order():
    a = NCFunctional(2, 4, {(1,): F(1), (2, 1): F(1, 2), (1, 1, 2, 2): F(3)})
    b = NCFunctional(2, 3, {(1,): F(1), (2, 1): F(1, 2), (2, 2, 2): F(0)})
    assert a == b and b == a
    assert a != NCFunctional(2, 4, {(1,): F(1), (2, 1): F(1, 2)})
    assert a != NCFunctional(2, 3, {(1,): F(1)})
    assert a != NCFunctional(3, 3, {(1,): F(1), (2, 1): F(1, 2)})
    assert NCFunctional(1, 2, {(1,): TPoly.constant(2)}) == \
        NCFunctional(1, 2, {(1,): F(2)})
