import hashlib
import itertools
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st
from test_convolutions import EXPONENTS, _draw, _exponent, _typed

from freeconv import docs, functionals
from freeconv.coeffs import TPoly, formal_t
from freeconv.convolutions import free_convolve, free_power, monotone_convolve
from freeconv.evolution import (
    maassen_semigroup,
    subordination,
    subordination_inverse,
)
from freeconv.functionals import (
    CanonicalTriple,
    MomentFunctional,
    TwoStatePair,
    bernoulli_sym,
    free_meixner,
    jacobi_from_moments,
    moments_from_jacobi,
    point_mass,
    semicircular,
)
from freeconv.oracle import free_cumulants_oracle
from freeconv.series import LaurentAtInfinity, TruncSeries
from freeconv.transforms import (
    _solve_moments,
    cauchy_g,
    eta_from_moments,
    f_at_infinity,
    f_inverse_at_infinity,
    m_series,
    moments_from_eta,
    moments_from_r,
    r_from_moments,
    tilde_from_two_state_r,
    two_state_r,
    two_state_r_by_reversion,
    voiculescu_phi,
    voiculescu_phi_by_reversion,
)


def rand_functional(rng, order, span=3):
    return MomentFunctional(
        order, [F(rng.randint(-span, span), rng.randint(1, 3))
                for _ in range(order)])


def test_m_series_examples():
    assert m_series(point_mass(2, 4)).coeffs() == (0, 2, 4, 8, 16)
    assert m_series(MomentFunctional(3, ())).is_zero()
    assert m_series(bernoulli_sym(4)).coeffs() == (0, 0, 1, 0, 1)


def test_r_transform_examples():
    assert r_from_moments(point_mass(F(5, 2), 5)).coeffs() == (
        0, F(5, 2), 0, 0, 0, 0)
    assert r_from_moments(semicircular(0, 1, 6)).coeffs() == (0, 0, 1, 0, 0, 0, 0)
    assert r_from_moments(bernoulli_sym(4)).coeffs() == (0, 0, 1, 0, -1)


def test_moments_from_r_examples():
    r = TruncSeries(6, (0, 0, 1))
    assert moments_from_r(r, 6) == semicircular(0, 1, 6)
    assert moments_from_r(TruncSeries(4, (0, F(-2),)), 4) == point_mass(-2, 4)
    t = formal_t()
    rt = TruncSeries(4, (0, 0, t))
    mt = moments_from_r(rt, 4)
    assert mt.m(2) == t and mt.m(4) == 2 * t * t


def test_eta_examples():
    assert eta_from_moments(bernoulli_sym(6)).coeffs() == (0, 0, 1, 0, 0, 0, 0)
    assert eta_from_moments(point_mass(F(3), 5)).coeffs() == (0, 3, 0, 0, 0, 0)
    assert eta_from_moments(MomentFunctional(4, ())).is_zero()


def test_eta_roundtrip_random():
    rng = random.Random(0)
    for _ in range(20):
        mf = rand_functional(rng, 12)
        assert moments_from_eta(eta_from_moments(mf), 12) == mf
        assert moments_from_r(r_from_moments(mf), 12) == mf


def test_f_expansion_examples():
    f = f_at_infinity(point_mass(F(1, 2), 5))
    assert f.top == 1 and f.coeff(0) == F(-1, 2)
    assert all(f.coeff(k) == 0 for k in range(1, 5))
    # Bernoulli: F = z - 1/z exactly (closes the continued fraction)
    f = f_at_infinity(bernoulli_sym(6))
    assert f.coeff(0) == 0 and f.coeff(1) == -1
    assert all(f.coeff(k) == 0 for k in range(2, 6))
    # semicircle: F = z - 1/z - 1/z^3 - 2/z^5 - ...
    f = f_at_infinity(semicircular(0, 1, 8))
    assert [f.coeff(k) for k in range(0, 6)] == [0, -1, 0, -1, 0, -2]


def test_phi_examples():
    phi = voiculescu_phi(point_mass(F(-3), 5))
    assert phi.coeff(0) == -3 and all(phi.coeff(k) == 0 for k in range(1, 5))
    phi = voiculescu_phi(semicircular(0, 1, 6))
    assert phi.coeff(1) == 1
    assert phi.coeff(0) == 0 and all(phi.coeff(k) == 0 for k in range(2, 6))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 16), st.integers(1, 10), st.integers(0, 3),
       st.booleans())
def test_f_times_g_is_one(seed, order, extra, formal):
    """F G = 1 through z^-N: the product keeps the precision its factors'
    valuations allow (F is known through z^-(N-1), G through z^-(N+1))."""
    rng = random.Random(seed)
    mf = rand_functional(rng, order)
    other = rand_functional(rng, order + extra)
    if formal:
        t = formal_t()
        mf, other = free_power(mf, t), free_power(other, t)
    prod = f_at_infinity(mf) * cauchy_g(mf)
    assert prod.tail_order == mf.order
    assert prod.top == 0 and prod.coeff(0) == 1
    assert all(prod.coeff(k) == 0 for k in range(1, prod.tail_order + 1))
    assert monotone_convolve(mf, other).order == order
    assert monotone_convolve(other, mf).order == order


def test_dictionary_phi_matches_reversion_path():
    rng = random.Random(11)
    for _ in range(10):
        mf = rand_functional(rng, 10)
        assert voiculescu_phi(mf) == voiculescu_phi_by_reversion(mf)


def test_f_inverse_composes_to_identity():
    mf = MomentFunctional(10, (1, 2, 1, 3, 1, 4, 1, 5, 1, 6))
    h = f_inverse_at_infinity(mf)
    f = f_at_infinity(mf)
    # (F^{-1} - z) o F + F = z termwise
    desc = h - LaurentAtInfinity.ident_z(h.tail_order)
    lhs = desc.compose_descending(f) + f
    assert lhs == LaurentAtInfinity.ident_z(lhs.tail_order)


def _reversion_path_outputs():
    """(type name, value) of every coefficient the reversion path returns,
    at orders 1..12: seeded Q functionals, their formal free powers
    mu^{boxplus t} and mu^{boxplus (1+t)}, and pairs that mix the rings."""
    t = formal_t()

    def typed(cs):
        return [(type(c).__name__, str(c)) for c in cs]

    out = []
    for order in range(1, 13):
        rng = random.Random(order)
        mu, nu = rand_functional(rng, order), rand_functional(rng, order)
        mu_t, mu_1t = free_power(mu, t), free_power(mu, 1 + t)
        for mf in (mu, mu_t, mu_1t):
            for lau in (voiculescu_phi_by_reversion(mf),
                        f_inverse_at_infinity(mf)):
                out.append(typed((lau.top,) + lau.d.coeffs()))
            out.append(typed(cauchy_g(mf).d.reversion().coeffs()))
        for pair in ((nu, mu), (mu_t, nu), (nu, mu_1t), (mu_1t, mu_t)):
            out.append(typed(two_state_r_by_reversion(
                TwoStatePair(*pair)).coeffs()))
    return out


def test_reversion_path_outputs_are_pinned():
    """The values and coefficient types of the reversion path, as recorded
    from the prefix-recomposition reversion that Lagrange inversion
    replaced."""
    digest = hashlib.sha256(repr(_reversion_path_outputs()).encode())
    assert digest.hexdigest() == (
        "168f55f4bec0d742a00611774fb37273d5c813beb466e73cbb7b4ec6e7c987f7")


def test_two_state_r_trivializations():
    rng = random.Random(5)
    for _ in range(10):
        mu = rand_functional(rng, 10)
        tilde = rand_functional(rng, 10)
        assert two_state_r(TwoStatePair(mu, mu)) == r_from_moments(mu)
        d0 = MomentFunctional(10, ())
        assert two_state_r(TwoStatePair(tilde, d0)) == eta_from_moments(tilde)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 16), st.integers(1, 10))
def test_two_state_r_reversion_path(seed, order):
    rng = random.Random(seed)
    pair = TwoStatePair(rand_functional(rng, order), rand_functional(rng, order))
    assert two_state_r(pair) == two_state_r_by_reversion(pair)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 16), st.integers(1, 8), st.booleans())
def test_tilde_from_two_state_r_roundtrip(seed, order, formal):
    rng = random.Random(seed)
    pair = TwoStatePair(rand_functional(rng, order), rand_functional(rng, order))
    if formal:  # over Q[t]: both components raised to a formal free power
        t = formal_t()
        pair = TwoStatePair(free_power(pair.tilde, t), free_power(pair.base, t))
    r2 = two_state_r(pair)
    assert tilde_from_two_state_r(r2, pair.base) == pair.tilde


def test_moment_cumulant_relation_as_composition():
    """R(z(1+M)) = M, checked literally with series composition."""
    sigma = semicircular(0, 1, 8)
    r = r_from_moments(sigma)
    m = m_series(sigma)
    w = TruncSeries(8, (0, 1)) * (TruncSeries.one(8) + m)
    assert r.compose(w) == m
    rng = random.Random(9)
    mf = rand_functional(rng, 9)
    m = m_series(mf)
    w = TruncSeries(9, (0, 1)) * (TruncSeries.one(9) + m)
    assert r_from_moments(mf).compose(w) == m


def test_two_state_r_of_phi_sigma_pair():
    from freeconv.evolution import phi_map
    sigma = semicircular(0, 1, 6)
    r2 = two_state_r(TwoStatePair(phi_map(sigma.truncate(4)), sigma))
    assert r2.coeff(1) == 0 and r2.coeff(2) == 1 and r2.coeff(3) == 0
    pair = TwoStatePair(phi_map(sigma.truncate(4)), sigma)
    assert two_state_r_by_reversion(pair) == r2


SOLVE_KERNELS = ("_add_diagonal", "_fill", "_substitute_at", "_split_sum",
                 "_graded")


def _patch_kernel(mp, name, fn):
    """Replace the ``functionals`` kernel ``name`` by fn, in that module and
    wherever it was imported."""
    kernel = getattr(functionals, name)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("freeconv"):
            if getattr(module, name, None) is kernel:
                mp.setattr(module, name, fn)


def test_cross_checks_share_no_solve_kernel(monkeypatch):
    """The reversion path, the partition oracle, the Jacobi rows read by the
    Chebyshev algorithm and their expansion still run, and agree with the
    primary path, when every solve kernel of ``functionals`` raises, in that
    module and wherever it was imported."""
    rng = random.Random(33)
    mf = rand_functional(rng, 8)
    pair = TwoStatePair(rand_functional(rng, 8), rand_functional(rng, 8))
    phi, kappa, r2 = voiculescu_phi(mf), r_from_moments(mf), two_state_r(pair)
    jacobi = jacobi_from_moments(mf, 4)

    def broken(*args):
        raise AssertionError("a solve kernel ran")

    for name in SOLVE_KERNELS:
        _patch_kernel(monkeypatch, name, broken)
    with pytest.raises(AssertionError):
        r_from_moments(mf)

    assert voiculescu_phi_by_reversion(mf) == phi
    f_inv = f_inverse_at_infinity(mf)
    assert f_inv - LaurentAtInfinity.ident_z(f_inv.tail_order) == phi
    assert two_state_r_by_reversion(pair) == r2
    assert free_cumulants_oracle(mf) == list(kappa.coeffs()[1:])
    assert jacobi_from_moments(mf, 4) == jacobi
    assert moments_from_jacobi(jacobi, mf.order) == mf


def _nine_solves(mu, nu, r):
    """The output coefficients of every triangular solve over one input set:
    the functionals mu and nu and the series r, all of one order."""
    n = mu.order
    out = [
        r_from_moments(mu).coeffs(),
        _solve_moments(r, n).moments(),
        eta_from_moments(mu).coeffs(),
        moments_from_eta(r, n).moments(),
        two_state_r(TwoStatePair(mu, nu)).coeffs(),
        tilde_from_two_state_r(r, nu).moments(),
        subordination(mu, nu).moments(),
        subordination_inverse(mu, nu).moments(),
    ]
    if n >= 3 and mu.mean_var()[1] != 0:  # the stripped order n - 2 >= 1
        out.append(functionals._strip_once(mu, *mu.mean_var()).moments())
    return out


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
       st.sampled_from([(1,), (3, 5, 7, 11), (1, 3, 5, 7, 11), (2, 9)]))
def test_graded_int_solves_match_generic_path(seed, order, denominators):
    """Over Q every solve runs on ints scaled by D^k and returns Fractions
    equal to the generic path's, which one constant TPoly coefficient in mu
    and in r selects.  The coprime denominators make D large; a third of the
    draws are zero."""
    rng = random.Random(seed)

    def draw():
        return [F(rng.choice((-3, -1, 0, 0, 1, 2)), rng.choice(denominators))
                for _ in range(order)]

    mu, nu = MomentFunctional(order, draw()), MomentFunctional(order, draw())
    r = TruncSeries(order, [0] + draw())
    kernel, filled = functionals._fill, []

    def spy(n, coeff, subst=None):
        out = kernel(n, coeff, subst)
        filled.append(all(type(x) is int for x in out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        _patch_kernel(mp, "_fill", spy)
        graded = _nine_solves(mu, nu, r)
    assert len(filled) >= len(graded) and all(filled)
    for cs in graded:
        assert all(type(c) is F for c in cs)

    wrapped = [TPoly.constant(mu.m(1))] + list(mu.moments()[1:])
    generic = _nine_solves(MomentFunctional(order, wrapped), nu,
                           TruncSeries(order, [0, TPoly.constant(r.coeff(1))]
                                       + list(r.coeffs()[2:])))
    assert any(isinstance(c, TPoly) for cs in generic for c in cs)
    assert [list(cs) for cs in graded] == [list(cs) for cs in generic]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 14), st.booleans())
def test_fill_substitution_matches_series_composition(seed, order, formal):
    """Each ``subst`` form of ``functionals._fill`` hands its rule
    s = [z^k] A(W), W = z(1+M), as the series engine's Horner composition,
    which shares no solve kernel, finds it: (a, m) for given lists;
    (None, m) with A the fill's own output, whose coefficient k is stored
    after the rule returns, so s misses a_k [z^k] W^k = a_k; and (a, None)
    with M the output, read only below degree k.  Over Q the lists are the
    graded integers c_k D^k, D from ``_grade``; over Q[t] they are TPolys."""
    rng = random.Random(seed)
    t = formal_t()

    def draw():
        cs = [F(rng.choice((-3, -1, 0, 0, 1, 2)), rng.choice((1, 2, 3, 5)))
              for _ in range(order)]
        return [F(0)] + [c + rng.choice((0, 1, -2)) * t if formal else c
                         for c in cs]

    a, c = draw(), draw()
    m = [F(1)] + c[1:]  # 1 + C
    if not formal:
        d = functionals._grade(
            itertools.chain(enumerate(a), enumerate(c), enumerate(m)))
        assert d is not None
        a, c, m = ([x.numerator * (d ** k // x.denominator)
                    for k, x in enumerate(cs)] for cs in (a, c, m))
    expected = TruncSeries(order, a).compose(
        TruncSeries(order, [0] + m[:order])).coeffs()

    def handed(subst, given):
        seen = [None]

        def rule(k, out, s):
            seen.append(s)
            return given[k]

        functionals._fill(order, rule, subst)
        return seen

    for subst, given, missing in (((a, m), c, [0] * (order + 1)),
                                  ((None, m), a, a),
                                  ((a, None), c, [0] * (order + 1))):
        seen = handed(subst, given)
        assert all(formal or type(s) is int for s in seen[1:])
        assert [seen[k] + missing[k] for k in range(1, order + 1)] \
            == list(expected[1:])


AFFINE_KINDS = ("plain", "A = 0", "B = 0", "zeros", "constants")


def _affine_r(rng, order, kind):
    """An R-transform A + tB through z^order with at least one TPoly among
    r_1..r_order: "A = 0" and "B = 0" drop a part, "zeros" makes most
    coefficients a rational or TPoly zero, and "constants" makes some
    constant TPolys beside rationals."""
    t = formal_t()

    def q():
        return F(rng.choice((-3, -1, 0, 0, 1, 2)), rng.choice((1, 2, 3, 5)))

    cs = [F(0)]
    for _ in range(order):
        if kind == "zeros" and rng.random() < 0.7:
            cs.append(rng.choice((F(0), TPoly(()))))
        elif kind == "constants":
            cs.append(rng.choice((q(), TPoly.constant(q()))))
        else:
            a = F(0) if kind == "A = 0" else q()
            b = F(0) if kind == "B = 0" else q()
            cs.append(rng.choice((a + b * t, TPoly((a, b)))))
    if TPoly not in map(type, cs):
        k = rng.randint(1, order)
        cs[k] = TPoly.constant(cs[k])
    return TruncSeries(order + rng.randint(0, 2), cs)


def _spy_fill(mp):
    """Patch ``_fill`` everywhere with a wrapper; returns the list it appends
    one entry to per call."""
    kernel, calls = functionals._fill, []

    def spy(*args):
        calls.append(args[0])
        return kernel(*args)

    _patch_kernel(mp, "_fill", spy)
    return calls


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 24),
       st.sampled_from(AFFINE_KINDS))
def test_affine_r_expansion_matches_the_solve(seed, order, kind):
    """moments_from_r on an R affine in t expands R = A + tB over Q without a
    solve, and gives every moment the value and the ring of the forward
    solve: Fraction(0) before the first nonzero r_k, and a TPoly from there
    on exactly when one of r_1..r_k is, a zero or constant TPoly included."""
    r = _affine_r(random.Random(seed), order, kind)
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_fill(mp)
        got = moments_from_r(r, order)
    assert calls == []
    assert _typed(got) == _typed(_solve_moments(r, order))


SOURCES = ("moments_from_r affine", "moments_from_r solve", "free_power",
           "maassen_semigroup", "free_convolve")


def _built_from_r(rng, order, source, exponent):
    """A functional of the given order built from an R-transform."""
    t = formal_t()
    formal = rng.random() < 0.5
    kind = rng.choice(("plain", "zeros", "zero-polys", "constants"))
    if source == "moments_from_r affine":
        return moments_from_r(
            _affine_r(rng, order, rng.choice(AFFINE_KINDS)), order)
    if source == "moments_from_r solve":
        return moments_from_r(
            r_from_moments(_draw(rng, order, formal, kind)).scale(
                rng.choice((F(1), t * t, 1 + t * t))), order)
    if source == "free_power":
        return free_power(_draw(rng, order, formal, kind),
                          _exponent(rng, exponent))
    if source == "maassen_semigroup":
        rho = _draw(rng, max(order - 2, 1), formal, kind)
        beta = rng.choice((F(0), F(rng.randint(-3, 3), 2), t - 1))
        gamma = rng.choice((F(0), F(1, 2), 1 + t))
        triple = (CanonicalTriple(beta, gamma, rho) if gamma
                  else CanonicalTriple(beta, 0, None))
        return maassen_semigroup(triple, _exponent(rng, exponent), order)
    return free_convolve(_draw(rng, order, formal, kind),
                         free_power(_draw(rng, order, formal, kind),
                                    _exponent(rng, exponent)))


def _typed_series(series):
    return series.order, [(type(c), c) for c in series.coeffs()]


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 14),
       st.sampled_from(SOURCES), st.sampled_from(EXPONENTS), st.booleans())
def test_carried_r_matches_the_solve(seed, order, source, exponent, cut):
    """A functional built from an R-transform carries it, also through
    truncate, and r_from_moments hands it back without a solve, value for
    value and ring for ring as the solve on a copy built from its moments
    alone: kappa_k is a TPoly exactly when one of m_1..m_k is."""
    rng = random.Random(seed)
    mf = _built_from_r(rng, order, source, exponent)
    if cut:
        mf = mf.truncate(rng.randint(1, order))
    assert mf._r is not None and mf._r[0].order == mf.order
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_fill(mp)
        got = r_from_moments(mf)
    assert calls == []
    want = r_from_moments(MomentFunctional(mf.order, mf.moments()))
    assert _typed_series(got) == _typed_series(want)


def test_r_from_moments_solves_without_a_carried_r():
    """A family, a decoded document and a functional built from a list carry
    no R-transform, so r_from_moments solves for it."""
    mf = MomentFunctional(6, [F(1, 2), 1, F(-1, 3), 2, 0, 5])
    for given_mf in (free_meixner(F(1, 2), F(-1, 3), 1, 2, 8),
                     docs.decode(docs.encode_functional(free_power(mf, 2))),
                     mf):
        assert given_mf._r is None
        with pytest.MonkeyPatch.context() as mp:
            calls = _spy_fill(mp)
            r_from_moments(given_mf)
        assert calls == [given_mf.order]
