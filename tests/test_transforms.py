import hashlib
import importlib
import itertools
import operator
import pkgutil
import random
from fractions import Fraction as F

import pytest
from extra_ops import solve_moments
from hypothesis import assume, given, settings, strategies as st
from test_convolutions import DRAW_KINDS, EXPONENTS, _draw, _exponent, _typed

import freeconv
from freeconv import coeffs, docs, transforms
from freeconv.coeffs import ONE, TPoly, evaluate, formal_t
from freeconv.convolutions import (
    boolean_convolve,
    boolean_power,
    free_convolve,
    free_deconvolve,
    free_power,
    monotone_convolve,
    two_state_power,
)
from freeconv.evolution import (
    belinschi_nica,
    bercovici_pata,
    bercovici_pata_inverse,
    maassen_semigroup,
    phi_map,
    strip,
    subordination,
    subordination_inverse,
    two_state_semigroup,
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
from freeconv.oracle import (MAX_ORACLE_ORDER, boolean_cumulants_oracle,
                             free_cumulants_oracle,
                             moments_from_free_cumulants)
from freeconv.series import LaurentAtInfinity, TruncSeries
from freeconv.transforms import (
    belinschi_nica_eta,
    cauchy_g,
    eta_from_moments,
    f_at_infinity,
    f_inverse_at_infinity,
    m_series,
    moments_from_eta,
    moments_from_r,
    moments_from_scaled_r,
    r_from_moments,
    tilde_from_two_state_r,
    two_state_from_scaled_r,
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
    replaced.  Re-recorded when every operation came to give its outputs
    one ring: 6 of the 156 outputs changed, each only in a rational that
    became a constant TPoly of the same value, all read off a formal free
    power.  Re-recorded when the series product, reciprocal and composition
    over Q[t] moved to packed ints, which give every output coefficient a
    TPoly when an input coefficient is one: 48 of the 156 outputs changed,
    again each only in rationals that became constant TPolys of the same
    values."""
    digest = hashlib.sha256(repr(_reversion_path_outputs()).encode())
    assert digest.hexdigest() == (
        "619df669fa694f64f90e2b62c1397815045722c15d963663dc8fdef13b6e2668")


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


SOLVE_KERNELS = ("_add_diagonal", "_packed_rows", "_fill", "_substitute_at",
                 "_split_sum", "_graded")


# The grading and packing of Q[t] values, the graded-integer driver, its
# reader and the ring test, owned by ``coeffs``, and the modules that use
# each one: only the word layer's own driver picks B or reads digits outside
# ``coeffs``, and ``transforms`` packs power-table rows in z with ``_pack``.
PACKING = {"_grade": {"series", "transforms", "multivariate", "functionals"},
           "_scaled": {"transforms", "functionals"},
           "_norms": set(),
           "_bits": {"multivariate"},
           "_pack": {"multivariate", "transforms"},
           "_unpack": {"multivariate"},
           "_on_ints": {"series", "transforms", "oracle"},
           "_read": {"series", "transforms", "oracle"},
           "_polys": {"series", "transforms", "docs"}}


def test_only_transforms_holds_the_solve_kernels():
    """``transforms`` owns the single-variable solves: no other freeconv
    module holds one of its kernel objects, checked by identity, so that
    ``oracle._graded``, the oracle's own grading, is another object.  Only
    ``evolution`` also holds ``_strip_once``, where the Jacobi wrong-path
    tests patch it.  The grading and packing of Q[t] values, and the one
    driver that runs a kernel on them and reads its outputs back, live in
    ``coeffs``, below the series engine, both solve layers, the partition
    oracle and the Jacobi reads of ``functionals``, and each of those holds
    exactly the ones it uses (``PACKING``); the per-layer drivers they
    replaced are gone."""
    assert not hasattr(transforms, "_width")
    assert not hasattr(freeconv.series, "_from_packed")
    owners = {name: {"transforms"} for name in (
        "_fill", "_graded", "_add_diagonal", "_packed_rows", "_slot_bytes",
        "_substitute_at", "_split_sum", "_moment_table", "_as_ring", "_eta")}
    owners["_strip_once"] = {"transforms", "evolution"}
    kernels = {id(getattr(transforms, name)): name for name in owners}
    for name, users in PACKING.items():
        owners[name] = {"coeffs"} | users
        kernels[id(getattr(coeffs, name))] = name
    modules = [freeconv] + [
        importlib.import_module(f"freeconv.{info.name}")
        for info in pkgutil.iter_modules(freeconv.__path__)]
    held = {(module.__name__.removeprefix("freeconv."), kernels[id(obj)])
            for module in modules for obj in vars(module).values()
            if id(obj) in kernels}
    assert held <= {(owner, name) for name, names in owners.items()
                    for owner in names}
    assert {(user, name) for name, users in PACKING.items()
            for user in users} <= held


def _patch_kernel(mp, name, fn):
    """Replace the ``transforms`` kernel ``name`` by fn: no other module
    holds it (``test_only_transforms_holds_the_solve_kernels``)."""
    mp.setattr(transforms, name, fn)


def test_cross_checks_share_no_solve_kernel(monkeypatch):
    """The reversion path, the partition oracle, the Jacobi rows read by the
    Chebyshev algorithm and their expansion still run, and agree with the
    primary path, when every solve kernel of ``transforms`` raises."""
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


def test_cross_checks_share_no_solve_kernel_over_formal_t(monkeypatch):
    """Over Q[t] too, the reversion path and the partition oracle run on
    the graded driver alone, with every solve kernel of ``transforms``
    raising, and agree with the solves' outputs."""
    rng = random.Random(34)
    t = formal_t()

    def draw(order):
        return MomentFunctional(order, [
            F(rng.randint(-3, 3), rng.randint(1, 3))
            + F(rng.randint(-2, 2), rng.randint(1, 3)) * t
            for _ in range(order)])

    mf = draw(8)
    pair = TwoStatePair(draw(8), draw(8))
    phi, kappa, r2 = voiculescu_phi(mf), r_from_moments(mf), two_state_r(pair)
    eta = eta_from_moments(mf)

    def broken(*args):
        raise AssertionError("a solve kernel ran")

    for name in SOLVE_KERNELS:
        _patch_kernel(monkeypatch, name, broken)
    with pytest.raises(AssertionError):
        r_from_moments(mf)

    assert voiculescu_phi_by_reversion(mf) == phi
    assert two_state_r_by_reversion(pair) == r2
    assert free_cumulants_oracle(mf) == list(kappa.coeffs()[1:])
    assert boolean_cumulants_oracle(mf) == list(eta.coeffs()[1:])
    assert moments_from_free_cumulants(kappa.coeffs()[1:], ONE, 8) == mf


def _nine_solves(mu, nu, r):
    """The output coefficients of every triangular solve over one input set:
    the functionals mu and nu and the series r, all of one order."""
    n = mu.order
    out = [
        r_from_moments(mu).coeffs(),
        solve_moments(r, n).moments(),
        eta_from_moments(mu).coeffs(),
        moments_from_eta(r, n).moments(),
        two_state_r(TwoStatePair(mu, nu)).coeffs(),
        tilde_from_two_state_r(r, nu).moments(),
        subordination(mu, nu).moments(),
        subordination_inverse(mu, nu).moments(),
    ]
    if n >= 3 and mu.mean_var()[1] != 0:  # the stripped order n - 2 >= 1
        out.append(transforms._strip_once(mu, *mu.mean_var()).moments())
    return out


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
       st.sampled_from([(1,), (3, 5, 7, 11), (1, 3, 5, 7, 11), (2, 9)]))
def test_graded_int_solves_match_generic_path(seed, order, denominators):
    """Over Q every solve runs on ints scaled by D^k and returns Fractions
    equal to the packed path's, which one constant TPoly coefficient in mu
    and in r selects.  r's constant term, which no solve reads, is not an
    integer, and does not keep a solve off the ints.  The coprime
    denominators make D large; a third of the draws are zero."""
    rng = random.Random(seed)

    def draw():
        return [F(rng.choice((-3, -1, 0, 0, 1, 2)), rng.choice(denominators))
                for _ in range(order)]

    mu, nu = MomentFunctional(order, draw()), MomentFunctional(order, draw())
    r = TruncSeries(order, [F(1, 2)] + draw())
    kernel, filled = transforms._fill, []

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
                           TruncSeries(order, [F(1, 2),
                                               TPoly.constant(r.coeff(1))]
                                       + list(r.coeffs()[2:])))
    assert any(isinstance(c, TPoly) for cs in generic for c in cs)
    assert [list(cs) for cs in graded] == [list(cs) for cs in generic]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 14), st.booleans())
def test_fill_substitution_matches_series_composition(seed, order, formal):
    """Each ``subst`` form of ``transforms._fill`` hands its rule
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
        d, _ = transforms._grade(
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

        transforms._fill(order, rule, subst)
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
    kernel, calls = transforms._fill, []

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
    solve: R holds a TPoly, a zero or constant one included, so every moment
    is a TPoly."""
    r = _affine_r(random.Random(seed), order, kind)
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_fill(mp)
        got = moments_from_r(r, order)
    assert calls == []
    assert _typed(got) == _typed(solve_moments(r, order))


def _formal_r(rng, order, kind):
    """An R-transform over Q[t] through z^order or a little past it: the
    coefficients of a formal ``_draw``, with a constant TPoly put in where
    r_1..r_order hold none."""
    top = order + rng.randint(0, 2)
    cs = [F(0)] + list(_draw(rng, top, True, kind).moments())
    if TPoly not in map(type, cs[:order + 1]):
        k = rng.randint(1, order)
        cs[k] = TPoly.constant(cs[k])
    return TruncSeries(top, cs)


def _values_at(cs, t0):
    return [evaluate(c, t0) for c in cs]


def _at(series, t0):
    return TruncSeries(series.order, _values_at(series.coeffs(), t0))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 14),
       st.sampled_from(DRAW_KINDS),
       st.sampled_from(("t", "1 + t", "t/3 + 2", "rational")))
def test_scaled_r_over_q_t_matches_the_expansion_at_rational_t(
        seed, order, kind, exponent):
    """An R (or R2) over Q[t] takes the forward solves of s R, and gives
    every output as a TPoly.  Specialised at two rational t0 with
    s(t0) != 0, each output equals the expansion over Q of the specialised
    R, R2 and s, value for value; that expansion solves nothing for R or
    R2."""
    rng = random.Random(seed)
    t = formal_t()
    s = {"t": t, "1 + t": 1 + t, "t/3 + 2": t / 3 + 2,
         "rational": F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))}[exponent]
    r, r2 = _formal_r(rng, order, kind), _formal_r(rng, order, kind)
    mu = moments_from_scaled_r(r, s, order)
    pair = two_state_from_scaled_r(r2, r, s, order)
    eta = belinschi_nica_eta(r, s, order).coeffs()[1:]
    outs = (mu.moments(), pair.tilde.moments(), pair.base.moments(), eta)
    assert all(type(c) is TPoly for cs in outs for c in cs)
    t0s = [x for x in (F(-3), F(-1, 2), F(1, 3), F(2), F(5))
           if evaluate(s, x)]
    for t0 in rng.sample(t0s, 2):
        s0, r0, r20 = evaluate(s, t0), _at(r, t0), _at(r2, t0)
        want = two_state_from_scaled_r(r20, r0, s0, order)
        assert _values_at(mu.moments(), t0) == list(
            moments_from_scaled_r(r0, s0, order).moments())
        assert _values_at(pair.base.moments(), t0) == list(want.base.moments())
        assert _values_at(pair.tilde.moments(), t0) == list(
            want.tilde.moments())
        assert _values_at(eta, t0) == list(
            belinschi_nica_eta(r0, s0, order).coeffs()[1:])


@pytest.mark.parametrize("formal", (False, True))
def test_belinschi_nica_eta_refuses_unknown_cumulants(formal):
    """An R known to order 3 gives eta through order 3 and refuses order 6,
    over Q and over Q[t], where zero padding would read the unknown
    cumulants as 0."""
    t = formal_t()
    r = TruncSeries(3, [F(0), F(1, 2), t if formal else F(1), F(-1, 3)])
    assert belinschi_nica_eta(r, 1 + t, 3).order == 3
    for s in (F(2), 1 + t):
        with pytest.raises(ValueError, match="cumulants known to order 3 < 6"):
            belinschi_nica_eta(r, s, 6)


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
    alone: every kappa_k is a TPoly when one of m_1..m_N is, and a Fraction
    otherwise."""
    rng = random.Random(seed)
    mf = _built_from_r(rng, order, source, exponent)
    if cut:
        mf = mf.truncate(rng.randint(1, order))
    assert mf._from[0] == "R" and mf._from[1].order >= mf.order
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_fill(mp)
        got = r_from_moments(mf)
    assert calls == []
    want = r_from_moments(MomentFunctional(mf.order, mf.moments()))
    assert _typed_series(got) == _typed_series(want)


ETA_SOURCES = ("moments_from_eta", "phi_map", "boolean_power",
               "boolean_convolve", "tilde_from_two_state_r",
               "two_state_from_scaled_r", "belinschi_nica",
               "bercovici_pata_inverse", "point_mass")


def _built_from_eta(rng, order, source, exponent):
    """A functional of at least the given order built from its eta: by
    ``moments_from_eta`` itself, by each operator that ends in it, or by
    ``point_mass``, over Q or over Q[t]."""
    t = formal_t()
    formal = rng.random() < 0.5
    kind = rng.choice(DRAW_KINDS)

    def draw(n=order):
        return _draw(rng, n, formal, kind)

    def series():
        top = order + rng.randint(0, 2)
        return TruncSeries(top, [F(0)] + list(draw(top).moments()))

    if source == "moments_from_eta":
        return moments_from_eta(series(), order)
    if source == "phi_map":
        return phi_map(draw(max(order - 2, 1)))
    if source == "boolean_power":
        return boolean_power(draw(), _exponent(rng, exponent))
    if source == "boolean_convolve":
        return boolean_convolve(draw(), draw())
    if source == "tilde_from_two_state_r":
        return tilde_from_two_state_r(series(), draw())
    if source == "two_state_from_scaled_r":
        return two_state_from_scaled_r(series(), series(),
                                       _exponent(rng, exponent), order).tilde
    if source == "belinschi_nica":
        s = _exponent(rng, exponent)
        return belinschi_nica(draw(), s if 1 + s else t)
    if source == "bercovici_pata_inverse":
        return bercovici_pata_inverse(draw())
    beta = rng.choice((F(0), F(rng.randint(-3, 3), 2), t - 1, TPoly(()),
                       TPoly.constant(2)))
    return point_mass(beta, order)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 14),
       st.sampled_from(ETA_SOURCES), st.sampled_from(EXPONENTS), st.booleans())
def test_carried_eta_matches_the_solve(seed, order, source, exponent, cut):
    """A functional built from its eta carries it, also through truncate, and
    eta_from_moments hands it back without a solve, value for value and
    ring for ring as the solve on a copy built from its moments alone:
    every eta_k is a TPoly when one of m_1..m_N is, and a Fraction
    otherwise."""
    rng = random.Random(seed)
    mf = _built_from_eta(rng, order, source, exponent)
    if cut:
        mf = mf.truncate(rng.randint(1, mf.order))
    assert mf._from[0] == "eta" and mf._from[1].order >= mf.order
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_fill(mp)
        got = eta_from_moments(mf)
    assert calls == []
    want = eta_from_moments(MomentFunctional(mf.order, mf.moments()))
    assert _typed_series(got) == _typed_series(want)


# builder: run(draw, series, s), draw(n) a functional of order n, series(n)
# a series through z^n, both drawn over Q or over Q[t], and s an exponent
LAZY_BUILDERS = {
    "moments_from_r": lambda draw, series, s: moments_from_r(
        series(draw.order), draw.order),
    "moments_from_scaled_r": lambda draw, series, s: moments_from_scaled_r(
        series(draw.order), s, draw.order),
    "moments_from_eta": lambda draw, series, s: moments_from_eta(
        series(draw.order), draw.order),
    "free_power": lambda draw, series, s: free_power(draw(), s),
    "free_convolve": lambda draw, series, s: free_convolve(
        draw(), free_power(draw(), s)),
    "free_deconvolve": lambda draw, series, s: free_deconvolve(draw(), draw()),
    "subordination": lambda draw, series, s: subordination(draw(), draw()),
    "maassen_semigroup": lambda draw, series, s: maassen_semigroup(
        CanonicalTriple(F(1, 2), F(1), draw(max(draw.order - 2, 1))), s,
        draw.order),
    "phi_map": lambda draw, series, s: phi_map(draw(max(draw.order - 2, 1))),
    "boolean_power": lambda draw, series, s: boolean_power(draw(), s),
    "boolean_convolve": lambda draw, series, s: boolean_convolve(
        draw(), boolean_power(draw(), s)),
    "belinschi_nica": lambda draw, series, s: belinschi_nica(
        draw(), s if 1 + s else formal_t()),
    "bercovici_pata": lambda draw, series, s: bercovici_pata(draw()),
    "bercovici_pata_inverse": lambda draw, series, s: bercovici_pata_inverse(
        draw()),
    "tilde_from_two_state_r": lambda draw, series, s: tilde_from_two_state_r(
        series(draw.order), draw()),
    "two_state_from_scaled_r": lambda draw, series, s: two_state_from_scaled_r(
        series(draw.order), series(draw.order), s, draw.order).tilde,
}


def _unread(mf):
    """Whether mf's moments are still to be built: reading ``_build`` never
    builds them, where reading ``_m`` would."""
    return getattr(mf, "_build", None) is not None


def _direct(mf):
    """m_1..m_N of a functional built from a transform, by the forward solve
    or expansion its builder leaves to the first read, run here directly on
    the transform that the functional carries."""
    n, (kind, x, *s) = mf.order, mf._from
    cs = list(x.coeffs()[:n + 1])
    if kind == "eta":
        return transforms._graded(lambda _, e: transforms._fill(
            n, lambda k, m, _: e[k] + transforms._split_sum(e, m, k)), cs)[1:]
    if s[0] is not ONE:
        return transforms._free_moments(
            *transforms._expansion(s[0], [cs], n)[1:])
    parts = transforms._affine_parts(cs)
    if parts is not None:
        return transforms._affine_moments(cs, *parts)
    return transforms._graded(lambda _, kappa: transforms._fill(
        n, lambda k, _, s: s, (kappa, None)), cs)[1:]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 24), st.booleans(),
       st.sampled_from(DRAW_KINDS), st.sampled_from(EXPONENTS),
       st.sampled_from(sorted(LAZY_BUILDERS)), st.booleans())
def test_moments_built_on_first_read_match_the_direct_solve(
        seed, order, formal, kind, exponent, builder, cut):
    """Each builder from a transform, and each operator that ends in one,
    returns a functional whose moments are not yet built; on their first
    read they equal, type for type, the forward solve or expansion run
    directly on the transform it carries.  A truncation of an unread
    functional stays unread, and its first read reads its parent."""
    rng = random.Random(seed)

    def draw(n=order):
        return _draw(rng, n, formal, kind)

    def series(n):
        return TruncSeries(n, [F(0)] + list(draw(n).moments()))

    draw.order = order
    mf = LAZY_BUILDERS[builder](draw, series, _exponent(rng, exponent))
    assert _unread(mf)
    want = [(type(c), c) for c in _direct(mf)]
    if cut:
        part = mf.truncate(rng.randint(1, mf.order))
        assert _unread(part) and _unread(mf)
        assert _typed(part) == want[:part.order]
        assert not _unread(mf)
    assert _typed(mf) == want


def _spy_builds(mp):
    """Patch ``_fill``, ``_expansion`` and ``MomentFunctional.__getattr__``,
    which builds the moments of an unread functional, with wrappers; returns
    the list of the names called."""
    calls = []

    def spy(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for name in ("_fill", "_expansion"):
        _patch_kernel(mp, name, spy(name, getattr(transforms, name)))
    mp.setattr(MomentFunctional, "__getattr__",
               spy("__getattr__", MomentFunctional.__getattr__))
    return calls


def test_a_carried_read_runs_no_solve_and_a_second_read_runs_nothing():
    """Reading the carried R or eta of an unread functional builds none of
    its moments; the first read of the moments runs the deferred solve or
    expansion, and every later read, by any route, runs nothing."""
    t = formal_t()
    mu = MomentFunctional(8, [F(1, 2), 1, F(-1, 3), 2, 0, 5, F(1, 7), 3])
    nu = MomentFunctional(8, [t, 1 + t, F(1, 3), 2 * t, 0, 5, t * t, 1])
    builds = [
        (free_power(mu, F(3, 2)), r_from_moments, "_expansion"),
        (free_power(mu, t), r_from_moments, "_expansion"),
        (free_power(nu, 2), r_from_moments, "_fill"),
        (free_convolve(mu, nu), r_from_moments, "_fill"),
        (boolean_power(nu, t).truncate(5), eta_from_moments, "_fill"),
        (phi_map(mu), eta_from_moments, "_fill"),
    ]
    for mf, carried, kernel in builds:
        with pytest.MonkeyPatch.context() as mp:
            calls = _spy_builds(mp)
            carried(mf)
            assert calls == []
            first = mf.moments()
            assert "__getattr__" in calls and kernel in calls
            del calls[:]
            assert mf.moments() is first
            assert mf.m(mf.order) == first[-1]
            assert mf == MomentFunctional(mf.order, first)
            hash(mf), repr(mf), mf.mean_var()
            docs.encode_functional(mf)
            carried(mf)
            assert calls == []


def test_the_builders_refuse_an_order_at_the_call():
    """An order above the transform's, or below 1, raises at the call of
    each builder, before any solve or expansion runs."""
    t = formal_t()
    r = TruncSeries(4, [0, F(1, 2), 1, F(-1, 3), 2])
    rt = TruncSeries(4, [0, t, 1, F(-1, 3), 2])
    builders = [
        lambda n: moments_from_r(r, n), lambda n: moments_from_r(rt, n),
        lambda n: moments_from_scaled_r(r, F(3, 2), n),
        lambda n: moments_from_scaled_r(r, t, n),
        lambda n: moments_from_scaled_r(rt, F(3, 2), n),
        lambda n: moments_from_eta(r, n), lambda n: moments_from_eta(rt, n),
    ]
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_builds(mp)
        for build in builders:
            with pytest.raises(ValueError, match="known to order 4 < 5"):
                build(5)
            with pytest.raises(ValueError, match="order must be >= 1"):
                build(0)
    assert calls == []
    assert [build(4).order for build in builders] == [4] * len(builders)


# op: (number of inputs, whether it takes the parameter s, run), where
# run(ins, s, n), each input a list c_1..c_n, gives one pair per output: its
# coefficients and the indices of the inputs it reads
RULE_OPS = {
    "r_from_moments solved": (1, False, lambda ins, s, n: [
        (r_from_moments(_mf(ins[0])).coeffs()[1:], {0})]),
    "r_from_moments carried": (1, True, lambda ins, s, n: [
        (_carried(free_power(_mf(ins[0]), s), "R", r_from_moments), {0})]),
    "moments_from_r affine": (1, False, lambda ins, s, n: [
        (moments_from_r(_series(ins[0]), n).moments(), {0})]),
    "moments_from_r solve": (1, False, lambda ins, s, n: [
        (moments_from_r(_series(ins[0]), n).moments(), {0})]),
    "eta_from_moments": (1, False, lambda ins, s, n: [
        (eta_from_moments(_mf(ins[0])).coeffs()[1:], {0})]),
    "eta_from_moments carried": (1, True, lambda ins, s, n: [
        (_carried(boolean_power(_mf(ins[0]), s), "eta", eta_from_moments),
         {0})]),
    "moments_from_eta": (1, False, lambda ins, s, n: [
        (moments_from_eta(_series(ins[0]), n).moments(), {0})]),
    "two_state_r": (2, False, lambda ins, s, n: [
        (two_state_r(TwoStatePair(*map(_mf, ins))).coeffs()[1:], {0, 1})]),
    "tilde_from_two_state_r": (2, False, lambda ins, s, n: [
        (tilde_from_two_state_r(_series(ins[0]), _mf(ins[1])).moments(),
         {0, 1})]),
    "monotone_convolve": (2, False, lambda ins, s, n: [
        (monotone_convolve(*map(_mf, ins)).moments(), {0, 1})]),
    "free_power": (1, True, lambda ins, s, n: [
        (free_power(_mf(ins[0]), s).moments(), {0})]),
    "two_state_power": (2, True, lambda ins, s, n: _pair_outputs(
        two_state_power(TwoStatePair(*map(_mf, ins)), s))),
    "maassen_semigroup": (1, True, lambda ins, s, n: [
        (maassen_semigroup(_triple(ins[0]), s, n + 2).moments(), {0})]),
    "two_state_semigroup": (2, True, lambda ins, s, n: _pair_outputs(
        two_state_semigroup(*map(_triple, ins), s, n + 2))),
    "belinschi_nica": (1, True, lambda ins, s, n: [
        (belinschi_nica(_mf(ins[0]), s).moments(), {0})]),
    "strip": (1, False, lambda ins, s, n: [
        (strip(_mf(ins[0])).moments(), {0})]),
    "phi_map": (1, False, lambda ins, s, n: [
        (phi_map(_mf(ins[0])).moments(), {0})]),
}


def _mf(cs):
    return MomentFunctional(len(cs), cs)


def _series(cs):
    return TruncSeries(len(cs), [F(0)] + cs)


def _triple(cs):
    """The triple (1/2, 1, rho) with the moments cs of rho."""
    return CanonicalTriple(F(1, 2), F(1), _mf(cs))


def _carried(mf, kind, read):
    """read(mf) for the transform of this kind that mf carries."""
    assert mf._from[0] == kind
    return read(mf).coeffs()[1:]


def _pair_outputs(pair):
    """The base reads only input 1 of a pair op, the tilde both."""
    return [(pair.base.moments(), {1}), (pair.tilde.moments(), {0, 1})]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12),
       st.sampled_from(DRAW_KINDS),
       st.sampled_from(("rational", "late", "zero TPoly", "t")),
       st.sampled_from(sorted(RULE_OPS)))
def test_every_output_of_an_operation_has_one_ring(seed, order, kind, mode,
                                                   op):
    """Each operation gives every output coefficient one ring: a TPoly when
    an input coefficient it reads or its parameter is one, and a Fraction
    otherwise.  The inputs are rational draws; "late" makes the last
    coefficient of one input a TPoly of the same value (c + t^2 for the
    solve of moments_from_r, which an R affine in t does not reach),
    "zero TPoly" puts the zero TPoly at one place of one input, and "t" makes
    the parameter t itself.  A pair op's base reads only the base."""
    rng = random.Random(seed)
    n = max(order, 3) if op == "strip" else order
    count, takes_s, run = RULE_OPS[op]
    ins = [list(_draw(rng, n, False, kind).moments()) for _ in range(count)]
    s = formal_t() if mode == "t" else rng.choice(
        (F(0), F(-2), F(-1, 3), F(1, 2), F(3)))
    hit = rng.randrange(count)
    if mode == "late":
        c = ins[hit][-1]
        ins[hit][-1] = (c + formal_t() ** 2 if op == "moments_from_r solve"
                        else TPoly.constant(c))
    elif mode == "zero TPoly":
        ins[hit][rng.randrange(n)] = TPoly(())
    if op == "strip":
        m1, m2 = ins[0][:2]
        assume(m2 - m1 * m1)
    for out, reads in run(ins, s, n):
        poly = (mode in ("late", "zero TPoly") and hit in reads
                or mode == "t" and takes_s)
        assert [type(c) for c in out] == [TPoly if poly else F] * len(out)


def test_r_from_moments_solves_without_a_carried_r():
    """A family, a decoded document and a functional built from a list carry
    no transform, so r_from_moments and eta_from_moments solve for theirs.
    A point mass carries its eta = beta w, and r_from_moments solves for R
    on it (over Q[t] the packed path runs its majorant solve too)."""
    mf = MomentFunctional(6, [F(1, 2), 1, F(-1, 3), 2, 0, 5])
    for given_mf in (free_meixner(F(1, 2), F(-1, 3), 1, 2, 8),
                     docs.decode(docs.encode_functional(free_power(mf, 2))),
                     docs.decode(docs.encode_functional(phi_map(mf))),
                     mf):
        assert given_mf._from is None
        for read in (r_from_moments, eta_from_moments):
            with pytest.MonkeyPatch.context() as mp:
                calls = _spy_fill(mp)
                read(given_mf)
            assert calls == [given_mf.order]
    for beta in (F(-3, 2), formal_t() - 1):
        dirac = point_mass(beta, 5)
        assert dirac._from == ("eta", TruncSeries(5, [0, beta]))
        with pytest.MonkeyPatch.context() as mp:
            calls = _spy_fill(mp)
            assert eta_from_moments(dirac) == TruncSeries(5, [0, beta])
            assert calls == []
            r_from_moments(dirac)
            assert calls and set(calls) == {5}


# name: (number of inputs, run), where run(ins, n), each input a list
# c_1..c_n, gives the outputs k >= 1 of one single-variable solve
PACKED_SOLVES = {
    "r_from_moments": (1, lambda ins, n: r_from_moments(
        _mf(ins[0])).coeffs()[1:]),
    "solve_moments": (1, lambda ins, n: solve_moments(
        _series(ins[0]), n).moments()),
    "_eta": (1, lambda ins, n: transforms._eta(_mf(ins[0]))[1:]),
    "moments_from_eta": (1, lambda ins, n: moments_from_eta(
        _series(ins[0]), n).moments()),
    "two_state_r": (2, lambda ins, n: two_state_r(
        TwoStatePair(*map(_mf, ins))).coeffs()[1:]),
    "_substitute_divide": (2, lambda ins, n: transforms._substitute_divide(
        _series(ins[0]), _mf(ins[1]), n).coeffs()[1:]),
    "_composition": (2, lambda ins, n: transforms._composition(
        *map(_mf, ins), n)[1:]),
}


def _run_path(mp, path, run, ins, n):
    """The typed outputs of run on ins with ``_graded`` held to one path:
    "packed" for every gradable Q[t] solve, "tpoly" for none, and "chosen"
    by the slack rule; and how many outputs were read from a packed int."""
    unpack, unpacked = coeffs._unpack, []

    def spy(*args):
        unpacked.append(args)
        return unpack(*args)

    mp.setattr(coeffs, "_unpack", spy)
    if path != "chosen":
        mp.setattr(transforms, "_SLACK",
                   float("inf") if path == "packed" else float("-inf"))
    out = [(type(c), c) for c in run(ins, n)]
    mp.undo()
    return out, len(unpacked)


def _free_poisson(n):
    """m_1..m_n of the free Poisson law of rate t and jump 1: its free
    cumulants are all t, so r_from_moments cancels every sum down to t."""
    return list(moments_from_r(
        TruncSeries(n, [F(0)] + [formal_t()] * n), n).moments())


def _order_48_inputs():
    """(solve, inputs, packs) at order 48 on each side of the slack rule: a
    forward solve, whose majorant passes its input digits by a few bits, and
    the inverse solve of the free Poisson law, whose majorant passes them by
    more than ``_SLACK`` bits, so that it runs on TPoly arithmetic."""
    rng = random.Random(48)
    plain = [list(_draw(rng, 48, True, "plain").moments()) for _ in range(2)]
    return [("_composition", plain, True),
            ("r_from_moments", [_free_poisson(48)], False)]


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 24),
       st.sampled_from(DRAW_KINDS), st.sampled_from(sorted(PACKED_SOLVES)))
def test_packed_solves_match_the_tpoly_path_type_for_type(seed, order, kind,
                                                          name):
    """Every single-variable solve on Q[t] inputs gives, read back from ints
    packed at t = 2^B, the outputs of the same kernels on TPoly arithmetic,
    value for value and ring for ring.  The draws are formal ones of every
    kind: mostly zero, zero TPolys and constant TPolys among rationals.
    The outputs k >= 1 are read by ``_unpack`` exactly when an input holds
    a TPoly."""
    rng = random.Random(seed)
    count, run = PACKED_SOLVES[name]
    ins = [list(_draw(rng, order, True, kind).moments())
           for _ in range(count)]
    poly = TPoly in map(type, itertools.chain.from_iterable(ins))
    with pytest.MonkeyPatch.context() as mp:
        packed, unpacked = _run_path(mp, "packed", run, ins, order)
        generic, none = _run_path(mp, "tpoly", run, ins, order)
    assert packed == generic
    assert (unpacked >= len(packed)) == poly and none == 0


@pytest.mark.parametrize("name,ins,packs", _order_48_inputs(),
                         ids=("packs", "past-the-slack"))
def test_the_slack_rule_at_order_48(name, ins, packs):
    """At order 48 the slack rule sends a random _composition to the packed
    path and the cancelling r_from_moments of a free Poisson law of rate t
    to the TPoly path; each gives what the other path gives, type for
    type."""
    _, run = PACKED_SOLVES[name]
    with pytest.MonkeyPatch.context() as mp:
        chosen, unpacked = _run_path(mp, "chosen", run, ins, 48)
        other, _ = _run_path(mp, "tpoly" if packs else "packed", run, ins, 48)
    assert unpacked == (48 if packs else 0)
    assert chosen == other


def test_packed_solve_one_bit_short_misreads_an_output():
    """The packed path reads each output through B-bit balanced digits, so
    B must pass the largest graded t-digit of every output.  The majorant
    run's B does; with B at the least width that holds every digit the
    outputs equal the TPoly path's, and one bit short some output differs,
    so the sweep above would see a B too small."""
    ins = [list(_draw(random.Random(7), 16, True, "plain").moments())]
    _, run = PACKED_SOLVES["r_from_moments"]
    d, _ = transforms._grade(enumerate([F(1)] + ins[0]))
    bits, widths = coeffs._bits, []

    def run_at(b):
        """The outputs packed at B = b, forced in the driver
        ``coeffs._on_ints``, or at the majorant's B, which is recorded in
        widths, when b is None."""
        def forced(top):
            widths.append(bits(top) if b is None else b)
            return widths[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coeffs, "_bits", forced)
            return _run_path(mp, "chosen", run, ins, 16)[0]

    want = run_at(None)
    with pytest.MonkeyPatch.context() as mp:
        assert want == _run_path(mp, "tpoly", run, ins, 16)[0]
    need = max((max(map(abs, c.nums)) * (d ** k // c.den)).bit_length() + 1
               for k, (_, c) in enumerate(want, 1) if c)
    assert widths[-1] >= need
    assert run_at(need) == want
    assert run_at(need - 1) != want


class _Majorant(int):
    """The ring the majorant runs used before they moved to plain ints: an
    int whose - acts as +, and whose unary - is the identity, kept here as
    the oracle of the plain-int runs."""

    __slots__ = ()

    def __add__(self, other):
        return _Majorant(int.__add__(self, other))

    __radd__ = __sub__ = __rsub__ = __add__

    def __mul__(self, other):
        return _Majorant(int.__mul__(self, other))

    __rmul__ = __mul__

    def __neg__(self):
        return self

    def __floordiv__(self, other):
        return _Majorant(int.__floordiv__(self, other))


def _majorant_top(solve, ins):
    """The largest output of solve, run with its difference - in
    ``_Majorant`` on the graded l1 norms of the driver's inputs ins, each
    (parts, D, q) with row k |c_k| q D^k, as ``coeffs._on_ints`` runs it:
    parts = (nums, dens), c_k = nums[k] / dens[k] with nums[k] an int or a
    ``TPoly``'s tuple of ints (``coeffs._grade``)."""
    norms = []
    for (nums, dens), d, q in ins:
        row, dk = [], abs(q)
        for n, den in zip(nums, dens):
            if type(n) is tuple:
                row.append(_Majorant(sum(map(abs, n)) * (dk // den)))
            else:
                row.append(_Majorant(abs(n) * (dk // den)))
            dk *= d
        norms.append(row)
    return max(solve(operator.sub, *norms))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 24),
       st.sampled_from(DRAW_KINDS), st.sampled_from(sorted(PACKED_SOLVES)))
def test_plain_int_majorant_matches_the_majorant_ring(seed, order, kind,
                                                      name):
    """Each single-variable solve bounds its packed outputs by a run on
    plain non-negative ints with ``add`` as its difference, in the driver
    ``coeffs._on_ints``; that run's largest output, and so B, equals the run
    in ``_Majorant``, where every - acts as +, bit for bit, on every draw
    kind."""
    rng = random.Random(seed)
    count, run = PACKED_SOLVES[name]
    ins = [list(_draw(rng, order, True, kind).moments())
           for _ in range(count)]
    on_ints, bits, calls, seen = transforms._on_ints, coeffs._bits, [], []

    def spy_on_ints(kernel, inputs, slack=None):
        calls.append((kernel, inputs))
        return on_ints(kernel, inputs, slack)

    def spy_bits(top):
        assert type(top) is int
        seen.append([_majorant_top(*calls[-1]), top])
        return bits(top)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transforms, "_on_ints", spy_on_ints)
        mp.setattr(coeffs, "_bits", spy_bits)
        run(ins, order)
    poly = TPoly in map(type, itertools.chain.from_iterable(ins))
    assert bool(seen) == poly
    assert all(want == got for want, got in seen)


# -- solves on inputs of short support ----------------------------------------

SUPPORTS = ("top", "head", "tail", "zero")


def _short(rng, n, support, formal=False):
    """c_1..c_n, zero outside a short support: one nonzero c_K ("top"),
    c_1..c_K with K <= 3, as a semicircle's or a point mass's R ("head"),
    c_K..c_n ("tail"), or none ("zero"), for a random K.  When formal the
    nonzero c_k have t-degree 1 or 2 and the zeros are zero TPolys."""
    t = formal_t()

    def draw():
        c = F(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3)))
        if formal:
            c += rng.choice((1, -2)) * t ** rng.randint(1, 2)
        return c

    k = rng.randint(1, n)
    keep = {"top": {k}, "head": set(range(1, min(k, 3) + 1)),
            "tail": set(range(k, n + 1)), "zero": set()}[support]
    zero = TPoly(()) if formal else F(0)
    return [draw() if i in keep else zero for i in range(1, n + 1)]


def _by_reversion(mf):
    """kappa_1..kappa_n of mf from the reversion path, phi = F^{<-1>} - z."""
    phi = voiculescu_phi_by_reversion(mf)
    return [phi.coeff(k) for k in range(mf.order)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
       st.sampled_from(SUPPORTS))
def test_short_support_solves_match_the_reversion_path_and_the_oracle(
        seed, order, support):
    """A substitution builds its power table only through the last nonzero
    coefficient it reads: a known R of short support stops the rows early,
    and an inverse solve adds rows as nonzero unknowns appear.  Over Q, on
    an R, an R2 and a monotone factor of short support, every solve that
    substitutes agrees with the reversion path or the series engine, which
    share no solve kernel, and up to MAX_ORACLE_ORDER with the partition
    oracle."""
    rng = random.Random(seed)
    n = order
    kappa = _short(rng, n, support)
    r = _series(kappa)
    mu = _mf(list(moments_from_r(r, n).moments()))  # carries no R
    nu = rand_functional(rng, n)
    assert _typed_series(r_from_moments(mu)) == _typed_series(r)
    assert _by_reversion(mu) == kappa

    r2 = _series(_short(rng, n, support))
    for base in (nu, mu):
        pair = TwoStatePair(tilde_from_two_state_r(r2, base), base)
        assert two_state_r(pair) == r2
        assert two_state_r_by_reversion(pair) == r2

    # W = z(1 + M^nu): R^{mu |> nu} = R^mu(W) (1 + M^nu)^{-1}, and
    # 1 + M^{a |> nu} = (1 + M^nu)(1 + M^a(W)), by series composition
    one = TruncSeries.one(n)
    w = TruncSeries(n, (F(0), F(1)) + nu.moments()[:n - 1])
    lam = subordination(mu, nu)
    want = list((r.compose(w) * (one + m_series(nu)).reciprocal())
                .coeffs()[1:])
    assert _by_reversion(lam) == want
    assert _by_reversion(monotone_convolve(nu, lam)) == [
        a + b for a, b in zip(kappa, _by_reversion(nu))]
    a = _mf(_short(rng, n, support))
    product = (one + m_series(nu)) * (one + m_series(a).compose(w))
    assert monotone_convolve(a, nu).moments() == product.coeffs()[1:]

    if n <= MAX_ORACLE_ORDER:
        assert free_cumulants_oracle(mu) == kappa
        assert free_cumulants_oracle(lam) == want


def _short_solves(rng, n, support):
    """(name, run, ins, want) for each solve on Q[t] inputs of short support
    beside a dense functional nu: run(ins, n) gives the outputs, and want
    the values they must equal, or None."""
    nu = list(_draw(rng, n, True, "plain").moments())
    kappa, r2, a = (_short(rng, n, support, True) for _ in range(3))
    mu = list(moments_from_r(_series(kappa), n).moments())
    tilde = list(tilde_from_two_state_r(_series(r2), _mf(nu)).moments())
    return [
        ("moments_from_r", lambda ins, n: moments_from_r(
            _series(ins[0]), n).moments(), [kappa], mu),
        ("solve_moments", lambda ins, n: solve_moments(
            _series(ins[0]), n).moments(), [kappa], mu),
        ("r_from_moments", lambda ins, n: r_from_moments(
            _mf(ins[0])).coeffs()[1:], [mu], kappa),
        ("two_state_r", lambda ins, n: two_state_r(
            TwoStatePair(*map(_mf, ins))).coeffs()[1:], [tilde, nu], r2),
        ("tilde_from_two_state_r", lambda ins, n: tilde_from_two_state_r(
            _series(ins[0]), _mf(ins[1])).moments(), [r2, nu], tilde),
        ("subordination", lambda ins, n: subordination(
            *map(_mf, ins)).moments(), [mu, nu], None),
        ("monotone_convolve", lambda ins, n: monotone_convolve(
            *map(_mf, ins)).moments(), [a, nu], None),
    ]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 24),
       st.sampled_from(SUPPORTS))
def test_short_support_solves_match_across_the_packed_and_tpoly_paths(
        seed, order, support):
    """Over Q[t], on inputs of short support, each solve gives the same
    outputs, value for value and ring for ring, packed at t = 2^B, on the
    TPoly arithmetic that the inverse solves take past ``_SLACK``, and by
    the slack rule; the inverse solves give back the short R and R2 they
    were built from."""
    rng = random.Random(seed)
    for name, run, ins, want in _short_solves(rng, order, support):
        with pytest.MonkeyPatch.context() as mp:
            outs = [_run_path(mp, path, run, ins, order)[0]
                    for path in ("packed", "tpoly", "chosen")]
        assert outs[0] == outs[1] == outs[2], name
        assert all(t is TPoly for t, _ in outs[0]), name
        if want is not None:
            assert [c for _, c in outs[0]] == list(want), name


# the four solves that substitute through the power table of a known M
KNOWN_M_SOLVES = ("r_from_moments", "two_state_r", "_substitute_divide",
                  "_composition")
TABLE_SHAPES = ("dense", "semicircle", "alternating", "huge")


def _table_input(rng, n, shape, formal):
    """c_1..c_n of one shape: dense draws; "semicircle" with every odd
    coefficient zero, as a symmetric law's moments; "alternating" with sign
    (-1)^k; "huge" zero but for one coefficient of 20-40 digits.  When
    ``formal`` each nonzero coefficient may gain a multiple of t."""
    t = formal_t()
    hit = rng.randrange(n)
    cs = []
    for k in range(1, n + 1):
        c = F(rng.randint(1, 3), rng.choice((1, 2, 3)))
        if shape == "dense":
            c *= rng.choice((-1, 1))
        elif shape == "semicircle":
            c = c if k % 2 == 0 else F(0)
        elif shape == "alternating":
            c = c if k % 2 == 0 else -c
        else:
            c = (F(rng.choice((-1, 1)) * 10 ** rng.randint(19, 39) + 1,
                   rng.choice((1, 3))) if k == hit + 1 else F(0))
        if formal and c and rng.random() < 0.5:
            c += rng.choice((-2, -1, 1)) * t
        cs.append(c)
    return cs


# the cutoff and the cap that hold every power table to one path: "rows"
# packed by ``_packed_rows``, "refused" by the cap when the table first reads
# row 3, then grown by ``_add_diagonal``, and "loop" grown by it throughout
TABLE_PATHS = {"rows": (0, float("inf")), "refused": (0, 0),
               "loop": (float("inf"), float("inf"))}


def _table_path(mp, path, run, ins, n):
    """The typed outputs of run on ins with every power table held to one
    of ``TABLE_PATHS``, and the slack at infinity so that a Q[t] input runs
    the kernels on plain ints twice, as l1 norms and packed at t = 2^B;
    with the tables (p, m, n) that ``_add_diagonal`` grew."""
    mp.setattr(transforms, "_SLACK", float("inf"))
    cutoff, cap = TABLE_PATHS[path]
    mp.setattr(transforms, "_PACK_FROM", cutoff)
    mp.setattr(transforms, "_PACK_CAP", cap)
    grow, tables = transforms._add_diagonal, {}

    def spy(p, m, s, top):
        tables[id(p)] = (p, m, s)
        return grow(p, m, s, top)

    mp.setattr(transforms, "_add_diagonal", spy)
    out = [(type(c), c) for c in run(ins, n)]
    mp.undo()
    return out, list(tables.values())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 48),
       st.sampled_from(TABLE_SHAPES), st.booleans(),
       st.sampled_from(KNOWN_M_SOLVES))
def test_packed_rows_match_the_row_loop(seed, order, shape, formal, name):
    """Each solve through the power table of a known M gives the same
    outputs, value for value and ring for ring, with its rows packed in
    ``_slot_bytes`` slots, with the packing refused by the cap midway and
    with its rows grown entry by entry.  A Q[t] input reaches the kernels
    twice, as the l1 majorant run and on ints packed at t = 2^B.  The slot
    holds every entry of the loop's table: |[z^j] (1+M)^k| < 2^(8w - 1)."""
    rng = random.Random(seed)
    count, run = PACKED_SOLVES[name]
    ins = [_table_input(rng, order, shape, formal) for _ in range(count)]
    with pytest.MonkeyPatch.context() as mp:
        rows, _ = _table_path(mp, "rows", run, ins, order)
        refused, _ = _table_path(mp, "refused", run, ins, order)
        loop, tables = _table_path(mp, "loop", run, ins, order)
    assert rows == refused == loop
    for p, m, n in tables:
        if type(m[1]) is not int:
            continue
        bits = 8 * transforms._slot_bytes(m, n) - 1
        assert all(abs(c).bit_length() <= bits for row in p[1:] for c in row)
