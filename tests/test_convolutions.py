import random
from fractions import Fraction as F

from extra_ops import solve_moments
from hypothesis import given, settings, strategies as st

from freeconv.coeffs import TPoly, evaluate, formal_t
from freeconv.convolutions import (
    boolean_convolve,
    boolean_power,
    free_convolve,
    free_deconvolve,
    free_power,
    monotone_convolve,
    two_state_convolve,
    two_state_power,
)
from freeconv.functionals import (
    MomentFunctional,
    TwoStatePair,
    arcsine,
    bernoulli_sym,
    free_meixner,
    point_mass,
    semicircular,
)
from freeconv.oracle import moments_from_free_cumulants
from freeconv.series import LaurentAtInfinity, TruncSeries
from freeconv.transforms import (
    eta_from_moments,
    f_at_infinity,
    moments_from_eta,
    r_from_moments,
    tilde_from_two_state_r,
    two_state_r,
)


def rand_functional(rng, order, span=3):
    return MomentFunctional(
        order, [F(rng.randint(-span, span), rng.randint(1, 3))
                for _ in range(order)])


def test_point_mass_rules():
    assert free_convolve(point_mass(2, 6), point_mass(F(1, 2), 6)) == \
        point_mass(F(5, 2), 6)
    assert boolean_convolve(point_mass(2, 6), point_mass(3, 6)) == point_mass(5, 6)
    assert monotone_convolve(point_mass(2, 6), point_mass(3, 6)) == point_mass(5, 6)
    mu = MomentFunctional(6, (1, 0, 2, 0, 3, 0))
    assert monotone_convolve(mu, MomentFunctional(6, ())) == mu


def test_semicircular_semigroup():
    assert free_convolve(semicircular(1, 2, 8), semicircular(F(1, 2), 1, 8)) == \
        semicircular(F(3, 2), 3, 8)


def test_meixner_semigroup():
    b, c = F(1, 2), F(-1, 3)
    lhs = free_convolve(free_meixner(b, c, 1, 2, 10),
                        free_meixner(b, c, F(1, 2), F(1, 3), 10))
    assert lhs == free_meixner(b, c, F(3, 2), F(7, 3), 10)


def test_bernoulli_powers():
    # Bernoulli^{boxplus 2} is the arcsine functional
    assert free_power(bernoulli_sym(8), 2) == arcsine(1, 8)
    # Boolean square: eta doubles, so m_2 = 2, m_4 = 4
    sq = boolean_power(bernoulli_sym(8), 2)
    assert sq.m(2) == 2 and sq.m(4) == 4
    mu = MomentFunctional(6, (1, 2, 3, 4, 5, 6))
    assert free_power(mu, 1) == mu
    assert boolean_power(mu, 1) == mu


def test_formal_sigma_power():
    t = formal_t()
    st = free_power(semicircular(0, 1, 6), t)
    assert st.m(2) == t and st.m(4) == 2 * t * t and st.m(6) == 5 * t ** 3


def test_cumulant_additivity_random():
    rng = random.Random(21)
    for _ in range(10):
        a, b = rand_functional(rng, 12), rand_functional(rng, 12)
        conv = free_convolve(a, b)
        assert r_from_moments(conv) == r_from_moments(a) + r_from_moments(b)
        bconv = boolean_convolve(a, b)
        assert eta_from_moments(bconv) == eta_from_moments(a) + eta_from_moments(b)


def test_commutativity_associativity():
    rng = random.Random(22)
    a, b, c = (rand_functional(rng, 10) for _ in range(3))
    assert free_convolve(a, b) == free_convolve(b, a)
    assert boolean_convolve(a, b) == boolean_convolve(b, a)
    assert free_convolve(free_convolve(a, b), c) == \
        free_convolve(a, free_convolve(b, c))
    assert boolean_convolve(boolean_convolve(a, b), c) == \
        boolean_convolve(a, boolean_convolve(b, c))
    # monotone: associative but not commutative
    assert monotone_convolve(monotone_convolve(a, b), c) == \
        monotone_convolve(a, monotone_convolve(b, c))
    x, y = bernoulli_sym(8), semicircular(1, 1, 8)
    assert monotone_convolve(x, y) != monotone_convolve(y, x)


def test_mean_variance_additivity():
    rng = random.Random(23)
    a, b = rand_functional(rng, 8), rand_functional(rng, 8)
    ma, va = a.mean_var()
    mb, vb = b.mean_var()
    for op in (free_convolve, boolean_convolve, monotone_convolve):
        m, v = op(a, b).mean_var()
        assert m == ma + mb and v == va + vb


def test_free_power_adds_in_t():
    rng = random.Random(24)
    a = rand_functional(rng, 10)
    t = formal_t()
    s = F(1, 2)
    assert free_convolve(free_power(a, t), free_power(a, t)) == \
        free_power(a, t + t)
    assert free_convolve(free_power(a, s), free_power(a, t)) == \
        free_power(a, t + s)


def test_free_deconvolve():
    rng = random.Random(25)
    a, b = rand_functional(rng, 10), rand_functional(rng, 10)
    assert free_deconvolve(free_convolve(a, b), b) == a


def test_bernoulli_monotone_semicircle_is_arcsine():
    assert monotone_convolve(bernoulli_sym(10), semicircular(0, 1, 10)) == \
        arcsine(1, 10)


def test_monotone_eta_level_formula_agrees_with_f_path():
    """eta_{a |> b} = eta_b + (1 - eta_b) * eta_a(w / (1 - eta_b))."""
    rng = random.Random(29)
    for _ in range(5):
        a, b = rand_functional(rng, 10), rand_functional(rng, 10)
        ea, eb = eta_from_moments(a), eta_from_moments(b)
        one_minus = TruncSeries.one(10) - eb
        inner = TruncSeries.identity(10) * one_minus.reciprocal()
        eta = eb + one_minus * ea.compose(inner)
        assert moments_from_eta(eta, 10) == monotone_convolve(a, b)


def _functional_from_f(f):
    """Inverse of f_at_infinity: moments of the functional with this
    F-expansion, F(z) = z - eta_1 - eta_2/z - ..."""
    order = f.tail_order + 1
    return moments_from_eta(TruncSeries(order, (F(0),) + (-f.d).coeffs()),
                            order)


def _f_composition(a, b):
    """a |> b by its definition, F_a o F_b = F_b + (F_a - z) o F_b, composed
    on Laurent series.  It shares no substitution with monotone_convolve:
    the triangular solves it calls are the Boolean cumulant ones that read
    F off a functional and back."""
    n = min(a.order, b.order)
    fa, fb = f_at_infinity(a.truncate(n)), f_at_infinity(b.truncate(n))
    desc = fa - LaurentAtInfinity.ident_z(fa.tail_order)
    return _functional_from_f(fb + desc.compose_descending(fb))


def _draw(rng, order, formal, kind):
    """A functional over Q, or over Q[t] when ``formal`` (where some moments
    stay rational); "zeros" makes most moments zero, "zero-polys" makes them
    the zero TPoly when formal, and "constants" makes some constant TPolys."""
    t = formal_t()
    cs = []
    for _ in range(order):
        if kind in ("zeros", "zero-polys") and rng.random() < 0.6:
            cs.append(TPoly(()) if formal and kind == "zero-polys" else F(0))
            continue
        c = F(rng.choice((-3, -1, 0, 0, 1, 2)), rng.choice((1, 2, 3, 5)))
        k = rng.choice((0, 1, -2)) if formal else 0
        if formal and kind == "constants" and not k and rng.random() < 0.5:
            cs.append(TPoly.constant(c))
        else:
            cs.append(c + k * t if k else c)
    return MomentFunctional(order, cs)


@settings(max_examples=90, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 14), st.integers(1, 14),
       st.booleans(), st.sampled_from(("plain", "zeros", "constants")))
def test_monotone_convolve_matches_f_composition(seed, order_a, order_b,
                                                 formal, kind):
    """The substitution through b's power table gives the moments of the
    F-composition value for value, over Q and over Q[t] (where some
    coefficients stay rational), at unequal orders, on draws that are mostly
    zero ("zeros") or hold constant TPoly moments ("constants").  Every
    moment is a TPoly when one of m_1..m_n of a or b is, n the output order,
    and a Fraction otherwise.  Where the rule by prefix that this one
    replaced gives the same rings (no TPoly input, or one at m_1), that is
    type for type the ring the F-composition gives."""
    rng = random.Random(seed)
    a, b = (_draw(rng, order_a, formal, kind),
            _draw(rng, order_b, formal, kind))
    got, want = monotone_convolve(a, b), _f_composition(a, b)
    n = min(order_a, order_b)
    assert got.order == want.order == n
    assert list(got.moments()) == list(want.moments())
    ring = TPoly in map(type, a.moments()[:n] + b.moments()[:n])
    assert [type(c) is TPoly for c in got.moments()] == [ring] * n
    if not ring or TPoly in (type(a.m(1)), type(b.m(1))):
        assert [type(c) for c in got.moments()] == \
            [type(c) for c in want.moments()]


def test_meixner_monotone_identity():
    b, c = F(1), F(-1, 2)
    lhs = monotone_convolve(free_meixner(b, c, 2, 3, 10),
                            free_meixner(b + 2, c + 3, F(1, 2), F(1, 4), 10))
    assert lhs == free_meixner(b, c, F(5, 2), F(13, 4), 10)


def test_two_state_rules():
    rng = random.Random(26)
    mu, nu = rand_functional(rng, 10), rand_functional(rng, 10)
    d0 = MomentFunctional(10, ())
    # (mu, d0) boxplus_c (nu, d0) = (mu uplus nu, d0)
    got = two_state_convolve(TwoStatePair(mu, d0), TwoStatePair(nu, d0))
    assert got.tilde == boolean_convolve(mu, nu)
    assert got.base == d0
    # (mu, mu) boxplus_c (nu, nu) = (mu boxplus nu, mu boxplus nu)
    got = two_state_convolve(TwoStatePair(mu, mu), TwoStatePair(nu, nu))
    conv = free_convolve(mu, nu)
    assert got.tilde == conv and got.base == conv
    # point masses add coordinatewise
    got = two_state_convolve(TwoStatePair(point_mass(1, 8), point_mass(2, 8)),
                             TwoStatePair(point_mass(3, 8), point_mass(-1, 8)))
    assert got.tilde == point_mass(4, 8) and got.base == point_mass(1, 8)


def test_two_state_base_marginal():
    rng = random.Random(27)
    p = TwoStatePair(rand_functional(rng, 8), rand_functional(rng, 8))
    q = TwoStatePair(rand_functional(rng, 8), rand_functional(rng, 8))
    assert two_state_convolve(p, q).base == free_convolve(p.base, q.base)


def test_two_state_power_consistency():
    rng = random.Random(28)
    p = TwoStatePair(rand_functional(rng, 8), rand_functional(rng, 8))
    doubled = two_state_power(p, 2)
    assert doubled == two_state_convolve(p, p)
    assert two_state_power(p, 1) == p


DRAW_KINDS = ("plain", "zeros", "zero-polys", "constants")
EXPONENTS = ("t", "1 + t", "t/p", "rational", "zero", "constant",
             "zero TPoly", "t^2 - 3")


def _exponent(rng, kind):
    t = formal_t()
    if kind == "t/p":
        return t / rng.choice((2, 3, 7))
    if kind == "rational":
        return F(rng.randint(-4, 4), rng.randint(1, 4))
    if kind == "constant":
        return TPoly.constant(F(rng.choice((-2, 1, 3)), rng.randint(1, 3)))
    return {"t": t, "1 + t": 1 + t, "zero": F(0), "zero TPoly": TPoly(()),
            "t^2 - 3": t * t - 3}[kind]


def _typed(mf):
    return [(type(c), c) for c in mf.moments()]


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 14), st.booleans(),
       st.sampled_from(DRAW_KINDS), st.sampled_from(EXPONENTS))
def test_powers_by_expansion_match_the_solves(seed, order, formal, kind,
                                              exponent):
    """free_power and two_state_power expand in s over the powers of R when
    R and R2 are over Q, and otherwise take the forward solves on R and R2
    scaled by s; those solves give the same moments, value for value and
    ring for ring: all TPolys when s or a coefficient that the solve reads
    is one, zero or constant, else all Fractions.  On draws over Q[t] both
    sides run the solves, and
    test_scaled_r_over_q_t_matches_the_expansion_at_rational_t checks that
    route against the expansion at rational t."""
    rng = random.Random(seed)
    s = _exponent(rng, exponent)
    p = TwoStatePair(_draw(rng, order, formal, kind),
                     _draw(rng, order, formal, kind))
    base = solve_moments(r_from_moments(p.base).scale(s), order)
    tilde = tilde_from_two_state_r(two_state_r(p).scale(s), base)
    assert _typed(free_power(p.base, s)) == _typed(base)
    pair = two_state_power(p, s)
    assert _typed(pair.base) == _typed(base)
    assert _typed(pair.tilde) == _typed(tilde)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12), st.booleans(),
       st.sampled_from(DRAW_KINDS), st.sampled_from(EXPONENTS),
       st.sampled_from((F(-2), F(-1, 3), F(1, 2), F(3))))
def test_free_power_matches_the_partition_sum(seed, order, formal, kind,
                                              exponent, t0):
    """The free power against the sum over NC(n) of s^|pi| prod kappa_|V|,
    which shares no code with it, at t = t0 on the rational path of the
    oracle."""
    rng = random.Random(seed)
    s = _exponent(rng, exponent)
    a = _draw(rng, order, formal, kind)
    kappa = [evaluate(c, t0) for c in r_from_moments(a).coeffs()[1:]]
    want = moments_from_free_cumulants(kappa, evaluate(s, t0), order)
    got = [evaluate(c, t0) for c in free_power(a, s).moments()]
    assert got == list(want.moments())
