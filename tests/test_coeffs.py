import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from freeconv.coeffs import (
    ONE,
    ExactDivisionError,
    TPoly,
    _dot,
    exact_div,
    formal_t,
    t_derivative,
)


def poly(*cs):
    return TPoly(cs)


def test_construction_strips_trailing_zeros():
    assert poly(1, 2, 0, 0).coeffs == (F(1), F(2))
    assert poly().coeffs == ()
    assert poly(0, 0).coeffs == ()


def test_arithmetic():
    t = formal_t()
    p = (1 + t) * (1 - t)
    assert p == poly(1, 0, -1)
    assert (t + t) == poly(0, 2)
    assert t ** 3 == poly(0, 0, 0, 1)
    assert -(1 - t) == poly(-1, 1)
    assert (t - t) == poly()


def test_fraction_promotion_both_sides():
    t = formal_t()
    assert F(1, 2) + t == poly(F(1, 2), 1)
    assert t + F(1, 2) == poly(F(1, 2), 1)
    assert F(2) * t == poly(0, 2)
    assert 3 - t == poly(3, -1)
    assert TPoly.constant(2) + t == poly(2, 1) == t + TPoly.constant(2)
    assert formal_t() + formal_t() == 2 * t  # one parameter


def test_exact_division():
    t = formal_t()
    num = (1 + t) * (2 + 3 * t)
    assert num / (1 + t) == poly(2, 3)
    assert num / (2 + 3 * t) == poly(1, 1)
    with pytest.raises(ExactDivisionError):
        (1 + t * t) / (1 + t)
    # division by a valuation-1 polynomial
    assert (t * t * 3) / t == poly(0, 3)
    with pytest.raises(ExactDivisionError):
        (1 + t) / t
    # exact_div promotes either side
    assert exact_div(t * t, t) == t and exact_div(1, 1 + t - t) == 1
    assert exact_div(3, TPoly.constant(4)) == F(3, 4)
    with pytest.raises(ExactDivisionError):
        exact_div(1, 1 + t)


def test_division_by_zero():
    t = formal_t()
    with pytest.raises(ZeroDivisionError):
        (1 + t) / TPoly(())
    with pytest.raises(ZeroDivisionError):
        exact_div(F(1), F(0))


def test_one_over_a_tpoly_inverts_only_constants():
    t = formal_t()
    inv = ONE / TPoly((F(-2),))
    assert isinstance(inv, TPoly) and inv == F(-1, 2)
    for p in (1 + t, t):
        with pytest.raises(ExactDivisionError):
            ONE / p
    with pytest.raises(ZeroDivisionError):
        ONE / TPoly(())


def test_truthiness_is_the_zero_test():
    t = formal_t()
    for x in (0, 3, F(0), F(-1, 2), TPoly(()), TPoly((0, 0)), TPoly((F(0),)),
              TPoly.constant(5), t, t - t, (1 + t) * (1 - t)):
        assert bool(x) == (x != 0)


def test_evaluate_and_derivative():
    t = formal_t()
    p = 1 + 2 * t + 3 * t ** 2
    assert p.evaluate(F(1, 2)) == F(1) + 1 + F(3, 4)
    assert p.t_derivative() == poly(2, 6)
    assert t_derivative(F(5)) == 0


def test_equality_with_scalars():
    t = formal_t()
    assert TPoly((F(3),)) == 3
    assert not (t == 1)
    assert (1 + t - t) == 1


# -- the ring against a plain-Fraction model -----------------------------------


def _rand_coeffs(rng, degree):
    """degree + 1 coefficients, a third of them zero (the top one too), or
    none for degree -1."""
    return [F(0) if rng.random() < 1 / 3
            else F(rng.randint(-30, 30), rng.randint(1, 12))
            for _ in range(degree + 1)]


def _strip(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _m_add(a, b):
    n = max(len(a), len(b))
    return _strip([(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0)
                   for k in range(n)])


def _m_mul(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _strip(out)


def _m_divmod(a, b):
    """Long division of the stripped lists a by b != 0 over Q."""
    rem, q = list(a), [F(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(a) - len(b), -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        q[k] = c
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    return _strip(q), _strip(rem)


def _canonical(p, model):
    """p is a TPoly in canonical form whose coefficients are model."""
    assert isinstance(p, TPoly)
    assert isinstance(p.nums, tuple) and isinstance(p.den, int)
    assert all(type(x) is int for x in p.nums)
    assert p.den > 0 and gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    assert p.nums or p.den == 1
    assert p.coeffs == model
    assert all(type(c) is F for c in p.coeffs)
    return True


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(-1, 6), st.integers(-1, 6))
def test_ring_agrees_with_fraction_model(seed, da, db):
    rng = random.Random(seed)
    a, b = _rand_coeffs(rng, da), _rand_coeffs(rng, db)
    ma, mb = _strip(a), _strip(b)
    pa, pb = TPoly(a), TPoly(b)
    assert _canonical(pa, ma) and _canonical(pb, mb)
    assert _canonical(pa + pb, _m_add(ma, mb))
    assert _canonical(pa - pb, _m_add(ma, [-x for x in mb]))
    assert _canonical(-pa, tuple(-x for x in ma))
    assert _canonical(pa * pb, _m_mul(ma, mb))
    k = rng.randint(0, 4)
    want = (F(1),)
    for _ in range(k):
        want = _m_mul(want, ma)
    assert _canonical(pa ** k, want)
    assert _canonical(pa.t_derivative(),
                      tuple(j * x for j, x in enumerate(ma))[1:])
    x = F(rng.randint(-5, 5), rng.randint(1, 4))
    value = pa.evaluate(x)
    assert type(value) is F
    assert value == sum((c * x ** j for j, c in enumerate(ma)), F(0))
    # exact division, and the cases it refuses
    if not mb:
        with pytest.raises(ZeroDivisionError):
            pa / pb
    else:
        assert _canonical((pa * pb) / pb, ma)
        q, r = _m_divmod(ma, mb)
        if r:
            with pytest.raises(ExactDivisionError):
                pa / pb
        else:
            assert _canonical(pa / pb, q)
    # equality and hashing follow the coefficients
    assert (pa == pb) == (ma == mb)
    assert pa == TPoly(ma) and hash(pa) == hash(TPoly(ma))
    assert pa - pb + pb == pa and hash(pa - pb + pb) == hash(pa)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(-1, 6))
def test_ring_scalars_and_constants(seed, da):
    rng = random.Random(seed)
    ma = _strip(_rand_coeffs(rng, da))
    pa = TPoly(ma)
    for c in (rng.randint(-9, 9), F(rng.randint(-9, 9), rng.randint(1, 9))):
        mc = _strip([F(c)])
        assert _canonical(pa + c, _m_add(ma, mc))
        assert _canonical(c + pa, _m_add(ma, mc))
        assert _canonical(c - pa, _m_add(mc, [-x for x in ma]))
        assert _canonical(pa * c, _m_mul(ma, mc))
        assert _canonical(c * pa, _m_mul(ma, mc))
        if c:
            assert _canonical(pa / c, tuple(x / c for x in ma))
        else:
            with pytest.raises(ZeroDivisionError):
                pa / c
        # a constant equals and hashes like its Fraction
        const = TPoly.constant(c)
        assert _canonical(const, mc)
        assert const == c and c == const and const == F(c)
        assert hash(const) == hash(F(c)) == hash(c)
        assert not const.nums or _canonical(ONE / const, (1 / F(c),))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 6))
def test_ring_constants_promote_on_both_sides(seed, da):
    rng = random.Random(seed)
    ma = _strip(_rand_coeffs(rng, da) + [F(rng.randint(1, 9))])
    pa = TPoly(ma)
    c = F(rng.randint(-9, 9), rng.randint(1, 9))
    mc = (c,) if c else ()
    for const in (TPoly.constant(c), c):
        assert _canonical(const + pa, _m_add(ma, mc))
        assert _canonical(pa + const, _m_add(ma, mc))
        assert _canonical(const - pa, _m_add(mc, [-x for x in ma]))
        assert _canonical(pa - const, _m_add(ma, [-x for x in mc]))
        assert _canonical(const * pa, _m_mul(ma, mc))
        assert _canonical(pa * const, _m_mul(ma, mc))
        if c:
            assert _canonical(pa / const, tuple(x / c for x in ma))
            with pytest.raises(ExactDivisionError):
                const / pa
        else:
            assert _canonical(const / pa, ())
            with pytest.raises(ZeroDivisionError):
                pa / const


def _operand(rng, formal):
    """An int 0 or 1, a Fraction, or, when formal, a constant or
    non-constant (possibly zero) TPoly, over unequal denominators."""
    kind = rng.randrange(5 if formal else 3)
    if kind == 0:
        return rng.choice((0, 1))
    if kind == 1:
        return F(rng.randint(-5, 5), rng.choice((1, 2, 3, 7)))
    if kind == 2:
        return TPoly.constant(F(rng.randint(-5, 5), rng.choice((1, 4, 9))))
    return TPoly([F(rng.randint(-4, 4), rng.choice((1, 2, 5, 6)))
                  for _ in range(rng.randint(0, 5))])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 6), st.booleans(),
       st.booleans())
def test_dot_is_the_left_fold(seed, n, with_start, formal):
    """The fused sum of products equals the fold of ``+`` and ``*`` over the
    terms with a nonzero x, with and without a start term, in value and in
    ring: a TPoly exactly when start, an x or a y is one, zero or not.  Over
    Q alone it is that fold."""
    rng = random.Random(seed)
    xs = [_operand(rng, formal) for _ in range(n)]
    ys = [_operand(rng, formal) for _ in range(n)]
    start = _operand(rng, formal) if with_start else None
    want = start
    for x, y in zip(xs, ys):
        if x:
            want = x * y if want is None else want + x * y
    if want is None:
        want = 0
    if TPoly in map(type, [start, *xs, *ys]) and type(want) is not TPoly:
        want = TPoly.constant(want)
    got = _dot(start, xs, ys)
    assert got == want and type(got) is type(want)
    if type(want) is TPoly:
        assert _canonical(got, want.coeffs)
