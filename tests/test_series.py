import random
from fractions import Fraction, Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from test_convolutions import DRAW_KINDS, _draw

from freeconv import coeffs as packing, series as engine
from freeconv.coeffs import ONE, ExactDivisionError, TPoly, formal_t
from freeconv.series import (
    CompositionDomainError,
    LaurentAtInfinity,
    NotInvertibleError,
    TruncSeries,
)

rationals = st.builds(F, st.integers(min_value=-6, max_value=6),
                      st.integers(min_value=1, max_value=4))


def series(order):
    return st.lists(rationals, min_size=0, max_size=order + 1).map(
        lambda cs: TruncSeries(order, cs))


def test_add_mul_examples():
    z = TruncSeries.identity(4)
    z2 = z * z
    assert (z + z2).coeffs() == (F(0), F(1), F(1), F(0), F(0))
    assert ((z + z2) * z).coeffs() == (F(0), F(0), F(1), F(1), F(0))
    # (z - z^3)(z + z^3) = z^2 at order 4: z^6 truncated, z^4 coefficient 0
    a = TruncSeries(4, (0, 1, 0, -1))
    b = TruncSeries(4, (0, 1, 0, 1))
    assert (a * b).coeffs() == (F(0), F(0), F(1), F(0), F(0))


def test_reciprocal_examples():
    one_plus_z = TruncSeries(5, (1, 1))
    assert one_plus_z.reciprocal().coeffs() == (
        F(1), F(-1), F(1), F(-1), F(1), F(-1))
    assert TruncSeries.one(4).reciprocal() == TruncSeries.one(4)
    a = TruncSeries(6, (1, 0, 1))
    assert (a * a.reciprocal()) == TruncSeries.one(6)
    with pytest.raises(NotInvertibleError):
        TruncSeries(3, (0, 1)).reciprocal()


def test_compose_examples():
    z = TruncSeries.identity(5)
    s = TruncSeries(5, (0, 2, 1, 0, 3))
    assert z.compose(s) == s
    z2 = TruncSeries(4, (0, 0, 1))
    inner = TruncSeries(4, (0, 1, 1))
    assert z2.compose(inner).coeffs() == (F(0), F(0), F(1), F(2), F(1))
    with pytest.raises(CompositionDomainError):
        z2.compose(TruncSeries(4, (1, 1)))


def test_reversion_examples():
    z = TruncSeries.identity(5)
    assert z.reversion() == z
    a = TruncSeries(5, (0, 1, 1))
    assert a.reversion().coeffs() == (F(0), F(1), F(-1), F(2), F(-5), F(14))
    assert a.compose(a.reversion()) == TruncSeries.identity(5)
    two_z = TruncSeries(3, (0, 2))
    assert two_z.reversion().coeffs() == (F(0), F(1, 2), F(0), F(0))
    with pytest.raises(NotInvertibleError):
        TruncSeries(3, (0, 0, 1)).reversion()


@settings(max_examples=40, deadline=None)
@given(series(10), series(10), series(10))
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=25, deadline=None)
@given(series(8))
def test_reciprocal_inverts(a):
    shifted = TruncSeries(8, (1,) + a.coeffs()[1:])  # force c0 = 1
    assert shifted * shifted.reciprocal() == TruncSeries.one(8)


@settings(max_examples=25, deadline=None)
@given(series(8))
def test_reversion_inverts(a):
    val = TruncSeries(8, (0, 1) + a.coeffs()[2:])  # force c0 = 0, c1 = 1
    assert val.compose(val.reversion()) == TruncSeries.identity(8)
    assert val.reversion().compose(val) == TruncSeries.identity(8)


@settings(max_examples=20, deadline=None)
@given(series(8), series(8), series(8))
def test_composition_associativity(a, b, c):
    bv = TruncSeries(8, (0,) + b.coeffs()[1:])
    cv = TruncSeries(8, (0,) + c.coeffs()[1:])
    assert a.compose(bv).compose(cv) == a.compose(bv.compose(cv))


@settings(max_examples=20, deadline=None)
@given(series(6), series(6),
       st.builds(F, st.integers(min_value=-4, max_value=4),
                 st.integers(min_value=1, max_value=3)))
def test_t_specialization_commutes(a, b, q):
    """Evaluating t |-> q before or after arithmetic gives the same result."""
    t = formal_t()
    at = TruncSeries(6, [c + t * k for k, c in enumerate(a.coeffs())])
    bt = TruncSeries(6, [c - t * c for c in b.coeffs()])

    def specialize(s):
        from freeconv.coeffs import evaluate
        return TruncSeries(s.order, [evaluate(c, q) for c in s.coeffs()])

    spec_a, spec_b = specialize(at), specialize(bt)
    assert specialize(at * bt) == spec_a * spec_b
    assert specialize(at + bt) == spec_a + spec_b


# -- the rational path against a plain list-of-Fraction model -----------------
#
# A series over Q multiplies on integer numerators over one denominator and
# inverts and composes on graded ints; any TPoly coefficient sends it to ints
# packed at t = 2^B.
# The model below works coefficient by coefficient in Fraction and shares no
# algorithm with the library: composition sums powers of the inner series,
# and reversion solves g(f(z)) = z over the powers of f, where the library
# uses Lagrange inversion.


def _model_mul(a, b, n):
    return [sum((a[i] * b[k - i] for i in range(k + 1)
                 if i < len(a) and k - i < len(b)), F(0))
            for k in range(n + 1)]


def _model_reciprocal(a, n):
    out = [1 / a[0]]
    for k in range(1, n + 1):
        out.append(-sum((a[j] * out[k - j] for j in range(1, k + 1)), F(0))
                   / a[0])
    return out


def _model_compose(f, g, n):
    out, power = [F(0)] * (n + 1), [F(1)] + [F(0)] * n
    for k in range(n + 1):
        out = [x + f[k] * y for x, y in zip(out, power)]
        power = _model_mul(power, g, n)
    return out


def _model_reversion(f, n):
    """The left inverse g, g(f(z)) = z: [z^k] sum_j g_j f^j = [k = 1] is
    triangular, since f^j starts at f_1^j z^j, so g_k follows from the
    powers of f and g_1..g_(k-1)."""
    powers = [[F(1)] + [F(0)] * n]
    for _ in range(n):
        powers.append(_model_mul(powers[-1], f, n))
    out = [F(0)]
    for k in range(1, n + 1):
        s = sum((out[j] * powers[j][k] for j in range(1, k)), F(0))
        out.append((int(k == 1) - s) / powers[k][k])
    return out


def _check_against_model(seed, order, poly):
    """Product, reciprocal, composition and reversion of random Q-series of
    the given order, with the leading coefficient of the left operand a
    constant TPoly when ``poly``, and the reciprocal of a series with a
    negative constant term whose coefficient k has the denominator p^k,
    where one common denominator would be p^order throughout; returns the
    results' coefficients."""
    rng = random.Random(seed)

    def draw(n):
        return [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n + 1)]

    lead = TPoly.constant if poly else F
    n_b = order + rng.randint(0, 3)
    a, b = draw(order), draw(n_b)
    a[0] = a[0] or F(1)
    g = [F(0)] + b[1:]
    cases = [
        (TruncSeries(order, [lead(a[0])] + a[1:]) * TruncSeries(n_b, b),
         _model_mul(a, b, order)),
        (TruncSeries(order, [lead(a[0])] + a[1:]).reciprocal(),
         _model_reciprocal(a, order)),
        (TruncSeries(order, [lead(a[0])] + a[1:]).compose(TruncSeries(n_b, g)),
         _model_compose(a, g, order)),
    ]
    if order >= 1:
        f = [F(0), a[1] or F(1)] + a[2:]
        cases.append((TruncSeries(order, [f[0], lead(f[1])] + f[2:]).reversion(),
                      _model_reversion(f, order)))
    p = rng.choice((2, 3, 7))
    e = [F(-rng.randint(1, 9), rng.randint(1, 6))]
    e += [F(rng.randint(-9, 9), p ** k) for k in range(1, order + 1)]
    cases.append((TruncSeries(order, [lead(e[0])] + e[1:]).reciprocal(),
                  _model_reciprocal(e, order)))
    for got, want in cases:
        assert got.order == order
        assert list(got.coeffs()) == want
    return [c for got, _ in cases for c in got.coeffs()]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=40))
def test_rational_path_matches_fraction_model(seed, order):
    coeffs = _check_against_model(seed, order, poly=False)
    assert all(type(c) is Fraction for c in coeffs)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=10))
def test_generic_path_matches_fraction_model(seed, order):
    """One TPoly coefficient runs the packed path, which agrees too."""
    coeffs = _check_against_model(seed, order, poly=True)
    assert any(isinstance(c, TPoly) for c in coeffs)



def _reversion_by_series_products(f):
    """Lagrange inversion with v^k as whole series: one TruncSeries product
    per power, one coefficient read off each, [z^k] = [z^(k-1)] v^k / k."""
    v = f.shift_down(1).reciprocal()
    p, out = v, [F(0), v.coeff(0)]
    for k in range(2, f.order + 1):
        p = p * v
        out.append(p.coeff(k - 1) / k)
    return TruncSeries(f.order, out)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=40),
       st.sampled_from(["q", "poly", "mixed"]))
def test_reversion_matches_the_series_product_loop(seed, order, ring):
    """Reversion over Q runs Miller's power recurrence on ints, with no
    convolution; it gives the coefficients of the loop on whole series,
    type for type, on zero-heavy series whose linear coefficient is not
    +-1.  A series with a
    TPoly among c_1..c_n keeps the loop of series products, each on ints
    packed at t = 2^B with two convolutions, one on the l1 norms for B and
    one on the packed ints; it is drawn at orders up to 12."""
    rng = random.Random(seed)
    if ring != "q":
        order = min(order, 12)
    t = formal_t()

    def q():
        return F(rng.choice((0, 0, 0, 0, 1, -1, 2, -3, 7)),
                 rng.choice((1, 1, 2, 3, 5, 9)))

    cs = [F(0), F(rng.choice((-7, -3, -2, 2, 3, 5)), rng.choice((1, 2, 3, 4)))]
    cs += [q() for _ in range(order - 1)]
    if ring == "poly":
        cs = [TPoly.constant(c) for c in cs[:2]] + [c + q() * t for c in cs[2:]]
    elif ring == "mixed":
        for k in rng.sample(range(1, order + 1), rng.randint(1, order)):
            cs[k] = TPoly.constant(cs[k]) if k == 1 else cs[k] + q() * t
    f = TruncSeries(order, cs)
    convolutions, kernel = [], engine._convolve

    def convolve(*args):
        convolutions.append(args)
        return kernel(*args)

    with mock.patch.object(engine, "_convolve", convolve):
        got = f.reversion()
    want = _reversion_by_series_products(f)
    assert got.order == want.order == order
    assert [(type(c), c) for c in got.coeffs()] == \
        [(type(c), c) for c in want.coeffs()]
    assert len(convolutions) == (0 if ring == "q" else 2 * (order - 1))

def test_t_derivative():
    t = formal_t()
    s = TruncSeries(3, (t, t * t, 1 + t))
    assert s.t_derivative() == TruncSeries(3, (1, 2 * t, 1))


# -- Laurent expansions at infinity -------------------------------------------


def test_laurent_construction_rejects_high_top():
    with pytest.raises(ValueError):
        LaurentAtInfinity(F(2), 0, ())


def test_laurent_derivative():
    f = LaurentAtInfinity(1, 0, (-1,), 3)  # z - 1/z
    df = f.derivative()
    assert df.top == 0 and df.coeff(0) == 1
    assert df.coeff(2) == 1 and df.coeff(1) == 0 and df.coeff(3) == 0
    const = LaurentAtInfinity(0, F(5), (), 3)
    assert const.derivative().is_zero()


def test_laurent_t_derivative():
    t = formal_t()
    f = LaurentAtInfinity(0, t * t, (t, 1), 3)
    df = f.t_derivative()
    assert df.coeff(0) == 2 * t and df.coeff(1) == 1 and df.coeff(2) == 0


def test_laurent_compose_examples():
    # outer = 1/z composed with F_{delta_0} = z gives back 1/z
    outer = LaurentAtInfinity(0, 0, (1,), 4)
    inner = LaurentAtInfinity.ident_z(4)
    assert outer.compose_descending(inner) == outer
    # constant outer stays constant
    const = LaurentAtInfinity(0, F(7), (), 4)
    assert const.compose_descending(inner).coeff(0) == 7
    with pytest.raises(CompositionDomainError):
        inner.compose_descending(inner)


def test_laurent_mul_rejects_double_top():
    f = LaurentAtInfinity.ident_z(4)
    with pytest.raises(ValueError):
        f * f


def test_laurent_monic_reciprocal():
    # 1/(z - 1/z) = 1/z + 1/z^3 + 1/z^5 + ...
    f = LaurentAtInfinity(1, 0, (-1,), 4)
    g = f.reciprocal_of_monic()
    assert [g.coeff(k) for k in range(1, 6)] == [F(1), F(0), F(1), F(0), F(1)]
    assert (f * g).coeff(0) == 1
    assert all((f * g).coeff(k) == 0 for k in range(1, (f * g).tail_order + 1))


@given(series(6), st.integers(0, 6))
def test_equal_series_hash_alike(s, n):
    """== compares through the shorter order and across the rings, and so
    the hash must agree on every pair of equal series."""
    const = TruncSeries(6, [TPoly.constant(c) for c in s.coeffs()])
    for other in (s.truncate(n), const, const.truncate(n)):
        assert other == s and hash(other) == hash(s)
    assert len({s, s.truncate(n), const}) == 1


# -- the packed Q[t] path against folds of the TPoly operators ----------------
#
# Over Q[t] the product, reciprocal and composition grade their inputs,
# pack each coefficient at t = 2^B and run the integer kernels of the Q path.
# The folds below run the textbook sums on TPoly + and * alone.


def _fold_mul(f, g, n):
    return [sum((f[i] * g[k - i] for i in range(k + 1)), TPoly())
            for k in range(n + 1)]


def _fold_reciprocal(f, n):
    inv0 = TPoly.constant(1) / f[0]
    out = [inv0]
    for k in range(1, n + 1):
        out.append(-sum((f[j] * out[k - j] for j in range(1, k + 1)),
                        TPoly()) * inv0)
    return out


def _fold_compose(f, h, n):
    out, power = [TPoly()] * (n + 1), [TPoly.constant(1)] + [TPoly()] * n
    for k in range(n + 1):
        out = [x + f[k] * y for x, y in zip(out, power)]
        power = _fold_mul(power, h, n)
    return out


def _fold_reversion(f, n):
    """g with g(f(z)) = z, over the powers of f as ``_model_reversion``."""
    powers = [[TPoly.constant(1)] + [TPoly()] * n]
    for _ in range(n):
        powers.append(_fold_mul(powers[-1], f, n))
    out = [TPoly()]
    for k in range(1, n + 1):
        s = sum((out[j] * powers[j][k] for j in range(1, k)), TPoly())
        out.append((int(k == 1) - s) / powers[k][k])
    return out


def _coeffs(rng, count, kind):
    """count coefficients: a ``_draw`` of that kind over Q[t], or for
    "wide" TPolys of t-degree up to 5 with numerators of about 60 bits, a
    quarter of them zero."""
    if kind != "wide":
        return list(_draw(rng, count, True, kind).moments()) if count else []
    return [TPoly([F(rng.randint(-2 ** 60, 2 ** 60), rng.choice((1, 2, 3, 6)))
                   for _ in range(rng.randint(1, 6))])
            if rng.random() < 3 / 4 else rng.choice((F(0), TPoly()))
            for _ in range(count)]


def _unit(rng):
    """A nonzero constant, a Fraction or a constant TPoly."""
    c = F(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 3)))
    return rng.choice((c, TPoly.constant(c)))


def _packed_cases(rng, order, kind):
    """(result, fold, coefficients read) for a product, a reciprocal, a
    composition and a reversion of draws of the given kind at ``order``."""
    f = [_unit(rng)] + _coeffs(rng, order, kind)
    g = _coeffs(rng, order + 1 + rng.randint(0, 2), kind)
    h = [rng.choice((F(0), TPoly()))] + g[1:]
    n_g = len(g) - 1
    cases = [
        (TruncSeries(order, f) * TruncSeries(n_g, g), _fold_mul(f, g, order),
         f + g[:order + 1]),
        (TruncSeries(order, f).reciprocal(), _fold_reciprocal(f, order), f),
        (TruncSeries(order, f).compose(TruncSeries(n_g, h)),
         _fold_compose(f, h, order), f + h[:order + 1]),
    ]
    if order >= 1:
        r = [rng.choice((F(0), TPoly())), _unit(rng)] + f[2:]
        cases.append((TruncSeries(order, r).reversion(),
                      _fold_reversion(r, order), r[1:]))
    return cases


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=12),
       st.sampled_from(DRAW_KINDS + ("wide",)))
def test_packed_series_ops_match_a_tpoly_fold(seed, order, kind):
    """Product, reciprocal, composition and reversion over Q[t] give the
    folds' values, coefficient for coefficient, on draws that are mostly
    zero, hold zero or constant TPolys, or wide ones.  Every coefficient of
    a product, reciprocal or composition is a TPoly when a coefficient it
    reads is one, and a Fraction otherwise; reversion reads c_1..c_n."""
    rng = random.Random(seed)
    for got, want, read in _packed_cases(rng, order, kind):
        assert got.order == order
        assert list(got.coeffs()) == want
        ring = TPoly if TPoly in map(type, read) else F
        assert all(type(c) is ring for c in got.coeffs()[1:])


def test_reciprocal_refuses_a_nonconstant_constant_term_as_one_over_it():
    """Over Q[t] only a nonzero constant c_0 has an inverse: a series whose
    c_0 is a non-constant TPoly raises the ExactDivisionError of 1 / c_0,
    before anything is packed."""
    t = formal_t()
    for c0 in (1 + t, 2 * t - F(1, 3), t * t):
        for rest in ([], [F(1), t], [F(1, 2)]):
            with pytest.raises(ExactDivisionError) as got:
                TruncSeries(3, [c0] + rest).reciprocal()
            with pytest.raises(ExactDivisionError) as want:
                ONE / c0
            assert str(got.value) == str(want.value)


def _one_bit_short_cases():
    rng = random.Random(11)
    f = [_unit(rng)] + _coeffs(rng, 8, "wide")
    g = _coeffs(rng, 9, "wide")
    h = [F(0)] + g[1:]
    return {
        "mul": (lambda: TruncSeries(8, f) * TruncSeries(8, g),
                _fold_mul(f, g, 8)),
        "reciprocal": (lambda: TruncSeries(8, f).reciprocal(),
                       _fold_reciprocal(f, 8)),
        "compose": (lambda: TruncSeries(8, f).compose(TruncSeries(8, h)),
                    _fold_compose(f, h, 8)),
    }


@pytest.mark.parametrize("op", ["mul", "reciprocal", "compose"])
def test_packed_series_op_one_bit_short_misreads_an_output(op):
    """Each packed series operation reads its outputs as B-bit balanced
    digits, so B must pass the largest t-digit of every packed output.  The
    majorant run's B does; at the least width that holds every digit the
    outputs equal the fold's, and one bit short some output differs.  B is
    forced, and the digits read, in the driver ``coeffs._on_ints``."""
    run, want = _one_bit_short_cases()[op]
    unpack, seen = packing._unpack, []

    def spy(x, b, den):
        p = unpack(x, b, den)
        seen.append((b, max(map(abs, p.nums), default=0) * (den // p.den)))
        return p

    def run_at(b):
        with mock.patch.object(packing, "_bits", lambda top: b):
            return list(run().coeffs())

    with mock.patch.object(packing, "_unpack", spy):
        assert list(run().coeffs()) == want
    need = max(digit for _, digit in seen).bit_length() + 1
    assert seen[0][0] >= need
    assert run_at(need) == want
    assert run_at(need - 1) != want
