import contextlib
import hashlib
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from chebyshev import jacobi_rows_full
from hypothesis import given, settings, strategies as st
from test_convolutions import _typed

from freeconv import functionals
from freeconv.coeffs import (ExactDivisionError, TPoly, evaluate, exact_div,
                             formal_t)
from freeconv.convolutions import free_power
from freeconv.evolution import belinschi_nica, maassen_semigroup, phi_map, strip
from freeconv.functionals import (
    FAMILIES,
    CanonicalTriple,
    ConsistencyError,
    JacobiDepthError,
    JacobiParams,
    MomentFunctional,
    NoJacobiRepresentationError,
    arcsine,
    bernoulli_sym,
    family,
    free_meixner,
    jacobi_from_moments,
    moments_from_jacobi,
    point_mass,
    semicircular,
)
from freeconv.series import TruncSeries
from freeconv.transforms import _strip_once, moments_from_eta


def test_point_mass_moments():
    j = JacobiParams((F(2),), (0,), terminated=True)
    assert moments_from_jacobi(j, 4).moments() == (F(2), F(4), F(8), F(16))


def test_semicircle_catalan_moments():
    assert semicircular(0, 1, 6).moments() == (0, 1, 0, 2, 0, 5)


def test_arcsine_central_binomial_moments():
    j = JacobiParams((0,), (2,), repeat=(0, 1))
    assert moments_from_jacobi(j, 6).moments() == (0, 2, 0, 6, 0, 20)
    assert arcsine(1, 6).moments() == (0, 2, 0, 6, 0, 20)


def test_bernoulli_moments():
    assert bernoulli_sym(6).moments() == (0, 1, 0, 1, 0, 1)


def test_jacobi_depth_error():
    j = JacobiParams((0, 0), (1, 1))
    with pytest.raises(JacobiDepthError):
        moments_from_jacobi(j, 10)
    assert moments_from_jacobi(j, 4).moments() == (0, 1, 0, 2)


def test_extraction_terminates_on_bernoulli():
    mf = MomentFunctional(4, (0, 1, 0, 1))
    j = jacobi_from_moments(mf, 2)
    assert j.terminated
    assert j.betas == (F(0), F(0)) and j.gammas == (F(1), F(0))


def test_extraction_rejects_inconsistent_termination():
    mf = MomentFunctional(4, (0, 0, 0, 1))
    with pytest.raises(NoJacobiRepresentationError):
        jacobi_from_moments(mf, 2)


def test_extraction_needs_order():
    with pytest.raises(JacobiDepthError):
        jacobi_from_moments(MomentFunctional(4, (0, 1, 0, 2)), 3)


def test_extraction_reads_only_the_moments_its_rows_need():
    """Two rows come from m_1..m_4 alone: m_5 = 1, which makes the deeper
    row beta_2 = 1/t leave Q[t], does not stop them."""
    t = TPoly((0, 1))
    mf = MomentFunctional(5, (0, t, 0, t + t * t, 1))
    assert jacobi_from_moments(mf, 2) == JacobiParams((0, 0), (t, 1))


def test_roundtrip_random_including_negative_gammas():
    rng = random.Random(42)
    for _ in range(25):
        levels = rng.randint(1, 6)
        betas = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(levels)]
        gammas = []
        for _ in range(levels):
            g = 0
            while g == 0:
                g = F(rng.randint(-3, 3), rng.randint(1, 3))
            gammas.append(g)
        j = JacobiParams(betas, gammas)
        mf = moments_from_jacobi(j, 2 * levels)
        assert jacobi_from_moments(mf, levels) == j


def test_moment_locality_in_jacobi_depth():
    """m_n only sees the first ceil(n/2) levels of the continued fraction."""
    j_short = JacobiParams((1, 2), (1, -1))
    j_long = JacobiParams((1, 2, 7), (1, -1, 5))
    assert moments_from_jacobi(j_short, 4) == moments_from_jacobi(j_long, 4)


def test_a_zero_gamma_ends_the_rows_in_every_spelling():
    """Rows end at their first zero gamma, since no path steps down past it:
    a repeating tail whose gamma is zero, a zero gamma inside the rows and
    terminated rows are one continued fraction when they agree through it,
    whatever follows, and differ from rows that do not end there.  This is
    nc:recover-tau's display at c = 0, read by the Chebyshev algorithm."""
    ended = JacobiParams((F(1, 3), F(-7, 6)), (F(2), 0), terminated=True)
    spellings = (JacobiParams((F(1, 3),), (F(2),), repeat=(F(-7, 6), 0)),
                 JacobiParams((F(1, 3), F(-7, 6), 5), (F(2), 0, 1)),
                 JacobiParams((F(1, 3), F(-7, 6)), (F(2), 0), repeat=(1, 1)))
    for j in spellings:
        assert j == ended and ended == j
        assert moments_from_jacobi(j, 6) == moments_from_jacobi(ended, 6)
        assert jacobi_from_moments(moments_from_jacobi(j, 6), 3) == j
    for other in (JacobiParams((F(1, 3),), (F(2),), repeat=(F(-7, 6), 1)),
                  JacobiParams((F(1, 3), F(-7, 6)), (F(2), 1)),
                  JacobiParams((F(1, 3),), (F(2),)),
                  JacobiParams((F(1, 3), 0), (F(2), 0), terminated=True)):
        assert other != spellings[0] and spellings[0] != other
    t = TPoly((0, 1))
    assert JacobiParams((t,), (t,), repeat=(1, TPoly())) == JacobiParams(
        (t, 1), (t, 0), terminated=True)


def test_free_meixner_jacobi_display():
    rng = random.Random(7)
    for _ in range(10):
        b = F(rng.randint(-3, 3), rng.randint(1, 2))
        c = F(rng.randint(-3, 3), rng.randint(1, 2))
        beta = F(rng.randint(-3, 3), rng.randint(1, 2))
        gamma = F(rng.randint(1, 4), rng.randint(1, 2))
        if c + gamma == 0:
            continue
        mf = free_meixner(b, c, beta, gamma, 12)
        j = jacobi_from_moments(mf, 6)
        assert j.levels(6) == [(beta, gamma)] + [(b + beta, c + gamma)] * 5


def test_free_meixner_normalized_mean_variance():
    mf = free_meixner(F(1, 2), F(-1, 3), 0, 1, 4)
    assert mf.mean_var() == (0, 1)


def test_family_dispatch():
    assert family("semicircular", {"beta": 0, "gamma": 1}, 6) == semicircular(0, 1, 6)
    assert family("bernoulli_sym", {}, 4) == bernoulli_sym(4)
    assert family("free_meixner", {"b": 0, "c": 1, "beta": 0, "gamma": 1},
                  4).moments() == (0, 1, 0, 3)
    with pytest.raises(ValueError):
        family("cauchy", {}, 4)
    with pytest.raises(ValueError):
        family("semicircular", {"beta": 0}, 4)
    with pytest.raises(ValueError):
        family("point_mass", {"beta": 0, "junk": 1}, 4)


def test_mean_var():
    assert point_mass(3, 4).mean_var() == (3, 0)
    assert semicircular(F(1, 2), F(5), 4).mean_var() == (F(1, 2), F(5))
    assert bernoulli_sym(4).mean_var() == (0, 1)


def test_identifications():
    # mu_{0,-gamma,0,2gamma} is the arcsine family; mu_{0,-1,0,1} Bernoulli
    assert free_meixner(0, -1, 0, 2, 8) == arcsine(1, 8)
    assert free_meixner(0, -1, 0, 1, 8) == bernoulli_sym(8)
    assert free_meixner(0, 0, F(1, 2), F(2), 8) == semicircular(F(1, 2), F(2), 8)


def test_canonical_triple_invariants():
    with pytest.raises(ValueError):
        CanonicalTriple(0, 0, semicircular(0, 1, 4))
    with pytest.raises(ValueError):
        CanonicalTriple(0, 1, None)
    tri = CanonicalTriple(F(1), F(0), None)
    assert tri.rho is None


def test_functional_equality_via_min_order():
    a = MomentFunctional(4, (1, 2, 3, 4))
    b = MomentFunctional(6, (1, 2, 3, 4, 5, 6))
    assert a == b
    assert a.agrees_with(b, 4)
    with pytest.raises(ValueError):
        a.agrees_with(b, 5)


def test_strip_once_non_unital_is_consistency_error():
    mu = semicircular(0, 1, 6)
    assert _strip_once(mu, 0, 1) == semicircular(0, 1, 4)
    with pytest.raises(ConsistencyError):
        _strip_once(mu, 0, 2)  # a wrong variance leaves m_0 = 1/2


def test_equal_functionals_hash_alike():
    """== compares through the shorter order and across the rings, and so
    the hash must agree on every pair of equal functionals."""
    mf = semicircular(1, 2, 8)
    const = MomentFunctional(8, [TPoly.constant(c) for c in mf.moments()])
    for other in (mf.truncate(3), mf.truncate(1), const, const.truncate(5)):
        assert other == mf and hash(other) == hash(mf)
    assert len({mf, mf.truncate(3), const}) == 1


def _by_fractions(j, order):
    """moments_from_jacobi on the rows of j written out without a tail, so
    that they stay on Fraction."""
    rows = j.levels((order + 1) // 2)
    return moments_from_jacobi(
        JacobiParams([b for b, _ in rows], [g for _, g in rows]), order)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_jacobi_on_ints_matches_fractions(name):
    """Every named family, at every order 1-40, expands its rows with a
    repeating tail on ints over their lcm D, m_n = v_0 / D^n; the same rows
    without the tail stay on Fraction and give the same moments, all
    Fractions.  ``point_mass`` builds no rows: its moments beta^n equal the
    expansion of its terminated rows (beta; 0), type for type, for beta
    over Q, 0 included, and over Q[t]."""
    rng = random.Random(name)
    fn, argnames = FAMILIES[name]
    t = TPoly((0, 1))
    for order in range(1, 41):
        params = [F(rng.choice((-3, -1, 0, 1, 2, 5)), rng.choice((1, 2, 3, 7)))
                  for _ in argnames]
        if name == "point_mass":
            (beta,) = params
            for b in (beta, F(0), TPoly.constant(beta or 1), beta + t,
                      (beta or 1) * t * t):
                rows = JacobiParams((b,), (0,), terminated=True)
                assert _typed(point_mass(b, order)) == \
                    _typed(moments_from_jacobi(rows, order))
            continue
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(functionals, "moments_from_jacobi",
                       lambda j, n: seen.append(j) or moments_from_jacobi(j, n))
            got = fn(*params, order)
        (j,) = seen
        want = moments_from_jacobi(j, order) if j.terminated \
            else _by_fractions(j, order)
        assert all(type(c) is F for c in got.moments())
        assert _typed(got) == _typed(want)


def test_point_mass_of_a_zero_tpoly_keeps_one_ring():
    """beta = 0 as a TPoly: every moment is the zero TPoly, as the path
    expansion of its terminated rows gives it."""
    zero = TPoly.constant(0)
    got = point_mass(zero, 6).moments()
    assert all(type(c) is TPoly and not c for c in got)
    rows = JacobiParams((zero,), (0,), terminated=True)
    assert point_mass(zero, 6) == moments_from_jacobi(rows, 6)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12),
       st.sampled_from(("open", "terminated", "repeat")))
def test_jacobi_moments_have_one_ring(seed, order, shape):
    """moments_from_jacobi gives every moment a TPoly when one of the rows
    that it reads is, a zero TPoly included, and a Fraction otherwise; the
    rows specialised at a rational t give the moments specialised there.
    The rows are open (deep enough for the order), terminated, or end in a
    repeating tail, and take zero and nonzero values of both rings."""
    rng = random.Random(seed)
    t = formal_t()

    def value():
        return rng.choice((F(0), F(rng.randint(-3, 3), rng.randint(1, 3)),
                           TPoly(()), TPoly.constant(2), 1 + t, t / 2))

    depth = {"open": (order + 1) // 2 + rng.randint(0, 2),
             "terminated": rng.randint(1, 5), "repeat": rng.randint(0, 3)}[shape]
    betas = [value() for _ in range(depth)]
    gammas = [value() for _ in range(depth)]
    if shape == "terminated":
        gammas[-1] = rng.choice((F(0), TPoly(())))
    rows = JacobiParams(betas, gammas, terminated=shape == "terminated",
                        repeat=(value(), value()) if shape == "repeat" else None)
    got = moments_from_jacobi(rows, order).moments()
    levels = (order + 1) // 2
    if shape == "terminated":
        levels = min(levels, depth)
    read = [c for level in rows.levels(levels) for c in level]
    ring = TPoly if TPoly in map(type, read) else F
    assert [type(c) for c in got] == [ring] * order
    t0 = F(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3))
    at = JacobiParams([evaluate(c, t0) for c in betas],
                      [evaluate(c, t0) for c in gammas],
                      terminated=shape == "terminated",
                      repeat=rows.repeat and tuple(
                          evaluate(c, t0) for c in rows.repeat))
    assert [evaluate(c, t0) for c in got] == list(
        moments_from_jacobi(at, order).moments())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.integers(0, 5))
def test_jacobi_rows_with_a_tail_on_ints_match_fractions(seed, order, depth):
    """Random rows over Q with a repeating tail, zeros and a zero gamma
    mid-row included, expand on ints to the moments of the Fraction path."""
    rng = random.Random(seed)

    def q():
        return F(rng.choice((-3, -1, 0, 0, 1, 2, 5)), rng.choice((1, 2, 3, 7)))

    j = JacobiParams([q() for _ in range(depth)], [q() for _ in range(depth)],
                     repeat=(q(), q()))
    assert _typed(moments_from_jacobi(j, order)) == \
        _typed(_by_fractions(j, order))


def _digest_inputs(order):
    """(label, functional) pairs at one order: seeded functionals over Q,
    over Q with constant ``TPoly`` moments among the ``Fraction``s, and with
    moments affine in t; each family, and its free powers at formal t and
    at 3/2; then the strip and the Phi map of each of those.  A derivation
    that raises gives the class it raised in place of the functional."""
    rng = random.Random(f"jacobi digest {order}")
    t = TPoly((0, 1))

    def q():
        return F(rng.choice((-3, -1, 0, 0, 1, 2, 5)), rng.choice((1, 2, 3, 7)))

    def mixed(affine):
        kinds = (0, 1, 2) if affine else (0, 1)
        out = []
        for _ in range(order):
            kind, c = rng.choice(kinds), q()
            out.append(c if kind == 0 else TPoly.constant(c) if kind == 1
                       else c + rng.choice((-1, 1, 2)) * t)
        return MomentFunctional(order, out)

    base = [(f"q{i}", MomentFunctional(order, [q() for _ in range(order)]))
            for i in range(6)]
    base += [(f"const{i}", mixed(False)) for i in range(4)]
    base += [(f"affine{i}", mixed(True)) for i in range(4)]
    for name in sorted(FAMILIES):
        fn, argnames = FAMILIES[name]
        mf = fn(*[q() for _ in argnames], order)
        base += [(name, mf), (f"{name}^t", free_power(mf, t)),
                 (f"{name}^3/2", free_power(mf, F(3, 2)))]
    if order == 8:
        # eta = t w^2 (1 + w + w^2) + w^5: rows (0, 1; t, 0), while the
        # stripped functional goes on with m_3 = 1/t, which no closed
        # fraction has
        eta = TruncSeries(order, (0, 0, t, t, t, 1))
        base.append(("gamma1=0", moments_from_eta(eta, order)))
    for label, mf in base:
        yield f"{order} {label}", mf
        for op_name, op in (("J", strip), ("Phi", phi_map)):
            try:
                yield f"{order} {op_name}[{label}]", op(mf)
            except (ArithmeticError, ValueError) as exc:
                yield f"{order} {op_name}[{label}]", type(exc).__name__


def _jacobi_digest_lines(class_changed=()):
    """One line per input of ``_digest_inputs`` at orders 1-20: the rows that
    ``jacobi_from_moments(mf, mf.order // 2)`` reads, each beta and gamma as
    ``type:repr``, and whether they terminate, or the class it raised.  For a
    label in ``class_changed`` a NoJacobiRepresentationError is written as
    the ExactDivisionError it replaced."""
    lines = []
    for order in range(1, 21):
        for label, mf in _digest_inputs(order):
            if isinstance(mf, str):
                lines.append(f"{label}: {mf} deriving it")
                continue
            try:
                j = jacobi_from_moments(mf, mf.order // 2)
            except (ArithmeticError, ValueError) as exc:
                name = type(exc).__name__
                if label in class_changed:
                    assert name == "NoJacobiRepresentationError", label
                    name = "ExactDivisionError"
                lines.append(f"{label}: raises {name}")
                continue
            assert label not in class_changed, label
            rows = [f"{type(c).__name__}:{c!r}" for c in j.betas + j.gammas]
            lines.append(f"{label}: {' '.join(rows)} terminated={j.terminated}")
    return lines


# The two inputs on which a zero gamma comes before a division that is not
# exact: the extraction by coefficient stripping divided all the deeper
# moments before it read that gamma, and raised ExactDivisionError.
CLASS_CHANGED = ("8 gamma1=0", "8 Phi[gamma1=0]")


def test_jacobi_rows_match_the_strip_extraction_type_for_type():
    """jacobi_from_moments gives every row, type for type, and every error
    class that the extraction by coefficient stripping gave on the inputs
    of ``_digest_inputs``, recorded from that extraction, but on
    CLASS_CHANGED.  Re-recorded when every operation came to give its
    outputs one ring: 265 lines changed, each only in rationals that became
    constant TPolys of the same value, on inputs derived from a TPoly."""
    lines = _jacobi_digest_lines(CLASS_CHANGED)
    assert len(lines) == 1923
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == \
        "51eaefa7eb9a7925b147b6651e1f8d534a9f774a145877e71f9dc5b7066dce6a"


# -- the level-by-level sigma table against the full-row loop ------------------

JACOBI_DRAWS = ("q", "terminated", "inconsistent", "formal", "zero-variance")


def _jacobi_draw(rng, kind, order, rational=False):
    """A functional of the given order for the sweeps below: over Q with
    many zero moments; the moments of closed rows (gamma = 0 last), or
    those with one deeper moment changed, so that termination is
    inconsistent; a formal free power or semigroup, whose rows leave Q[t]
    after a level or two; or m_2 = m_1^2, over Q or Q[t], or only over Q
    when ``rational``."""
    t = TPoly((0, 1))

    def q():
        return F(rng.choice((-3, -1, 0, 0, 0, 1, 2, 5)), rng.choice((1, 2, 3, 7)))

    def nonzero():
        return q() or F(rng.choice((-2, 1, 3)), rng.choice((1, 5)))

    if kind == "q":
        return MomentFunctional(order, [q() for _ in range(order)])
    if kind in ("terminated", "inconsistent"):
        depth = rng.randint(1, max(1, order // 2))
        gammas = [nonzero() for _ in range(depth - 1)] + [0]
        mf = moments_from_jacobi(
            JacobiParams([q() for _ in range(depth)], gammas, terminated=True),
            order)
        if kind == "inconsistent" and order > 2 * depth:
            ms = list(mf.moments())
            k = rng.randrange(2 * depth, order)
            ms[k] += nonzero()
            mf = MomentFunctional(order, ms)
        return mf
    if kind == "formal":
        mu = MomentFunctional(order, [q() for _ in range(order)])
        make = rng.choice((
            lambda: free_power(mu, t),
            lambda: free_power(mu, 1 + t),
            lambda: belinschi_nica(mu, t),
            lambda: maassen_semigroup(CanonicalTriple(q(), nonzero(), mu), t,
                                      order)))
        return make()
    if rational:
        m1 = q()
        return MomentFunctional(order, [m1, m1 * m1]
                                + [q() for _ in range(order - 2)])
    m1 = rng.choice((q(), q() + t, TPoly.constant(q())))
    return MomentFunctional(order, [m1, m1 * m1]
                            + [rng.choice((q(), q() * t)) for _ in range(order - 2)])


def _rows_or_error(run):
    """The rows that ``run()`` returns, each coefficient with its type, or
    the class and message of what it raised."""
    try:
        j = run()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return ([(type(c), c) for c in j.betas + j.gammas], j.terminated,
            j.repeat)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(JACOBI_DRAWS),
       st.integers(1, 14))
def test_jacobi_rows_match_the_full_row_loop(seed, kind, order):
    """jacobi_from_moments gives the rows of the full-row loop type for
    type, or the same error class and message.  When a moment it reads is
    a TPoly, it grows its sigma table level by level, after the same exact
    divisions on the same operands; over Q it divides nothing."""
    mf = _jacobi_draw(random.Random(seed), kind, order)
    levels = mf.order // 2
    calls = {"new": [], "full": []}

    def spy(side):
        def div(a, b):
            calls[side].append(((type(a), a), (type(b), b)))
            return exact_div(a, b)
        return div

    with mock.patch.object(functionals, "exact_div", spy("new")):
        got = _rows_or_error(lambda: jacobi_from_moments(mf, levels))
    want = _rows_or_error(lambda: jacobi_rows_full(mf, levels, spy("full")))
    assert got == want
    if all(type(c) is F for c in mf.moments()[:2 * levels]):
        # over Q the rows are read on ints, with no exact division
        assert calls["new"] == []
    else:
        assert calls["new"] == calls["full"]


Q_DRAWS = tuple(kind for kind in JACOBI_DRAWS if kind != "formal")


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(Q_DRAWS),
       st.integers(1, 40))
def test_jacobi_rows_on_ints_match_the_fraction_reference(seed, kind, order):
    """Over Q, jacobi_from_moments runs the Chebyshev algorithm on primitive
    int rows; at any depth up to order // 2 it gives the rows of the full-row
    loop on Fraction type for type, or the same error class and message."""
    rng = random.Random(seed)
    mf = _jacobi_draw(rng, kind, order, rational=True)
    assert all(type(c) is F for c in mf.moments())
    levels = rng.choice((order // 2, rng.randint(0, order // 2)))
    got = _rows_or_error(lambda: jacobi_from_moments(mf, levels))
    assert got == _rows_or_error(
        lambda: jacobi_rows_full(mf, levels, exact_div))


DEEP_FAMILIES = {
    "free_meixner": ((F(3, 7), F(5, 11), F(1, 7), F(9, 11)),
                     ((F(1, 7),), (F(9, 11),), (F(4, 7), F(14, 11)))),
    "semicircular": ((0, 1), ((0,), (1,), (0, 1))),
}


@pytest.mark.parametrize("name", sorted(DEEP_FAMILIES))
def test_deep_jacobi_reads_on_ints_give_the_family_rows(name):
    """Read at depth 64 off 128 moments, a family gives back its own rows,
    all Fractions."""
    params, (betas, gammas, tail) = DEEP_FAMILIES[name]
    j = jacobi_from_moments(FAMILIES[name][0](*params, 128), 64)
    want = JacobiParams(betas, gammas, repeat=tail).levels(64)
    assert [(type(b), b, type(g), g) for b, g in j.levels(64)] == \
        [(F, b, F, g) for b, g in want]
    assert j.depth() == 64 and not j.terminated


@pytest.mark.parametrize("k", [1, 2, 3, 40, 77, 127, 128])
def test_one_changed_moment_changes_the_jacobi_rows(k):
    """m_k enters first beta_j at k = 2j+1 and gamma_j at k = 2j+2: adding 1
    to it leaves every earlier row as it was and changes that one."""
    mf = free_meixner(F(3, 7), F(5, 11), F(1, 7), F(9, 11), 128)
    ms = list(mf.moments())
    ms[k - 1] += 1
    rows = jacobi_from_moments(mf, 64)
    changed = jacobi_from_moments(MomentFunctional(128, ms), 64)
    j, odd = divmod(k - 1, 2)
    assert changed.levels(j) == rows.levels(j)
    if odd:
        assert changed.betas[j] == rows.betas[j]
        assert changed.gammas[j] != rows.gammas[j]
    else:
        assert changed.betas[j] != rows.betas[j]


def _tpoly_ops(run):
    """The number of TPoly operator calls that ``run()`` makes."""
    count = [0]
    names = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__neg__", "__truediv__", "__rtruediv__")

    def counted(op):
        def wrapper(*args):
            count[0] += 1
            return op(*args)
        return wrapper

    with contextlib.ExitStack() as stack:
        for name in names:
            stack.enter_context(mock.patch.object(
                TPoly, name, counted(getattr(TPoly, name))))
        run()
    return count[0]


def test_a_failing_jacobi_run_costs_the_same_at_any_order():
    """The rows of a formal free power leave Q[t] at an early level; the
    division that fails there costs as many TPoly operations at order 64
    as at order 32, not a full sigma row more per level."""
    t = TPoly((0, 1))
    rng = random.Random(32)
    moments = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(64)]
    ops = []
    for order in (32, 64):
        mu_t = free_power(MomentFunctional(order, moments), t)

        def run():
            with pytest.raises(ExactDivisionError):
                jacobi_from_moments(mu_t, order // 2)
        ops.append(_tpoly_ops(run))
    assert ops[0] == ops[1] > 0
