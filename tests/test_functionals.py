import hashlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st
from test_convolutions import _typed

from freeconv import functionals
from freeconv.coeffs import TPoly
from freeconv.convolutions import free_power
from freeconv.evolution import phi_map, strip
from freeconv.functionals import (
    FAMILIES,
    CanonicalTriple,
    ConsistencyError,
    JacobiDepthError,
    JacobiParams,
    MomentFunctional,
    NoJacobiRepresentationError,
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
from freeconv.series import TruncSeries
from freeconv.transforms import moments_from_eta


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
    Fractions."""
    rng = random.Random(name)
    fn, argnames = FAMILIES[name]
    for order in range(1, 41):
        params = [F(rng.choice((-3, -1, 0, 1, 2, 5)), rng.choice((1, 2, 3, 7)))
                  for _ in argnames]
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
    CLASS_CHANGED."""
    lines = _jacobi_digest_lines(CLASS_CHANGED)
    assert len(lines) == 1923
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == \
        "26a40a9fcc222be67b7758d422fba298ade0a0f4efe80b7761adb53e7c4615b3"
