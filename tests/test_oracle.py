import hashlib
import math
import random
from collections import Counter
from fractions import Fraction as F
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from freeconv.functionals import MomentFunctional, bernoulli_sym, point_mass
from freeconv.coeffs import TPoly, formal_t
from freeconv import oracle
from freeconv.oracle import (
    MAX_ORACLE_ORDER,
    SetPartition,
    boolean_cumulants_oracle,
    enumerate_interval,
    enumerate_nc,
    free_cumulants_oracle,
    moments_from_free_cumulants,
)
from freeconv.transforms import eta_from_moments, r_from_moments


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def test_partition_validation():
    p = SetPartition([(1, 3), (2,)])
    assert p.blocks == ((1, 3), (2,))
    with pytest.raises(ValueError):
        SetPartition([(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        SetPartition([(1,), (3,)])


def test_predicates():
    assert SetPartition([(1, 4), (2, 3)]).is_non_crossing()
    assert not SetPartition([(1, 3), (2, 4)]).is_non_crossing()
    assert SetPartition([(1, 2), (3,)]).is_interval()
    assert not SetPartition([(1, 3), (2,)]).is_interval()
    assert SetPartition([(1,)]).is_non_crossing()
    assert SetPartition([(1,)]).is_interval()


def test_counts_match_closed_forms():
    for n in range(1, 13):
        assert len(enumerate_nc(n)) == catalan(n)
    for n in range(1, 11):
        assert len(enumerate_interval(n)) == 2 ** (n - 1)


def test_enumerations_are_duplicate_free_and_valid():
    for n in range(1, 9):
        ncs = enumerate_nc(n)
        assert len({p.blocks for p in ncs}) == len(ncs)
        assert all(p.is_non_crossing() for p in ncs)
        ints = enumerate_interval(n)
        assert len({p.blocks for p in ints}) == len(ints)
        assert all(p.is_interval() for p in ints)
        # interval partitions are exactly the non-crossing ones that are intervals
        assert {p.blocks for p in ints} <= {p.blocks for p in ncs}


def test_order_cap():
    for fn in (enumerate_nc, enumerate_interval,
               lambda n: moments_from_free_cumulants([F(1)] * 13, 1, n)):
        for n in (0, MAX_ORACLE_ORDER + 1):
            with pytest.raises(ValueError):
                fn(n)


def _digest(values):
    return hashlib.sha256(repr(values).encode()).hexdigest()


# sha256 of the repr of each enumeration, n = 1..12 for the raw tuples and
# 1..10 for the SetPartitions, recorded from the per-gap generator that the
# cached recursions replaced: the order of the partitions, not only the set,
# is pinned.
@pytest.mark.parametrize("fn, top, digest", (
    (oracle._nc_raw, 12,
     "450503010fa0a72cd6f90fa75cc9d1ea4b86a127cfee0a01b85cc51374bb8b22"),
    (oracle._nc_block_sizes, 12,
     "b23db029f5b14c3c8dbe1ea004a456552d5f27042dacc9f263835a50bc40c985"),
    (oracle._interval_size_tuples, 12,
     "5b06922f126ba58a7bbccc75d039981d50c3e2507ce19ec6a2354f46ef52d564"),
    (lambda n: [p.blocks for p in enumerate_nc(n)], 10,
     "aa8e634af3c0b869d1381dc85cb04bc7928f4347bf5eec0c9f7ae30dde31b83d"),
    (lambda n: [p.blocks for p in enumerate_interval(n)], 10,
     "42546331adb01b77027ce30ba27b79bf28c6082b842b9a24ef87fa85a0966504"),
), ids=("nc_raw", "nc_block_sizes", "interval_size_tuples", "enumerate_nc",
        "enumerate_interval"))
def test_enumeration_order_is_pinned(fn, top, digest):
    assert _digest([fn(n) for n in range(1, top + 1)]) == digest


def test_singleton_base_case():
    assert [p.blocks for p in enumerate_nc(1)] == [((1,),)]
    assert [p.blocks for p in enumerate_interval(1)] == [((1,),)]


def test_semicircle_and_point_mass():
    kappa = [F(0), F(1)] + [F(0)] * 6
    m = moments_from_free_cumulants(kappa, 1, 8)
    assert m.moments() == (0, 1, 0, 2, 0, 5, 0, 14)
    assert moments_from_free_cumulants([F(3)] + [F(0)] * 5, 1, 6) == point_mass(3, 6)


def test_formal_t_weights():
    t = formal_t()
    m = moments_from_free_cumulants([F(0), F(1), F(0), F(0), F(0), F(0)], t, 6)
    assert m.m(2) == t
    assert m.m(4) == 2 * t * t
    assert m.m(6) == 5 * t ** 3


def test_bernoulli_cumulants():
    bern = bernoulli_sym(6)
    assert free_cumulants_oracle(bern) == [0, 1, 0, -1, 0, 2]
    assert boolean_cumulants_oracle(bern) == [0, 1, 0, 0, 0, 0]
    assert free_cumulants_oracle(point_mass(F(1, 2), 4)) == [F(1, 2), 0, 0, 0]
    assert boolean_cumulants_oracle(point_mass(F(1, 2), 4)) == [F(1, 2), 0, 0, 0]


def test_oracle_agrees_with_recursions():
    rng = random.Random(123)
    for _ in range(10):
        mf = MomentFunctional(
            10, [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(10)])
        assert free_cumulants_oracle(mf) == list(r_from_moments(mf).coeffs()[1:])
        assert boolean_cumulants_oracle(mf) == list(
            eta_from_moments(mf).coeffs()[1:])


def test_moments_from_cumulants_inverts_oracle():
    rng = random.Random(4)
    mf = MomentFunctional(
        9, [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(9)])
    kappa = free_cumulants_oracle(mf)
    assert moments_from_free_cumulants(kappa, 1, 9) == mf


@cache
def _block_sizes(kind, n):
    parts = enumerate_nc(n) if kind == "nc" else enumerate_interval(n)
    return [[len(b) for b in p.blocks] for p in parts]


def _inverted(kind, ms):
    """c_1..c_N with m_n = sum over the partitions of {1..n} of prod c_{|V|},
    in plain coefficient arithmetic."""
    cs = []
    for n, s in enumerate(ms, 1):
        for sizes in _block_sizes(kind, n):
            if len(sizes) > 1:
                s -= math.prod(cs[k - 1] for k in sizes)
        cs.append(s)
    return cs


def _nc_moments(kappa, t, order):
    return [sum(t ** len(sizes) * math.prod(kappa[k - 1] for k in sizes)
                for sizes in _block_sizes("nc", n))
            for n in range(1, order + 1)]


# large primes make the lcm of the denominators, and its powers, huge
PRIMES = (10007, 65521, 999983, 1000003, 2 ** 31 - 1)


def _draw(rng, shape, order):
    if shape == "integer":
        return [F(rng.randint(-5, 5)) for _ in range(order)]
    if shape == "zeros":
        return [F(rng.randint(-4, 4), rng.randint(1, 6)) if rng.random() < 0.4
                else F(0) for _ in range(order)]
    return [F(rng.randint(-50, 50), rng.choice(PRIMES)) for _ in range(order)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 10),
       st.sampled_from(["integer", "zeros", "primes"]))
def test_oracle_matches_plain_partition_sums(seed, order, shape):
    """The oracle's integer path returns the values and the Fraction type of
    the partition sums taken in Fraction arithmetic."""
    rng = random.Random(seed)
    mf = MomentFunctional(order, _draw(rng, shape, order))
    kappa = _draw(rng, shape, order)
    t = F(rng.randint(-3, 3), rng.randint(1, 4))
    for got, want in (
            (free_cumulants_oracle(mf), _inverted("nc", mf.moments())),
            (boolean_cumulants_oracle(mf), _inverted("interval", mf.moments())),
            (moments_from_free_cumulants(kappa, t, order).moments(),
             _nc_moments(kappa, t, order))):
        assert list(got) == want
        assert all(type(x) is F for x in got)


def _draw_ring(rng, ring, order):
    """order coefficients over Q ("fraction"), over Q[t] ("tpoly") or a mix
    of both ("mixed"), with zeros among them."""
    t = formal_t()

    def q():
        return F(rng.choice((0, 0, 1, -1, 2, -3, 5)), rng.choice((1, 2, 3, 7)))

    if ring == "fraction":
        return [q() for _ in range(order)]
    if ring == "tpoly":
        return [q() + q() * t for _ in range(order)]
    return [q() + q() * t if rng.random() < 0.5 else q() for _ in range(order)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8),
       st.sampled_from(["fraction", "tpoly", "mixed"]),
       st.sampled_from(["rational", "formal"]))
def test_oracle_rings_match_plain_partition_sums(seed, order, ring, t_kind):
    """On Fraction, TPoly and mixed inputs, at a rational or the formal t,
    the three oracle sums, on ints packed at t = 2^B whenever a TPoly is
    among their inputs, equal the partition sums in plain coefficient
    arithmetic value for value, and give every output one ring: a TPoly
    when some input or t is one, else a Fraction."""
    rng = random.Random(seed)
    ms = _draw_ring(rng, ring, order)
    kappa = _draw_ring(rng, ring, order)
    t = formal_t() if t_kind == "formal" else F(rng.randint(-3, 3),
                                                 rng.randint(1, 4))
    mf = MomentFunctional(order, ms)
    for got, want, ins in (
            (free_cumulants_oracle(mf), _inverted("nc", ms), ms),
            (boolean_cumulants_oracle(mf), _inverted("interval", ms), ms),
            (moments_from_free_cumulants(kappa, t, order).moments(),
             _nc_moments(kappa, t, order), [*kappa, t])):
        assert list(got) == want
        ring_type = TPoly if TPoly in map(type, ins) else F
        assert all(type(x) is ring_type for x in got)


def test_nc_raw_keeps_one_entry_per_length():
    """The partitions of a gap are those of its length, shifted: one cache
    entry per length, 13 for {1..12} and its gaps, not one per (length,
    offset)."""
    oracle._nc_raw.cache_clear()
    enumerate_nc(12)
    assert oracle._nc_raw.cache_info().currsize <= 13


def test_oracle_keeps_formal_t_outputs_on_tpoly():
    t = formal_t()
    kappa = [F(1, 2), F(1), F(0), F(-2, 3), F(1, 7), F(0)]
    mf = moments_from_free_cumulants(kappa, t, 6)
    assert mf.moments() == tuple(_nc_moments(kappa, t, 6))
    for got in (mf.moments(), free_cumulants_oracle(mf),
                boolean_cumulants_oracle(mf)):
        assert all(isinstance(x, TPoly) for x in got)
    assert free_cumulants_oracle(mf) == [t * k for k in kappa]
    assert boolean_cumulants_oracle(mf) == _inverted("interval", mf.moments())


def _rows(columns):
    """The block-size tuples that ``oracle._columns`` holds, group by group:
    each group's columns are of one length and give tuples of its block
    count."""
    rows = []
    for k, cols in columns:
        assert len(cols) == k and all(type(c) is bytes for c in cols)
        assert len({len(c) for c in cols}) == 1
        rows += zip(*cols)
    return rows


def test_columns_hold_one_row_per_partition():
    """The sums read one row per partition: the NC columns of {1..n} hold
    Catalan(n) rows and the interval columns 2^(n-1), and as multisets the
    rows are the enumerations' block-size tuples, nothing aggregated."""
    for n in range(1, MAX_ORACLE_ORDER + 1):
        for columns, sizes, count in (
                (oracle._nc_columns(n), oracle._nc_block_sizes(n), catalan(n)),
                (oracle._interval_columns(n), oracle._interval_size_tuples(n),
                 2 ** (n - 1))):
            rows = _rows(columns)
            assert len(rows) == len(sizes) == count
            assert Counter(rows) == Counter(sizes)
            assert [k for k, _ in columns] == sorted({len(s) for s in sizes})


def test_block_sizes_follow_the_partitions():
    """The recursion on sizes and the one on blocks agree partition by
    partition, in order."""
    for n in range(0, 11):
        assert oracle._nc_block_sizes(n) == tuple(
            tuple(map(len, bs)) for bs in oracle._nc_raw(n))


def _no_blocks(*args):
    raise AssertionError("the sums enumerated partitions as blocks")


def test_the_sums_read_no_partition_blocks(monkeypatch):
    """The three oracle sums give the plain partition sums with
    ``_nc_raw`` unavailable and every size cache cold: they read block
    sizes alone."""
    rng = random.Random(46)
    order = 10
    mf = MomentFunctional(order, _draw(rng, "primes", order))
    kappa = _draw(rng, "zeros", order)
    t = F(-2, 3)
    want = (_inverted("nc", mf.moments()), _inverted("interval", mf.moments()),
            _nc_moments(kappa, t, order))
    monkeypatch.setattr(oracle, "_nc_raw", _no_blocks)
    monkeypatch.setattr(oracle, "_NC_SIZES", {0: ((),)})
    oracle._nc_columns.cache_clear()
    oracle._interval_columns.cache_clear()
    got = (free_cumulants_oracle(mf), boolean_cumulants_oracle(mf),
           list(moments_from_free_cumulants(kappa, t, order).moments()))
    assert got == want
    assert all(type(x) is F for out in got for x in out)
