"""Brute-force moment/cumulant conversion by partition enumeration.

This module is the independent cross-check for the transform recursions: free
cumulants come from sums over non-crossing partitions, Boolean cumulants from
sums over interval partitions.  It deliberately shares no series arithmetic
with the transforms module — only partition enumeration and coefficient
products.  Over Q those products run on ints, graded by the oracle's own lcm
rule (``_graded``), not by the grading of the triangular solves.

Each kind of partition has one cached recursion: ``_nc_raw(n, a)`` lists the
non-crossing partitions of the run {a+1..a+n} by the block of a+1 and the
cached partitions of the gaps that block leaves, and ``_interval_size_tuples``
lists the compositions of n by their first part.  Building NC(1..12) cold
takes about 0.5 s and 58 MB peak RSS (CPython 3.11, 2-core x86 host).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, product
from math import lcm

from .coeffs import ONE, ZERO, as_coeff
from .functionals import MomentFunctional

# Catalan(12) = 208,012 partitions.  free_cumulants_oracle enumerates NC(n)
# for every n up to its order: a cold call at order 12 takes about 0.8 s
# (CPython 3.11, one core of a 2-core x86 host), about 0.5 s of it the
# enumeration in _nc_raw; a cold `freeconv oracle cumulants --kind free` at
# 12 takes about 1 s, start-up included, with 86 MB peak RSS.  At 13 the
# enumeration alone takes 1.4-1.8 s and 170 MB for 742,900 partitions, and
# both grow about fourfold per order, so the cap stays at 12.  It is a
# constant, not a flag; the CLI rejects a larger order before enumerating.
MAX_ORACLE_ORDER = 12


class SetPartition:
    """A partition of {1..n} into disjoint blocks (each sorted, blocks by min)."""

    __slots__ = ("blocks", "n")

    def __init__(self, blocks):
        blocks = tuple(sorted((tuple(sorted(b)) for b in blocks),
                              key=lambda b: b[0]))
        elements = [x for b in blocks for x in b]
        n = len(elements)
        if sorted(elements) != list(range(1, n + 1)):
            raise ValueError("blocks must partition {1..n}")
        self.blocks = blocks
        self.n = n

    @classmethod
    def _of_sorted_blocks(cls, blocks, n):
        """``blocks``, each sorted as the enumerators yield them, put in
        order by one sort, without ``__init__``'s per-block sort and check."""
        out = cls.__new__(cls)
        out.blocks = tuple(sorted(blocks))
        out.n = n
        return out

    def is_non_crossing(self):
        """No a < b < c < d with a,c in one block and b,d in another."""
        owner = {}
        for i, b in enumerate(self.blocks):
            for x in b:
                owner[x] = i
        stack = []
        for x in range(1, self.n + 1):
            i = owner[x]
            if stack and stack[-1] == i:
                continue
            if i in stack:
                # reopening a block that was interrupted: crossing
                while stack and stack[-1] != i:
                    top = stack.pop()
                    if any(y > x for y in self.blocks[top]):
                        return False
                continue
            stack.append(i)
        return True

    def is_interval(self):
        """Every block is a set of consecutive integers."""
        return all(b[-1] - b[0] == len(b) - 1 for b in self.blocks)

    def __eq__(self, other):
        if not isinstance(other, SetPartition):
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"SetPartition({[list(b) for b in self.blocks]})"


def _check_order(n):
    if not 1 <= n <= MAX_ORACLE_ORDER:
        raise ValueError(
            f"oracle order must be in 1..{MAX_ORACLE_ORDER}, got {n}")


@lru_cache(maxsize=None)
def _nc_raw(n, a=0):
    """The non-crossing partitions of the run {a+1..a+n}, as block tuples."""
    if n == 0:
        return ((),)
    out = []
    # choose the block of a+1 as a+1 plus a subset of a+2..a+n; non-crossing
    # forces every other block inside a single gap between chosen elements
    for mask in range(1 << (n - 1)):
        block = (a + 1, *(a + 2 + i for i in range(n - 1) if mask >> i & 1))
        bounds = (*block, a + n + 1)
        gaps = [_nc_raw(hi - lo - 1, lo) for lo, hi in zip(bounds, bounds[1:])]
        # the last gap's blocks first: the order that the tests pin
        out.extend((block, *chain.from_iterable(reversed(subs)))
                   for subs in product(*gaps))
    return tuple(out)


def enumerate_nc(n):
    """All non-crossing partitions of {1..n}, each exactly once."""
    _check_order(n)
    return [SetPartition._of_sorted_blocks(bs, n) for bs in _nc_raw(n)]


@lru_cache(maxsize=None)
def _nc_block_sizes(n):
    """Block-size tuples of every NC partition of {1..n}, one per partition."""
    return tuple(tuple(map(len, bs)) for bs in _nc_raw(n))


def enumerate_interval(n):
    """All interval partitions of {1..n} (one per composition of n)."""
    _check_order(n)
    return [SetPartition._of_sorted_blocks(
                [tuple(range(end - size + 1, end + 1))
                 for size, end in zip(sizes, accumulate(sizes))], n)
            for sizes in _interval_size_tuples(n)]


@lru_cache(maxsize=None)
def _interval_size_tuples(n):
    """Compositions of n as tuples (ordered block sizes, left to right)."""
    if n == 0:
        return ((),)
    return tuple((first, *rest) for first in range(1, n + 1)
                 for rest in _interval_size_tuples(n - first))


def _graded(cs):
    """(D, [c_k D^k for k = 1..N]) as ints, with D the lcm of the denominators
    of the rationals c_1..c_N; None when some c_k is not rational.

    Every block-size tuple of a partition of {1..n} sums to n, so each product
    of c_{|V|} over its blocks scales by D^n, and a sum over the partitions of
    {1..n} can run on these ints and be divided by D^n once at the end.
    """
    if not all(isinstance(c, (int, Fraction)) for c in cs):
        return None
    d = lcm(*(c.denominator for c in cs))
    return d, [c.numerator * (d ** k // c.denominator)
               for k, c in enumerate(cs, 1)]


def moments_from_free_cumulants(kappa, t, order):
    """m_n(t) = sum over NC(n) of t^{|pi|} * prod kappa_{|V|}.

    The sum runs over every enumerated partition (one term each; no
    aggregation shortcuts).  ``kappa`` is a sequence kappa_1..kappa_order.
    For rational t = a/b and rational kappa it runs on ints: with K_k =
    kappa_k D^k, m_n D^n b^n = sum of a^{|pi|} b^{n-|pi|} prod K_{|V|}.
    """
    _check_order(order)
    if len(kappa) < order:
        raise ValueError("need cumulants up to the requested order")
    t = as_coeff(t)
    graded = _graded(kappa[:order]) if isinstance(t, Fraction) else None
    if graded is None:
        ks, zero = kappa, ZERO
        tpow = [ONE]
        for _ in range(order):
            tpow.append(tpow[-1] * t)
    else:
        (d, ks), zero = graded, 0
        a, b = t.numerator, t.denominator
    ms = []
    for n in range(1, order + 1):
        weight = tpow if graded is None else [a ** j * b ** (n - j)
                                              for j in range(n + 1)]
        total = zero
        for sizes in _nc_block_sizes(n):
            prod = weight[len(sizes)]
            for sz in sizes:
                prod = prod * ks[sz - 1]
            total = total + prod
        ms.append(total if graded is None else Fraction(total, d ** n * b ** n))
    return MomentFunctional(order, ms)


def _invert(mf, size_tuples):
    """c_1..c_N with m_n = sum over the partitions of {1..n}, one per tuple of
    ``size_tuples(n)``, of prod c_{|V|}: a triangular inversion that subtracts
    one product per partition other than the full block.  Rational moments
    run on ints graded by ``_graded`` and come back as Fractions."""
    _check_order(mf.order)
    ms, one = mf.moments(), ONE
    graded = _graded(ms)
    if graded is not None:
        (d, ms), one = graded, 1
    cs = []
    for n, s in enumerate(ms, 1):
        for sizes in size_tuples(n):
            if sizes == (n,):
                continue  # the full block carries the unknown c_n
            prod = one
            for sz in sizes:
                prod = prod * cs[sz - 1]
            s = s - prod
        cs.append(s)
    if graded is None:
        return cs
    return [Fraction(c, d ** n) for n, c in enumerate(cs, 1)]


def free_cumulants_oracle(mf):
    """kappa_1..kappa_N by triangular inversion of the NC partition sums."""
    return _invert(mf, _nc_block_sizes)


def boolean_cumulants_oracle(mf):
    """b_1..b_N by triangular inversion of the interval partition sums."""
    return _invert(mf, _interval_size_tuples)
