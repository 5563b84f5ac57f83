"""Brute-force moment/cumulant conversion by partition enumeration.

This module is the independent cross-check for the transform recursions: free
cumulants come from sums over non-crossing partitions, Boolean cumulants from
sums over interval partitions.  It deliberately shares no series arithmetic
with the transforms module — only partition enumeration and coefficient
products.
"""

from __future__ import annotations

from functools import lru_cache

from .coeffs import ONE, ZERO, as_coeff
from .functionals import MomentFunctional

# Catalan(12) = 208,012 partitions.  free_cumulants_oracle enumerates NC(n)
# for every n up to its order: about 11 s at order 12 and 34 s at order 13
# (CPython 3.11, one core of a 2-core x86 host), and the count grows about
# fourfold per order, so 12 keeps one oracle call near ten seconds.  It is a
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


def _nc_blockings(elements):
    """Yield non-crossing partitions of a sorted element tuple as block tuples."""
    if not elements:
        yield ()
        return
    first, rest = elements[0], elements[1:]
    m = len(rest)
    # choose the block of `first` as first + a subset of rest; non-crossing
    # forces every other block inside a single gap between chosen elements
    for mask in range(1 << m):
        chosen = [rest[i] for i in range(m) if mask >> i & 1]
        block = (first, *chosen)
        gaps = []
        prev = first
        for c in chosen:
            gaps.append(tuple(x for x in rest if prev < x < c))
            prev = c
        gaps.append(tuple(x for x in rest if x > prev))
        # skipped elements below the block's max must fall in some gap;
        # they always do, so just recurse per gap
        def rec(gap_idx):
            if gap_idx == len(gaps):
                yield (block,)
                return
            for sub in _nc_blockings(gaps[gap_idx]):
                for more in rec(gap_idx + 1):
                    yield more + sub
        yield from rec(0)


@lru_cache(maxsize=None)
def _nc_raw(n):
    return tuple(_nc_blockings(tuple(range(1, n + 1))))


def enumerate_nc(n):
    """All non-crossing partitions of {1..n}, each exactly once."""
    _check_order(n)
    return [SetPartition(bs) for bs in _nc_raw(n)]


@lru_cache(maxsize=None)
def _nc_block_sizes(n):
    """Block-size tuples of every NC partition of {1..n}, one per partition."""
    return tuple(tuple(len(b) for b in bs) for bs in _nc_raw(n))


def enumerate_interval(n):
    """All interval partitions of {1..n} (one per composition of n)."""
    _check_order(n)
    out = []

    def rec(start, blocks):
        if start > n:
            out.append(SetPartition(blocks))
            return
        for end in range(start, n + 1):
            rec(end + 1, blocks + [tuple(range(start, end + 1))])

    rec(1, [])
    return out


@lru_cache(maxsize=None)
def _interval_size_tuples(n):
    """Compositions of n as tuples (ordered block sizes, left to right)."""
    out = []

    def rec(remaining, parts):
        if remaining == 0:
            out.append(tuple(parts))
            return
        for p in range(1, remaining + 1):
            rec(remaining - p, parts + [p])

    rec(n, [])
    return tuple(out)


def moments_from_free_cumulants(kappa, t, order):
    """m_n(t) = sum over NC(n) of t^{|pi|} * prod kappa_{|V|}.

    The sum runs over every enumerated partition (one term each; no
    aggregation shortcuts).  ``kappa`` is a sequence kappa_1..kappa_order.
    """
    _check_order(order)
    if len(kappa) < order:
        raise ValueError("need cumulants up to the requested order")
    t = as_coeff(t)
    tpow = [ONE]
    for _ in range(order):
        tpow.append(tpow[-1] * t)
    ms = []
    for n in range(1, order + 1):
        total = ZERO
        for sizes in _nc_block_sizes(n):
            prod = tpow[len(sizes)]
            for sz in sizes:
                prod = prod * kappa[sz - 1]
            total = total + prod
        ms.append(total)
    return MomentFunctional(order, ms)


def free_cumulants_oracle(mf):
    """kappa_1..kappa_N by triangular inversion of the NC partition sums."""
    _check_order(mf.order)
    kappa = []
    for n in range(1, mf.order + 1):
        s = mf.m(n)
        for sizes in _nc_block_sizes(n):
            if sizes == (n,):
                continue  # the full block carries the unknown kappa_n
            prod = ONE
            for sz in sizes:
                prod = prod * kappa[sz - 1]
            s = s - prod
        kappa.append(s)
    return kappa


def boolean_cumulants_oracle(mf):
    """b_1..b_N by triangular inversion of the interval partition sums."""
    _check_order(mf.order)
    b = []
    for n in range(1, mf.order + 1):
        s = mf.m(n)
        for sizes in _interval_size_tuples(n):
            if sizes == (n,):
                continue
            prod = ONE
            for sz in sizes:
                prod = prod * b[sz - 1]
            s = s - prod
        b.append(s)
    return b
