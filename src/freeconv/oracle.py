"""Brute-force moment/cumulant conversion by partition enumeration.

This module is the independent cross-check for the transform recursions: free
cumulants come from sums over non-crossing partitions, Boolean cumulants from
sums over interval partitions.  It deliberately shares no series arithmetic
with the transforms module — only partition enumeration and coefficient
products.  Those products run on ints over Q and over Q[t] alike, graded by
the oracle's own lcm rule (``_graded``), not by the grading of the
triangular solves: each sum is one kernel of ``coeffs._on_ints``, the driver
that the series engine and the solves run on, which packs every ``TPoly``
at t = 2^B and reads the outputs back.  So the oracle shares no solve kernel
and no grading rule with ``transforms``, only that driver.

``_nc_raw(n)`` lists the non-crossing partitions of {1..n} by the block of 1
and the partitions of the gaps that block leaves, those of each gap's length
shifted by its offset, and keeps them per length; it serves ``enumerate_nc``
alone.  The sums read block sizes only.
``_nc_block_sizes`` runs the same recursion on sizes, keeping the size tuples
of each length it reads as a gap, and ``_interval_size_tuples`` lists the
compositions of n by their first part.  The sums read the partitions of
{1..n} as block-size columns of bytes, one group per block count
(``_columns``), and take one product per partition.  So the cache holds
block-size columns, not partitions: ``free_cumulants_oracle`` at order 12,
cold, takes about 0.4 s in-process with 26 MB peak RSS (CPython 3.11, 2-core
x86 host).  Over Q[t], with the columns built, it takes about 0.3-0.4 s at
12 on moments of t-degree 1 and small denominators, and 1.3-2 s on the
free power at formal t of ``tests/data/mu12.json``, whose lcm grading
makes each packed t-digit about 315 bits wide.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain, product
from math import lcm, prod

from .coeffs import TPoly, _on_ints, _read, as_coeff
from .functionals import MomentFunctional

# Catalan(12) = 208,012 partitions.  free_cumulants_oracle enumerates NC(n)
# for every n up to its order.  Cold, start-up included (CPython 3.11, one
# core of a 2-core x86 host), `freeconv oracle cumulants --kind free` at 12
# takes about 0.45 s with 27 MB peak RSS, and `oracle count nc 12` about
# 0.25 s with 24 MB.  At 13, with 742,900 partitions, the same two take
# about 1.4 s with 55 MB and 0.7 s with 45 MB: time grows about threefold
# per order and memory about twofold.  The cap stays at 12; the cost at 13 is
# here for a later choice.  It is a constant, not a flag; the CLI rejects a
# larger order before enumerating.
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
def _nc_raw(n):
    """The non-crossing partitions of {1..n}, as block tuples, kept per
    length: a gap's partitions are those of its length, shifted by its
    offset."""
    if n == 0:
        return ((),)
    out, shifted = [], {}

    def gap(lo, hi):
        # the partitions of lo+1..hi-1, each distinct block shifted once in
        # this call
        if (lo, hi) not in shifted:
            raw = _nc_raw(hi - lo - 1)
            moved = {b: tuple(x + lo for x in b)
                     for b in set(chain.from_iterable(raw))}
            shifted[lo, hi] = [tuple(map(moved.__getitem__, bs)) for bs in raw]
        return shifted[lo, hi]

    # choose the block of 1 as 1 plus a subset of 2..n; non-crossing forces
    # every other block inside a single gap between chosen elements
    for mask in range(1 << (n - 1)):
        block = (1, *(i + 2 for i in range(n - 1) if mask >> i & 1))
        bounds = (*block, n + 1)
        gaps = [gap(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        # the last gap's blocks first: the order that the tests pin
        out.extend((block, *chain.from_iterable(reversed(subs)))
                   for subs in product(*gaps))
    return tuple(out)


def enumerate_nc(n):
    """All non-crossing partitions of {1..n}, each exactly once."""
    _check_order(n)
    return [SetPartition._of_sorted_blocks(bs, n) for bs in _nc_raw(n)]


def _nc_size_stream(n):
    """The block-size tuples of the NC partitions of {1..n}, n >= 1, one per
    partition in ``_nc_raw``'s order, by ``_nc_raw``'s recursion on sizes: a
    gap's blocks depend only on its length, so each gap is read from the
    kept tuples of its length."""
    # every length below n is a gap of n; a call only for one not yet kept
    kept = [_NC_SIZES.get(g) or _nc_block_sizes(g) for g in range(n)]
    for mask in range(1 << (n - 1)):
        # the block of 1 holds 1 and each i + 2 with bit i of mask set; it
        # leaves one gap after each of its elements
        gaps, last = [], 1
        for i in range(n - 1):
            if mask >> i & 1:
                gaps.append(kept[i + 1 - last])
                last = i + 2
        gaps.append(kept[n - last])
        size = len(gaps)
        for subs in product(*gaps):
            yield (size, *chain.from_iterable(reversed(subs)))


# _nc_block_sizes by length, for the lengths read so far: the gaps of the
# runs streamed, and those asked for directly
_NC_SIZES = {0: ((),)}


def _nc_block_sizes(n):
    """Block-size tuples of every NC partition of {1..n}, one per partition,
    kept for the next read."""
    sizes = _NC_SIZES.get(n)
    if sizes is None:
        sizes = _NC_SIZES[n] = tuple(_nc_size_stream(n))
    return sizes


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


def count_partitions(kind, n):
    """The number of NC (``kind`` "nc") or interval ("interval") partitions
    of {1..n}, counted over their block-size tuples, not by a closed form."""
    _check_order(n)
    sizes = _nc_size_stream(n) if kind == "nc" else _interval_size_tuples(n)
    return sum(1 for _ in sizes)


def _columns(size_tuples, n):
    """The block-size tuples of partitions of {1..n} as (k, columns) for each
    block count k that occurs: column i is the bytes of the i-th block sizes
    of the k-block partitions, so that zip(*columns) gives their tuples."""
    flats = [bytearray() for _ in range(n + 1)]
    for sizes in size_tuples:
        flats[len(sizes)].extend(sizes)
    return tuple((k, [bytes(flat[i::k]) for i in range(k)])
                 for k, flat in enumerate(flats) if flat)


@lru_cache(maxsize=None)
def _nc_columns(n):
    """NC(1..n) as ``_columns``: from the kept tuples when n has been read
    as a gap, else streamed, keeping no tuple of n.  The sums ask for their
    top length first, so each shorter length is enumerated once, as a gap,
    and the top one is never kept as tuples."""
    return _columns(_NC_SIZES.get(n) or _nc_size_stream(n), n)


@lru_cache(maxsize=None)
def _interval_columns(n):
    """The interval partitions of {1..n} as ``_columns``."""
    return _columns(_interval_size_tuples(n), n)


def _graded(cs):
    """(parts, D, D): the coefficients c_1..c_N as a ``coeffs._on_ints``
    input, D the lcm of their denominators (a ``TPoly``'s common one), so
    that its row is the ints c_k D^k, each ``TPoly`` packed at t = 2^B.

    Every block-size tuple of a partition of {1..n} sums to n, so each product
    of c_{|V|} over its blocks scales by D^n, and a sum over the partitions of
    {1..n} runs on these ints and is divided by D^n once, at the end.
    """
    nums, dens = zip(*[(c.nums, c.den) if type(c) is TPoly
                       else c.as_integer_ratio() for c in map(as_coeff, cs)])
    d = lcm(*dens)
    return (nums, dens), d, d


def moments_from_free_cumulants(kappa, t, order):
    """m_n(t) = sum over NC(n) of t^{|pi|} * prod kappa_{|V|}.

    The sum runs over every enumerated partition (one term each; no
    aggregation shortcuts).  ``kappa`` is a sequence kappa_1..kappa_order
    and t a coefficient, t = a/b with b > 0.  The sums run on ints through
    ``coeffs._on_ints``: with K_k = kappa_k D^k (``_graded``),
    m_n D^n b^n = sum of a^{|pi|} b^{n-|pi|} prod K_{|V|}, and a enters as a
    second one-term input, so that over Q[t] it is packed with the K_k.
    Every m_n is a ``TPoly`` when t or some kappa_k is one, else a
    ``Fraction``.
    """
    _check_order(order)
    if len(kappa) < order:
        raise ValueError("need cumulants up to the requested order")
    graded = _graded(kappa[:order])
    (a,), (b,) = _graded((t,))[0]  # t = a/b
    _nc_columns(order)  # first: see _nc_columns

    def sums(_, ks, a):
        ks, a, ms = (None, *ks), a[0], []
        for n in range(1, order + 1):
            weight = [a ** j * b ** (n - j) for j in range(n + 1)]
            # one product of K_{|V|} per partition; a^{|pi|} b^{n-|pi|} is
            # one factor per block count
            total = 0
            for k, cols in _nc_columns(n):
                total += weight[k] * sum(map(prod, zip(
                    *[map(ks.__getitem__, col) for col in cols])))
            ms.append(total)
        return ms

    xs, bits = _on_ints(sums, [graded, (((a,), (1,)), 1, 1)])
    db = graded[1] * b
    return MomentFunctional._made(order, _read(xs, bits, db, db))


def _invert(mf, columns):
    """c_1..c_N with m_n = sum over the partitions of {1..n}, held by
    ``columns(n)`` (see ``_columns``), of prod c_{|V|}: a triangular
    inversion that subtracts one product per partition other than the full
    block, the one partition with one block.  It runs on the ints
    C_n = c_n D^n, D from ``_graded``, through ``coeffs._on_ints``: every
    c_n is a ``TPoly`` when some moment is one, else a ``Fraction``."""
    _check_order(mf.order)
    graded = _graded(mf.moments())
    columns(mf.order)  # first: see _nc_columns

    def solve(minus, ms):
        cs = [None]
        for n, s in enumerate(ms, 1):
            for k, cols in columns(n):
                if k > 1:  # the full block carries the unknown c_n
                    s = minus(s, sum(map(prod, zip(
                        *[map(cs.__getitem__, col) for col in cols]))))
            cs.append(s)
        return cs[1:]

    xs, bits = _on_ints(solve, [graded])
    return _read(xs, bits, graded[1], graded[1])


def free_cumulants_oracle(mf):
    """kappa_1..kappa_N by triangular inversion of the NC partition sums."""
    return _invert(mf, _nc_columns)


def boolean_cumulants_oracle(mf):
    """b_1..b_N by triangular inversion of the interval partition sums."""
    return _invert(mf, _interval_columns)
