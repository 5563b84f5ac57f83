"""Sparse word-indexed series under concatenation, for the word-layer tests.

An independent reference for ``freeconv.multivariate``: the tests check the
word-layer solvers against their defining equations written with these
series operations (product, reciprocal, substitution), which share no code
with the triangular-solve kernels they check.
"""

from __future__ import annotations

from freeconv.coeffs import ZERO, ONE, as_coeff
from freeconv.series import NotInvertibleError


class NCSeries:
    """Sparse word-indexed series (empty word allowed) under concatenation."""

    __slots__ = ("d", "order", "_c")

    def __init__(self, d, order, coeffs):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.d = d
        self.order = order
        clean = {}
        for w, c in coeffs.items():
            w = tuple(w)
            if len(w) > order:
                continue
            if any(not 1 <= x <= d for x in w):
                raise ValueError(f"word {w} outside alphabet 1..{d}")
            c = as_coeff(c)
            if c:
                clean[w] = c
        self._c = clean

    @classmethod
    def one(cls, d, order):
        return cls(d, order, {(): ONE})

    @classmethod
    def letter(cls, i, d, order):
        return cls(d, order, {(i,): ONE})

    def coeff(self, w):
        return self._c.get(tuple(w), ZERO)

    def items(self):
        return self._c.items()

    def valuation_positive(self):
        return () not in self._c

    def __add__(self, other):
        self._check(other)
        out = dict(self._c)
        for w, c in other._c.items():
            out[w] = out.get(w, ZERO) + c
        return NCSeries(self.d, min(self.order, other.order), out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self._c)
        for w, c in other._c.items():
            out[w] = out.get(w, ZERO) - c
        return NCSeries(self.d, min(self.order, other.order), out)

    def scale(self, c):
        c = as_coeff(c)
        return NCSeries(self.d, self.order,
                        {w: c * x for w, x in self._c.items()})

    def __mul__(self, other):
        """Concatenation (Cauchy) product; order is non-commutative."""
        self._check(other)
        order = min(self.order, other.order)
        by_length = [[] for _ in range(order + 1)]
        for v, b in other._c.items():
            if len(v) <= order:
                by_length[len(v)].append((v, b))
        out = {}
        for u, a in self._c.items():
            for k in range(order - len(u) + 1):
                for v, b in by_length[k]:
                    w = u + v
                    out[w] = out.get(w, ZERO) + a * b
        return NCSeries(self.d, order, out)

    def reciprocal(self):
        """Two-sided inverse; requires a nonzero empty-word coefficient."""
        c0 = self._c.get((), ZERO)
        if not c0:
            raise NotInvertibleError("empty-word coefficient is zero")
        inv0 = ONE / c0
        rest = NCSeries(self.d, self.order,
                        {w: c for w, c in self._c.items() if w}).scale(inv0)
        # geometric series in the valuation-positive part
        acc = NCSeries.one(self.d, self.order)
        term = NCSeries.one(self.d, self.order)
        for _ in range(self.order):
            term = (term * rest).scale(-1)
            acc = acc + term
        return acc.scale(inv0)

    def substitute(self, subs):
        """Replace each letter i by subs[i-1]; substitutes need positive valuation."""
        if len(subs) != self.d:
            raise ValueError("need one substitute per letter")
        for s in subs:
            if not s.valuation_positive():
                raise ValueError("substitutes must have zero empty-word term")
        order = min([self.order] + [s.order for s in subs])
        total = NCSeries(self.d, order, {(): self._c.get((), ZERO)})
        prods = {(): NCSeries.one(self.d, order)}  # word -> its substitute

        def product(w):
            if w not in prods:
                prods[w] = product(w[:-1]) * subs[w[-1] - 1]
            return prods[w]

        for w, c in self._c.items():
            if w:
                total = total + product(w).scale(c)
        return total

    def _check(self, other):
        if not isinstance(other, NCSeries) or other.d != self.d:
            raise ValueError("operands over different alphabets")

    def __eq__(self, other):
        if not isinstance(other, NCSeries):
            return NotImplemented
        if self.d != other.d:
            return False
        n = min(self.order, other.order)
        seen = set(self._c) | set(other._c)
        return all(self.coeff(w) == other.coeff(w)
                   for w in seen if len(w) <= n)

    def __repr__(self):
        return f"<NCSeries d={self.d} order={self.order} ({len(self._c)} words)>"


def nc_m_series(mu):
    """The moment series M = sum_w m_w z_w (no empty-word term)."""
    return NCSeries(mu.d, mu.order, dict(mu.items()))


def nc_series_from_cumulants(kappa, d, order):
    return NCSeries(d, order, dict(kappa))
