"""The word functional as a dict of its values, for the graded-row tests.

A reference for ``freeconv.multivariate``'s layout.  ``NCFunctional`` there
holds graded rows at one scale per functional and builds each value on
read; ``DictFunctional`` here holds the nonzero values themselves, a
``Fraction`` or a ``TPoly`` per word, and every operation below grades its
input dicts into rows, runs the library's raw kernels on them and reads
every output word back into a dict, as the word layer did before its
functionals kept their rows.  The kernels are shared, so the two must give
the same values, type for type, on every input; what differs is the
grading, the packing, the scale of each input and the reading of values.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from freeconv import multivariate as mv
from freeconv.coeffs import (ZERO, ONE, TPoly, _bits, _grade, _pack, _unpack,
                             as_coeff)


class DictFunctional:
    """Unital functional on words; stored sparsely, empty word -> 1."""

    __slots__ = ("d", "order", "_m")

    def __init__(self, d, order, moments):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.d = d
        self.order = order
        clean = {}
        for w, c in moments.items():
            w = tuple(w)
            if not w:
                if not (as_coeff(c) == 1):
                    raise ValueError("empty word must map to 1")
                continue
            if len(w) > order:
                continue
            if any(not 1 <= x <= d for x in w):
                raise ValueError(f"word {w} outside alphabet 1..{d}")
            c = as_coeff(c)
            if c:
                clean[w] = c
        self._m = clean

    @classmethod
    def filled(cls, d, order, moments):
        if order < 1:
            raise ValueError("order must be >= 1")
        self = object.__new__(cls)
        self.d = d
        self.order = order
        self._m = moments
        return self

    def m(self, w):
        w = tuple(w)
        if not w:
            return ONE
        if len(w) > self.order:
            raise IndexError(f"word {w} beyond order {self.order}")
        return self._m.get(w, ZERO)

    def items(self):
        return self._m.items()

    def truncate(self, order):
        if order >= self.order:
            return self
        return DictFunctional(
            self.d, order, {w: c for w, c in self._m.items() if len(w) <= order})

    def __eq__(self, other):
        if not isinstance(other, DictFunctional):
            return NotImplemented
        if self.d != other.d:
            return False
        n = min(self.order, other.order)
        return self._upto(n) == other._upto(n)

    def _upto(self, n):
        if n >= self.order:
            return self._m
        return {w: c for w, c in self._m.items() if len(w) <= n}

    def __repr__(self):
        return f"<NCFunctional d={self.d} order={self.order} ({len(self._m)} words)>"


def _table(dct, ws, pw, b):
    return [None] + [[
        None if c is None
        else (_pack(c.nums, b) * (p // c.den) if type(c) is TPoly
              else c.numerator * (p // c.denominator)) or None
        for c in map(dct.get, row)] for row, p in zip(ws[1:], pw[1:])]


def graded_words(solve, d, order, *dicts, t=None):
    """The dict seam: one D for all input dicts by ``_grade``, each dict
    packed into rows, and the output read back into a dict of values."""
    ws = [None] + [list(itertools.product(range(1, d + 1), repeat=n))
                   for n in range(1, order + 1)]
    tn, tq = ((), 1) if t is None else TPoly._parts(t)
    scale = _grade(*(zip(map(len, dct), dct.values())
                     for dct in dicts))[0] * tq
    pw = [1]
    for _ in range(max(order, max(map(len, itertools.chain(*dicts)),
                                  default=0))):
        pw.append(pw[-1] * scale)

    def run(d, ins, p, minus):
        if t is not None:
            ins.insert(0, mv._times(p, tq))
        return solve(d, order, minus, *ins)

    b = 0
    polys = type(t) is TPoly or any(
        type(c) is TPoly for dct in dicts for c in dct.values())
    if polys:
        tops = []
        for dct in dicts:
            top = [0] * len(pw)
            for w, c in dct.items():
                nums, den = TPoly._parts(c)
                top[len(w)] = max(top[len(w)],
                                  sum(map(abs, nums)) * (pw[len(w)] // den))
            tops.append([None] + [[x or None] for x in top[1:order + 1]])
        bound = run(1, tops, sum(map(abs, tn)), mv._plus)
        b = _bits(max((x for row in bound[1:] for x in row if x is not None),
                      default=0))
    out = run(d, [_table(dct, ws, pw, b) for dct in dicts],
              _pack(tn, b), mv._minus)
    rows = zip(ws[1:], out[1:], pw[1:])
    if polys:
        return {w: _unpack(x, b, p) for row_w, row, p in rows
                for w, x in zip(row_w, row) if x is not None}
    return {w: Fraction(x, p) for row_w, row, p in rows
            for w, x in zip(row_w, row) if x is not None}


def _filled(solve, d, order, *dicts, t=None):
    return DictFunctional.filled(d, order, graded_words(
        solve, d, order, *dicts, t=t))


def nc_r(mu):
    return graded_words(mv._r, mu.d, mu.order, mu._m)


def nc_moments_from_r(kappa, d, order):
    return _filled(mv._moments_from_r, d, order, kappa)


def nc_eta(mu):
    return graded_words(mv._eta, mu.d, mu.order, mu._m)


def nc_moments_from_eta(eta, d, order):
    return _filled(mv._moments_from_eta, d, order, eta)


def nc_two_state_r(tilde, base):
    n = min(tilde.order, base.order)
    return graded_words(lambda d, order, minus, x, m: mv._two_state_r(
        d, order, minus, mv._eta(d, order, minus, x), m),
        tilde.d, n, tilde.truncate(n)._m, base.truncate(n)._m)


def nc_tilde_from_two_state_r(r2, base):
    return _filled(lambda d, order, minus, r2, m: mv._moments_from_eta(
        d, order, minus, mv._substitute_divide(d, order, minus, r2, m)),
        base.d, base.order, r2, base._m)


def _combine(a, b, cumulants, moments, op):
    order = min(a.order, b.order)
    return _filled(lambda d, order, minus, x, y: moments(
        d, order, minus, mv._merge(cumulants(d, order, minus, x),
                                   cumulants(d, order, minus, y),
                                   minus if op == "-" else mv._plus)),
        a.d, order, a.truncate(order)._m, b.truncate(order)._m)


def _power(a, t, cumulants, moments):
    return _filled(lambda d, order, minus, times_t, m: moments(
        d, order, minus, times_t(cumulants(d, order, minus, m))),
        a.d, a.order, a._m, t=as_coeff(t))


def nc_free_convolve(a, b):
    return _combine(a, b, mv._r, mv._moments_from_r, "+")


def nc_free_deconvolve(a, b):
    return _combine(a, b, mv._r, mv._moments_from_r, "-")


def nc_boolean_convolve(a, b):
    return _combine(a, b, mv._eta, mv._moments_from_eta, "+")


def nc_free_power(a, t):
    return _power(a, t, mv._r, mv._moments_from_r)


def nc_boolean_power(a, t):
    return _power(a, t, mv._eta, mv._moments_from_eta)


def nc_phi(nu):
    eta = {}
    for i in range(1, nu.d + 1):
        eta[(i, i)] = ONE
        for w, c in nu.items():
            eta[(i,) + w + (i,)] = c
    return nc_moments_from_eta(eta, nu.d, nu.order + 2)


def nc_bp(mu):
    return _filled(lambda d, order, minus, m: mv._moments_from_r(
        d, order, minus, mv._eta(d, order, minus, m)), mu.d, mu.order, mu._m)


def nc_bp_inverse(mu):
    return _filled(lambda d, order, minus, m: mv._moments_from_eta(
        d, order, minus, mv._r(d, order, minus, m)), mu.d, mu.order, mu._m)


def nc_subordination(mu, nu):
    order = min(mu.order, nu.order)
    return _filled(lambda d, order, minus, a, m: mv._moments_from_r(
        d, order, minus, mv._substitute_divide(
            d, order, minus, mv._r(d, order, minus, a), m)),
        mu.d, order, mu.truncate(order)._m, nu.truncate(order)._m)


def composition_product(lam, nu):
    order = min(lam.order, nu.order)
    return _filled(mv._composition, lam.d, order, lam.truncate(order)._m,
                   nu.truncate(order)._m)


def nc_subordination_inverse(lam, nu):
    order = min(lam.order, nu.order)
    return _filled(lambda d, order, minus, x, m: mv._moments_from_r(
        d, order, minus, mv._merge(
            mv._r(d, order, minus, mv._composition(d, order, minus, x, m)),
            mv._r(d, order, minus, m), minus)),
        lam.d, order, lam.truncate(order)._m, nu.truncate(order)._m)


def nc_point_mass(beta, d, order):
    beta = [as_coeff(x) for x in beta]
    return _filled(mv._products, d, order,
                   {(i,): b for i, b in enumerate(beta, 1) if b})
