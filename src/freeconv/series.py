"""Truncated formal power series and Laurent expansions at infinity.

:class:`TruncSeries` is an ordinary truncated power series
c_0 + c_1 z + ... + c_N z^N, exact through z^N.  :class:`LaurentAtInfinity`
is top*z + c_0 + c_1/z + ... + c_K/z^K with top restricted to 0 or 1 (every
F-transform expansion used here has the form z - beta - gamma/z - ...); it is
stored as ``top`` and its chart c_0 + c_1 w + ... + c_K w^K in w = 1/z, a
TruncSeries, so every product, reciprocal and composition of either type runs
through TruncSeries.

A series stores a tuple of coefficients, ``Fraction`` or ``TPoly``.  The
constructor checks values from outside the library by ``as_coeff``; every
result of the engine, and of the solves of ``transforms``, enters through
``_series`` as it is.  A product, reciprocal or composition runs its
integer kernel on graded ints through the driver ``coeffs._on_ints`` and
its reader ``_read`` (the protocol is in the ``coeffs`` docstring):
z -> Dz, D from ``_grade``, a product's and a reciprocal's factors times
the denominator of their constant terms, a composition's outer series over
one denominator.  Every output coefficient is a ``Fraction`` over Q and a
``TPoly`` when an input coefficient is one, as the solves of ``transforms``
give theirs.  A product over Q alone puts each factor over one common
denominator instead (see ``__mul__``).  Reversion takes one reciprocal and
then one coefficient of each power v^k by Miller's power recurrence, one
kernel on the graded ints of v in both rings, about n^3/6 terms, no series
product and no gcd but each output's.

All values are immutable; operations return fresh objects and propagate the
guaranteed-exact order as the minimum of the inputs' orders, except that a
Laurent product keeps the order its factors' leading terms determine.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import add, mul, sub

from .coeffs import (
    ZERO,
    ONE,
    TPoly,
    _common,
    _convolve,
    _grade,
    _on_ints,
    _polys,
    _read,
    as_coeff,
    t_derivative,
)


class NotInvertibleError(ArithmeticError):
    """Series has no multiplicative inverse (zero constant term)."""


class CompositionDomainError(ValueError):
    """Inner series outside the domain of formal composition."""


def _series(order, cs):
    """The TruncSeries of the coefficients cs through z^order, cut at
    order + 1 and padded with zeros, as the constructor cuts and pads: the
    one entry of the library's own results.  Each of cs must already be a
    ``Fraction`` or a ``TPoly``, as every solve, product and ring operation
    on coefficients gives it, so none is checked again; only a value from
    outside the library goes through the constructor's ``as_coeff``."""
    if order < 0:
        raise ValueError("order must be >= 0")
    out = TruncSeries.__new__(TruncSeries)
    out.order = order
    cs = tuple(cs[:order + 1])
    out._c = cs + (ZERO,) * (order + 1 - len(cs))
    return out


def _from_ints(order, nums, den):
    """The TruncSeries sum(nums[k] z^k) / den through z^order."""
    return _series(order, [Fraction(x, den) if x else ZERO for x in nums])


def _inverse_ints(a, n, minus, first):
    """C_0..C_n for ints a_0..a_n, a_0 != 0, with C_0 = first and
    C_k = 0 - sum_{j=1..k} a_j a_0^(j-1) C_{k-j}, ``minus`` the -, so that
    first / A has coefficients C_k / a_0^(k+1) for A = sum a_k z^k: no
    division."""
    a0 = a[0]
    w, p = [], 1
    for x in a[1:n + 1]:
        w.append(x * p)
        p *= a0
    cs = [first]
    for k in range(1, n + 1):
        cs.append(minus(0, sum(map(mul, w[:k], reversed(cs)))))
    return cs


def _horner(f, h, n):
    """The ints [z^k] f(h(z)), k <= n, for int lists f_0..f_n and h with
    h_0 = 0: Horner from the top coefficient down, acc <- acc h + f_k.
    After f_k come k more products by h, each raising the valuation, so
    acc keeps only its coefficients through z^(n-k)."""
    acc = [f[n]]
    for k in range(n - 1, -1, -1):
        acc = _convolve(acc, h, n + 1 - k)
        acc[0] += f[k]
    return acc


def _lagrange_ints(a, n, minus, scale):
    """[z^(k-1)] A^k scale / k, k = 1..n, for ints a_0..a_n, a_0 != 0, and
    ``scale`` a multiple of 1..n, ``minus`` the -.  J.C.P. Miller's
    recurrence for the powers of a series (Knuth, TAOCP 2, 4.7), from
    A (A^k)' = k A' A^k, gives c_j = [z^j] A^k by j a_0 c_j =
    sum_{i=1..j} ((k+1) i - j) a_i c_{j-i} from c_0 = a_0^k, two products
    per term: the sums of i a_i c_{j-i} and of a_i c_{j-i}.  Each division
    is exact, also on ints packed at t = 2^B, since packing is a ring map;
    written as a ceiling, it keeps the run with ``add`` as its ``minus`` an
    upper bound on the l1 norms of the c_j."""
    a0, a = a[0], a[1:n]
    ia = [i * x for i, x in enumerate(a, 1)]
    out = [a0 * scale]
    for k in range(2, n + 1):
        c = [a0 ** k]
        for j in range(1, k):
            s = minus((k + 1) * sum(map(mul, ia, reversed(c))),
                      j * sum(map(mul, a, reversed(c))))
            c.append(-(-s // (j * a0)))
        out.append(c[k - 1] * (scale // k))
    return out


class TruncSeries:
    __slots__ = ("order", "_c")

    def __init__(self, order, coeffs):
        if order < 0:
            raise ValueError("order must be >= 0")
        cs = [as_coeff(c) for c in coeffs]
        if len(cs) > order + 1:
            cs = cs[: order + 1]
        cs += [ZERO] * (order + 1 - len(cs))
        self.order = order
        self._c = tuple(cs)

    @classmethod
    def one(cls, order):
        return cls(order, (ONE,))

    @classmethod
    def identity(cls, order):
        """The series z."""
        return cls(order, (ZERO, ONE))

    def coeff(self, k):
        return self._c[k] if 0 <= k <= self.order else ZERO

    def coeffs(self):
        return self._c

    def is_zero(self):
        return not any(self._c)

    def valuation(self):
        for k, c in enumerate(self._c):
            if c:
                return k
        return self.order + 1

    def truncate(self, order):
        if order >= self.order:
            return self
        return _series(order, self._c)

    def __add__(self, other):
        other = self._promote(other)
        return _series(min(self.order, other.order),
                       list(map(add, self._c, other._c)))

    def __sub__(self, other):
        other = self._promote(other)
        return _series(min(self.order, other.order),
                       list(map(sub, self._c, other._c)))

    def __neg__(self):
        return _series(self.order, [-c for c in self._c])

    def __mul__(self, other):
        other = self._promote(other)
        n = min(self.order, other.order)
        f, g = self._c[: n + 1], other._c[: n + 1]
        if not _polys(f, g):
            # over Q each factor over one common denominator, not graded:
            # 1.6-6.8x faster than the graded product at orders 40-256 on
            # denominators up to 6 (CPython 3.11, 2 cores), and no bench
            # workload multiplies series over Q
            (a, da), (b, db) = _common(f), _common(g)
            return _from_ints(n, _convolve(a, b, n + 1), da * db)
        # z -> Dz, each series times the denominator q of its constant
        # term; output k is x_k / (q_f q_g D^k)
        d, (fp, gp) = _grade(enumerate(f), enumerate(g))
        qf, qg = fp[1][0], gp[1][0]
        xs, b = _on_ints(lambda _, a, b: _convolve(a, b, n + 1),
                         [(fp, d, qf), (gp, d, qg)])
        return _series(n, _read(xs, b, qf * qg, d))

    def _promote(self, other):
        if isinstance(other, TruncSeries):
            return other
        return _series(self.order, (as_coeff(other),))

    def scale(self, c):
        c = as_coeff(c)
        return _series(self.order, [c * x for x in self._c])

    def shift_down(self, k):
        """Divide by z^k; the low-order coefficients must vanish."""
        if any(self._c[:k]):
            raise ValueError(f"series not divisible by z^{k}")
        return _series(self.order - k, self._c[k:])

    def reciprocal(self):
        if not self._c[0]:
            raise NotInvertibleError("constant term is zero")
        n, cs = self.order, self._c
        # the constant term has an inverse u/v (over Q[t] else this raises
        # ExactDivisionError), and f(z) = self(Dz) u has f_0 = v > 0 and int
        # coefficients, so 1/self(Dz) = u/f: C_0 = u comes in as a second
        # input, so that the majorant run starts from |u|, and output k is
        # C_k / (v^(k+1) D^k) (``_inverse_ints``)
        (u,), v = TPoly._parts(ONE / cs[0])
        d, (parts,) = _grade(enumerate(cs))
        xs, b = _on_ints(
            lambda minus, a, first: _inverse_ints(a, n, minus, first[0]),
            [(parts, d, u), (([1], [1]), 1, u)])
        return _series(n, _read(xs, b, v, v * d))

    def compose(self, inner):
        """self(inner(z)); inner must have zero constant term."""
        if not isinstance(inner, TruncSeries):
            raise TypeError("inner must be a TruncSeries")
        if inner.coeff(0):
            raise CompositionDomainError("inner constant term must vanish")
        n = min(self.order, inner.order)
        f, h = self._c[: n + 1], inner._c[: n + 1]
        # inner(z) at Dz, self over one denominator q, so no Horner step
        # multiplies by a power of D; output k is x_k / (q D^k).  Self's
        # coefficients are read at k = 0, which never decides D
        d, (hp, fp) = _grade(enumerate(h), zip(repeat(0), f))
        q = lcm(*fp[1])
        xs, b = _on_ints(lambda _, f, h: _horner(f, h, n),
                         [(fp, 1, q), (hp, d, 1)])
        return _series(n, _read(xs, b, q, d))

    def reversion(self):
        """Compositional inverse; requires c_0 = 0 and c_1 invertible.

        Lagrange inversion (Stanley, EC2, Thm 5.4.2): [z^k] self^{<-1>} =
        [z^(k-1)] v^k / k for v = z/self, one reciprocal and then one
        coefficient of each power v^k.

        v is graded as a product's factor is: A(z) = q v(Dz), D from
        ``_grade`` and q the denominator of v_0, is a series of ints with
        a_0 != 0, each ``TPoly`` packed at t = 2^B by ``coeffs._on_ints``.
        ``_lagrange_ints`` takes every [z^(k-1)] A^k by Miller's power
        recurrence on those ints, about n^3/6 terms and no series product,
        and output k is [z^(k-1)] A^k / (q^k D^(k-1) k).  The kernel scales
        output k by L/k, L = lcm(1..n), so that ``_read`` reads every output
        over the denominators (q L) (q D)^(k-1), one division each; over
        Q[t] that widens B by the bits of L, about 1.44 n.  Over Q[t],
        v_0 = 1/c_1 is a constant (else the reciprocal raises), so a_0 is an
        int in both rings."""
        if self._c[0]:
            raise CompositionDomainError("reversion needs zero constant term")
        if not self.coeff(1):
            raise NotInvertibleError("linear coefficient is zero")
        n = self.order
        v = self.shift_down(1).reciprocal()
        d, (parts,) = _grade(enumerate(v._c))
        q, scale = parts[1][0], lcm(*range(1, n + 1))
        xs, b = _on_ints(lambda minus, a: _lagrange_ints(a, n, minus, scale),
                         [(parts, d, q)])
        return _series(n, [ZERO] + _read(xs, b, q * scale, q * d))

    def t_derivative(self):
        return _series(self.order, [t_derivative(c) for c in self._c])

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return all(self._c[k] == other._c[k] for k in range(n + 1))

    def __hash__(self):
        # == compares through the shorter order: equal values share only c_0
        return hash(self._c[0])

    def __repr__(self):
        parts = []
        for k, c in enumerate(self._c):
            if c:
                parts.append(f"({c})" + ("" if k == 0 else f"*z^{k}"))
        body = " + ".join(parts) if parts else "0"
        return f"<TruncSeries order={self.order}: {body}>"


class LaurentAtInfinity:
    """top*z + c_0 + c_1/z + ... + c_K/z^K, exact through z^-K.

    Stored as ``top`` and the chart d(w) = c_0 + c_1 w + ... + c_K w^K in
    w = 1/z, a TruncSeries of order K, which does all the arithmetic.
    """

    __slots__ = ("top", "d")

    def __init__(self, top, constant, tail, tail_order=None):
        tail = tuple(tail)
        self._set(as_coeff(top), TruncSeries(
            len(tail) if tail_order is None else tail_order,
            (constant,) + tail))

    @classmethod
    def from_chart(cls, top, d):
        """top*z + d(1/z) for a TruncSeries d and a ``Fraction`` or ``TPoly``
        top, as every library caller hands it: not checked by ``as_coeff``
        again, as ``_series`` does not check its coefficients."""
        out = cls.__new__(cls)
        out._set(top, d)
        return out

    def _set(self, top, d):
        # a sum of two monic expansions would have top = 2
        if not (top == 0 or top == 1):
            raise ValueError("coefficient of z must be 0 or 1")
        self.top = top
        self.d = d

    @property
    def tail_order(self):
        return self.d.order

    @classmethod
    def ident_z(cls, tail_order):
        """The expansion z."""
        return cls(ONE, ZERO, (), tail_order)

    def coeff(self, k):
        """Coefficient of z^(-k); k = -1 gives the z coefficient."""
        if k == -1:
            return self.top
        return self.d.coeff(k)

    def is_descending(self):
        return not self.top

    def is_zero(self):
        return not self.top and self.d.is_zero()

    def truncate(self, tail_order):
        return LaurentAtInfinity.from_chart(self.top, self.d.truncate(tail_order))

    def __add__(self, other):
        other = self._promote(other)
        return LaurentAtInfinity.from_chart(self.top + other.top,
                                            self.d + other.d)

    def __sub__(self, other):
        other = self._promote(other)
        return LaurentAtInfinity.from_chart(self.top - other.top,
                                            self.d - other.d)

    def __neg__(self):
        return LaurentAtInfinity.from_chart(-self.top, -self.d)

    def _promote(self, other):
        if isinstance(other, LaurentAtInfinity):
            return other
        return LaurentAtInfinity.from_chart(
            ZERO, _series(self.tail_order, (as_coeff(other),)))

    def scale(self, c):
        c = as_coeff(c)
        if self.top and not (c == 1):
            raise ValueError("cannot scale a series with a z term")
        return LaurentAtInfinity.from_chart(self.top, self.d.scale(c))

    def _over_z(self):
        """self/z = top + c_0 w + c_1 w^2 + ..., exact through w^(K+1)."""
        return _series(self.tail_order + 1, (self.top,) + self.d.coeffs())

    def __mul__(self, other):
        """z^2 (self/z)(other/z), exact as far as both factors determine it.

        If self/z has valuation v_a and is known through w^(K_a+1) (and
        likewise for other), the product is known through
        w^min(K_a+1+v_b, K_b+1+v_a); both charts are padded with zeros to
        that order, and a padded zero only meets a zero coefficient below it.
        """
        other = self._promote(other)
        if self.top and other.top:
            raise ValueError("product would carry a z^2 term")
        a, b = self._over_z(), other._over_z()
        n = min(a.order + b.valuation(), b.order + a.valuation())
        if n < 2:
            raise ValueError("operands too short to determine the product")
        p = _series(n, a.coeffs()) * _series(n, b.coeffs())
        return LaurentAtInfinity.from_chart(p.coeff(1),
                                            _series(n - 2, p.coeffs()[2:]))

    def derivative(self):
        """d/dz, term by term: c_k/z^k -> -k*c_k/z^(k+1)."""
        c = self.d.coeffs()
        return LaurentAtInfinity.from_chart(ZERO, _series(
            self.tail_order + 1,
            [self.top, ZERO] + [c[k] * Fraction(-k) for k in range(1, len(c))]))

    def t_derivative(self):
        return LaurentAtInfinity.from_chart(t_derivative(self.top),
                                            self.d.t_derivative())

    def reciprocal_of_monic(self):
        """1/self for top = 1: w / (self/z), a descending series."""
        if not (self.top == 1):
            raise NotInvertibleError("only z - c0 - c1/z - ... is inverted here")
        inv = self._over_z().reciprocal()
        return LaurentAtInfinity.from_chart(
            ZERO, _series(inv.order + 1, (ZERO,) + inv.coeffs()))

    def compose_descending(self, inner):
        """self(inner(z)) for descending self (top = 0) and monic inner (top = 1)."""
        if not self.is_descending():
            raise CompositionDomainError("outer series must have no z term")
        if not (inner.top == 1):
            raise CompositionDomainError("inner series must be z - c0 - ...")
        return LaurentAtInfinity.from_chart(
            ZERO, self.d.compose(inner.reciprocal_of_monic().d))

    def __eq__(self, other):
        if not isinstance(other, LaurentAtInfinity):
            return NotImplemented
        return self.top == other.top and self.d == other.d

    def __repr__(self):
        parts = []
        if self.top:
            parts.append("z")
        if self.d.coeff(0):
            parts.append(f"({self.d.coeff(0)})")
        for k in range(1, self.tail_order + 1):
            if self.d.coeff(k):
                parts.append(f"({self.d.coeff(k)})/z^{k}")
        body = " + ".join(parts) if parts else "0"
        return f"<Laurent tail_order={self.tail_order}: {body}>"
