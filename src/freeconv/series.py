"""Truncated formal power series and Laurent expansions at infinity.

:class:`TruncSeries` is an ordinary truncated power series
c_0 + c_1 z + ... + c_N z^N, exact through z^N.  :class:`LaurentAtInfinity`
is top*z + c_0 + c_1/z + ... + c_K/z^K with top restricted to 0 or 1 (every
F-transform expansion used here has the form z - beta - gamma/z - ...); it is
stored as ``top`` and its chart c_0 + c_1 w + ... + c_K w^K in w = 1/z, a
TruncSeries, so every product, reciprocal and composition of either type runs
through TruncSeries.

A series stores a tuple of coefficients, ``Fraction`` or ``TPoly``, and the
coefficient types choose how it multiplies, inverts and composes.  A series
over Q (every coefficient a ``Fraction``) is a polynomial in z with a
truncation order: those three operations convert it once to ``int``
numerators over one denominator, run on the integer kernel of ``coeffs``
that ``TPoly`` uses, and convert back to ``Fraction`` once.  A series over
Q[t], or one that mixes the two rings, keeps one ``TPoly`` per coefficient
and runs the generic coefficient loops; each output coefficient of a product
or reciprocal there is one fused sum of products (``coeffs._dot``).

All values are immutable; operations return fresh objects and propagate the
guaranteed-exact order as the minimum of the inputs' orders, except that a
Laurent product keeps the order its factors' leading terms determine.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from .coeffs import (
    ZERO,
    ONE,
    _canonical,
    _common,
    _convolve,
    _dot,
    as_coeff,
    t_derivative,
)


class NotInvertibleError(ArithmeticError):
    """Series has no multiplicative inverse (zero constant term)."""


class CompositionDomainError(ValueError):
    """Inner series outside the domain of formal composition."""


def _rational(*seqs):
    """True when every coefficient in the sequences is a ``Fraction``."""
    return all(type(c) is Fraction for cs in seqs for c in cs)


def _series(order, cs):
    """A TruncSeries of a list of order + 1 or fewer Fractions, padded with
    zeros, without the constructor's coercion."""
    out = TruncSeries.__new__(TruncSeries)
    out.order = order
    out._c = tuple(cs + [ZERO] * (order + 1 - len(cs)))
    return out


def _from_ints(order, nums, den):
    """The TruncSeries sum(nums[k] z^k) / den through z^order."""
    return _series(order,
                   [Fraction(x, den) if x else ZERO for x in nums[:order + 1]])


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
        return TruncSeries(order, self._c[: order + 1])

    def __add__(self, other):
        other = self._promote(other)
        n = min(self.order, other.order)
        return TruncSeries(n, [self._c[k] + other._c[k] for k in range(n + 1)])

    def __sub__(self, other):
        other = self._promote(other)
        n = min(self.order, other.order)
        return TruncSeries(n, [self._c[k] - other._c[k] for k in range(n + 1)])

    def __neg__(self):
        return TruncSeries(self.order, [-c for c in self._c])

    def __mul__(self, other):
        other = self._promote(other)
        n = min(self.order, other.order)
        f, g = self._c[: n + 1], other._c[: n + 1]
        if _rational(f, g):
            (a, da), (b, db) = _common(f), _common(g)
            return _from_ints(n, _convolve(a, b, n + 1), da * db)
        fi, gnz = [i for i, c in enumerate(f) if c], [bool(c) for c in g]
        out = []
        for k in range(n + 1):
            ks = [i for i in fi if i <= k and gnz[k - i]]
            out.append(_dot(ZERO, [f[i] for i in ks], [g[k - i] for i in ks]))
        return TruncSeries(n, out)

    def _promote(self, other):
        if isinstance(other, TruncSeries):
            return other
        return TruncSeries(self.order, (as_coeff(other),))

    def scale(self, c):
        c = as_coeff(c)
        return TruncSeries(self.order, [c * x for x in self._c])

    def shift_down(self, k):
        """Divide by z^k; the low-order coefficients must vanish."""
        if any(self._c[:k]):
            raise ValueError(f"series not divisible by z^{k}")
        return TruncSeries(self.order - k, self._c[k:])

    def reciprocal(self):
        if not self._c[0]:
            raise NotInvertibleError("constant term is zero")
        if _rational(self._c):
            # self = A/d with A = a_0 + a_1 z + ... in Z[z], and 1/A has
            # coefficients C_k / a_0^(k+1) with C_0 = 1 and
            # C_k = -sum_{j=1..k} a_j a_0^(j-1) C_{k-j}: no division.
            a, d = _common(self._c)
            a0 = a[0]
            w, p = [], 1
            for x in a[1:]:
                w.append(x * p)
                p *= a0
            cs = [1]
            for k in range(1, self.order + 1):
                cs.append(-sum(map(mul, w[:k], reversed(cs))))
            out, p = [], a0
            for x in cs:
                out.append(Fraction(d * x, p))
                p *= a0
            return _series(self.order, out)
        inv0 = ONE / self._c[0]
        out = [inv0]
        for k in range(1, self.order + 1):
            out.append(-inv0 * _dot(ZERO, self._c[1:k + 1], out[::-1]))
        return TruncSeries(self.order, out)

    def compose(self, inner):
        """self(inner(z)); inner must have zero constant term."""
        if not isinstance(inner, TruncSeries):
            raise TypeError("inner must be a TruncSeries")
        if inner.coeff(0):
            raise CompositionDomainError("inner constant term must vanish")
        n = min(self.order, inner.order)
        f, h = self._c[: n + 1], inner._c[: n + 1]
        if _rational(f, h):
            # Horner from the top coefficient down, on ints over one
            # denominator: acc <- acc * inner + c_k, reduced once per step.
            g, gd = _common(h)
            acc = _canonical([f[n].numerator], f[n].denominator, 1)
            for c in reversed(f[:n]):
                den = acc.den * gd
                nums = _convolve(acc.nums, g, n + 1)
                s = c.denominator // gcd(den, c.denominator)
                if s != 1:
                    nums = [x * s for x in nums]
                nums[0] += c.numerator * (den * s // c.denominator)
                den *= s
                acc = _canonical(nums, den, den)
            return _from_ints(n, acc.nums, acc.den)
        # Horner evaluation from the top coefficient down.
        acc = TruncSeries(n, (self.coeff(n),))
        for k in range(n - 1, -1, -1):
            acc = acc * inner + TruncSeries(n, (self.coeff(k),))
        return acc

    def reversion(self):
        """Compositional inverse; requires c_0 = 0 and c_1 invertible.

        Lagrange inversion (Stanley, EC2, Thm 5.4.2): [z^k] self^{<-1>} =
        [z^(k-1)] v^k / k for v = z/self, so one reciprocal and n products
        give every coefficient, about n^3 ring operations.

        When every coefficient of v is a ``Fraction``, the powers stay on
        ints: v = A/d once, v^k = P_k/d_k by one convolution each, reduced by
        one gcd as ``compose``'s Horner step is, and each output is one
        Fraction(P_k[k-1], d_k k)."""
        if self._c[0]:
            raise CompositionDomainError("reversion needs zero constant term")
        if not self.coeff(1):
            raise NotInvertibleError("linear coefficient is zero")
        n = self.order
        v = self.shift_down(1).reciprocal()
        out = [ZERO, v._c[0]]
        if _rational(v._c):
            a, da = _common(v._c)
            p, d = a, da
            for k in range(2, n + 1):
                p, d = _convolve(p, a, n), d * da
                g = gcd(d, *p)
                if g != 1:
                    p = [x // g for x in p]
                    d //= g
                out.append(Fraction(p[k - 1], d * k))
            return _series(n, out)
        p = v
        for k in range(2, n + 1):
            p = p * v
            out.append(p.coeff(k - 1) / k)
        return TruncSeries(n, out)

    def t_derivative(self):
        return TruncSeries(self.order, [t_derivative(c) for c in self._c])

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
        self._set(top, TruncSeries(
            len(tail) if tail_order is None else tail_order,
            (constant,) + tail))

    @classmethod
    def from_chart(cls, top, d):
        """top*z + d(1/z) for a TruncSeries d."""
        out = cls.__new__(cls)
        out._set(top, d)
        return out

    def _set(self, top, d):
        top = as_coeff(top)
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
        return LaurentAtInfinity(ZERO, as_coeff(other), (), self.tail_order)

    def scale(self, c):
        c = as_coeff(c)
        if self.top and not (c == 1):
            raise ValueError("cannot scale a series with a z term")
        return LaurentAtInfinity.from_chart(self.top, self.d.scale(c))

    def _over_z(self):
        """self/z = top + c_0 w + c_1 w^2 + ..., exact through w^(K+1)."""
        return TruncSeries(self.tail_order + 1, (self.top,) + self.d.coeffs())

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
        p = TruncSeries(n, a.coeffs()) * TruncSeries(n, b.coeffs())
        return LaurentAtInfinity.from_chart(p.coeff(1),
                                            TruncSeries(n - 2, p.coeffs()[2:]))

    def derivative(self):
        """d/dz, term by term: c_k/z^k -> -k*c_k/z^(k+1)."""
        c = self.d.coeffs()
        return LaurentAtInfinity.from_chart(ZERO, TruncSeries(
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
            ZERO, TruncSeries(inv.order + 1, (ZERO,) + inv.coeffs()))

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
