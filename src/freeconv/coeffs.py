"""Exact coefficient arithmetic: rationals and polynomials in one formal parameter.

Two coefficient rings are supported throughout the package:

* plain ``fractions.Fraction`` for Q, and
* :class:`TPoly` for Q[t], polynomials in a formal parameter (named ``t``
  by default) with rational coefficients.

Both rest on one private integer kernel, the layout of FLINT's
``fmpq_poly``: a sequence of rationals held as ``int`` numerators over one
positive common denominator.  The kernel scales rationals to a common
denominator (``_common``), multiplies numerator sequences by one integer
convolution that can stop at a truncation order (``_convolve``), and
reduces a result once, with one gcd, rather than once per coefficient
(``_canonical``).  ``TPoly`` stores this layout; the series layer converts a
series whose coefficients are all ``Fraction`` to it for a product,
reciprocal or composition and back to ``Fraction`` on the way out (see
``series``).

A ``TPoly`` keeps ``nums``, a tuple of ``int`` without trailing zeros, over
``den``, a positive ``int``, in canonical form gcd(den, *nums) = 1, with
den = 1 for the zero polynomial; the canonical form makes equality a
comparison of ``(nums, den)``.  ``TPoly.coeffs``, the tuple of ``Fraction``
coefficients, is a view derived from ``nums`` and ``den`` on each read; no
arithmetic uses it.

Fractions and ints promote into the polynomial ring automatically;
polynomials with distinct parameter names do not mix
(``RingMismatchError``), but a constant adopts the other operand's
parameter.

Every ``TPoly`` is an exact polynomial.  Division is exact or raises
``ExactDivisionError``, and only nonzero constants have a reciprocal: no
operation of the package needs a power series in t (``belinschi_nica``
divides by 1 + t exactly, see its docstring).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_new = object.__new__


class RingMismatchError(TypeError):
    """Operands live in incompatible coefficient rings."""


class ExactDivisionError(ArithmeticError):
    """Division in Q[t] did not come out exact."""


# -- the integer kernel -------------------------------------------------------
#
# Rationals c_0, c_1, ... as a list of ints over one positive denominator.


def _common(cs):
    """(nums, den): the Fractions cs as ints over their least common
    denominator.

    Each c is in lowest terms, so the numerators have no factor in common
    with the lcm: the pair is already reduced.
    """
    den = lcm(*[c.denominator for c in cs])
    return [c.numerator * (den // c.denominator) for c in cs], den


def _convolve(a, b, n):
    """The first n coefficients of the product of the int sequences a and b."""
    out = [0] * n
    lb = len(b)
    for i, x in enumerate(a[:n]):
        if x:
            # slice b only where the order cuts the row short
            for j, y in enumerate(b if i + lb <= n else b[:n - i], i):
                out[j] += x * y
    return out


def _canonical(nums, den, var, bound):
    """The TPoly sum(nums[k] t^k) / den, for a list of ints and den > 0.

    ``bound`` is a number whose gcd with the numerators equals that of
    ``den``: ``den`` itself always does, and 1 says the quotient is already
    reduced.  The series layer reads the result's ``nums`` and ``den`` as a
    reduced integer polynomial in z.
    """
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        den = 1
    elif bound != 1:
        g = gcd(bound, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
    p = _new(TPoly)
    p.nums = tuple(nums)
    p.den = den
    p.var = var
    return p


class TPoly:
    """Polynomial in one formal parameter over Q, as integers over one
    positive common denominator."""

    __slots__ = ("nums", "den", "var")

    def __init__(self, coeffs=(), var="t"):
        nums, den = _common(
            [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs])
        while nums and not nums[-1]:
            nums.pop()
        self.nums = tuple(nums)
        self.den = den if nums else 1
        self.var = var

    @classmethod
    def constant(cls, value, var="t"):
        return cls((Fraction(value),), var=var)

    @classmethod
    def gen(cls, var="t"):
        """The parameter itself."""
        return cls((0, 1), var=var)

    @property
    def coeffs(self):
        """The coefficients as a tuple of ``Fraction``, built on each read."""
        return tuple([Fraction(x, self.den) for x in self.nums])

    @property
    def degree(self):
        return len(self.nums) - 1

    def is_constant(self):
        return len(self.nums) <= 1

    def constant_term(self):
        return Fraction(self.nums[0], self.den) if self.nums else Fraction(0)

    def coeff(self, k):
        if 0 <= k < len(self.nums):
            return Fraction(self.nums[k], self.den)
        return Fraction(0)

    def _parts(self, other):
        """(nums, den) of other as an element of this ring.

        None when other is no coefficient, or when self is a constant and
        other a polynomial in another parameter: then other's ring wins.
        """
        if isinstance(other, TPoly):
            if other.var == self.var or len(other.nums) <= 1:
                return other.nums, other.den
            if len(self.nums) <= 1:
                return None
            raise RingMismatchError(
                f"cannot mix Q[{self.var}] and Q[{other.var}]")
        if isinstance(other, int):
            return ((other,) if other else ()), 1
        if isinstance(other, Fraction):
            return ((other.numerator,) if other else ()), other.denominator
        return None

    def __add__(self, other):
        parts = self._parts(other)
        if parts is None:
            if isinstance(other, TPoly):  # self constant, other's ring wins
                return other + self
            return NotImplemented
        b, db = parts
        a, da = self.nums, self.den
        # gcd(g, *nums) = gcd(den, *nums): a prime with unequal powers in da
        # and db divides every scaled numerator of one operand but, both being
        # in lowest terms, not every one of the other; a prime with equal
        # powers has the same power in g as in den.
        g = gcd(da, db)
        sa, sb = db // g, da // g
        den = da * sa
        if len(a) < len(b):
            a, b, sa, sb = b, a, sb, sa
        nums = [x * sa + y * sb for x, y in zip(a, b)]
        nums += [x * sa for x in a[len(b):]]
        return _canonical(nums, den, self.var, g)

    __radd__ = __add__

    def __neg__(self):
        return _canonical([-x for x in self.nums], self.den, self.var, 1)

    def __sub__(self, other):
        if isinstance(other, (TPoly, int, Fraction)):
            return self + -other
        return self + -Fraction(other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        parts = self._parts(other)
        if parts is None:
            if isinstance(other, TPoly):
                return other * self
            return NotImplemented
        b, db = parts
        a = self.nums
        if not a or not b:
            return _canonical([], 1, self.var, 1)
        out = _convolve(a, b, len(a) + len(b) - 1)
        den = self.den * db
        return _canonical(out, den, self.var, den)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers")
        result = TPoly.constant(1, var=self.var)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __truediv__(self, other):
        """Exact division; raises ExactDivisionError if not exact in Q[t]."""
        parts = self._parts(other)
        if parts is None:
            if isinstance(other, TPoly):
                return TPoly.constant(self.constant_term(), var=other.var) / other
            return NotImplemented
        b, db = parts
        if not b:
            raise ZeroDivisionError("division by zero polynomial")
        a, da = self.nums, self.den
        if len(b) == 1:
            c = b[0]
            if c < 0:
                a, c = [-x for x in a], -c
            den = da * c
            return _canonical([x * db for x in a], den, self.var, den)
        if not a:
            return _canonical([], 1, self.var, 1)
        dn, lead = len(b) - 1, b[-1]
        if len(a) - 1 < dn:
            raise ExactDivisionError(f"({self}) not divisible by ({other})")
        # Long division of the numerators, scaling the remainder (and the
        # quotient so far) whenever the leading coefficient does not divide
        # it: then b * q = a * scale in Z[t].
        rem, q, scale = list(a), [0] * (len(a) - dn), 1
        for k in range(len(a) - 1, dn - 1, -1):
            r = rem[k]
            if not r:
                continue
            s = abs(lead) // gcd(r, lead)
            if s != 1:
                rem = [x * s for x in rem]
                q = [x * s for x in q]
                scale *= s
                r *= s
            c = r // lead
            q[k - dn] = c
            for j, y in enumerate(b, k - dn):
                rem[j] -= c * y
        if any(rem):
            raise ExactDivisionError(f"({self}) not divisible by ({other})")
        den = da * scale
        return _canonical([x * db for x in q], den, self.var, den)

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return TPoly.constant(other, var=self.var) / self
        return NotImplemented

    def reciprocal(self):
        """Multiplicative inverse; only nonzero constants have one in Q[t]."""
        if not self.nums:
            raise ZeroDivisionError("zero polynomial has no reciprocal")
        if self.is_constant():
            n, d = self.nums[0], self.den
            if n < 0:
                n, d = -n, -d
            return _canonical([d], n, self.var, 1)
        if not self.nums[0]:
            raise ZeroDivisionError("constant term is zero; not invertible")
        raise ExactDivisionError(
            f"({self}) has no inverse in Q[{self.var}]")

    def t_derivative(self):
        nums = [k * x for k, x in enumerate(self.nums)][1:]
        return _canonical(nums, self.den, self.var, self.den)

    def evaluate(self, value):
        """Specialize the parameter to a rational value."""
        value = Fraction(value)
        if not self.nums:
            return Fraction(0)
        p, q = value.numerator, value.denominator
        acc, scale = 0, 1
        for x in reversed(self.nums):
            acc = acc * p + x * scale
            scale *= q
        return Fraction(acc, self.den * (scale // q))

    def __eq__(self, other):
        if isinstance(other, TPoly):
            if (self.var != other.var
                    and len(self.nums) > 1 and len(other.nums) > 1):
                return False
            return self.nums == other.nums and self.den == other.den
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        b, db = self._parts(other)
        return self.nums == b and self.den == db

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_term())
        return hash((self.var, self.nums, self.den))

    def __bool__(self):
        return bool(self.nums)

    def __repr__(self):
        if not self.nums:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*{self.var}" if c != 1 else self.var)
            else:
                parts.append(f"{c}*{self.var}^{k}" if c != 1 else f"{self.var}^{k}")
        return " + ".join(parts).replace("+ -", "- ")


# -- ring-generic helpers used by the series layer ---------------------------

ZERO = Fraction(0)
ONE = Fraction(1)


def as_coeff(x):
    if isinstance(x, (Fraction, TPoly)):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not a coefficient: {x!r}")


def is_zero(c):
    return c == 0


def t_derivative(c):
    """d/dt on a coefficient; rationals are constants."""
    if isinstance(c, TPoly):
        return c.t_derivative()
    return ZERO


def exact_div(a, b):
    """a / b in the coefficient ring; exact or raises."""
    if isinstance(a, TPoly) or isinstance(b, TPoly):
        if not isinstance(a, TPoly):
            a = TPoly.constant(a, var=b.var)
        return a / b
    if b == 0:
        raise ZeroDivisionError("division by zero")
    return Fraction(a) / Fraction(b)


def reciprocal(c):
    if isinstance(c, TPoly):
        return c.reciprocal()
    if c == 0:
        raise ZeroDivisionError("division by zero")
    return ONE / Fraction(c)


def evaluate(c, value):
    """Specialize a coefficient at a rational parameter value."""
    if isinstance(c, TPoly):
        return c.evaluate(value)
    return Fraction(c)


def formal_t(var="t"):
    return TPoly.gen(var=var)
