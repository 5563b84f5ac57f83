"""Exact coefficient arithmetic: rationals and polynomials in one formal parameter.

Two coefficient rings are supported throughout the package:

* plain ``fractions.Fraction`` for Q, and
* :class:`TPoly` for Q[t], polynomials in a formal parameter (named ``t``
  by default) with Fraction coefficients.

Fractions promote into the polynomial ring automatically; polynomials with
distinct parameter names do not mix (``RingMismatchError``).

Every ``TPoly`` is an exact polynomial.  Division is exact or raises
``ExactDivisionError``, and only nonzero constants have a reciprocal: no
operation of the package needs a power series in t (``belinschi_nica``
divides by 1 + t exactly, see its docstring).
"""

from __future__ import annotations

from fractions import Fraction


class RingMismatchError(TypeError):
    """Operands live in incompatible coefficient rings."""


class ExactDivisionError(ArithmeticError):
    """Division in Q[t] did not come out exact."""


class TPoly:
    """Polynomial in one formal parameter over Q."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs=(), var="t"):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self.var = var

    @classmethod
    def constant(cls, value, var="t"):
        return cls((Fraction(value),), var=var)

    @classmethod
    def gen(cls, var="t"):
        """The parameter itself."""
        return cls((0, 1), var=var)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else -1

    def is_constant(self):
        return len(self.coeffs) <= 1

    def constant_term(self):
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def coeff(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def _coerce(self, other):
        """Return other as a TPoly in the same variable, or None."""
        if isinstance(other, TPoly):
            if other.var == self.var or other.is_constant():
                return TPoly(other.coeffs, var=self.var)
            if self.is_constant():
                return None  # handled by caller: switch to other's ring
            raise RingMismatchError(
                f"cannot mix Q[{self.var}] and Q[{other.var}]")
        if isinstance(other, (int, Fraction)):
            return TPoly((Fraction(other),), var=self.var)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, TPoly):  # self constant, other's ring wins
                return other + self.constant_term()
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return TPoly(
            [self.coeff(k) + o.coeff(k) for k in range(n)], var=self.var)

    __radd__ = __add__

    def __neg__(self):
        return TPoly([-c for c in self.coeffs], var=self.var)

    def __sub__(self, other):
        return self + (-other if isinstance(other, TPoly) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, TPoly):
                return other * self.constant_term()
            return NotImplemented
        n = len(self.coeffs) + len(o.coeffs) - 1
        if n <= 0:
            return TPoly((), var=self.var)
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] += a * b
        return TPoly(out, var=self.var)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers")
        result = TPoly.constant(1, var=self.var)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __truediv__(self, other):
        """Exact division; raises ExactDivisionError if not exact in Q[t]."""
        o = self._coerce(other)
        if o is None:
            if isinstance(other, TPoly):
                return TPoly.constant(self.constant_term(), var=other.var) / other
            return NotImplemented
        if not o.coeffs:
            raise ZeroDivisionError("division by zero polynomial")
        if o.is_constant():
            c = o.constant_term()
            return TPoly([a / c for a in self.coeffs], var=self.var)
        if not self.coeffs:
            return TPoly((), var=self.var)
        rem = list(self.coeffs)
        dn, dd = len(o.coeffs) - 1, o.coeffs[-1]
        if len(rem) - 1 < dn:
            raise ExactDivisionError(f"({self}) not divisible by ({o})")
        q = [Fraction(0)] * (len(rem) - dn)
        for k in range(len(rem) - 1, dn - 1, -1):
            c = rem[k] / dd
            q[k - dn] = c
            if c != 0:
                for j, b in enumerate(o.coeffs):
                    rem[k - dn + j] -= c * b
        if any(c != 0 for c in rem):
            raise ExactDivisionError(f"({self}) not divisible by ({o})")
        return TPoly(q, var=self.var)

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return TPoly.constant(other, var=self.var) / self
        return NotImplemented

    def reciprocal(self):
        """Multiplicative inverse; only nonzero constants have one in Q[t]."""
        if not self.coeffs:
            raise ZeroDivisionError("zero polynomial has no reciprocal")
        if self.is_constant():
            return TPoly((1 / self.constant_term(),), var=self.var)
        if self.constant_term() == 0:
            raise ZeroDivisionError("constant term is zero; not invertible")
        raise ExactDivisionError(
            f"({self}) has no inverse in Q[{self.var}]")

    def t_derivative(self):
        return TPoly([k * c for k, c in enumerate(self.coeffs)][1:],
                     var=self.var)

    def evaluate(self, value):
        """Specialize the parameter to a rational value."""
        value = Fraction(value)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TPoly((Fraction(other),), var=self.var)
        if not isinstance(other, TPoly):
            return NotImplemented
        if (self.var != other.var
                and not (self.is_constant() or other.is_constant())):
            return False
        return self.coeffs == other.coeffs

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_term())
        return hash((self.var, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
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
