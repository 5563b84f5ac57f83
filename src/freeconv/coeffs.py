"""Exact coefficient arithmetic: rationals and polynomials in one formal parameter.

Two coefficient rings are supported throughout the package:

* plain ``fractions.Fraction`` for Q, and
* :class:`TPoly` for Q[t], polynomials in one formal parameter t with
  rational coefficients.

Both rest on one private integer kernel, the layout of FLINT's
``fmpq_poly``: a sequence of rationals held as ``int`` numerators over one
positive common denominator.  The kernel scales rationals to a common
denominator (``_common``), multiplies numerator sequences by one integer
convolution that can stop at a truncation order (``_convolve``), and
reduces a result once, with one gcd, rather than once per coefficient
(``_canonical``).  A sum of products start + x_1 y_1 + ... with a ``TPoly``
among its operands (``_dot``) scales every product to the lcm of the product
denominators and convolves them all into one accumulator, reduced once;
only the triangular-solve kernels of ``transforms`` past the packed path's
slack accumulate through it.  ``TPoly`` stores this layout, and a series
product over Q uses it too (see ``series``).

The one graded integer scheme lives here too, below the series engine and
both solve layers.  ``_grade`` reads each input coefficient once, a
``Fraction`` by ``as_integer_ratio`` and a ``TPoly`` by its slots, into
parts (nums, dens), and finds D with c_k D^k integral for every c_k,
k >= 1, so that a computation on the series at Dz runs on ints; everything
after it reads the parts, not the coefficients.  ``_on_ints`` is the one
driver of the series engine, the single-variable solves and both second
paths that check them, the reversion of ``series`` and the partition sums
of ``oracle``, which grades its inputs by a rule of its own.  It takes a
kernel(minus, *rows), which takes its difference operation as an argument,
and inputs (parts, D, q), each row the ints c_k q D^k (``_scaled``).  Over
Q, no input coefficient a ``TPoly``, it runs the kernel once, with ``sub``,
and B = 0.  Over Q[t] each ``TPoly`` is packed at t = 2^B (Kronecker
substitution: evaluation at 2^B is a ring map, so a division that is exact
in Z[t] stays exact on the packed ints).  B comes from a majorant run: the
same kernel with ``add`` as its difference, on the inputs' l1 norms
(``_norms``), plain non-negative ints.  The l1 norm is subadditive and
submultiplicative, and a kernel divides by nothing but an int constant,
exactly and written as a ceiling (reversion's j a_0), so with no term
cancelling that run bounds every t-digit of every output, and
B = bits(M) + 2 for its largest output M (``_bits``).  Given a slack, the
driver returns None when B passes the bits of the largest input norm, a
bound on every packed input digit, by more than the slack: the outputs
cancel far below their majorant, and the caller runs on ``TPoly``
arithmetic instead.  ``_read``
turns output x_k into x_k / (q D^k): a ``Fraction`` when B = 0, else the
``TPoly`` of its balanced base-2^B digits (``_unpack``).  The word layer
runs the same scheme on tables of word rows, with its own driver
(``multivariate._graded_words``).

A ``TPoly`` keeps ``nums``, a tuple of ``int`` without trailing zeros, over
``den``, a positive ``int``, in canonical form gcd(den, *nums) = 1, with
den = 1 for the zero polynomial; the canonical form makes equality a
comparison of ``(nums, den)``.  ``TPoly.coeffs``, the tuple of ``Fraction``
coefficients, is a view derived from ``nums`` and ``den`` on each read; no
arithmetic uses it.

There is one parameter: the t of "for all t >= 0" statements, or any
other formal symbol a caller reads into it (``counterexample-r`` calls it
eps).  Ints and Fractions promote into Q[t] on either side of an operator,
and a constant ``TPoly`` equals and hashes like its ``Fraction``.

The solve kernels past the packed path's slack (see ``transforms``) use
only Python's operators: ``+``, ``-`` (binary and unary), ``*``, ``/``,
``==`` against an int, and truthiness as the zero test.  ``/`` is exact or
raises: ``ExactDivisionError`` when the quotient is not a polynomial,
``ZeroDivisionError`` for a zero divisor.  A reciprocal is ``ONE / c``, so
only nonzero constants have one in Q[t]: no operation of the package needs
a power series in t (``belinschi_nica`` expands in 1 + t rather than divide
by it, see its docstring).  Beyond the operators, ``t_derivative`` and
``evaluate`` act on the parameter.

One entry rule holds at the ring boundary.  ``as_coeff`` admits a value
from outside the library, a ``Fraction``, a ``TPoly`` or an int (made a
``Fraction``), and refuses any other; the public constructors of series,
functionals and Jacobi rows apply it to each value they are given.  A value
the library made, the output of a kernel, a product or a ring operation on
coefficients, is a ``Fraction`` or a ``TPoly`` already, and enters a series
or a functional as it is (``series._series``,
``functionals.MomentFunctional._made``), never checked again.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, sub

_new = object.__new__


class ExactDivisionError(ArithmeticError):
    """Division in Q[t] did not come out exact."""


def _not_divisible(a, b):
    """The ExactDivisionError for a / b, its operands printed in full."""
    with all_digits():
        return ExactDivisionError(f"({a}) not divisible by ({b})")


# -- the integer kernel -------------------------------------------------------
#
# Rationals c_0, c_1, ... as a list of ints over one positive denominator.


def _common(cs):
    """(nums, den): the Fractions cs as ints over their least common
    denominator.

    Each c is in lowest terms, so the numerators have no factor in common
    with the lcm: the pair is already reduced.
    """
    parts = [c.as_integer_ratio() for c in cs]
    den = lcm(*[q for _, q in parts])
    return [n * (den // q) for n, q in parts], den


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


def _canonical(nums, den, bound):
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
    return p


def _dot(start, xs, ys):
    """start + x_1 y_1 + x_2 y_2 + ..., the left fold of ``+`` and ``*`` over
    the pairs with a nonzero x, from start, or from the first such product
    when start is None (the int 0 when there is nothing to add).

    The sum is a TPoly exactly when start or any x or y is one, zero or not.
    Then every product is scaled to the lcm of the product denominators and
    convolved into one int accumulator, which ``_canonical`` reduces once,
    instead of reducing each product and each partial sum by a gcd.
    Otherwise the fold runs on the operators.  Only the solve kernels of
    ``transforms`` past the packed path's slack call it.
    """
    if not (type(start) is TPoly or TPoly in map(type, xs)
            or TPoly in map(type, ys)):
        acc = start
        for x, y in zip(xs, ys):
            if x:
                p = x * y
                acc = p if acc is None else acc + p
        return 0 if acc is None else acc
    parts = TPoly._parts
    terms, dens, size = [], [], 0
    for x, y in zip(xs, ys):
        (a, da), (b, db) = parts(x), parts(y)
        if a and b:
            if len(a) > len(b):
                a, b = b, a
            terms.append((a, b, da * db))
            dens.append(da * db)
            size = max(size, len(a) + len(b) - 1)
    s, ds = ((), 1) if start is None else parts(start)
    den = lcm(ds, *dens)
    acc = [x * (den // ds) for x in s] + [0] * (size - len(s))
    for a, b, d in terms:
        scale = den // d
        for i, x in enumerate(a):
            if x:
                x *= scale
                for j, y in enumerate(b, i):
                    acc[j] += x * y
    return _canonical(acc, den, den)


# -- graded ints and Kronecker packing ----------------------------------------


def _grade(*groups):
    """(D, parts) for a set of inputs, each a group of pairs (k, c_k).

    Each c_k is read once, into ints: a ``Fraction`` by
    ``as_integer_ratio``, a ``TPoly`` by its ``nums`` and ``den`` slots, and
    a plain int as itself over 1.  Any other value raises TypeError, before
    any kernel runs.  parts[i] = (nums, dens) for group i, in its order:
    nums[j] an int, or a ``TPoly``'s tuple of ints, over dens[j] > 0.
    ``_scaled`` and ``_norms`` read these parts, never the coefficients, so
    a graded run reads each coefficient once.

    D is grown from 1 so that q divides D^k for every (k, a/q) with k >= 1,
    D <- D q / gcd(q, D^k), in their order.  A constant term (k = 0) never
    decides D, and a ``TPoly`` counts by its common denominator, so D^k
    clears every one of its t-coefficients.  Every graded integer path of
    the series engine and of the single- and multi-variate solves takes D
    from here."""
    d, parts = 1, []
    for group in groups:
        nums, dens = [], []
        for k, c in group:
            if type(c) is TPoly:
                n, q = c.nums, c.den
            elif type(c) is Fraction or isinstance(c, int):
                n, q = c.as_integer_ratio()
            else:
                raise TypeError(f"not a coefficient: {c!r}")
            nums.append(n)
            dens.append(q)
            if q != 1 and k:
                dk = d ** k
                if dk % q:
                    d *= q // gcd(q, dk)
        parts.append((nums, dens))
    return d, parts


def _scaled(parts, d, b=0, q=1):
    """The ints c_k q D^k of the parts (nums, dens) of coefficients c_k that
    q D^k clears (see ``_grade``), each ``TPoly`` packed at t = 2^b.  With
    q = 1 a constant term that is not an integer, which no solve reads,
    comes out 0."""
    row, s = [], q
    for n, den in zip(*parts):
        row.append((_pack(n, b) if type(n) is tuple else n) * (s // den))
        s *= d
    return row


def _norms(parts, d, q=1):
    """The l1 norms sum_i |[t^i] c_k| q D^k of the ints ``_scaled`` packs:
    with - read as +, a kernel run on them bounds every t-digit of every
    output of its run on the packed ints."""
    row, s = [], abs(q)
    for n, den in zip(*parts):
        row.append((sum(map(abs, n)) if type(n) is tuple else abs(n))
                   * (s // den))
        s *= d
    return row


def _bits(top):
    """B for ints packed at t = 2^B whose outputs have every t-digit at most
    ``top`` in absolute value, the largest output of a majorant run."""
    return top.bit_length() + 2


def _pack(nums, b):
    """The int polynomial sum_i nums[i] t^i at t = 2^b."""
    x = 0
    for a in reversed(nums):
        x = (x << b) + a
    return x


def _unpack(x, b, den):
    """The TPoly (sum_i a_i t^i) / den for x = sum_i a_i 2^(b i), read as
    balanced base-2^b digits, |a_i| < 2^(b-1)."""
    nums, mask, half = [], (1 << b) - 1, 1 << (b - 1)
    while x:
        a = x & mask
        if a >= half:
            a -= mask + 1
        nums.append(a)
        x = (x - a) >> b
    return _canonical(nums, den, den)


def _polys(*seqs):
    """Whether a coefficient of the sequences seqs is a ``TPoly``: the ring
    of an operation on them, Q[t] when one is, else Q."""
    return TPoly in map(type, chain.from_iterable(seqs))


def _on_ints(kernel, ins, slack=None):
    """(xs, B): the outputs of kernel(minus, *rows) on graded ints, with B = 0
    over Q; None when ``slack`` is given and B passes the bits of the largest
    input norm by more than ``slack``.  Each input is (parts, D, q), parts
    the (nums, dens) of its coefficients c_k as ``_grade`` reads them and
    its row the ints c_k q D^k (``_scaled``), packed at t = 2^B over Q[t]
    (when a ``TPoly`` gave some nums a tuple); ``_read`` gives the outputs
    back.  See the module docstring."""
    if tuple not in map(type, chain.from_iterable(
            nums for (nums, _), _, _ in ins)):
        return kernel(sub, *[_scaled(p, d, 0, q) for p, d, q in ins]), 0
    norms = [_norms(p, d, q) for p, d, q in ins]
    b = _bits(max(kernel(add, *norms)))
    if slack is not None and b > max(map(max, norms)).bit_length() + slack:
        return None
    return kernel(sub, *[_scaled(p, d, b, q) for p, d, q in ins]), b


def _read(xs, b, q, d):
    """x_k / (q D^k), D = d, for the outputs x_0, x_1, ... of ``_on_ints``
    at B = b: a ``Fraction`` when b = 0, else the ``TPoly`` of x_k's balanced
    base-2^b digits (``_unpack``)."""
    out = []
    for x in xs:
        out.append(_unpack(x, b, q) if b else Fraction(x, q))
        q *= d
    return out


class TPoly:
    """Polynomial in one formal parameter over Q, as integers over one
    positive common denominator."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs=()):
        nums, den = _common(
            [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs])
        while nums and not nums[-1]:
            nums.pop()
        self.nums = tuple(nums)
        self.den = den if nums else 1

    @classmethod
    def constant(cls, value):
        return cls((Fraction(value),))

    @property
    def coeffs(self):
        """The coefficients as a tuple of ``Fraction``, built on each read."""
        return tuple([Fraction(x, self.den) for x in self.nums])

    @property
    def denominator(self):
        """The common denominator of the coefficients, ``den``."""
        return self.den

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

    @staticmethod
    def _parts(other):
        """(nums, den) of other as an element of Q[t]; None when other is no
        coefficient."""
        if isinstance(other, TPoly):
            return other.nums, other.den
        if isinstance(other, int):
            return ((other,) if other else ()), 1
        if isinstance(other, Fraction):
            n, q = other.as_integer_ratio()
            return ((n,) if n else ()), q
        return None

    def __add__(self, other):
        parts = self._parts(other)
        if parts is None:
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
        return _canonical(nums, den, g)

    __radd__ = __add__

    def __neg__(self):
        return _canonical([-x for x in self.nums], self.den, 1)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        b, db = parts
        a = self.nums
        if not a or not b:
            return _canonical([], 1, 1)
        out = _convolve(a, b, len(a) + len(b) - 1)
        den = self.den * db
        return _canonical(out, den, den)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers")
        result = TPoly((1,))
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
            return _canonical([x * db for x in a], den, den)
        if not a:
            return _canonical([], 1, 1)
        dn, lead = len(b) - 1, b[-1]
        if len(a) - 1 < dn:
            raise _not_divisible(self, other)
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
            raise _not_divisible(self, other)
        den = da * scale
        return _canonical([x * db for x in q], den, den)

    def __rtruediv__(self, other):
        """other / self for an int or Fraction other: ``ONE / p`` inverts a
        nonzero constant p, and raises ExactDivisionError for any other p."""
        if isinstance(other, (int, Fraction)):
            return TPoly.constant(other) / self
        return NotImplemented

    def t_derivative(self):
        nums = [k * x for k, x in enumerate(self.nums)][1:]
        return _canonical(nums, self.den, self.den)

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
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        return (self.nums, self.den) == parts

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_term())
        return hash((self.nums, self.den))

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
                parts.append(f"{c}*t" if c != 1 else "t")
            else:
                parts.append(f"{c}*t^{k}" if c != 1 else f"t^{k}")
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


def t_derivative(c):
    """d/dt on a coefficient; rationals are constants."""
    if isinstance(c, TPoly):
        return c.t_derivative()
    return ZERO


def exact_div(a, b):
    """a / b in the coefficient ring; exact or raises."""
    return as_coeff(a) / as_coeff(b)


def evaluate(c, value):
    """Specialize a coefficient at a rational parameter value."""
    if isinstance(c, TPoly):
        return c.evaluate(value)
    return Fraction(c)


def formal_t():
    """The parameter t."""
    return TPoly((0, 1))


@contextmanager
def all_digits():
    """Convert ints of any length to str inside the block, so that exact
    results print in full.  CPython 3.10.7+ limits conversion both ways to
    4300 digits; documents are parsed outside the block, under that limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)
