"""Word-indexed series over d non-commuting variables.

Functionals are maps from words over {1..d} (length <= N) to coefficients,
with the empty word at 1.  The transform equations are the same as in one
variable, with W_i = z_i(1+M).  The solves run on tables of dense rows: row
n lists the d^n words of length n by rank (the order of itertools.product),
None at a zero word, so that rank(uv) = rank(u) d^|v| + rank(v).  Every site
is one rule (n, out, s) that builds row n in one comprehension, the shape of
transforms._fill's (k, out, s), and each is the word twin of the
single-variable solve that ``transforms``' table of rules names beside it:
_fill_words fills a table in length order, handing the rule the row s of
[x_w] A(W_1, ..., W_d) for the substitution (a, m) it is given, None
standing for ``out``; _split_row(left, right, n, d), the sum over w = uv of
left[u] right[v], is n - 1 outer products of rows and multiplies or divides
by (1+M).

A solve stores row n of a only after solving for it, so the substitution
skips the term that carries a[w].  Substituting z_i -> z_i(1+M) places (1+M)
to the right of each letter, following the displayed order of the defining
equations.  _fill_words extracts the coefficient by a recursion over the
prefixes of the letters of A that a word's letters carry, one state table
per fill; _apply_w_substitution reads the row of [x_w] A(W) from it, once
per length.

An NCFunctional holds such a table, graded: one scale D per functional,
and row n's entry at w is c_w D^n, an int for a rational c_w and an
integer-coefficient TPoly for a TPoly (the rule of transforms._graded, by
word length), None at a zero word.  Its values are built on each read, as
``TPoly.coeffs`` is, and its rows are never changed once stored: the
kernels copy a row before they write to it, so functionals share rows.

Each equation is one raw kernel (_r, _moments_from_r, _eta, ...), a fill on
whatever ring it is handed, which takes its row difference as an explicit
argument, (d, order, minus, *tables).  Each public operation, powers and
point masses included, chains its kernels inside one _graded_words call
over all of its inputs, the one place that grades a word solve: it takes a
functional's rows as they are, grades a raw word dict into rows, and
returns its output's rows as a new functional, so no value is built
between operations.  Over Q and Q[t] the fills run on ints, from the
operation's input to its output, each TPoly entry packed at t = 2^B
(Kronecker substitution, the one integer scheme of ``coeffs``).  B comes
from one run of the solve at d = 1 on l1 norms, plain non-negative ints,
with _plus as its difference: the l1 norm is subadditive and
submultiplicative and the kernels divide by nothing, so that run bounds
every t-digit.  Every output is a Fraction when no input value and no t is
a TPoly, and a TPoly otherwise; a plain int grades as its Fraction, and any
other value raises TypeError before any fill runs.

Everything reduces bit-for-bit to the single-variable modules at d = 1; the
test suite asserts this.  The word layer's verify entries are in ``catalog``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

from .coeffs import (ZERO, ONE, TPoly, _bits, _canonical, _grade, _pack,
                     _unpack, as_coeff)
from .functionals import MomentFunctional


def __getattr__(name):
    # perfbench/workloads.py reads multivariate.NC_CATALOG, served on first
    # use from ``catalog``, which imports this module
    if name == "NC_CATALOG":
        from .catalog import NC_CATALOG
        return NC_CATALOG
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def words(d, order):
    """All words over {1..d} of length 1..order, shortest first."""
    for n in range(1, order + 1):
        yield from itertools.product(range(1, d + 1), repeat=n)


class NCFunctional:
    """Unital functional on words, empty word -> 1, held as graded rows.

    Row n of ``_rows`` lists the d^n words of length n by rank, each entry
    c_w D^n for the one scale D = ``_scale``: an int for a rational c_w, an
    integer-coefficient ``TPoly`` for a ``TPoly``, and None at a zero word.
    ``items``, ``m``, ``truncate``, ``==`` and ``_upto`` read the rows and
    build each value on read; the rows are shared, and never changed."""

    __slots__ = ("d", "order", "_rows", "_scale")

    def __init__(self, d, order, moments):
        if order < 1:
            raise ValueError("order must be >= 1")
        kept = {tuple(w): c for w, c in moments.items() if len(w) <= order}
        if not (as_coeff(kept.pop((), 1)) == 1):
            raise ValueError("empty word must map to 1")
        letters = set(range(1, d + 1))
        if not letters.issuperset(itertools.chain.from_iterable(kept)):
            w = next(w for w in kept if not letters.issuperset(w))
            raise ValueError(f"word {w} outside alphabet 1..{d}")
        self.d = d
        self.order = order
        self._scale, (parts,) = _grade(zip(map(len, kept), kept.values()))
        self._rows = _graded_rows(kept, parts, d, order, self._scale)

    @classmethod
    def _filled(cls, d, order, rows, scale):
        """The functional of the graded rows [None, row_1, ..., row_order]
        at the scale ``scale``, as ``_graded_words`` returns them; only the
        order is checked."""
        if order < 1:
            raise ValueError("order must be >= 1")
        self = object.__new__(cls)
        self.d = d
        self.order = order
        self._rows = rows
        self._scale = scale
        return self

    def m(self, w):
        w = tuple(w)
        if not w:
            return ONE
        n = len(w)
        if n > self.order:
            raise IndexError(f"word {w} beyond order {self.order}")
        if min(w) < 1 or max(w) > self.d:
            return ZERO
        rank = 0
        for x in w:
            rank = rank * self.d + x - 1
        c = self._rows[n][rank]
        return ZERO if c is None else _value(c, self._scale ** n)

    def items(self):
        """(word, value) for every nonzero word, shortest first and by rank
        within a length, each value built on this read."""
        return self._pairs(self.order)

    def _pairs(self, n):
        # an entry is None or nonzero, so the row selects its own words
        out, p = [], 1
        for k in range(1, n + 1):
            p *= self._scale
            row = self._rows[k]
            out += [(w, _value(c, p)) for w, c in zip(
                itertools.compress(_ranked(self.d, k), row), filter(None, row))]
        return out

    def truncate(self, order):
        if order >= self.order:
            return self
        return NCFunctional._filled(self.d, order, self._rows[:order + 1],
                                    self._scale)

    def __eq__(self, other):
        if not isinstance(other, NCFunctional):
            return NotImplemented
        if self.d != other.d:
            return False
        n = min(self.order, other.order)
        a, b = self._rows[:n + 1], other._rows[:n + 1]
        if self._scale != other._scale:
            s = lcm(self._scale, other._scale)
            a = _rescaled(a, s // self._scale)
            b = _rescaled(b, s // other._scale)
        return a == b

    def _upto(self, n):
        """The nonzero words of length <= n and their values, as a dict."""
        return dict(self._pairs(min(n, self.order)))

    def __repr__(self):
        count = sum(len(row) - row.count(None) for row in self._rows[1:])
        return f"<NCFunctional d={self.d} order={self.order} ({count} words)>"


class NCPair:
    """A two-state pair of word functionals with one truncation order."""

    __slots__ = ("tilde", "base")

    def __init__(self, tilde, base):
        if tilde.d != base.d:
            raise ValueError("alphabet sizes differ")
        n = min(tilde.order, base.order)
        self.tilde = tilde.truncate(n)
        self.base = base.truncate(n)

    @property
    def d(self):
        return self.tilde.d

    @property
    def order(self):
        return self.tilde.order


def nc_point_mass(beta, d, order):
    """delta_beta with delta_beta[x_w] = prod_j beta_{w_j}."""
    beta = [as_coeff(x) for x in beta]
    if len(beta) != d:
        raise ValueError("need one coordinate per letter")
    return _graded_words(_products, d, order,
                         {(i,): b for i, b in enumerate(beta, 1) if b})


def nc_from_univariate(mf):
    """A MomentFunctional as the d = 1 word functional."""
    return NCFunctional(1, mf.order,
                        {(1,) * k: mf.m(k) for k in range(1, mf.order + 1)})


def nc_to_univariate(ncf):
    if ncf.d != 1:
        raise ValueError("only d = 1 converts to a moment sequence")
    return MomentFunctional._made(
        ncf.order, [ncf.m((1,) * k) for k in range(1, ncf.order + 1)])


# -- graded rows --------------------------------------------------------------


def _ranked(d, n):
    """The words of length n over 1..d by rank."""
    return itertools.product(range(1, d + 1), repeat=n)


def _value(c, p):
    """The value of the stored entry c at the grade p = D^n: c / p, a
    Fraction for an int and a TPoly for an integer TPoly."""
    if type(c) is int:
        return Fraction(c, p)
    return _canonical(list(c.nums), p, p)


def _graded_rows(dct, parts, d, order, scale):
    """The graded rows of a word dict at the scale D, from the parts
    (nums, dens) that ``_grade`` read off its values, in the dict's order:
    row n holds c_w D^n for the words w of length n by rank, an int for a
    rational or int c_w and an integer-coefficient TPoly for a TPoly, None
    at a missing or zero word.  No other key is read: not the empty word, a
    word past ``order`` or one off the alphabet."""
    at = dict(zip(dct, zip(*parts)))
    rows, p = [None], 1
    for n in range(1, order + 1):
        p *= scale
        rows.append([
            None if e is None
            else (_canonical([x * (p // e[1]) for x in e[0]], 1, 1)
                  if e[0] else None) if type(e[0]) is tuple
            else e[0] * (p // e[1]) or None
            for e in map(at.get, _ranked(d, n))])
    return rows


def _rescaled(rows, f):
    """The graded rows at the scale D f: row n's entries times f^n."""
    if f == 1:
        return rows
    out, g = [None], 1
    for row in rows[1:]:
        g *= f
        out.append([None if c is None else c * g for c in row])
    return out


def _reduced(rows, q):
    """The int graded rows at the scale D / q: row n's entries over q^n,
    which divides each of them (``_shares``)."""
    out, p = [None], 1
    for row in rows[1:]:
        p *= q
        out.append([None if c is None else c // p for c in row])
    return out


def _shares(rows, q):
    """Whether every row n of the graded rows, each t-coefficient of a
    ``TPoly`` entry included, is divisible by q^n: then the values need no
    more than the scale D / q.  A power by t = p/q grades its output by the
    inputs' scale times q, which its values need not all take up."""
    p = 1
    for row in rows[1:]:
        p *= q
        if gcd(*itertools.chain.from_iterable(
                (c,) if type(c) is int else c.nums
                for c in row if c is not None)) % p:
            return False
    return True


def _packed(rows, b):
    """The graded rows with each TPoly entry packed at t = 2^b."""
    return [None] + [[c if c is None or type(c) is int else _pack(c.nums, b)
                      for c in row] for row in rows[1:]]


def _norm(c):
    """The l1 norm of a stored entry's t-coefficients; |c| for an int."""
    return abs(c) if type(c) is int else sum(map(abs, c.nums))


def _times(p, q):
    """tab -> t tab on graded rows, for t = p/q and a grading by D q:
    (t c)_w (Dq)^|w| = p (c_w (Dq)^|w| / q), exact for |w| >= 1."""
    return lambda tab: [None] + [[None if c is None else p * (c // q)
                                  for c in row] for row in tab[1:]]


def _graded_words(solve, d, order, *ins, t=None):
    """solve(d, order, minus, *tables), or solve(d, order, minus, times_t,
    *tables) with a scalar t, run on ints graded by word length: the
    word form of ``transforms._graded``.  Each input is an NCFunctional
    over 1..d, whose rows are read as they are, or a raw word dict, graded
    into rows at its own scale by ``coeffs._grade`` (a ``TPoly`` counts by
    its common denominator, and any value that is no coefficient raises
    TypeError before ``solve`` runs).  The output is the NCFunctional of
    the rows ``solve`` returns, at the scale D they are graded by.

    ``minus`` is the row difference, ``_minus`` in the exact run.
    ``times_t`` maps a graded table to t times it, and ``solve`` builds its
    output from values it has scaled.  D is the lcm of the inputs' scales
    times the denominator q of t, and an input at the scale D_i is rescaled,
    row n by (D/D_i)^n, only when D_i differs from D.  The output takes the
    scale D / q instead when every row n is divisible by q^n (``_shares``),
    so a chain of powers does not gather q in its scale.  Every word transform
    is weight-homogeneous in |w| and divides by nothing, and a sum or
    difference of two tables graded by one D is graded by it, so a solve
    that chains fills on graded inputs stays in Z.

    Each ``TPoly`` entry is packed at t = 2^B (Kronecker substitution), and
    evaluation at 2^B is a ring map, so each output is its graded
    polynomial at 2^B.  B is needed only when some value or t is a
    ``TPoly``; then ``solve`` runs once more first, at d = 1 with ``_plus``
    as its difference, on the largest l1 norm sum_i |[t^i] c_w| D^|w| of
    each input at each length, as plain ints.  The l1 norm is subadditive
    and submultiplicative, the kernels divide by nothing, and with - read
    as + no term cancels, so a run on larger inputs with more words present
    bounds the l1 norm, and so every t-digit, of each value of the exact
    run.  The kernels read positions, not letters, so the run on every word
    at its length's largest norm gives every word of a length the value of
    the d = 1 run at that length.  M is its largest output; B = bits(M) + 2.
    An int entry packs to itself, and without a ``TPoly`` nothing is packed.

    The output's entries are ints when no value and no t is a ``TPoly``, so
    its values are ``Fraction``s.  Otherwise every entry is an integer
    ``TPoly``, read as balanced base-2^B digits, and every value a ``TPoly``.
    """
    tn, tq = ((), 1) if t is None else TPoly._parts(t)
    tables, scales, polys = [], [], type(t) is TPoly
    for x in ins:
        if isinstance(x, NCFunctional):
            if x.d != d:
                raise ValueError("alphabet sizes differ")
            rows = x._rows[:order + 1]
            rows += [[None] * d ** n for n in range(len(rows), order + 1)]
            scales.append(x._scale)
            polys = polys or any(TPoly in map(type, row) for row in rows[1:])
        else:
            scale, (parts,) = _grade(zip(map(len, x), x.values()))
            scales.append(scale)
            rows = _graded_rows(x, parts, d, order, scale)
            polys = polys or tuple in map(type, parts[0])
        tables.append(rows)
    scale = lcm(*scales) * tq

    def run(d, ins, p, minus):
        if t is not None:
            ins.insert(0, _times(p, tq))
        return solve(d, order, minus, *ins)

    fs = [scale // s for s in scales]
    if not polys:
        out = run(d, [_rescaled(rows, f) for rows, f in zip(tables, fs)],
                  _pack(tn, 0), _minus)
        if tq > 1 and _shares(out, tq):
            out, scale = _reduced(out, tq), scale // tq
        return NCFunctional._filled(d, order, out, scale)
    tops = [_rescaled([None] + [[max(map(_norm, filter(None, row)),
                                     default=0) or None]
                                for row in rows[1:]], f)
            for rows, f in zip(tables, fs)]
    bound = run(1, tops, sum(map(abs, tn)), _plus)
    b = _bits(max((x for row in bound[1:] for x in row if x is not None),
                  default=0))
    out = run(d, [_rescaled(_packed(rows, b), f)
                  for rows, f in zip(tables, fs)], _pack(tn, b), _minus)
    rows = [None] + [[None if x is None else _unpack(x, b, 1) for x in row]
                     for row in out[1:]]
    if tq > 1 and _shares(rows, tq):
        rows, scale = [None] + [
            [None if x is None else _unpack(x, b, tq ** n) for x in row]
            for n, row in enumerate(out[1:], 1)], scale // tq
    return NCFunctional._filled(d, order, rows, scale)


def _add_products(row, x, y, n_p, n_g, n_i):
    """row[(p n_g + g) n_i + i] += x[g] y[p n_i + i] for p < n_p, g < n_g and
    i < n_i.  None marks an absent entry: a product with an absent factor is
    no term, and an entry that gets no term stays None.  Each comprehension
    runs along the longest axis: along p, one per (g, i), when n_p is longer
    than both others, else along the longer of g and i."""
    span = n_g * n_i
    if n_p > max(n_g, n_i):
        hi = n_p * span
        for g, c in enumerate(x):
            if c is not None:
                for i in range(n_i):
                    lo = g * n_i + i
                    row[lo:hi:span] = [
                        s if v is None else c * v if s is None else s + c * v
                        for s, v in zip(row[lo:hi:span], y[i::n_i])]
        return
    if n_g > n_i:
        for p in range(n_p):
            for i, c in enumerate(y[p * n_i:(p + 1) * n_i]):
                if c is not None:
                    lo = p * span + i
                    row[lo:lo + span:n_i] = [
                        s if v is None else v * c if s is None else s + v * c
                        for s, v in zip(row[lo:lo + span:n_i], x)]
        return
    for p in range(n_p):
        ys = y[p * n_i:(p + 1) * n_i]
        for g, c in enumerate(x):
            if c is not None:
                lo = p * span + g * n_i
                row[lo:lo + n_i] = [
                    s if v is None else c * v if s is None else s + c * v
                    for s, v in zip(row[lo:lo + n_i], ys)]


def _apply_w_substitution(row, a):
    """[x_w] A(z_1(1+M), ..., z_d(1+M)) at every word w of one length, by
    rank: the terms with a gap, row n of ``_fill_words``'s state table, plus
    a's own row (None where there is no term).  A solve for A passes
    a = None, as its row is not stored yet, so its own unknown drops out."""
    if a is None:
        return row
    return [s if c is None else c if s is None else s + c
            for s, c in zip(row, a)]


def _split_row(left, right, n, d, row=None):
    """``row`` (default: no term) plus the sum of left[u] right[v] over the
    splits w = uv into nonempty words, at every word w of length n by rank.
    rank(uv) = rank(u) d^|v| + rank(v), so the splits with |u| = k are one
    outer product of left's row k and right's row n - k."""
    row = [None] * d ** n if row is None else row[:]
    for k in range(1, n):
        _add_products(row, left[k], right[n - k], 1, d ** k, d ** (n - k))
    return row


def _nonzero(x):
    """The row x with None at every zero."""
    return [c or None for c in x]


def _plus(x, y):
    """x + y word by word: None reads as 0, and a zero sum is None."""
    return [(a if b is None else b if a is None else a + b) or None
            for a, b in zip(x, y)]


def _minus(x, y):
    """x - y word by word: None reads as 0, and a zero difference is None."""
    return [(a if b is None else -b if a is None else a - b) or None
            for a, b in zip(x, y)]


def _fill_words(d, order, coeff, subst=None):
    """The table [None, row_1, ..., row_order] with row_n = coeff(n, out, s),
    a list over the words of length n by rank (the order of
    itertools.product), None at a zero word.

    Filled in length order; ``coeff`` may read ``out`` at shorter lengths,
    and row n is stored only after ``coeff`` returns.  Without ``subst``,
    s = None.  With ``subst`` = (a, m), s is the row of [x_w] A(W), None at
    a word with no term, for the tables a of A and m of M, W_i = z_i(1+M);
    None in place of a or m stands for ``out``.

    The substitution runs by a recursion over prefixes.  With
    T(v, x) = [x_x] sum over u != () of a_{vu} W_u, so that s = T((), w),
    the first letter c of x = c.y is the first letter of u, and the moment
    after it is the part g of y = g.r before the next letter of u:

        T(v, c.y) = m_y a_{vc} + sum over y = g.r, r != () of m_g T(vc, r),

    with m_() = 1.  A state (v, x) has length |v| + |x|.  The term with
    g = () has the same length and the same word vx, and every other term
    reads shorter states; the only term with a coefficient as long as the
    state is a_{vx}, the one without gaps.  So each length L runs in three
    steps: the states of length L without a_{vx}, longest v first; the row
    of length L, where a solve finds a; and then a_{vx} for every state.
    A state table is one row per (L, |v|) indexed by the rank of vx among
    the words of length L, None for a state with no term: about
    order * d^order states at O(order) work each, local to one fill.
    """
    out = [None]
    size = [d ** k for k in range(order + 1)]
    if subst is not None:
        a, m = (out if f is None else f for f in subst)
        states = [None]
    for n in range(1, order + 1):
        s = None
        if subst is not None:
            rows = [None] * n
            rows[n - 1] = [None] * size[n]
            for j in range(n - 2, -1, -1):  # j = |v|, y = |x| - 1
                y = n - j - 1
                row = rows[j + 1][:]
                _add_products(row, a[j + 1], m[y], 1, size[j + 1], size[y])
                for k in range(1, y):
                    _add_products(row, m[k], states[n - k][j + 1],
                                  size[j + 1], size[k], size[y - k])
                rows[j] = row
            s = _apply_w_substitution(rows[0], None if a is out else a[n])
        out.append(coeff(n, out, s))
        if subst is not None and n < order:
            rows[0] = None
            for j in range(1, n):
                rows[j] = [x if c is None else c if x is None else x + c
                           for x, c in zip(rows[j], a[n])]
            states.append(rows)
    return out


# -- raw kernels ------------------------------------------------------------------
#
# Each takes and returns tables (see _fill_words), after its row difference
# ``minus``: _minus, or _plus in a majorant run; every rule builds its row in
# one comprehension.


def _r(d, order, minus, m):
    """Free cumulants: solve R(z_i(1+M)) = M triangularly."""
    return _fill_words(d, order, lambda n, kappa, s: minus(m[n], s),
                       (None, m))


def _moments_from_r(d, order, minus, kappa):
    """Forward solve of R(z_i(1+M)) = M."""
    return _fill_words(d, order, lambda n, m, s: _nonzero(s), (kappa, None))


def _eta(d, order, minus, m):
    """Boolean cumulants: eta_w = m_w - sum_{w=uv} eta_u m_v."""
    return _fill_words(d, order, lambda n, eta, _: minus(
        m[n], _split_row(eta, m, n, d)))


def _moments_from_eta(d, order, minus, eta):
    return _fill_words(d, order, lambda n, m, _: _nonzero(
        _split_row(eta, m, n, d, eta[n])))


def _two_state_r(d, order, minus, eta_t, m):
    """Solve eta~ (1+M) = R2(z_i(1+M)) for R2."""
    return _fill_words(d, order, lambda n, _, s: minus(
        _split_row(eta_t, m, n, d, eta_t[n]), s), (None, m))


def _substitute_divide(d, order, minus, a, m):
    """A(z_i(1+M)) (1+M)^{-1}: eta~ from R2, and R^{mu |> nu} from R^mu with
    M = M^nu."""
    return _fill_words(d, order, lambda n, e, s: minus(
        s, _split_row(e, m, n, d)), (a, m))


def _composition(d, order, minus, m, b):
    """(1+M)(1 + B(z_i(1+M))) - 1."""
    sub = _fill_words(d, order, lambda n, _, s: _nonzero(s), (b, m))
    return _fill_words(d, order, lambda n, _, s: _plus(
        _split_row(m, sub, n, d, sub[n]), m[n]))


def _products(d, order, minus, beta):
    """The point-mass moments prod_j beta_{w_j}, each its prefix's times
    the last letter's; a word with a letter missing from ``beta`` is zero."""
    return _fill_words(d, order, lambda n, m, _: beta[1] if n == 1 else [
        None if u is None or v is None else u * v
        for u in m[n - 1] for v in beta[1]])


def _merge(x, y, op):
    """The table of op(x[n], y[n]) row by row, for the row ops _plus and
    _minus."""
    return [None] + [op(a, b) for a, b in zip(x[1:], y[1:])]


# -- public operations ------------------------------------------------------------


def nc_r(mu):
    """Word-indexed free cumulants: solve R(z_i(1+M)) = M triangularly."""
    return dict(_graded_words(_r, mu.d, mu.order, mu).items())


def nc_moments_from_r(kappa, d, order):
    """Forward solve of R(z_i(1+M)) = M."""
    return _graded_words(_moments_from_r, d, order, kappa)


def nc_eta(mu):
    """Boolean word cumulants: eta_w = m_w - sum_{w=uv} eta_u m_v (u,v nonempty)."""
    return dict(_graded_words(_eta, mu.d, mu.order, mu).items())


def nc_moments_from_eta(eta, d, order):
    return _graded_words(_moments_from_eta, d, order, eta)


def nc_two_state_r(pair):
    """Solve eta~ (1+M) = R2(z_i(1+M)) for the word two-state R-transform."""
    return dict(_graded_words(
        lambda d, order, minus, tilde, m: _two_state_r(
            d, order, minus, _eta(d, order, minus, tilde), m),
        pair.d, pair.order, pair.tilde, pair.base).items())


def nc_tilde_from_two_state_r(r2, base):
    """Invert: eta~ = R2(z_i(1+M)) (1+M)^{-1}, then moments."""
    return _graded_words(
        lambda d, order, minus, r2, m: _moments_from_eta(
            d, order, minus, _substitute_divide(d, order, minus, r2, m)),
        base.d, base.order, r2, base)


def _combine_cumulants(a, b, cumulants, moments):
    """moments(cumulants(a) + cumulants(b)) word by word, at one order, for
    the raw kernels ``cumulants`` and ``moments``."""
    return _graded_words(
        lambda d, order, minus, x, y: moments(d, order, minus, _merge(
            cumulants(d, order, minus, x), cumulants(d, order, minus, y),
            _plus)),
        a.d, min(a.order, b.order), a, b)


def _power(a, t, cumulants, moments):
    """moments(t cumulants(a)) word by word, for the raw kernels
    ``cumulants`` and ``moments``."""
    return _graded_words(
        lambda d, order, minus, times_t, m: moments(
            d, order, minus, times_t(cumulants(d, order, minus, m))),
        a.d, a.order, a, t=as_coeff(t))


def nc_free_convolve(a, b):
    return _combine_cumulants(a, b, _r, _moments_from_r)


def nc_free_power(a, t):
    return _power(a, t, _r, _moments_from_r)


def nc_boolean_convolve(a, b):
    return _combine_cumulants(a, b, _eta, _moments_from_eta)


def nc_boolean_power(a, t):
    return _power(a, t, _eta, _moments_from_eta)


def nc_phi(nu):
    """eta^{Phi[nu]} = sum_i z_i (1 + M^nu) z_i; output order nu.order + 2.

    eta's rows come from nu's, at nu's scale D: eta_{ii} D^2 sits at rank
    (i-1)(d+1) of row 2, and eta_{iwi} D^{|w|+2} = (nu_w D^|w|) D^2 at rank
    (i-1) d^{|w|+1} + rank(w) d + (i-1) of row |w| + 2."""
    d, order, s2 = nu.d, nu.order + 2, nu._scale ** 2
    row = [None] * d * d
    row[::d + 1] = [s2] * d
    rows = [None, [None] * d, row]
    for n in range(1, nu.order + 1):
        inner = [None if c is None else c * s2 for c in nu._rows[n]]
        row, span = [None] * d ** (n + 2), d ** (n + 1)
        for i in range(d):
            row[i * span + i:(i + 1) * span + i:d] = inner
        rows.append(row)
    return nc_moments_from_eta(NCFunctional._filled(d, order, rows, nu._scale),
                               d, order)


def nc_bp(mu):
    """R^{B[mu]} = eta^mu."""
    return _graded_words(
        lambda d, order, minus, m: _moments_from_r(
            d, order, minus, _eta(d, order, minus, m)),
        mu.d, mu.order, mu)


def nc_bp_inverse(mu):
    return _graded_words(
        lambda d, order, minus, m: _moments_from_eta(
            d, order, minus, _r(d, order, minus, m)),
        mu.d, mu.order, mu)


def nc_subordination(mu, nu):
    """R^{mu |> nu} (1+M^nu) = R^mu(z_i(1+M^nu)), solved triangularly."""
    return _graded_words(
        lambda d, order, minus, a, m: _moments_from_r(
            d, order, minus, _substitute_divide(
                d, order, minus, _r(d, order, minus, a), m)),
        mu.d, min(mu.order, nu.order), mu, nu)


def _composition_product(lam, nu):
    """(1 + M^lam)(1 + M^nu(z_i(1+M^lam))) - 1, as a word functional."""
    return _graded_words(_composition, lam.d, min(lam.order, nu.order),
                         lam, nu)


def nc_subordination_inverse(lam, nu):
    """The unique mu with mu |> nu = lam, via the composition identity

    1 + M^{mu boxplus nu} = (1 + M^lam)(1 + M^nu(z_i(1+M^lam))),

    and the free deconvolution of mu boxplus nu by nu.
    """
    return _graded_words(
        lambda d, order, minus, x, m: _moments_from_r(d, order, minus, _merge(
            _r(d, order, minus, _composition(d, order, minus, x, m)),
            _r(d, order, minus, m), minus)),
        lam.d, min(lam.order, nu.order), lam, nu)
