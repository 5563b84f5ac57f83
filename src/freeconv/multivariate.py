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

Each equation is one raw kernel (_r, _moments_from_r, _eta, ...), a fill on
whatever ring it is handed.  Each public operation, powers and point masses
included, chains its kernels inside one _graded_words call over all of its
inputs, the one place that grades a word solve and turns word dicts into
tables: it packs each input once and reads the output's nonzero values back
once, and the kernels hand tables to each other.  Over Q and Q[t] the fills
run on ints graded by word length (the rule of transforms._graded) and
packed at t = 2^B (Kronecker substitution), from the operation's input to
its output.  B comes from one run of the solve at d = 1 on l1 norms, where -
acts as +: the l1 norm is subadditive and submultiplicative and the kernels
divide by nothing, so that run bounds every t-digit.  Every output is a
Fraction when every input value and t is one, and a TPoly otherwise.  Inputs
holding any other value take the same kernels on their coefficients as they
are.  A power's t is a Fraction or a TPoly and scales an NCFunctional's
values, so every power takes the graded path.

Everything reduces bit-for-bit to the single-variable modules at d = 1; the
test suite asserts this.  The word layer's verify entries are in ``catalog``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .coeffs import ZERO, ONE, TPoly, as_coeff
from .functionals import MomentFunctional
from .transforms import _Majorant, _grade, _pack, _unpack


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
    def _filled(cls, d, order, moments):
        """The functional of a fill's output: nonzero values at words over
        1..d of length 1..order, so only the order and the ring are checked,
        the ring only of a value the generic path left neither a
        ``Fraction`` nor a ``TPoly``."""
        if order < 1:
            raise ValueError("order must be >= 1")
        self = object.__new__(cls)
        self.d = d
        self.order = order
        self._m = {w: c if type(c) in (Fraction, TPoly) else as_coeff(c)
                   for w, c in moments.items()}
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
        return NCFunctional(
            self.d, order, {w: c for w, c in self._m.items() if len(w) <= order})

    def __eq__(self, other):
        if not isinstance(other, NCFunctional):
            return NotImplemented
        if self.d != other.d:
            return False
        n = min(self.order, other.order)
        return self._upto(n) == other._upto(n)

    def _upto(self, n):
        """The stored words of length <= n; a missing word is zero."""
        if n >= self.order:
            return self._m
        return {w: c for w, c in self._m.items() if len(w) <= n}

    def __repr__(self):
        return f"<NCFunctional d={self.d} order={self.order} ({len(self._m)} words)>"


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
    return NCFunctional._filled(d, order, _graded_words(
        _products, d, order, {(i,): b for i, b in enumerate(beta, 1) if b}))


def nc_zero(d, order):
    return NCFunctional(d, order, {})


def nc_from_univariate(mf):
    """A MomentFunctional as the d = 1 word functional."""
    return NCFunctional(1, mf.order,
                        {(1,) * k: mf.m(k) for k in range(1, mf.order + 1)})


def nc_to_univariate(ncf):
    if ncf.d != 1:
        raise ValueError("only d = 1 converts to a moment sequence")
    return MomentFunctional(ncf.order,
                            [ncf.m((1,) * k) for k in range(1, ncf.order + 1)])


def _table(dct, ws):
    """The rows of a word dict, one per length of ``ws`` (the words of each
    length by rank), None at a missing or zero word."""
    return [None] + [[c or None for c in map(dct.get, row)] for row in ws[1:]]


def _graded_table(dct, ws, pw, b):
    """``_table`` of a word dict of Fractions and TPolys, each value c_w as
    the int c_w D^|w| packed at t = 2^b, for pw[n] = D^n."""
    return [None] + [[
        None if c is None else (c.numerator * (p // c.denominator)
                                if type(c) is Fraction
                                else _pack(c.nums, b) * (p // c.den)) or None
        for c in map(dct.get, row)] for row, p in zip(ws[1:], pw[1:])]


def _times(p, q):
    """tab -> t tab on graded rows, for t = p/q and a grading by D q:
    (t c)_w (Dq)^|w| = p (c_w (Dq)^|w| / q), exact for |w| >= 1."""
    return lambda tab: [None] + [[None if c is None else p * (c // q)
                                  for c in row] for row in tab[1:]]


def _graded_words(solve, d, order, *dicts, t=None):
    """solve(d, order, *tables), or solve(d, order, times_t, *tables) with a
    scalar t, run on ints graded by word length: the word-dict form of
    ``transforms._graded``.

    Each input dict is packed once into a table of rows, one per length
    (see ``_fill_words``), and the output table is read back once into a
    dict of its nonzero values.  ``times_t`` maps a graded table to t times
    it, and ``solve`` builds its output from values it has scaled.

    When every value is a ``Fraction`` or a ``TPoly``, ``solve`` gets
    c_w as the int c_w D^|w| packed at t = 2^B (Kronecker substitution).  D
    comes from ``transforms._grade`` (a ``TPoly`` counts by its common
    denominator) times the denominator of t.  Every word transform is
    weight-homogeneous in |w| and divides by nothing, and a sum or
    difference of two tables graded by one D is graded by it, so a solve
    that chains fills on graded inputs stays in Z.  Evaluation at 2^B is a
    ring map, so each output is its graded polynomial at 2^B.  B is needed
    only when some value or t is a ``TPoly``; then ``solve`` runs once more
    first, at d = 1 in ``_Majorant``, a ring where - acts as +, on the
    largest l1 norm sum_i |[t^i] c_w| D^|w| of each input at each length.
    The l1 norm is subadditive and submultiplicative, the kernels divide by
    nothing, and with - as + no term cancels, so a run on larger inputs
    with more words present bounds the l1 norm, and so every t-digit, of
    each value of the exact run.  The kernels read positions, not letters,
    so the run on every word at its length's largest norm gives every word
    of a length the value of the d = 1 run at that length.  M is its
    largest output; B = bits(M) + 2.  A rational value packs to its own
    graded numerator, and without a ``TPoly`` nothing is packed.

    The output is over Q when every value and t is: output w comes back as
    the ``Fraction`` x_w / D^|w|.  Otherwise every output w is a ``TPoly``,
    read as balanced base-2^B digits over D^|w|.

    A scalar t, a ``Fraction`` or a ``TPoly``, always takes this graded
    path: its one caller, ``_power``, scales an ``NCFunctional``'s values,
    which are one or the other.  A raw word dict holding any other value (a
    plain int, another ring) and no t selects the generic path: ``solve``
    gets the tables of the values as they are, and the output keeps its
    values as they are.
    """
    ws = [None] + [list(itertools.product(range(1, d + 1), repeat=n))
                   for n in range(1, order + 1)]
    scale = _grade(*(zip(map(len, dct), dct.values()) for dct in dicts))
    if scale is None:
        out = solve(d, order, *[_table(dct, ws) for dct in dicts])
        return {w: c for row_w, row in zip(ws[1:], out[1:])
                for w, c in zip(row_w, row) if c is not None}
    tn, tq = ((), 1) if t is None else TPoly._parts(t)
    scale *= tq
    pw = [1]  # to the longest input word, which may pass the order
    for _ in range(max(order, max(map(len, itertools.chain(*dicts)),
                                  default=0))):
        pw.append(pw[-1] * scale)

    def run(d, ins, p):
        if t is not None:
            ins.insert(0, _times(p, tq))
        return solve(d, order, *ins)

    b = 0  # without a TPoly, _pack(tn, 0) is the numerator of t
    polys = type(t) is TPoly or any(
        type(c) is TPoly for dct in dicts for c in dct.values())
    if polys:
        tops = []
        for dct in dicts:
            top = [0] * len(pw)
            for w, c in dct.items():
                nums, den = TPoly._parts(c)
                k = len(w)
                top[k] = max(top[k], sum(map(abs, nums)) * (pw[k] // den))
            tops.append([None] + [[_Majorant(x) or None]
                                  for x in top[1:order + 1]])
        bound = run(1, tops, sum(map(abs, tn)))
        b = max((x for row in bound[1:] for x in row if x is not None),
                default=0).bit_length() + 2
    out = run(d, [_graded_table(dct, ws, pw, b) for dct in dicts],
              _pack(tn, b))
    rows = zip(ws[1:], out[1:], pw[1:])
    if polys:
        return {w: _unpack(x, b, p) for row_w, row, p in rows
                for w, x in zip(row_w, row) if x is not None}
    return {w: Fraction(x, p) for row_w, row, p in rows
            for w, x in zip(row_w, row) if x is not None}


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
# Each takes and returns tables (see _fill_words); every rule builds its row
# in one comprehension.


def _r(d, order, m):
    """Free cumulants: solve R(z_i(1+M)) = M triangularly."""
    return _fill_words(d, order, lambda n, kappa, s: _minus(m[n], s),
                       (None, m))


def _moments_from_r(d, order, kappa):
    """Forward solve of R(z_i(1+M)) = M."""
    return _fill_words(d, order, lambda n, m, s: _nonzero(s), (kappa, None))


def _eta(d, order, m):
    """Boolean cumulants: eta_w = m_w - sum_{w=uv} eta_u m_v."""
    return _fill_words(d, order, lambda n, eta, _: _minus(
        m[n], _split_row(eta, m, n, d)))


def _moments_from_eta(d, order, eta):
    return _fill_words(d, order, lambda n, m, _: _nonzero(
        _split_row(eta, m, n, d, eta[n])))


def _two_state_r(d, order, eta_t, m):
    """Solve eta~ (1+M) = R2(z_i(1+M)) for R2."""
    return _fill_words(d, order, lambda n, _, s: _minus(
        _split_row(eta_t, m, n, d, eta_t[n]), s), (None, m))


def _substitute_divide(d, order, a, m):
    """A(z_i(1+M)) (1+M)^{-1}: eta~ from R2, and R^{mu |> nu} from R^mu with
    M = M^nu."""
    return _fill_words(d, order, lambda n, e, s: _minus(
        s, _split_row(e, m, n, d)), (a, m))


def _composition(d, order, m, b):
    """(1+M)(1 + B(z_i(1+M))) - 1."""
    sub = _fill_words(d, order, lambda n, _, s: _nonzero(s), (b, m))
    return _fill_words(d, order, lambda n, _, s: _plus(
        _split_row(m, sub, n, d, sub[n]), m[n]))


def _products(d, order, beta):
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
    return _graded_words(_r, mu.d, mu.order, mu._m)


def nc_moments_from_r(kappa, d, order):
    """Forward solve of R(z_i(1+M)) = M."""
    return NCFunctional._filled(d, order, _graded_words(
        _moments_from_r, d, order, kappa))


def nc_eta(mu):
    """Boolean word cumulants: eta_w = m_w - sum_{w=uv} eta_u m_v (u,v nonempty)."""
    return _graded_words(_eta, mu.d, mu.order, mu._m)


def nc_moments_from_eta(eta, d, order):
    return NCFunctional._filled(d, order, _graded_words(
        _moments_from_eta, d, order, eta))


def nc_two_state_r(pair):
    """Solve eta~ (1+M) = R2(z_i(1+M)) for the word two-state R-transform."""
    return _graded_words(lambda d, order, tilde, m: _two_state_r(
        d, order, _eta(d, order, tilde), m),
        pair.d, pair.order, pair.tilde._m, pair.base._m)


def nc_tilde_from_two_state_r(r2, base):
    """Invert: eta~ = R2(z_i(1+M)) (1+M)^{-1}, then moments."""
    d, order = base.d, base.order
    return NCFunctional._filled(d, order, _graded_words(
        lambda d, order, r2, m: _moments_from_eta(
            d, order, _substitute_divide(d, order, r2, m)),
        d, order, r2, base._m))


def _combine_cumulants(a, b, cumulants, op, moments):
    """moments(op(cumulants(a), cumulants(b))) word by word, at one order,
    for the raw kernels ``cumulants`` and ``moments``."""
    d, order = a.d, min(a.order, b.order)
    return NCFunctional._filled(d, order, _graded_words(
        lambda d, order, x, y: moments(d, order, _merge(
            cumulants(d, order, x), cumulants(d, order, y), op)),
        d, order, a.truncate(order)._m, b.truncate(order)._m))


def _power(a, t, cumulants, moments):
    """moments(t cumulants(a)) word by word, for the raw kernels
    ``cumulants`` and ``moments``."""
    return NCFunctional._filled(a.d, a.order, _graded_words(
        lambda d, order, times_t, m: moments(
            d, order, times_t(cumulants(d, order, m))),
        a.d, a.order, a._m, t=as_coeff(t)))


def nc_free_convolve(a, b):
    return _combine_cumulants(a, b, _r, _plus, _moments_from_r)


def nc_free_power(a, t):
    return _power(a, t, _r, _moments_from_r)


def nc_free_deconvolve(a, b):
    return _combine_cumulants(a, b, _r, _minus, _moments_from_r)


def nc_boolean_convolve(a, b):
    return _combine_cumulants(a, b, _eta, _plus, _moments_from_eta)


def nc_boolean_power(a, t):
    return _power(a, t, _eta, _moments_from_eta)


def nc_phi(nu):
    """eta^{Phi[nu]} = sum_i z_i (1 + M^nu) z_i; output order nu.order + 2."""
    d, order = nu.d, nu.order + 2
    eta = {}
    for i in range(1, d + 1):
        eta[(i, i)] = ONE
        for w, c in nu.items():
            eta[(i,) + w + (i,)] = c
    return nc_moments_from_eta(eta, d, order)


def nc_bp(mu):
    """R^{B[mu]} = eta^mu."""
    return NCFunctional._filled(mu.d, mu.order, _graded_words(
        lambda d, order, m: _moments_from_r(d, order, _eta(d, order, m)),
        mu.d, mu.order, mu._m))


def nc_bp_inverse(mu):
    return NCFunctional._filled(mu.d, mu.order, _graded_words(
        lambda d, order, m: _moments_from_eta(d, order, _r(d, order, m)),
        mu.d, mu.order, mu._m))


def nc_subordination(mu, nu):
    """R^{mu |> nu} (1+M^nu) = R^mu(z_i(1+M^nu)), solved triangularly."""
    d, order = mu.d, min(mu.order, nu.order)
    return NCFunctional._filled(d, order, _graded_words(
        lambda d, order, a, m: _moments_from_r(d, order, _substitute_divide(
            d, order, _r(d, order, a), m)),
        d, order, mu.truncate(order)._m, nu.truncate(order)._m))


def _composition_product(lam, nu):
    """(1 + M^lam)(1 + M^nu(z_i(1+M^lam))) - 1, as a word functional."""
    d, order = lam.d, min(lam.order, nu.order)
    return NCFunctional._filled(d, order, _graded_words(
        _composition, d, order, lam.truncate(order)._m, nu.truncate(order)._m))


def nc_subordination_inverse(lam, nu):
    """The unique mu with mu |> nu = lam, via the composition identity

    1 + M^{mu boxplus nu} = (1 + M^lam)(1 + M^nu(z_i(1+M^lam))),

    and the free deconvolution of mu boxplus nu by nu.
    """
    d, order = lam.d, min(lam.order, nu.order)
    return NCFunctional._filled(d, order, _graded_words(
        lambda d, order, x, m: _moments_from_r(d, order, _merge(
            _r(d, order, _composition(d, order, x, m)), _r(d, order, m),
            _minus)),
        d, order, lam.truncate(order)._m, nu.truncate(order)._m))
