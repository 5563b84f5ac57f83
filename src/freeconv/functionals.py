"""Moment-truncated unital linear functionals and Jacobi parameters.

A :class:`MomentFunctional` is the sequence m_1..m_N of a unital linear
functional on polynomials (m_0 = 1 implicit); positivity is never assumed.
:class:`JacobiParams` holds the rows (beta_0..; gamma_0..) of the continued
fraction of the Cauchy transform, with optional early termination
(gamma_k = 0) and an optional repeating tail for the eventually-constant
families.  Rows and moments convert both ways with none of the triangular
solves, which all live in ``transforms``: ``moments_from_jacobi`` by
weighted Motzkin paths, ``jacobi_from_moments`` by the Chebyshev
algorithm, so that the Jacobi-shift cross-checks (``catalog._CrossChecks``)
share no solve with the path they check.  Over Q ``jacobi_from_moments``
runs on ints, on moments graded by ``coeffs._grade``, as
``moments_from_jacobi`` does on rows with a repeating tail.  The named
families are Jacobi rows expanded to moments, but for ``point_mass``,
whose one path of each length is all flat steps: its moments are the
powers of beta, and it carries its Boolean cumulants eta = beta w.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .coeffs import ZERO, ONE, TPoly, _grade, _scaled, as_coeff, exact_div
from .series import _series


class JacobiDepthError(ValueError):
    """Not enough Jacobi levels (or moment order) for the request."""


class NoJacobiRepresentationError(ArithmeticError):
    """gamma_j = 0 mid-sequence but deeper moments are inconsistent."""


class ZeroVarianceError(ArithmeticError):
    """Operation requires nonzero variance."""


class ConsistencyError(RuntimeError):
    """Two independent computation paths disagreed (convention bug trap)."""


class MomentFunctional:
    """The moments m_1..m_order of a unital functional.

    A functional built from a transform keeps it as ``_from``, which records
    how this object was made, not what it equals:

    - ("R", R, s), the R-transform s R, set by ``transforms.moments_from_r``
      and ``moments_from_scaled_r``;
    - ("eta", eta), the Boolean cumulants, set by
      ``transforms.moments_from_eta`` and by ``point_mass`` (eta = beta w);
    - None, for a functional built from moments: a family other than
      ``point_mass``, a decoded document, any caller's list.

    The series is known through z^order at least, and ``truncate`` keeps
    it.  ``transforms.r_from_moments`` hands back a carried R and
    ``eta_from_moments`` a carried eta, through z^order and in the ring of
    the operation rule, ``_poly`` (all ``TPoly`` when True), set when the
    functional was built, instead of solving for it.  No other read uses
    it: ``evolution.strip`` and the Jacobi reads solve from the moments, so
    the cross-checks built on them reach the moments by a route of their
    own.  ``==``, ``hash`` and documents ignore it.

    Moments are built on first read.  The three builders from a transform
    (``_deferred``) leave their forward solve or expansion, which divides
    by nothing, to the first read of the moments: ``moments``, ``m``,
    ``mean_var``, ``==``, ``hash``, ``repr``, a document, a Jacobi read or
    ``strip``.  It runs once per object and fills the slot ``_m``; only
    while that slot is empty does reading it run ``__getattr__``, so a read
    of moments that exist costs no call.  ``truncate`` takes its slice of
    the parent's moments on its own first read, so a truncation of an
    unread functional stays unread.  This is not a cache across calls:
    each object builds and holds its own moments, and an equal functional
    built again builds them again.

    Moments enter by one rule.  The constructor admits values from outside
    the library and checks each by ``as_coeff``, an int made a ``Fraction``
    and any other non-coefficient refused.  Moments the library made, each
    a ``Fraction`` or a ``TPoly`` already (a solve, an expansion, a Jacobi
    expansion, a strip), enter as they are, through ``_made`` or
    ``_deferred``, and are never checked again.
    """

    __slots__ = ("order", "_m", "_build", "_from", "_poly")

    def __init__(self, order, moments):
        if order < 1:
            raise ValueError("order must be >= 1")
        ms = [as_coeff(m) for m in moments]
        if len(ms) > order:
            ms = ms[:order]
        ms += [ZERO] * (order - len(ms))
        self.order = order
        self._m = tuple(ms)
        self._from = self._poly = None

    @classmethod
    def _made(cls, order, moments):
        """The functional of moments m_1..m_order that the library made,
        each a ``Fraction`` or a ``TPoly`` already, cut and padded as the
        constructor does but not checked again: the one entry of a solve's,
        an expansion's or a Jacobi expansion's moments."""
        if order < 1:
            raise ValueError("order must be >= 1")
        ms = tuple(moments[:order])
        mf = cls.__new__(cls)
        mf.order, mf._from, mf._poly = order, None, None
        mf._m = ms + (ZERO,) * (order - len(ms))
        return mf

    @classmethod
    def _deferred(cls, order, build, source, poly):
        """The functional of the given order that carries the transform
        ``source`` (see ``_from``), whose moments m_1..m_order are build(),
        run on their first read; ``poly`` says whether they are all
        ``TPoly``, which the carried reads take as their ring."""
        if order < 1:
            raise ValueError("order must be >= 1")
        mf = cls.__new__(cls)
        mf.order, mf._build, mf._from, mf._poly = order, build, source, poly
        return mf

    def __getattr__(self, name):
        # runs only for a slot not yet filled: _m before the first read
        if name != "_m":
            raise AttributeError(name)
        self._m = m = tuple(self._build())
        self._build = None
        return m

    def m(self, k):
        """The k-th moment; m(0) = 1."""
        if k == 0:
            return ONE
        if 1 <= k <= self.order:
            return self._m[k - 1]
        raise IndexError(f"moment m_{k} beyond order {self.order}")

    def moments(self):
        return self._m

    def truncate(self, order):
        if order >= self.order:
            return self
        return MomentFunctional._deferred(
            order, lambda: self._m[:order], self._from, self._poly)

    def mean_var(self):
        if self.order < 2:
            raise ValueError("need order >= 2 for mean and variance")
        return self._m[0], self._m[1] - self._m[0] * self._m[0]

    def agrees_with(self, other, order=None):
        """Exact coefficientwise equality through the given (or min) order."""
        n = min(self.order, other.order)
        if order is not None:
            if order > n:
                raise ValueError(f"cannot compare to order {order}: have {n}")
            n = order
        return self._m[:n] == other._m[:n]

    def __eq__(self, other):
        if not isinstance(other, MomentFunctional):
            return NotImplemented
        return self.agrees_with(other)

    def __hash__(self):
        # == compares through the shorter order: equal values share only m_1
        return hash(self._m[0])

    def __repr__(self):
        return f"<MomentFunctional order={self.order}: {list(self._m)}>"


class TwoStatePair:
    """A pair (tilde, base) sharing one truncation order."""

    __slots__ = ("tilde", "base")

    def __init__(self, tilde, base):
        n = min(tilde.order, base.order)
        self.tilde = tilde.truncate(n)
        self.base = base.truncate(n)

    @property
    def order(self):
        return self.tilde.order

    def __eq__(self, other):
        if not isinstance(other, TwoStatePair):
            return NotImplemented
        return self.tilde == other.tilde and self.base == other.base

    def __repr__(self):
        return f"<TwoStatePair tilde={self.tilde!r} base={self.base!r}>"


class CanonicalTriple:
    """(beta, gamma, rho); rho is absent exactly when gamma = 0."""

    __slots__ = ("beta", "gamma", "rho")

    def __init__(self, beta, gamma, rho=None):
        self.beta = as_coeff(beta)
        self.gamma = as_coeff(gamma)
        if not self.gamma:
            if rho is not None:
                raise ValueError("rho must be absent when gamma = 0")
            self.rho = None
        else:
            if rho is None:
                raise ValueError("rho required when gamma != 0")
            self.rho = rho

    def __repr__(self):
        return f"<CanonicalTriple beta={self.beta} gamma={self.gamma} rho={self.rho!r}>"


class JacobiParams:
    __slots__ = ("betas", "gammas", "terminated", "repeat")

    def __init__(self, betas, gammas, terminated=False, repeat=None):
        betas = tuple(as_coeff(b) for b in betas)
        gammas = tuple(as_coeff(g) for g in gammas)
        if len(betas) != len(gammas):
            raise ValueError("beta and gamma rows must have equal length")
        if terminated:
            if repeat is not None:
                raise ValueError("terminated parameters take no repeating tail")
            if not gammas or gammas[-1]:
                raise ValueError("termination requires a final gamma = 0")
        if repeat is not None:
            repeat = (as_coeff(repeat[0]), as_coeff(repeat[1]))
        self.betas = betas
        self.gammas = gammas
        self.terminated = terminated
        self.repeat = repeat

    @classmethod
    def _made(cls, betas, gammas, terminated=False, repeat=None):
        """The rows that the library made, as ``JacobiParams(betas, gammas,
        terminated, repeat)`` would hold them, each value a ``Fraction`` or
        a ``TPoly`` already: not checked again."""
        j = cls.__new__(cls)
        j.betas, j.gammas = tuple(betas), tuple(gammas)
        j.terminated, j.repeat = terminated, repeat
        return j

    def depth(self):
        return len(self.betas)

    def level(self, j):
        """(beta_j, gamma_j), extending by the repeating tail if present."""
        if j < len(self.betas):
            return self.betas[j], self.gammas[j]
        if self.repeat is not None:
            return self.repeat
        if self.terminated:
            raise JacobiDepthError(
                f"continued fraction terminates at level {len(self.betas) - 1}")
        raise JacobiDepthError(f"Jacobi level {j} not available")

    def levels(self, n):
        return [self.level(j) for j in range(n)]

    def _ended(self):
        """(betas, gammas) through the first zero gamma, in the rows or the
        repeating tail, or None: no path steps down past a zero gamma, so
        the rows end there, as terminated rows do."""
        for j, g in enumerate(self.gammas):
            if not g:
                return self.betas[:j + 1], self.gammas[:j + 1]
        if self.repeat is not None and not self.repeat[1]:
            return self.betas + self.repeat[:1], self.gammas + self.repeat[1:]
        return None

    def __eq__(self, other):
        if not isinstance(other, JacobiParams):
            return NotImplemented
        ends = self._ended(), other._ended()
        if ends != (None, None):
            return ends[0] == ends[1]
        n = max(self.depth(), other.depth())
        try:
            return self.levels(n) == other.levels(n)
        except JacobiDepthError:
            return (self.betas == other.betas and self.gammas == other.gammas
                    and self.repeat == other.repeat)

    def __repr__(self):
        tail = ""
        if self.repeat is not None:
            tail = f" repeat=({self.repeat[0]}, {self.repeat[1]})"
        if self.terminated:
            tail = " terminated"
        return (f"<JacobiParams betas={list(self.betas)} "
                f"gammas={list(self.gammas)}{tail}>")


def moments_from_jacobi(j, order):
    """Expand the continued fraction to exact moments m_1..m_order.

    Computed as weighted Motzkin paths (equivalently <e_0, J^n e_0> for the
    tridiagonal matrix): up-steps weight 1, flat at level i weight beta_i,
    down onto level i weight gamma_i.  Division-free, so it works verbatim
    over Q[t]; every moment is a ``TPoly`` when one of the rows it reads is.

    Rows over Q with a repeating tail, as every named family has, run on
    ints: with D the lcm of the row denominators, flat steps weigh beta_i D
    and down steps gamma_i D^2, so a path of length n carries D^n and m_n is
    v_0 / D^n.  Such rows repeat one pair, so D stays small at any depth.
    Other rows stay on ``Fraction``: read off a functional, they have a new
    denominator at nearly every level, and an lcm over them grows with depth.
    """
    levels_needed = (order + 1) // 2
    if j.terminated:
        levels_needed = min(levels_needed, j.depth())
    rows = j.levels(levels_needed) if levels_needed else []
    betas = [r[0] for r in rows]
    gammas = [r[1] for r in rows]
    size = levels_needed + 1
    poly = TPoly in map(type, betas + gammas)
    zero, one = (TPoly(()), TPoly((1,))) if poly else (ZERO, ONE)
    v, d = [one] + [zero] * levels_needed, None
    if j.repeat is not None and all(
            type(c) is Fraction for c in betas + gammas):
        ratios = [c.as_integer_ratio() for c in betas + gammas]
        d = lcm(*[q for _, q in ratios])
        betas = [n * (d // q) for n, q in ratios[:len(betas)]]
        gammas = [n * (d // q) * d for n, q in ratios[len(betas):]]
        v, zero = [1] + [0] * levels_needed, 0
    out = []
    for _ in range(order):
        nv = [zero] * size
        for i in range(size):
            c = v[i]
            if not c:
                continue
            if i < levels_needed:
                nv[i + 1] = nv[i + 1] + c  # up-step out of level i
            if i < len(betas):
                nv[i] = nv[i] + c * betas[i]  # flat step
            if i > 0:
                nv[i - 1] = nv[i - 1] + c * gammas[i - 1]  # down-step
        v = nv
        out.append(v[0])
    if d is not None:
        out = [Fraction(x, d ** n) for n, x in enumerate(out, 1)]
    return MomentFunctional._made(order, out)


def jacobi_from_moments(mf, levels):
    """The rows (beta_j, gamma_j), j < levels, from m_1..m_{2 levels} by the
    Chebyshev algorithm (W. Gautschi, *Orthogonal Polynomials*, 2004,
    Sec. 2.1.7), from sigma_{0,l} = m_l:

        sigma_{k+1,l} = sigma_{k,l+1} - beta_k sigma_{k,l} - gamma_{k-1} sigma_{k-1,l},
        beta_k = sigma_{k,k+1}/sigma_{k,k} - sigma_{k-1,k}/sigma_{k-1,k-1},
        gamma_k = sigma_{k+1,k+1}/sigma_{k,k},

    with none of the solve kernels.  Over Q (m_1..m_{2 levels} all
    ``Fraction``) the recurrence runs on ints (``_jacobi_on_ints``) and
    every output is a ``Fraction``.  Otherwise it runs by ring operations
    and exact divisions, and the sigma table grows level by level: level k
    extends each row j <= k by the entries sigma_{k+1,k+1} and
    sigma_{k+1,k+2} need, to l <= 2k+3-j, so a division that fails at level
    k (rows that leave Q[t]) has cost O(k^2) ring operations, not O(k n).
    beta_j is a ``TPoly`` exactly when one of m_1..m_{2j+1} is, gamma_j when
    one of m_1..m_{2j+2} is.  Requires order >= 2*levels.  A gamma_j = 0 ends
    the rows (``terminated=True``) if the closed fraction gives every moment
    through the order, and raises NoJacobiRepresentationError if not.
    """
    if levels < 0:
        raise ValueError(f"levels must be >= 0, got {levels}")
    if mf.order < 2 * levels:
        raise JacobiDepthError(
            f"order {mf.order} supports at most {mf.order // 2} levels")
    n = 2 * levels
    ms = mf.moments()[:n]
    if all(type(c) is Fraction for c in ms):
        return _jacobi_on_ints(mf, ms, levels)
    betas, gammas = [], []
    # rows[j] holds sigma_{j,l} at index l (none is read below l = j);
    # ratio is sigma_{k-1,k}/sigma_{k-1,k-1}, 0 at k = 0
    rows = [(ONE,) + ms]
    ratio = ZERO
    for k in range(levels):
        cur = rows[k]
        r = exact_div(cur[k + 1], cur[k])
        b = r - ratio
        betas.append(b)
        # rows 1..k+1 to l <= min(2k + 3 - j, n - j); row 1 has no
        # gamma_{-1} term
        rows.append([ZERO] * (k + 1))
        for j in range(1, k + 2):
            row, up, bj = rows[j], rows[j - 1], betas[j - 1]
            top = min(2 * k + 4 - j, n - j + 1)
            if j == 1:
                for l in range(len(row), top):
                    row.append(up[l + 1] - bj * up[l])
            else:
                down, gj = rows[j - 2], gammas[j - 2]
                for l in range(len(row), top):
                    row.append(up[l + 1] - bj * up[l] - gj * down[l])
        g = exact_div(rows[k + 1][k + 1], cur[k])
        gammas.append(g)
        if not g:
            return _terminated(mf, betas, gammas)
        ratio = r
    return JacobiParams._made(betas, gammas)


def _jacobi_on_ints(mf, ms, levels):
    """``jacobi_from_moments`` for moments ms = m_1..m_{2 levels}, all
    ``Fraction``: the Chebyshev algorithm on the graded moments m_l D^l
    (D from ``_grade``), the moments of x -> D x, whose rows are
    (D beta_k; D^2 gamma_k).

    Each sigma row k is held as a primitive int row S_k = c_k sigma_k, an
    unknown nonzero scale c_k with the gcd of the entries divided out.  With
    a = S_{k,k}, b = S_{k,k+1}, a' = S_{k-1,k-1}, b' = S_{k-1,k} (row -1 is
    zero, with a' = 1) the recurrence times c_k a a' is

        N_l = a a' S_{k,l+1} - (b a' - b' a) S_{k,l} - a^2 S_{k-1,l},

    and S_{k+1} = N / gcd(N), while beta_k = (b a' - b' a) / (a a' D) and
    gamma_k = N_{k+1} / (a^2 a' D^2) are the only ``Fraction``s built.  No
    pivot a is 0: a zero gamma ends the rows first.  Each H_k sigma_{k,l},
    H_k the k-th Hankel determinant of the graded moments, is an int, so
    no entry of S_k is larger; a row not divided by its content keeps a
    common factor that grows with every level.
    """
    row = (ONE,) + ms
    d, (parts,) = _grade(enumerate(row))
    # cur[i] = S_{k,k+i} for k + i <= 2 levels - k, prev[i] = S_{k-1,k-1+i}
    cur, prev = _scaled(parts, d), [0] * (len(row) + 2)
    a1, b1, dd = 1, 0, d * d
    betas, gammas = [], []
    for k in range(levels):
        a, b = cur[0], cur[1]
        u, v, w = b * a1 - b1 * a, a * a1, a * a
        betas.append(Fraction(u, v * d))
        nxt = [v * x - u * y - w * z
               for x, y, z in zip(cur[2:], cur[1:], prev[2:])]
        gammas.append(Fraction(nxt[0], w * a1 * dd))
        if not nxt[0]:
            return _terminated(mf, betas, gammas)
        c = gcd(*nxt)
        if c != 1:
            nxt = [x // c for x in nxt]
        prev, cur, a1, b1 = cur, nxt, a, b
    return JacobiParams._made(betas, gammas)


def _terminated(mf, betas, gammas):
    """The closed rows (betas; gammas), gamma = 0 last, if they give every
    moment of mf, or NoJacobiRepresentationError."""
    candidate = JacobiParams._made(betas, gammas, terminated=True)
    if moments_from_jacobi(candidate, mf.order) == mf:
        return candidate
    raise NoJacobiRepresentationError(
        "gamma = 0 but deeper moments are inconsistent with termination")


# -- named families -----------------------------------------------------------


def free_meixner(b, c, beta, gamma, order):
    """Jacobi rows (beta, b+beta, b+beta, ...; gamma, c+gamma, c+gamma, ...)."""
    b, c = as_coeff(b), as_coeff(c)
    beta, gamma = as_coeff(beta), as_coeff(gamma)
    j = JacobiParams._made((beta,), (gamma,), repeat=(b + beta, c + gamma))
    return moments_from_jacobi(j, order)


def semicircular(beta, gamma, order):
    return free_meixner(0, 0, beta, gamma, order)


def point_mass(beta, order):
    """The rows (beta; 0), terminated: the one Motzkin path of length n is n
    flat steps, so m_n = beta^n.  It carries its eta = beta w."""
    beta = as_coeff(beta)
    out, m = [], ONE
    for _ in range(order):
        m = m * beta
        out.append(m)
    mf = MomentFunctional._made(order, out)
    mf._from = ("eta", _series(order, (ZERO, beta)))
    mf._poly = type(beta) is TPoly
    return mf


def bernoulli_sym(order):
    """Two atoms at +-1 with weight 1/2 each."""
    return free_meixner(0, -1, 0, 1, order)


def arcsine(gamma, order):
    return free_meixner(0, -as_coeff(gamma), 0, 2 * as_coeff(gamma), order)


def free_poisson(b, beta, gamma, order):
    return free_meixner(b, 0, beta, gamma, order)


FAMILIES = {
    "free_meixner": (free_meixner, ("b", "c", "beta", "gamma")),
    "semicircular": (semicircular, ("beta", "gamma")),
    "point_mass": (point_mass, ("beta",)),
    "bernoulli_sym": (bernoulli_sym, ()),
    "arcsine": (arcsine, ("gamma",)),
    "free_poisson": (free_poisson, ("b", "beta", "gamma")),
}


def family(name, params, order):
    """Construct a named distribution family from a parameter mapping."""
    try:
        fn, argnames = FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}") from None
    missing = [a for a in argnames if a not in params]
    if missing:
        raise ValueError(f"family {name!r} needs parameters {missing}")
    extra = [k for k in params if k not in argnames]
    if extra:
        raise ValueError(f"family {name!r} got unknown parameters {extra}")
    args = [params[a] for a in argnames]
    return fn(*args, order)
