"""Moment-truncated unital linear functionals and Jacobi parameters.

A :class:`MomentFunctional` is the sequence m_1..m_N of a unital linear
functional on polynomials (m_0 = 1 implicit); positivity is never assumed.
:class:`JacobiParams` holds the rows (beta_0..; gamma_0..) of the continued
fraction of the Cauchy transform, with optional early termination
(gamma_k = 0) and an optional repeating tail for the eventually-constant
families.  The private triangular-solve kernels of ``transforms`` live here
too, so that coefficient stripping shares them.  With W = z(1+M), the power
table p[k][j] = [z^j](1+M)^k gives [z^n] W^k = p[k][n-k], and [z^k] W^k = 1
makes every solve through W triangular.  Each is one _fill rule (k, out, s)
beside its word-layer twin in ``multivariate``, a _fill_words rule
(w, out, s); both drivers own the table of their substitution (a, m):

    r_from_moments, moments_from_r      nc_r, nc_moments_from_r
    _eta                                nc_eta
    moments_from_eta                    nc_moments_from_eta
    two_state_r                         nc_two_state_r
    tilde_from_two_state_r              nc_tilde_from_two_state_r
    evolution.subordination             nc_subordination
    convolutions.monotone_convolve      _composition_product

Each solve is one ``_graded(solve, *seqs)`` call, the one place that grades
a single-variable solve over Q (``multivariate._graded_words`` is the word
layer's).  It picks an integer D with c_k D^k integral for every input
coefficient c_k and runs the solve on the inputs scaled so, which is the same
solve for the series at Dz.  There W = z(1+M) still has [z^k] W^k = 1, so
every unknown is an integer combination of integers and the unchanged kernels
keep the whole recursion in Z; output k comes back as the reduced Fraction
x_k / D^k.  Inputs over Q[t], or mixing the rings, take the same kernels on
their coefficients as they are.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .coeffs import ZERO, ONE, _dot, as_coeff, exact_div


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

    A functional built from an R-transform, by ``transforms.moments_from_r``
    or ``moments_from_scaled_r``, keeps it as ``_r``, a pair (R, s) that
    stands for the series s R through z^order; ``transforms.r_from_moments``
    hands it back, in the ring its solve would give, instead of solving for
    it.  It records how this object was made, not what it equals: ``==`` and
    ``hash`` ignore it, ``truncate`` truncates it, and a functional built from
    moments (a family, a decoded document, any caller's list) has none, so it
    is no cache across calls.
    """

    __slots__ = ("order", "_m", "_r")

    def __init__(self, order, moments):
        if order < 1:
            raise ValueError("order must be >= 1")
        ms = [as_coeff(m) for m in moments]
        if len(ms) > order:
            ms = ms[:order]
        ms += [ZERO] * (order - len(ms))
        self.order = order
        self._m = tuple(ms)
        self._r = None

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
        out = MomentFunctional(order, self._m[:order])
        if self._r is not None:
            r, s = self._r
            out._r = (r.truncate(order), s)
        return out

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
        return all(self.m(k) == other.m(k) for k in range(1, n + 1))

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

    def __eq__(self, other):
        if not isinstance(other, JacobiParams):
            return NotImplemented
        if self.terminated != other.terminated:
            return False
        if self.terminated:
            return self.betas == other.betas and self.gammas == other.gammas
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
    over Q[t].

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
    v = [ONE] + [ZERO] * (levels_needed)
    zero, d = ZERO, None
    if j.repeat is not None and all(
            type(c) is Fraction for c in betas + gammas):
        d = lcm(*[c.denominator for c in betas + gammas])
        betas = [b.numerator * (d // b.denominator) for b in betas]
        gammas = [g.numerator * (d // g.denominator) * d for g in gammas]
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
    return MomentFunctional(order, out)


def _strip_once(mf, beta, gamma):
    """Moments of the once-stripped functional, via (eta - beta*w)/(gamma*w^2).

    The eta coefficients come from the division-free ``_eta`` solve; only
    the final division by gamma must be exact (it always is over Q; over
    Q[t] it validates that the functional really strips within the
    polynomial ring).
    """
    n = mf.order
    eta = _eta(mf)
    # eta_1 = m_1 = beta cancels; eta_2 / gamma = 1 restores unitality
    out = [exact_div(eta[k], gamma) for k in range(2, n + 1)]
    if not (out[0] == 1):
        raise ConsistencyError("stripped series must be unital")
    return MomentFunctional(n - 2, out[1:])


def jacobi_from_moments(mf, levels):
    """The rows (beta_j, gamma_j), j < levels, from m_1..m_{2 levels} by the
    Chebyshev algorithm (W. Gautschi, *Orthogonal Polynomials*, 2004,
    Sec. 2.1.7), from sigma_{0,l} = m_l:

        sigma_{k+1,l} = sigma_{k,l+1} - beta_k sigma_{k,l} - gamma_{k-1} sigma_{k-1,l},
        beta_k = sigma_{k,k+1}/sigma_{k,k} - sigma_{k-1,k}/sigma_{k-1,k-1},
        gamma_k = sigma_{k+1,k+1}/sigma_{k,k},

    by ring operations and exact divisions, with none of the solve kernels.
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
    betas, gammas, n = [], [], 2 * levels
    # sigma_{k-1,l} and sigma_{k,l} at index l (none is read below l = k),
    # sigma_{k-1,k}/sigma_{k-1,k-1} and gamma_{k-1}, all 0 at k = 0
    prev, cur = [ZERO] * (n + 1), (ONE,) + mf.moments()[:n]
    ratio = g = ZERO
    for k in range(levels):
        r = exact_div(cur[k + 1], cur[k])
        b = r - ratio
        nxt = [ZERO] * (k + 1) + [cur[l + 1] - b * cur[l] - g * prev[l]
                                  for l in range(k + 1, n - k)]
        g = exact_div(nxt[k + 1], cur[k])
        betas.append(b)
        gammas.append(g)
        if not g:
            candidate = JacobiParams(betas, gammas, terminated=True)
            if moments_from_jacobi(candidate, mf.order) == mf:
                return candidate
            raise NoJacobiRepresentationError(
                "gamma = 0 but deeper moments are inconsistent with termination")
        prev, cur, ratio = cur, nxt, r
    return JacobiParams(betas, gammas)


# -- triangular-solve kernels (coefficient lists indexed by degree) -------------
#
# The kernels run unchanged on Fraction, TPoly or plain int coefficients: each
# power-table row starts from the int 1, which only multiplies nonzero
# coefficients.  An int operand in hand marks the graded integer path, which
# folds each sum term by term, skipping zero terms.  Any other sum goes to
# ``coeffs._dot`` as whole slices, and its ring follows the operands it reads,
# not which of them vanish (see ``_dot``).


def _moment_table(mf):
    """[1, m_1, ..., m_N]: the coefficients of 1 + M."""
    return [ONE] + list(mf.moments())


def _grade(*groups):
    """The one D of a set of inputs, each a group of pairs (k, c_k): grown
    from 1 so that q divides D^k for every (k, a/q), D <- D q / gcd(q, D^k),
    in their order.  None when some coefficient is not a ``Fraction``, or
    one with k = 0 is not an integer.  Every graded integer path of the
    single- and multi-variate solves takes D from here."""
    d = 1
    for k, c in chain.from_iterable(groups):
        if type(c) is not Fraction:
            return None
        q = c.denominator
        if q != 1:
            if not k:
                return None
            dk = d ** k
            if dk % q:
                d *= q // gcd(q, dk)
    return d


def _scaled(cs, d):
    """The ints c_k D^k, for Fractions c_k that D^k clears (see ``_grade``)."""
    row, dk = [], 1
    for c in cs:
        row.append(c.numerator * (dk // c.denominator))
        dk *= d
    return row


def _graded(solve, *seqs):
    """solve(*seqs), run over Q on graded integers.

    When every coefficient is a ``Fraction`` and every constant term an
    integer, D comes from ``_grade`` over the coefficients c_k = a/q in
    degree order, so that q divides D^k, and ``solve`` gets each sequence
    with its k-th entry the int c_k D^k.  Under z -> Dz every solve is a
    weight-homogeneous recursion with integer coefficients and
    [z^k] W^k = 1, so the kernels keep the entries integral, and output k
    comes back as the reduced Fraction x_k / D^k.  Otherwise ``solve``
    gets the sequences as they are, for the generic path, and its output
    is returned unchanged.
    """
    d = _grade(*map(enumerate, seqs))
    if d is None:
        return solve(*seqs)
    out, dk = [], 1
    for x in solve(*[_scaled(cs, d) for cs in seqs]):
        out.append(Fraction(x, dk))
        dk *= d
    return out


def _add_diagonal(p, m):
    """Extend the power table p by its anti-diagonal k + j = s, s = len(p).

    Reads only m[1:s], so a forward solve can find m[s] after each call.
    Row 0 stays [1]: no solve reads past it.
    """
    s = len(p)
    if s > 1:
        p[1].append(m[s - 1])  # row 1 is 1 + M itself
    if type(m[s - 1]) is int:
        for k in range(2, s):
            prev = p[k - 1]
            j = s - k
            c = prev[j]
            for i in range(1, j + 1):
                if m[i]:
                    c = c + m[i] * prev[j - i]
            p[k].append(c)
    else:
        for k in range(2, s):
            prev = p[k - 1]
            j = s - k
            p[k].append(_dot(prev[j], m[1:j + 1], prev[j - 1::-1]))
    p.append([1])


def _substitute_at(a, p, n):
    """[z^n] A(W) for n >= 1, from a[j] = [z^j] A and the power table p."""
    if type(p[1][-1]) is int:
        s = None
        for k in range(1, n + 1):
            if a[k]:
                t = a[k] * p[k][n - k]
                s = t if s is None else s + t
        return 0 if s is None else s
    return _dot(None, a[1:n + 1], [p[k][n - k] for k in range(1, n + 1)])


def _split_sum(left, right, n):
    """The sum of left[j] * right[n-j] over 0 < j < n."""
    if n < 2:
        return 0
    if type(left[1]) is int and type(right[1]) is int:
        s = left[1] * right[n - 1]
        for j in range(2, n):
            s = s + left[j] * right[n - j]
        return s
    return _dot(None, left[1:n], right[n - 1:0:-1])


def _eta(mf):
    """[0, eta_1, ..., eta_N] by eta_n = m_n - sum_{0<j<n} eta_j m_{n-j}: the
    one eta solve, behind ``_strip_once`` and ``eta_from_moments``."""
    return _graded(lambda m: _fill(
        mf.order, lambda k, eta, _: m[k] - _split_sum(eta, m, k)),
        _moment_table(mf))


def _fill(n, coeff, subst=None):
    """[0, c_1, ..., c_n] with c_k = coeff(k, out, s), filled by degree; out[k]
    reads as zero until coeff returns, so a solve's own unknown drops out.
    Without ``subst``, s = 0.  With ``subst`` = (a, m), s = [z^k] A(W) for the
    lists a of A and m of 1 + M, W = z(1+M), read from a power table grown by
    one anti-diagonal per k; None in place of a or m stands for ``out``."""
    out = [0] * (n + 1)
    if subst is None:
        for k in range(1, n + 1):
            out[k] = coeff(k, out, 0)
        return out
    a, m = (out if f is None else f for f in subst)
    p = [[1]]
    for k in range(1, n + 1):
        _add_diagonal(p, m)
        out[k] = coeff(k, out, _substitute_at(a, p, k))
    return out


# -- named families -----------------------------------------------------------


def free_meixner(b, c, beta, gamma, order):
    """Jacobi rows (beta, b+beta, b+beta, ...; gamma, c+gamma, c+gamma, ...)."""
    b, c = as_coeff(b), as_coeff(c)
    beta, gamma = as_coeff(beta), as_coeff(gamma)
    j = JacobiParams((beta,), (gamma,), repeat=(b + beta, c + gamma))
    return moments_from_jacobi(j, order)


def semicircular(beta, gamma, order):
    return free_meixner(0, 0, beta, gamma, order)


def point_mass(beta, order):
    j = JacobiParams((as_coeff(beta),), (ZERO,), terminated=True)
    return moments_from_jacobi(j, order)


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
