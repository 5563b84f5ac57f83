"""Word-indexed series over d non-commuting variables.

Functionals are maps from words over {1..d} (length <= N) to coefficients,
with the empty word at 1.  The transform equations are the same as in one
variable, with W_i = z_i(1+M), and every site is one rule (w, out, s) over
sparse word dicts (a missing word is zero), the shape of functionals._fill's
(k, out, s): _fill_words fills a word dict in length order, handing the rule
s = [x_w] A(W_1, ..., W_d) for the substitution (a, m) it is given, None
standing for ``out``; _split_sum(left, right, w), the sum over w = uv of
left[u] right[v], multiplies or divides by (1+M).

    R(W) = M                      nc_r (solve), nc_moments_from_r (forward)
    eta = M (1+M)^{-1}            nc_eta (divide), nc_moments_from_eta
    eta~ = R2(W) (1+M)^{-1}       nc_two_state_r (solve against eta~ (1+M)),
                                  nc_tilde_from_two_state_r (substitute,
                                  then divide)
    R^{mu|>nu} = R^mu(W) (1+M)^{-1}, M = M^nu
                                  nc_subordination (substitute, then divide)
    1 + M^{mu boxplus nu} = (1 + M^lam)(1 + M^nu(W)), M = M^lam
                                  _composition_product (substitute, then
                                  multiply)

A solve stores a[w] only after solving for it, so the substitution skips the
term that carries a[w].  Substituting z_i -> z_i(1+M) places (1+M) to the
right of each letter, following the displayed order of the defining
equations.  _fill_words extracts the coefficient by a recursion over the
prefixes of the letters of A that a word's letters carry, one state table
per fill; _apply_w_substitution reads [x_w] A(W) from it, once per word.
Every site runs its fills inside _graded_words, the one place that grades
a word solve: over Q the fills run on ints graded by word length (the rule of
functionals._graded), and Q[t] or mixed inputs take the same kernels on
their coefficients as they are.

Everything reduces bit-for-bit to the single-variable modules at d = 1; the
test suite asserts this.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction

from .coeffs import ZERO, ONE, as_coeff, formal_t
from .convolutions import free_convolve, free_power
from .evolution import (Coeff, VerifyReport, _BadParameter, _entry_order, _q,
                        _run_entry, check_eq, maassen_semigroup, strip,
                        subordination_inverse, two_state_semigroup)
from .functionals import (CanonicalTriple, JacobiParams, MomentFunctional,
                          _grade, free_meixner, jacobi_from_moments,
                          semicircular)

MAX_NC_ORDER = 8

# The largest alphabet a word-layer verify entry may run at: the largest d
# at which every entry runs within about 40 s at order MAX_NC_ORDER.  The
# number of words grows as d^order.  At order 8, composition takes 1.3 s at
# d = 3 and 11 s at d = 4; final-prop, the slowest entry because its formal
# t keeps its fills on Q[t] arithmetic, takes 6 s at d = 3 but 42 s and
# 270 MB at d = 4 (CPython 3.11, one core of a 2-core x86 host).  It is a
# constant, not a flag; nc_verify rejects a larger d before any entry runs.
MAX_NC_D = 3


def words(d, order):
    """All words over {1..d} of length 1..order, shortest first."""
    for n in range(1, order + 1):
        yield from itertools.product(range(1, d + 1), repeat=n)


class NCFunctional:
    """Unital functional on words; stored sparsely, empty word -> 1."""

    __slots__ = ("d", "order", "_m")

    def __init__(self, d, order, moments):
        if not 1 <= order <= MAX_NC_ORDER:
            raise ValueError(f"order must be in 1..{MAX_NC_ORDER}")
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
        for w in words(self.d, n):
            if not (self.m(w) == other.m(w)):
                return False
        return True

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
    ms = {}
    for w in words(d, order):
        prod = ONE
        for x in w:
            prod = prod * beta[x - 1]
        ms[w] = prod
    return NCFunctional(d, order, ms)


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


def _graded_words(solve, *dicts):
    """solve(*dicts), run over Q on ints graded by word length: the word-dict
    form of ``functionals._graded``.

    When every coefficient is a ``Fraction``, ``solve`` gets c_w as the int
    c_w D^|w|, with D from ``functionals._grade``.  Every word transform
    is weight-homogeneous in |w| and divides by nothing, so a fill on graded
    inputs stays in Z, and output w comes back as x_w / D^|w|.  Otherwise
    ``solve`` gets the dicts as they are and its output is returned
    unchanged.
    """
    scale = _grade(*(zip(map(len, dct), dct.values()) for dct in dicts))
    if scale is None:
        return solve(*dicts)
    out = solve(*[{w: c.numerator * (scale ** len(w) // c.denominator)
                   for w, c in dct.items()} for dct in dicts])
    return {w: Fraction(x, scale ** len(w)) for w, x in out.items()}


def _add_products(row, x, y, n_p, n_g, n_i):
    """row[(p n_g + g) n_i + i] += x[g] y[p n_i + i] for p < n_p, g < n_g and
    i < n_i.  None marks an absent entry: a product with an absent factor is
    no term, and an entry that gets no term stays None."""
    span = n_g * n_i
    for p in range(n_p):
        ys = y[p * n_i:(p + 1) * n_i]
        for g, c in enumerate(x):
            if c is not None:
                lo = p * span + g * n_i
                row[lo:lo + n_i] = [
                    s if v is None else c * v if s is None else s + c * v
                    for s, v in zip(row[lo:lo + n_i], ys)]


def _apply_w_substitution(row, rank, a, w):
    """[x_w] A(z_1(1+M), ..., z_d(1+M)) for the word w of that rank: the
    terms with a gap, row[rank] of ``_fill_words``'s state table, plus a[w]
    (0 when there is no term).  A solve for a[w] calls this before it stores
    a[w], so its own unknown drops out."""
    s, c = row[rank], a.get(w)
    if c is None:
        return 0 if s is None else s
    return c if s is None else s + c


def _split_sum(left, right, w):
    """The sum of left[u] * right[v] over the splits w = uv into nonempty words."""
    s = 0
    for k in range(1, len(w)):
        u = left.get(w[:k])
        if u is not None:
            v = right.get(w[k:])
            if v is not None:
                s = s + u * v
    return s


def _fill_words(d, order, coeff, subst=None):
    """The sparse dict {w: coeff(w, out, s)} over words of length 1..order.

    Filled in length order; ``coeff`` may read ``out`` at shorter words, and
    w itself is stored only after ``coeff`` returns.  Without ``subst``,
    s = 0.  With ``subst`` = (a, m), s = [x_w] A(W) for the word dicts a of A
    and m of M, W_i = z_i(1+M); None in place of a or m stands for ``out``.

    The substitution runs by a recursion over prefixes.  With
    T(v, x) = [x_x] sum over u != () of a_{vu} W_u, so that s = T((), w),
    the first letter c of x = c.y is the first letter of u, and the moment
    after it is the part g of y = g.r before the next letter of u:

        T(v, c.y) = m_y a_{vc} + sum over y = g.r, r != () of m_g T(vc, r),

    with m_() = 1.  A state (v, x) has length |v| + |x|.  The term with
    g = () has the same length and the same word vx, and every other term
    reads shorter states; the only term with a coefficient as long as the
    state is a_{vx}, the one without gaps.  So each length L runs in three
    steps: the states of length L without a_{vx}, longest v first; the words
    of length L, where a solve finds a_w; and then a_{vx} for every state.
    A state table is one list per (L, |v|) indexed by the rank of vx among
    the words of length L, None for a state with no term: about
    order * d^order states at O(order) work each, local to one fill.
    """
    out = {}
    letters = range(1, d + 1)
    size = [d ** k for k in range(order + 1)]
    if subst is not None:
        a, m = (out if f is None else f for f in subst)
        dense_a, dense_m, states = [None], [None], [None]
    for n in range(1, order + 1):
        ws = list(itertools.product(letters, repeat=n))  # by rank
        if subst is not None:
            rows = [None] * n
            rows[n - 1] = [None] * size[n]
            for j in range(n - 2, -1, -1):  # j = |v|, y = |x| - 1
                y = n - j - 1
                row = rows[j + 1][:]
                _add_products(row, dense_a[j + 1], dense_m[y],
                              1, size[j + 1], size[y])
                for k in range(1, y):
                    _add_products(row, dense_m[k], states[n - k][j + 1],
                                  size[j + 1], size[k], size[y - k])
                rows[j] = row
        for rank, w in enumerate(ws):
            s = 0 if subst is None else _apply_w_substitution(
                rows[0], rank, a, w)
            c = coeff(w, out, s)
            if c:
                out[w] = c
        if subst is not None and n < order:
            dense_a.append([a.get(w) for w in ws])
            dense_m.append([m.get(w) for w in ws])
            rows[0] = None
            for j in range(1, n):
                rows[j] = [s if c is None else c if s is None else s + c
                           for s, c in zip(rows[j], dense_a[n])]
            states.append(rows)
    return out


def nc_r(mu):
    """Word-indexed free cumulants: solve R(z_i(1+M)) = M triangularly."""
    return _graded_words(lambda m: _fill_words(
        mu.d, mu.order, lambda w, kappa, s: m.get(w, 0) - s, (None, m)), mu._m)


def nc_moments_from_r(kappa, d, order):
    """Forward solve of R(z_i(1+M)) = M."""
    return NCFunctional(d, order, _graded_words(lambda kappa: _fill_words(
        d, order, lambda w, m, s: s, (kappa, None)), kappa))


def nc_eta(mu):
    """Boolean word cumulants: eta_w = m_w - sum_{w=uv} eta_u m_v (u,v nonempty)."""
    return _graded_words(lambda m: _fill_words(
        mu.d, mu.order, lambda w, eta, _: m.get(w, 0) - _split_sum(eta, m, w)),
        mu._m)


def nc_moments_from_eta(eta, d, order):
    return NCFunctional(d, order, _graded_words(lambda eta: _fill_words(
        d, order, lambda w, m, _: eta.get(w, 0) + _split_sum(eta, m, w)), eta))


def nc_two_state_r(pair):
    """Solve eta~ (1+M) = R2(z_i(1+M)) for the word two-state R-transform."""
    return _graded_words(lambda eta_t, m: _fill_words(
        pair.d, pair.order, lambda w, _, s: (
            eta_t.get(w, 0) + _split_sum(eta_t, m, w) - s), (None, m)),
        nc_eta(pair.tilde), pair.base._m)


def nc_tilde_from_two_state_r(r2, base):
    """Invert: eta~ = R2(z_i(1+M)) (1+M)^{-1}, then moments."""
    eta = _graded_words(lambda r2, m: _fill_words(
        base.d, base.order, lambda w, e, s: s - _split_sum(e, m, w), (r2, m)),
        r2, base._m)
    return nc_moments_from_eta(eta, base.d, base.order)


def _combine_cumulants(a, b, cumulants, op, moments):
    """moments(op(cumulants(a), cumulants(b))) word by word, at one order."""
    order = min(a.order, b.order)
    out = dict(cumulants(a.truncate(order)))
    for w, c in cumulants(b.truncate(order)).items():
        out[w] = op(out.get(w, ZERO), c)
    return moments(out, a.d, order)


def nc_free_convolve(a, b):
    return _combine_cumulants(a, b, nc_r, operator.add, nc_moments_from_r)


def nc_free_power(a, t):
    t = as_coeff(t)
    return nc_moments_from_r({w: t * c for w, c in nc_r(a).items()},
                             a.d, a.order)


def nc_free_deconvolve(a, b):
    return _combine_cumulants(a, b, nc_r, operator.sub, nc_moments_from_r)


def nc_boolean_convolve(a, b):
    return _combine_cumulants(a, b, nc_eta, operator.add, nc_moments_from_eta)


def nc_boolean_power(a, t):
    t = as_coeff(t)
    return nc_moments_from_eta({w: t * c for w, c in nc_eta(a).items()},
                               a.d, a.order)


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
    return nc_moments_from_r(nc_eta(mu), mu.d, mu.order)


def nc_bp_inverse(mu):
    return nc_moments_from_eta(nc_r(mu), mu.d, mu.order)


def nc_subordination(mu, nu):
    """R^{mu |> nu} (1+M^nu) = R^mu(z_i(1+M^nu)), solved triangularly."""
    order = min(mu.order, nu.order)
    mu, nu = mu.truncate(order), nu.truncate(order)
    ksub = _graded_words(lambda kmu, m: _fill_words(
        mu.d, order, lambda w, k, s: s - _split_sum(k, m, w), (kmu, m)),
        nc_r(mu), nu._m)
    return nc_moments_from_r(ksub, mu.d, order)


def _composition_product(lam, nu):
    """(1 + M^lam)(1 + M^nu(z_i(1+M^lam))) - 1, as a word functional."""
    d, order = lam.d, min(lam.order, nu.order)
    lam, nu = lam.truncate(order), nu.truncate(order)

    def solve(m, b):
        sub = _fill_words(d, order, lambda w, _, s: s, (b, m))  # M^nu(W_lam)
        return _fill_words(d, order, lambda w, _, s: (
            sub.get(w, 0) + m.get(w, 0) + _split_sum(m, sub, w)))

    return NCFunctional(d, order, _graded_words(solve, lam._m, nu._m))


def nc_subordination_inverse(lam, nu):
    """The unique mu with mu |> nu = lam, via the composition identity

    1 + M^{mu boxplus nu} = (1 + M^lam)(1 + M^nu(z_i(1+M^lam))).
    """
    return nc_free_deconvolve(_composition_product(lam, nu), nu)


# -- verification ---------------------------------------------------------------


def _nc_functional(value, rng, d, order):
    """A supplied word functional, or one drawn from ``rng`` when None."""
    if value is not None:
        return value
    return NCFunctional(d, order, {
        w: Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        for w in words(d, order)})


def _nc_verify_composition(order, rng, d=2, mu: NCFunctional = None,
                           nu: NCFunctional = None):
    mu = _nc_functional(mu, rng, d, order)
    nu = _nc_functional(nu, rng, d, order)
    lam = nc_subordination(mu, nu)
    lhs = nc_free_convolve(mu, nu)
    rhs = _composition_product(lam, nu)
    checks = [
        check_eq("1 + M^{mu boxplus nu} = "
                 "(1 + M^{mu|>nu})(1 + M^nu(z_i(1+M^{mu|>nu})))", lhs, rhs),
        check_eq("mu |> nu inverts: subordination_inverse recovers mu",
                 nc_subordination_inverse(lam, nu), mu),
    ]
    return checks, []


def _nc_verify_final_prop(order, rng, d=2, rho_t: NCFunctional = None,
                          tau: NCFunctional = None, beta_t: list = None,
                          gamma_t: Coeff = None):
    rho_t = _nc_functional(rho_t, rng, d, order)
    tau = _nc_functional(tau, rng, d, order)
    if beta_t is None:
        beta_t = [Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                  for _ in range(d)]
    elif len(beta_t) != d:
        raise _BadParameter(beta_t, f"want a list of {d} rationals")
    gamma_t = _q(gamma_t, Fraction(rng.randint(1, 3), rng.randint(1, 2)))
    t = formal_t()
    mu = nc_subordination(tau, rho_t)
    mu_t = nc_free_power(mu, t)
    # two-state R: R~ = t beta~.z + t gamma~ sum_i z_i (1+M^{rho~}) z_i
    r2 = {}
    for i in range(1, d + 1):
        r2[(i,)] = as_coeff(beta_t[i - 1]) * t
        r2[(i, i)] = gamma_t * t
        for w, c in rho_t.items():
            if len(w) + 2 <= order:
                r2[(i,) + w + (i,)] = gamma_t * t * c
    tilde = nc_tilde_from_two_state_r(r2, mu_t)
    inner = nc_free_convolve(rho_t.truncate(order - 2),
                             nc_free_power(tau, t).truncate(order - 2))
    rhs = nc_boolean_convolve(
        nc_point_mass([as_coeff(x) * t for x in beta_t], d, order),
        nc_boolean_power(nc_phi(inner).truncate(order), gamma_t * t))
    checks = [check_eq(
        "mu~_t = delta_{t beta~} uplus "
        "Phi[rho~ boxplus tau^{boxplus t}]^{uplus gamma~ t}", tilde, rhs)]
    return checks, []


def _nc_verify_recover_tau(order, rng, b_t: Coeff = Fraction(1, 2),
                           c_t: Coeff = Fraction(2), b: Coeff = Fraction(-1),
                           c: Coeff = Fraction(1), beta_t: Coeff = Fraction(1),
                           gamma_t: Coeff = Fraction(3, 2),
                           beta: Coeff = Fraction(1, 3),
                           gamma: Coeff = Fraction(2), t: Coeff = Fraction(1)):
    # d = 1 reduction: recover tau from a two-state free Meixner semigroup and
    # reproduce its Jacobi display, cross-checked against the single-variable path.
    b_t, c_t, b, c, beta_t, gamma_t, beta, gamma, t = (
        _q(v, None) for v in (b_t, c_t, b, c, beta_t, gamma_t, beta, gamma, t))
    rho = semicircular(b, c, order - 2)
    rho_t = free_meixner(b - b_t, c - c_t, b_t, c_t, order)
    rel = CanonicalTriple(beta_t, gamma_t, rho_t.truncate(order - 2))
    base = CanonicalTriple(beta, gamma, rho)
    pair = two_state_semigroup(rel, base, t, order)
    mu = maassen_semigroup(base, 1, order)
    tau_nc = nc_subordination_inverse(nc_from_univariate(mu),
                                      nc_from_univariate(rho_t))
    tau = nc_to_univariate(tau_nc)
    tau_sv = subordination_inverse(mu, rho_t)
    expect = JacobiParams((beta,), (gamma,),
                          repeat=(beta + b - b_t, gamma + c - c_t))
    checks = [
        check_eq("d=1 reduction: nc path matches single-variable inverse",
                 tau, tau_sv),
        check_eq("J(tau) = (beta, beta+b-b~, ...; gamma, gamma+c-c~, ...)",
                 jacobi_from_moments(tau, order // 2), expect),
        check_eq("J[mu~_t] = rho~ boxplus tau^{boxplus t} (J-level display)",
                 strip(pair.tilde), free_convolve(rho_t, free_power(tau, t))),
    ]
    return checks, []


NC_CATALOG = {
    "composition": (_nc_verify_composition, 6),
    "final-prop": (_nc_verify_final_prop, 6),
    "recover-tau": (_nc_verify_recover_tau, 8),
}

# As evolution.MIN_ORDER; MAX_NC_ORDER caps every entry.
NC_MIN_ORDER = {"composition": 3, "final-prop": 3, "recover-tau": 4}


def nc_verify_order(name, order=None, params=()):
    """The order ``nc_verify(name, params, order)`` runs at; makes d an int."""
    order = _entry_order("nc verify", NC_CATALOG, NC_MIN_ORDER, name, order,
                         MAX_NC_ORDER, params)
    if "d" in params:
        params["d"] = nc_verify_d(params["d"])
    return order


def nc_verify_d(d):
    """The alphabet size ``d`` as an int, or ValueError unless it is an
    integer in 1..MAX_NC_D (a bool is not; an integral Fraction, as the CLI
    parses ``--param d=3``, is)."""
    if isinstance(d, Fraction) and d.denominator == 1:
        d = d.numerator
    if isinstance(d, bool) or not isinstance(d, int) or not 1 <= d <= MAX_NC_D:
        raise ValueError(f"d must be an integer in 1..{MAX_NC_D}, got {d}")
    return d


def nc_verify(name, params=None, order=None, seed=0):
    params = dict(params or {})
    order = nc_verify_order(name, order, params)
    return VerifyReport(f"nc:{name}", order, *_run_entry(
        "nc verify", NC_CATALOG, name, order, params, seed))


def nc_verify_all(order=None, seed=0):
    for name in NC_CATALOG:
        nc_verify_order(name, order)
    return [nc_verify(name, order=order, seed=seed) for name in NC_CATALOG]
