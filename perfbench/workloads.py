"""The benchmark's workloads: seeded inputs, named operations and checks.

A workload is a list of :class:`Op`.  One pass runs every op once, in list
order; ``Op.run`` receives the outputs of the ops before it in the same
pass, so a chain such as semigroup -> strip is two ops.  ``Op.check`` runs
outside the timed region and compares the op's own output against a value
from ``reference`` or, for Q[t] results specialised at t = 1 and t = 2,
against a plain-Q computation of the library; every check depends on the output it checks,
so perturbing that output makes the check fail (see ``selftest.py``).

``family`` and ``order`` place an op on its workload's order ladder; the
runner fits how time grows with ``order`` within each family.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from freeconv import cli, coeffs, convolutions, evolution, functionals
from freeconv import multivariate, oracle, series, transforms

import reference


class CheckFailed(Exception):
    """An output disagrees with its reference."""


def expect(ok, what):
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable
    check: Callable
    family: str = ""
    order: int = 0


def _q(rng):
    """A nonzero rational in {+-1/2, +-1, +-2}.

    Zero draws would make the work of an op depend on where they fall.
    """
    return Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))


def _functional(rng, order):
    return functionals.MomentFunctional(order, [_q(rng) for _ in range(order)])


def _moments(mf):
    return list(mf.moments())


def _series_coeffs(s):
    return list(s.coeffs())


# -- catalog ----------------------------------------------------------------------


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(argv)
    return rc, buf.getvalue()


def _verified(entry, order):
    def check(value, out):
        rc, text = value
        expect(rc == 0, f"exit code {rc}")
        doc = json.loads(text)
        (report,) = doc["reports"]
        expect(report["name"] == entry and report["order"] == order,
               f"report is {report['name']} at order {report['order']}")
        expect(report["checks"], "no checks ran")
        bad = [c["label"] for c in report["checks"] if not c["ok"]]
        expect(not bad, f"failed: {bad}")
        expect(doc["verified"] is True, "document not verified")
    return check


def catalog(rng):
    """Every catalog entry through the CLI at its default order, then each
    single-variable entry again at 1.5 times that order.

    The default-order ops together do the work of ``verify all``; running
    them one entry at a time gives each entry a time and pairs it with its
    1.5x run on the order ladder.  The entries draw their parameters from
    the CLI's own default seed, as a user's ``freeconv verify`` does, so
    ``rng`` is not used: the cost of an entry varies up to fourfold between
    verify seeds, which would swamp any change to the library.
    """
    entries = [(name, default) for name, (_, default)
               in evolution.CATALOG.items()]
    entries += [(f"nc:{name}", default) for name, (_, default)
                in multivariate.NC_CATALOG.items()]
    ops = []
    for name, order in entries:
        argv = ["verify", name, "--format", "json"]
        ops.append(Op(f"verify:{name}@{order}",
                      lambda out, argv=argv: _cli(argv),
                      _verified(name, order), name, order))
    for name, default in entries:
        if name.startswith("nc:"):
            continue
        order = math.ceil(1.5 * default)
        argv = ["verify", name, "--format", "json", "--order", str(order)]
        ops.append(Op(f"verify:{name}@{order}",
                      lambda out, argv=argv: _cli(argv),
                      _verified(name, order), name, order))
    return ops


# -- rational-deep -------------------------------------------------------------------

# Orders per family.  The reversion path costs about n^4, so its ladder stops
# lower to keep one pass near two seconds; the partition oracle enumerates
# Catalan-many partitions and stops at 10.
RATIONAL_LADDER = (16, 24, 32, 40)
REVERSION_LADDER = (12, 16, 20, 24)
ORACLE_LADDER = (8, 9, 10)


def _equal_moments(got, want, what):
    bad = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    expect(len(got) == len(want) and not bad,
           f"{what}: differs at index {bad[0] if bad else 'length'}")


def rational_deep(rng):
    top = max(RATIONAL_LADDER)
    mu = _functional(rng, top)
    nu = _functional(rng, top)
    kappa = [_q(rng) for _ in range(top)]
    rate = Fraction(rng.choice((1, 3, 5)), 2)
    f = [_q(rng) for _ in range(top + 1)]
    g = [Fraction(0), _q(rng)] + [_q(rng) for _ in range(top - 1)]
    ops = []

    def add(name, n, run, check):
        ops.append(Op(f"{name}@{n}", run, check, name, n))

    for n in RATIONAL_LADDER:
        mu_n, nu_n = mu.truncate(n), nu.truncate(n)
        pair = functionals.TwoStatePair(mu_n, nu_n)
        k_n = series.TruncSeries(n, [0] + kappa[:n])
        add("r_from_moments", n,
            lambda out, m=mu_n: transforms.r_from_moments(m),
            lambda v, out, m=mu_n: _equal_moments(
                reference.moments_from_cumulants(_series_coeffs(v)[1:]),
                _moments(m), "moments of the cumulants"))
        add("moments_from_r", n,
            lambda out, k=k_n, n=n: transforms.moments_from_r(k, n),
            lambda v, out, n=n: _equal_moments(
                _moments(v), reference.moments_from_cumulants(kappa[:n]),
                "moments from cumulants"))
        add("r_from_moments:semicircle", n,
            lambda out, n=n: transforms.r_from_moments(
                functionals.semicircular(0, 1, n)),
            lambda v, out, n=n: _equal_moments(
                _series_coeffs(v)[1:], reference.semicircle_cumulants(n),
                "semicircle cumulants"))
        add("moments_from_r:semicircle", n,
            lambda out, n=n: transforms.moments_from_r(
                series.TruncSeries(n, [0, 0, 1]), n),
            lambda v, out, n=n: _equal_moments(
                _moments(v), reference.semicircle_moments(n),
                "Catalan moments"))
        add("r_from_moments:free-poisson", n,
            lambda out, n=n: transforms.r_from_moments(
                functionals.free_poisson(1, rate, rate, n)),
            lambda v, out, n=n: _equal_moments(
                _series_coeffs(v)[1:], reference.free_poisson_cumulants(rate, n),
                "free Poisson cumulants"))
        add("moments_from_r:free-poisson", n,
            lambda out, n=n: transforms.moments_from_r(
                series.TruncSeries(n, [0] + [rate] * n), n),
            lambda v, out, n=n: _equal_moments(
                _moments(v), reference.narayana_moments(rate, n),
                "Narayana moments"))
        add("eta_from_moments", n,
            lambda out, m=mu_n: transforms.eta_from_moments(m),
            lambda v, out, m=mu_n: _equal_moments(
                reference.boolean_moments(_series_coeffs(v)[1:]),
                _moments(m), "moments of the Boolean cumulants"))
        add("two_state_r", n,
            lambda out, p=pair: transforms.two_state_r(p),
            lambda v, out, m=mu_n, b=nu_n: _equal_moments(
                reference.two_state_boolean(_series_coeffs(v)[1:], _moments(b)),
                reference.boolean_cumulants(_moments(m)),
                "two-state R equation"))
        add("monotone_convolve", n,
            lambda out, a=mu_n, b=nu_n: convolutions.monotone_convolve(a, b),
            lambda v, out, a=mu_n, b=nu_n: _equal_moments(
                reference.f_chart(_moments(v)),
                reference.compose(reference.f_chart(_moments(a)),
                                  reference.f_chart(_moments(b))),
                "f-chart composition"))
        add("monotone_convolve:arcsine", n,
            lambda out, n=n: convolutions.monotone_convolve(
                functionals.bernoulli_sym(n), functionals.semicircular(0, 1, n)),
            lambda v, out, n=n: _equal_moments(
                _moments(v), reference.arcsine_moments(n), "arcsine moments"))
        add("series.compose", n,
            lambda out, n=n: series.TruncSeries(n, f[:n + 1]).compose(
                series.TruncSeries(n, g[:n + 1])),
            lambda v, out, n=n: _equal_moments(
                _series_coeffs(v), reference.compose(f[:n + 1], g[:n + 1]),
                "composition"))
    for n in REVERSION_LADDER:
        mu_n, nu_n = mu.truncate(n), nu.truncate(n)
        pair = functionals.TwoStatePair(mu_n, nu_n)
        add("voiculescu_phi_by_reversion", n,
            lambda out, m=mu_n: transforms.voiculescu_phi_by_reversion(m),
            lambda v, out, m=mu_n, n=n: _equal_moments(
                reference.moments_from_cumulants(
                    [v.coeff(k) for k in range(n)]),
                _moments(m), "moments of the phi coefficients"))
        add("two_state_r_by_reversion", n,
            lambda out, p=pair: transforms.two_state_r_by_reversion(p),
            lambda v, out, m=mu_n, b=nu_n: _equal_moments(
                reference.two_state_boolean(_series_coeffs(v)[1:], _moments(b)),
                reference.boolean_cumulants(_moments(m)),
                "two-state R equation"))
        add("series.reversion", n,
            lambda out, n=n: series.TruncSeries(n, g[:n + 1]).reversion(),
            lambda v, out, n=n: _equal_moments(
                reference.compose(g[:n + 1], _series_coeffs(v)),
                [0, 1] + [0] * (n - 1), "g(reversion(g)) = z"))
    for n in ORACLE_LADDER:
        mu_n = mu.truncate(n)
        add("free_cumulants_oracle", n,
            lambda out, m=mu_n: oracle.free_cumulants_oracle(m),
            lambda v, out, m=mu_n: _equal_moments(
                reference.moments_from_cumulants(list(v)), _moments(m),
                "moments of the oracle cumulants"))
    return ops


# -- formal-t-deep ---------------------------------------------------------------------

FORMAL_T_LADDER = (12, 14, 16, 18)


def _degrees_ok(mf, what):
    for k, m in enumerate(mf.moments(), 1):
        expect(reference.t_degree(m) <= k, f"{what}: t-degree of m_{k} > {k}")


def _at(mf, s):
    return [reference.at(m, s) for m in mf.moments()]


def _specialises_to(v, s, want, what):
    """v at t = s equals the moments ``want``, a plain-Q result."""
    _equal_moments(_at(v, s), _moments(want), f"{what} at t = {s}")


def formal_t_deep(rng):
    top = max(FORMAL_T_LADDER)
    t = coeffs.formal_t()
    beta = _q(rng)
    gamma = _q(rng)
    rho = _functional(rng, top)
    mu = _functional(rng, top)
    tilde = _functional(rng, top)
    ops = []

    def add(name, n, run, check):
        ops.append(Op(f"{name}@{n}", run, check, name, n))

    def maassen_check(v, out, n):
        _degrees_ok(v, "semigroup")
        rho_m = _moments(rho)[: n - 2]
        for s in (1, 2):
            kappa = [s * beta, s * gamma] + [s * gamma * m for m in rho_m]
            _equal_moments(_at(v, s), reference.moments_from_cumulants(kappa),
                           f"semigroup at t = {s}")

    def rhs_check(v, out, n):
        _degrees_ok(v, "rho boxplus sigma^t")
        r = rho.truncate(n - 2)
        for s in (1, 2):
            sigma = functionals.semicircular(beta, gamma, n - 2)
            _specialises_to(v, s, convolutions.free_convolve(
                r, convolutions.free_power(sigma, s)), "rho boxplus sigma^t")

    def strip_check(v, out, n):
        _degrees_ok(v, "J[mu_t]")
        expect(v == out[f"rho_boxplus_sigma_t@{n}"],
               "J[mu_t] != rho boxplus sigma^t")

    def power_check(v, out, m):
        _degrees_ok(v, "mu^t")
        _specialises_to(v, 1, m, "mu^t")
        _specialises_to(v, 2, convolutions.free_convolve(m, m), "mu^t")

    def two_state_check(v, out, p):
        for part in (v.tilde, v.base):
            _degrees_ok(part, "two-state power")
        _specialises_to(v.tilde, 1, p.tilde, "tilde")
        _specialises_to(v.base, 1, p.base, "base")
        both = convolutions.two_state_convolve(p, p)
        _specialises_to(v.tilde, 2, both.tilde, "tilde")
        _specialises_to(v.base, 2, both.base, "base")

    def bn_check(v, out, m):
        _degrees_ok(v, "B_t")
        _specialises_to(v, 1, evolution.bercovici_pata(m), "B_t")
        _specialises_to(v, 2, evolution.belinschi_nica(m, 2), "B_t")

    for n in FORMAL_T_LADDER:
        triple = functionals.CanonicalTriple(beta, gamma, rho.truncate(n - 2))
        mu_n = mu.truncate(n)
        pair = functionals.TwoStatePair(tilde.truncate(n), mu_n)
        add("maassen_semigroup", n,
            lambda out, tr=triple, n=n: evolution.maassen_semigroup(tr, t, n),
            lambda v, out, n=n: maassen_check(v, out, n))
        add("rho_boxplus_sigma_t", n,
            lambda out, n=n: convolutions.free_convolve(
                rho.truncate(n - 2), convolutions.free_power(
                    functionals.semicircular(beta, gamma, n - 2), t)),
            lambda v, out, n=n: rhs_check(v, out, n))
        add("strip", n,
            lambda out, n=n: evolution.strip(out[f"maassen_semigroup@{n}"]),
            lambda v, out, n=n: strip_check(v, out, n))
        add("free_power", n,
            lambda out, m=mu_n: convolutions.free_power(m, t),
            lambda v, out, m=mu_n: power_check(v, out, m))
        add("two_state_power", n,
            lambda out, p=pair: convolutions.two_state_power(p, t),
            lambda v, out, p=pair: two_state_check(v, out, p))
        add("belinschi_nica", n,
            lambda out, m=mu_n: evolution.belinschi_nica(m, t),
            lambda v, out, m=mu_n: bn_check(v, out, m))
    return ops


# -- words -----------------------------------------------------------------------------

WORD_LADDER = ((2, 5), (2, 6), (2, 7), (3, 5), (3, 6))
UNIVARIATE_ORDER = 8


def _nc_functional(rng, d, n):
    return multivariate.NCFunctional(
        d, n, {w: _q(rng) for w in multivariate.words(d, n)})


def _same_words(got, want, what):
    keys = set(got) | set(want)
    bad = [w for w in keys if got.get(w, 0) != want.get(w, 0)]
    expect(not bad, f"{what}: differs at {min(bad, default=None)}")


def words(rng):
    ops = []
    for d, n in WORD_LADDER:
        mu = _nc_functional(rng, d, n)
        nu = _nc_functional(rng, d, n)
        semicircular = {(i, i): Fraction(1) for i in range(1, d + 1)}
        tag = f"d{d}n{n}"

        def add(name, run, check, d=d, n=n):
            ops.append(Op(f"{name}@{tag}", run, check, f"{name}/d{d}", n))

        add("nc_r",
            lambda out, m=mu: multivariate.nc_r(m),
            lambda v, out, m=mu, d=d, n=n: expect(
                multivariate.nc_moments_from_r(v, d, n) == m,
                "moments of nc_r(mu) != mu"))
        add("nc_moments_from_r:semicircular",
            lambda out, k=semicircular, d=d, n=n:
                multivariate.nc_moments_from_r(k, d, n),
            lambda v, out, d=d, n=n: _same_words(
                dict(v.items()),
                {w: c for w in multivariate.words(d, n)
                 if (c := reference.nc_pair_count(w))},
                "non-crossing pair counts"))
        add("nc_subordination",
            lambda out, m=mu, b=nu: multivariate.nc_subordination(m, b),
            lambda v, out, m=mu, b=nu: expect(
                multivariate.nc_subordination_inverse(v, b) == m,
                "subordination_inverse(mu |> nu, nu) != mu"))
        add("nc_subordination_inverse",
            lambda out, b=nu, key=f"nc_subordination@{tag}":
                multivariate.nc_subordination_inverse(out[key], b),
            lambda v, out, m=mu: expect(v == m, "inverse did not recover mu"))
        add("nc_two_state_r",
            lambda out, m=mu, b=nu: multivariate.nc_two_state_r(
                multivariate.NCPair(m, b)),
            lambda v, out, m=mu, b=nu: expect(
                multivariate.nc_tilde_from_two_state_r(v, b) == m,
                "tilde from the two-state R-transform != mu"))
    one = _functional(rng, UNIVARIATE_ORDER)

    def reduction_check(v, out):
        kappa = _series_coeffs(transforms.r_from_moments(one))[1:]
        _same_words(v, {(1,) * k: c for k, c in enumerate(kappa, 1) if c},
                    "d = 1 word cumulants vs univariate")

    ops.append(Op(f"nc_r@d1n{UNIVARIATE_ORDER}",
                  lambda out: multivariate.nc_r(
                      multivariate.nc_from_univariate(one)),
                  reduction_check, "nc_r/d1", UNIVARIATE_ORDER))
    return ops


WORKLOADS = {
    "catalog": catalog,
    "rational-deep": rational_deep,
    "formal-t-deep": formal_t_deep,
    "words": words,
}


def build(name, seed):
    """The op list of a workload, with inputs drawn from ``seed``.

    Ops of one family run one after another, lowest order first, so that
    the points of a family's ladder are timed close together.
    """
    ops = WORKLOADS[name](random.Random(f"{name}/{seed}"))
    first = {}
    for op in ops:
        first.setdefault(op.family, len(first))
    return sorted(ops, key=lambda op: (first[op.family], op.order))
