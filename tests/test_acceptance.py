"""Acceptance suite: one test (and one printed pass line) per criterion.

Every comparison is exact (rational or polynomial coefficients); run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction as F

from freeconv.catalog import _tilde_by_monotone, nc_verify, verify
from freeconv.cli import run as cli_run
from freeconv.coeffs import formal_t
from freeconv.convolutions import (
    free_convolve,
    free_power,
    monotone_convolve,
    two_state_convolve,
)
from freeconv.evolution import (
    CanonicalTriple,
    belinschi_nica,
    cauchy_evolution_residual,
    maassen_semigroup,
    pde_residual,
    phi_map,
    strip,
    subordination,
    two_state_semigroup,
)
from freeconv.functionals import (
    JacobiParams,
    MomentFunctional,
    TwoStatePair,
    arcsine,
    bernoulli_sym,
    free_meixner,
    jacobi_from_moments,
    moments_from_jacobi,
    point_mass,
    semicircular,
)
from freeconv.oracle import boolean_cumulants_oracle, free_cumulants_oracle
from freeconv.transforms import eta_from_moments, r_from_moments


def _passed(n, text, t0):
    print(f"PASS criterion {n}: {text} [{time.time() - t0:.1f}s]")


def rand_q(rng, span=3, den=3, nonzero=False):
    while True:
        x = F(rng.randint(-span, span), rng.randint(1, den))
        if not nonzero or x != 0:
            return x


def rand_functional(rng, order, span=3):
    return MomentFunctional(order, [rand_q(rng, span) for _ in range(order)])


def test_criterion_01_transform_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(101)
    for _ in range(50):
        mf = rand_functional(rng, 10, span=4)
        assert free_cumulants_oracle(mf) == \
            list(r_from_moments(mf).coeffs()[1:])
        assert boolean_cumulants_oracle(mf) == \
            list(eta_from_moments(mf).coeffs()[1:])
    elapsed = time.time() - t0
    assert elapsed < 30, f"oracle comparison took {elapsed:.1f}s"
    _passed(1, "free/Boolean cumulant recursions match the partition oracle "
               "on 50 random functionals at order 10", t0)


def test_criterion_02_jacobi_calculus():
    t0 = time.time()
    rng = random.Random(102)
    for _ in range(50):
        betas = [rand_q(rng) for _ in range(6)]
        gammas = [rand_q(rng, nonzero=True) for _ in range(6)]
        j = JacobiParams(betas, gammas)
        mf = moments_from_jacobi(j, 12)
        assert jacobi_from_moments(mf, 6) == j
    shown = 0
    while shown < 10:
        b, c = rand_q(rng), rand_q(rng)
        beta, gamma = rand_q(rng), rand_q(rng, nonzero=True)
        if c + gamma == 0:
            continue
        mf = free_meixner(b, c, beta, gamma, 12)
        j = jacobi_from_moments(mf, 6)
        assert j.levels(6) == [(beta, gamma)] + [(b + beta, c + gamma)] * 5
        shown += 1
    _passed(2, "moments<->Jacobi round trip exact at depth 6 / order 12 "
               "(negative gammas included); free Meixner rows reproduced", t0)


def test_criterion_03_free_evolution():
    t0 = time.time()
    rng = random.Random(103)
    t = formal_t()
    for i in range(20):
        beta = rand_q(rng)
        gamma = F(0) if i % 5 == 0 else rand_q(rng, nonzero=True)
        if gamma == 0:
            mu_t = maassen_semigroup(CanonicalTriple(beta, 0, None), t, 10)
            assert mu_t == point_mass(beta * t, 10)
            continue
        rho = rand_functional(rng, 8)
        triple = CanonicalTriple(beta, gamma, rho)
        mu_t = maassen_semigroup(triple, t, 10)
        inner = free_convolve(rho, free_power(semicircular(beta, gamma, 8), t))
        from freeconv.convolutions import boolean_convolve, boolean_power
        display = boolean_convolve(point_mass(beta * t, 10),
                                   boolean_power(phi_map(inner), gamma * t))
        assert mu_t == display
        assert strip(mu_t) == inner
    _passed(3, "free-evolution displays hold with formal t at order 10 on "
               "20 random triples including the gamma = 0 branch", t0)


def test_criterion_04_bn_mean_monotone_two_state_maassen():
    t0 = time.time()
    for seed in range(20):
        rep = verify("bn-mean", order=10, seed=200 + seed)
        assert rep.verified, rep.checks
        rep = verify("monotone-lemma", order=10, seed=300 + seed)
        assert rep.verified, rep.checks
    rng = random.Random(104)
    t = formal_t()
    for _ in range(20):
        rel = CanonicalTriple(rand_q(rng), rand_q(rng, nonzero=True),
                              rand_functional(rng, 8))
        base = CanonicalTriple(rand_q(rng), rand_q(rng, nonzero=True),
                               rand_functional(rng, 8))
        # the two-state-R and the Boolean/monotone constructions of
        # Eq. (two-state) give one tilde
        pair = two_state_semigroup(rel, base, t, 10)
        assert pair.tilde == _tilde_by_monotone(rel, pair.base, t)[0]
    _passed(4, "Belinschi-Nica mean shift, monotone lemma and two-state "
               "construction consistency: zero residual, formal t, 20 "
               "instances each", t0)


def test_criterion_05_two_state_free_evolution_theorem_b():
    t0 = time.time()
    rng = random.Random(105)
    t = formal_t()
    for _ in range(3):
        omega = rand_functional(rng, 10)
        rho_t = rand_functional(rng, 10)
        p = F(rng.randint(1, 3), rng.randint(1, 2))
        beta_t, gamma_t = rand_q(rng), rand_q(rng, nonzero=True)
        mu = free_power(subordination(omega, rho_t), 1 / p)

        def pair_at(s):
            from freeconv.convolutions import boolean_convolve, boolean_power
            inner = free_convolve(rho_t.truncate(8),
                                  free_power(omega.truncate(8), s / p))
            tilde = boolean_convolve(
                point_mass(beta_t * s, 10),
                boolean_power(phi_map(inner), gamma_t * s))
            return TwoStatePair(tilde, free_power(mu, s))

        pair_t = pair_at(t)
        assert strip(pair_t.tilde) == free_convolve(
            rho_t.truncate(8), free_power(omega.truncate(8), t * (1 / p)))
        for s, u in ((F(1), F(1)), (F(1, 2), F(1, 3)), (F(2), F(1, 2)),
                     (F(1, 3), F(3)), (F(5, 2), F(1, 4))):
            assert two_state_convolve(pair_at(s), pair_at(u)) == pair_at(s + u)
    _passed(5, "two-state free evolution: semigroup law at 5 rational (s,t) "
               "pairs and J[mu~_t] display with formal t, order 10", t0)


def test_criterion_06_free_meixner_suite():
    t0 = time.time()
    rng = random.Random(106)
    t = formal_t()
    order = 12
    for _ in range(5):
        b, c = rand_q(rng), rand_q(rng)
        beta, beta2 = rand_q(rng), rand_q(rng)
        gamma = rand_q(rng, nonzero=True)
        gamma2 = rand_q(rng, nonzero=True)
        # subordination lemma
        assert subordination(free_meixner(b, c, beta2, gamma2, order),
                             free_meixner(b, c, beta, gamma, order)) == \
            free_meixner(b + beta, c + gamma, beta2, gamma2, order)
        # B_t action, formal t
        assert belinschi_nica(free_meixner(b, c, beta, gamma, order), t) == \
            free_meixner(b + beta * t, c + gamma * t, beta, gamma, order)
        # boxplus semigroup
        assert free_convolve(free_meixner(b, c, beta, gamma, order),
                             free_meixner(b, c, beta2, gamma2, order)) == \
            free_meixner(b, c, beta + beta2, gamma + gamma2, order)
        # monotone identity mu_{b,c} |> mu_{b,c+1} = mu_{b,c}^{boxplus 2}
        assert monotone_convolve(free_meixner(b, c, 0, 1, order),
                                 free_meixner(b, c + 1, 0, 1, order)) == \
            free_power(free_meixner(b, c, 0, 1, order), 2)
    assert monotone_convolve(bernoulli_sym(order), semicircular(0, 1, order)) \
        == arcsine(1, order)
    _passed(6, "free Meixner suite (subordination, B_t action, semigroup, "
               "monotone identity, Bernoulli |> Semicircle = Arcsine) exact "
               "at order 12", t0)


def test_criterion_07_pde_and_generator():
    t0 = time.time()
    rng = random.Random(107)
    for _ in range(10):
        rel = CanonicalTriple(rand_q(rng), rand_q(rng, nonzero=True),
                              rand_functional(rng, 12))
        base = CanonicalTriple(rand_q(rng), rand_q(rng, nonzero=True),
                               rand_functional(rng, 12))
        res1, res2 = pde_residual(rel, base, 8)
        assert res1.is_zero() and res2.is_zero()
        corrected, printed = cauchy_evolution_residual(rel, base, 8)
        assert corrected.is_zero()
        assert not printed.is_zero()
    rep = verify("generator", order=8, seed=107)
    assert rep.verified
    assert any("printed variant" in note for note in rep.notes)
    _passed(7, "both evolution PDEs and the d_t G equation vanish over Q[t] "
               "at order 8 for 10 random triple pairs; sign resolution "
               "documented in the verify report", t0)


def test_criterion_08_multivariate():
    t0 = time.time()
    for seed in range(10):
        rep = nc_verify("composition", order=6, seed=400 + seed)
        assert rep.verified, rep.checks
        rep = nc_verify("final-prop", order=6, seed=500 + seed)
        assert rep.verified, rep.checks
    # d = 1 reductions bit-identical (also covered in the unit suite)
    from freeconv.multivariate import (nc_from_univariate, nc_r,
                                       nc_subordination, nc_to_univariate)
    rng = random.Random(108)
    mf, nf = rand_functional(rng, 8), rand_functional(rng, 8)
    assert nc_to_univariate(
        nc_subordination(nc_from_univariate(mf), nc_from_univariate(nf))) == \
        subordination(mf, nf)
    kappa = nc_r(nc_from_univariate(mf))
    assert all(kappa.get((1,) * n, F(0)) == r_from_moments(mf).coeff(n)
               for n in range(1, 9))
    rep = nc_verify("recover-tau", seed=0)
    assert rep.verified, rep.checks
    _passed(8, "multivariate composition identity and final proposition at "
               "d=2, N=6 (formal t), 10 instances; d=1 reductions "
               "bit-identical; tau recovered with its Jacobi rows", t0)


def test_criterion_09_counterexample_series():
    t0 = time.time()
    rep = verify("counterexample-r", order=10)
    assert rep.verified, rep.checks
    # the same comparison, spelled out: kappa_{2k} of the two-point functional
    eps = formal_t()
    two_point = MomentFunctional(
        10, [eps ** n if n % 2 == 0 else F(0) for n in range(1, 11)])
    kappa = r_from_moments(two_point)
    assert kappa.coeff(2) == eps ** 2
    assert kappa.coeff(4) == -(eps ** 4)
    assert kappa.coeff(6) == 2 * eps ** 6
    assert kappa.coeff(8) == -5 * eps ** 8
    assert kappa.coeff(10) == 14 * eps ** 10
    _passed(9, "R-series of (delta_-eps + delta_eps)/2 matches the "
               "closed-form expansion symbolically in eps to order 10", t0)


def test_criterion_10_verify_all_under_two_minutes():
    t0 = time.time()
    code = cli_run(["verify", "all"])
    elapsed = time.time() - t0
    assert code == 0
    assert elapsed < 120, f"verify all took {elapsed:.1f}s"
    _passed(10, f"`freeconv verify all` exits 0 in {elapsed:.1f}s", t0)
