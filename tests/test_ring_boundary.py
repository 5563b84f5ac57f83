"""The ring boundary.  A value from outside the library enters a series or a
functional through the public constructors, which check it by
``coeffs.as_coeff``; the library's own results enter as they are, through
``series._series`` and ``MomentFunctional._made``, and the graded driver
reads each coefficient once, in ``coeffs._grade``."""

import importlib
import pkgutil
import random
from fractions import Fraction as F

import pytest
from extra_ops import solve_moments
from hypothesis import given, settings, strategies as st
from test_convolutions import DRAW_KINDS, _draw

import freeconv
from freeconv import coeffs, transforms
from freeconv.coeffs import TPoly, formal_t
from freeconv.convolutions import monotone_convolve
from freeconv.functionals import (JacobiParams, MomentFunctional, TwoStatePair,
                                  moments_from_jacobi)
from freeconv.series import TruncSeries, _series
from freeconv.transforms import (eta_from_moments, moments_from_eta,
                                 moments_from_r, r_from_moments, two_state_r)


def _typed(cs):
    return [(type(c), c) for c in cs]


def test_series_entry_cuts_and_pads_as_the_constructor_does():
    """``_series(order, cs)`` holds exactly order + 1 coefficients: it cuts
    a longer list, as ``TruncSeries`` does, and pads a shorter one."""
    cs = [F(1), F(2), F(3), F(4)]
    for order in range(7):
        got = _series(order, cs)
        assert got.order == order and len(got.coeffs()) == order + 1
        assert _typed(got.coeffs()) == _typed(TruncSeries(order, cs).coeffs())
    assert _series(2, tuple(cs)).coeffs() == (1, 2, 3)
    assert _series(2, [1, 2, 3, 4]).coeffs() == (1, 2, 3)


def _as_coeff_spy(mp):
    """Replace ``coeffs.as_coeff`` in every freeconv module that holds it by
    a spy; the list it returns collects each value it is called on."""
    real, seen = coeffs.as_coeff, []

    def spy(x):
        seen.append(x)
        return real(x)

    modules = [freeconv] + [
        importlib.import_module(f"freeconv.{info.name}")
        for info in pkgutil.iter_modules(freeconv.__path__)]
    for module in modules:
        if getattr(module, "as_coeff", None) is real:
            mp.setattr(module, "as_coeff", spy)
    return seen


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 12), st.booleans(),
       st.sampled_from(DRAW_KINDS))
def test_trusted_entries_equal_the_public_constructors(seed, order, formal,
                                                       kind):
    """Every kernel output that enters a series or a functional as it is,
    on draws over Q and Q[t], equals the same coefficients passed through
    the public ``TruncSeries`` or ``MomentFunctional``, type for type: each
    a ``Fraction`` or a ``TPoly``, never an int, and each series holds
    order + 1 of them.  The series operations equal their results built
    through the constructor from the inputs.  No ``as_coeff`` runs on any
    of those paths; ``scale`` checks only its scalar."""
    rng = random.Random(seed)
    t = formal_t()
    mu, nu = _draw(rng, order, formal, kind), _draw(rng, order, formal, kind)
    a = TruncSeries(order, (F(1, 3),) + mu.moments())
    b = TruncSeries(order, nu.moments())
    low = TruncSeries(order, (0, 0) + nu.moments())
    r = TruncSeries(order, (0,) + mu.moments())
    carried_r, carried_eta = moments_from_r(r, order), moments_from_eta(r, order)
    pair = TwoStatePair(nu, mu)
    # strip divides by the variance: a rational one divides over Q[t] too
    m1 = F(rng.randint(-2, 2), rng.randint(1, 3))
    var = F(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3))
    lifted = MomentFunctional(order, (m1, m1 * m1 + var) + mu.moments()[2:])
    beta_gamma = lifted.mean_var()

    def q():
        return F(rng.randint(-3, 3), rng.randint(1, 3)) + (
            rng.randint(-1, 1) * t if formal else 0)

    depth = (order + 1) // 2
    rows = JacobiParams([q() for _ in range(depth)],
                        [q() for _ in range(depth)])
    repeating = JacobiParams([q()], [q()], repeat=(q(), q()))
    s = q()

    with pytest.MonkeyPatch.context() as mp:
        seen = _as_coeff_spy(mp)
        series = {
            "r_from_moments": r_from_moments(mu),
            "r_from_moments, carried": r_from_moments(carried_r),
            "eta_from_moments": eta_from_moments(mu),
            "eta_from_moments, carried": eta_from_moments(carried_eta),
            "two_state_r": two_state_r(pair),
            "_substitute_divide": transforms._substitute_divide(a, nu, order),
        }
        ops = {
            "+": (a + b, [x + y for x, y in zip(a.coeffs(), b.coeffs())]),
            "-": (a - b, [x - y for x, y in zip(a.coeffs(), b.coeffs())]),
            "unary -": (-a, [-x for x in a.coeffs()]),
            "scale": (a.scale(s), [s * x for x in a.coeffs()]),
            "truncate": (a.truncate(order - 1), a.coeffs()[:order]),
            "shift_down": (low.shift_down(2), low.coeffs()[2:]),
        }
        functionals = {
            "_strip_once": transforms._strip_once(lifted, *beta_gamma),
            "monotone_convolve": monotone_convolve(mu, nu),
            "solve_moments": solve_moments(r, order),
            "moments_from_jacobi": moments_from_jacobi(rows, order),
            "moments_from_jacobi, repeating":
                moments_from_jacobi(repeating, order),
        }
    assert seen == [s]
    for name, (got, want) in ops.items():
        series[name] = got
        public = TruncSeries(got.order, want)
        assert _typed(got.coeffs()) == _typed(public.coeffs()), name
    for name, got in series.items():
        cs = got.coeffs()
        assert len(cs) == got.order + 1, name
        assert all(type(c) in (F, TPoly) for c in cs), name
        assert _typed(cs) == _typed(TruncSeries(got.order, cs).coeffs()), name
    for name, got in functionals.items():
        ms = got.moments()
        assert len(ms) == got.order, name
        assert all(type(c) in (F, TPoly) for c in ms), name
        public = MomentFunctional(got.order, ms)
        assert _typed(ms) == _typed(public.moments()), name


@pytest.mark.parametrize("bad", [0.5, "1/2"])
def test_public_constructors_refuse_what_is_no_coefficient(bad):
    """A float or a string from outside the library is refused by every
    public constructor, wherever it stands."""
    one = F(1)
    makers = [
        lambda: TruncSeries(2, [one, bad]),
        lambda: TruncSeries(2, [bad]),
        lambda: MomentFunctional(2, [bad]),
        lambda: MomentFunctional(2, [one, bad]),
        lambda: JacobiParams([bad], [one]),
        lambda: JacobiParams([one], [bad]),
        lambda: JacobiParams([one], [one], repeat=(bad, one)),
        lambda: JacobiParams([one], [one], repeat=(one, bad)),
    ]
    for make in makers:
        with pytest.raises(TypeError, match="not a coefficient"):
            make()


def test_public_constructors_turn_an_int_into_a_fraction():
    s = TruncSeries(3, [1, 0, -2])
    assert _typed(s.coeffs()) == _typed([F(1), F(0), F(-2), F(0)])
    mf = MomentFunctional(3, [2, 5])
    assert _typed(mf.moments()) == _typed([F(2), F(5), F(0)])
    j = JacobiParams([1, 0], [2, 3], repeat=(4, 5))
    assert _typed(j.betas + j.gammas + j.repeat) == _typed(
        [F(1), F(0), F(2), F(3), F(4), F(5)])


@pytest.mark.parametrize("bad", [0.5, "1/2", None, 1j])
def test_a_solve_refuses_what_is_no_coefficient_before_its_kernel(bad):
    """``_graded`` reads every coefficient of every input in ``_grade``
    before the kernel runs, so a value that is no coefficient, in any input
    and over Q or Q[t], raises TypeError and no kernel runs."""
    ran = []

    def kernel(minus, *rows):
        ran.append(rows)
        return [0] * len(rows[0])

    t = formal_t()
    for seqs in ([[F(1), F(1, 2), bad]], [[F(1), t], [F(1), bad]],
                 [[F(1), bad, t]]):
        with pytest.raises(TypeError, match="not a coefficient"):
            transforms._graded(kernel, *seqs)
    assert ran == []
