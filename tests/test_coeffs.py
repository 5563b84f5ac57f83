from fractions import Fraction as F

import pytest

from freeconv.coeffs import (
    ExactDivisionError,
    RingMismatchError,
    TPoly,
    exact_div,
    formal_t,
    t_derivative,
)


def poly(*cs):
    return TPoly(cs)


def test_construction_strips_trailing_zeros():
    assert poly(1, 2, 0, 0).coeffs == (F(1), F(2))
    assert poly().coeffs == ()
    assert poly(0, 0).coeffs == ()


def test_arithmetic():
    t = formal_t()
    p = (1 + t) * (1 - t)
    assert p == poly(1, 0, -1)
    assert (t + t) == poly(0, 2)
    assert t ** 3 == poly(0, 0, 0, 1)
    assert -(1 - t) == poly(-1, 1)
    assert (t - t) == poly()


def test_fraction_promotion_both_sides():
    t = formal_t()
    assert F(1, 2) + t == poly(F(1, 2), 1)
    assert t + F(1, 2) == poly(F(1, 2), 1)
    assert F(2) * t == poly(0, 2)
    assert 3 - t == poly(3, -1)


def test_exact_division():
    t = formal_t()
    num = (1 + t) * (2 + 3 * t)
    assert num / (1 + t) == poly(2, 3)
    assert num / (2 + 3 * t) == poly(1, 1)
    with pytest.raises(ExactDivisionError):
        (1 + t * t) / (1 + t)
    # division by a valuation-1 polynomial
    assert (t * t * 3) / t == poly(0, 3)
    with pytest.raises(ExactDivisionError):
        (1 + t) / t


def test_division_by_zero():
    t = formal_t()
    with pytest.raises(ZeroDivisionError):
        (1 + t) / TPoly(())
    with pytest.raises(ZeroDivisionError):
        exact_div(F(1), F(0))


def test_reciprocal_needs_cap():
    t = formal_t()
    with pytest.raises(ExactDivisionError):
        (1 + t).reciprocal()
    assert TPoly((F(2),)).reciprocal() == F(1, 2)


def test_ring_mismatch():
    t = formal_t("t")
    eps = formal_t("eps")
    with pytest.raises(RingMismatchError):
        t + eps
    # constants cross rings freely
    assert TPoly((F(2),), var="t") + eps == TPoly((2, 1), var="eps")


def test_evaluate_and_derivative():
    t = formal_t()
    p = 1 + 2 * t + 3 * t ** 2
    assert p.evaluate(F(1, 2)) == F(1) + 1 + F(3, 4)
    assert p.t_derivative() == poly(2, 6)
    assert t_derivative(F(5)) == 0


def test_equality_with_scalars():
    t = formal_t()
    assert TPoly((F(3),)) == 3
    assert not (t == 1)
    assert (1 + t - t) == 1
