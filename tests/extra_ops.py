"""Operations on the library's kernels that the library itself never calls.

The tests run them beside the public operations: the forward solve of
R(z(1+M)) = M on a series alone, the zero word functional and the free
deconvolution of word functionals.  Each is built from the library's own
kernels, as the public operations are.
"""

from __future__ import annotations

from freeconv import multivariate as mv
from freeconv.functionals import MomentFunctional
from freeconv.transforms import _forward_moments


def solve_moments(r, order):
    """The forward solve of R(z(1+M)) = M for m_1..m_order; the functional
    carries no R."""
    return MomentFunctional._made(
        order, _forward_moments(r.coeffs()[:order + 1]))


def nc_zero(d, order):
    return mv.NCFunctional(d, order, {})


def nc_free_deconvolve(a, b):
    """moments(R(a) - R(b)) word by word, at the lower order, in one
    ``_graded_words`` run."""
    return mv._graded_words(
        lambda d, order, minus, x, y: mv._moments_from_r(
            d, order, minus, mv._merge(mv._r(d, order, minus, x),
                                       mv._r(d, order, minus, y), minus)),
        a.d, min(a.order, b.order), a, b)
