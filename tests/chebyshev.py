"""The Chebyshev algorithm on full rows, for the Jacobi-row tests.

A reference for ``freeconv.functionals.jacobi_from_moments`` on both of its
paths.  When a moment it reads is a ``TPoly``, that function grows its
sigma table level by level; this loop fills each row sigma_{k+1,l} to its
full length before it divides, with the same recurrence, the same exact
divisions on the same operands in the same order and the same termination
check.  Over Q that function runs on primitive int rows and divides
nothing, and this loop, on ``Fraction``, is its reference in the ring of
the outputs.  Either way the two must give the same rows, type for type,
or the same error, on every input.  The division is a parameter, so a test
can count it.
"""

from __future__ import annotations

from freeconv.coeffs import ZERO, ONE
from freeconv.functionals import (
    JacobiDepthError,
    JacobiParams,
    NoJacobiRepresentationError,
    moments_from_jacobi,
)


def jacobi_rows_full(mf, levels, exact_div):
    """The rows (beta_j, gamma_j), j < levels, of m_1..m_{2 levels}, each
    sigma row filled to l <= 2 levels - k - 1 before gamma_k is divided."""
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
