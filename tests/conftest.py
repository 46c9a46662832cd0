"""Shared oracles and helpers for the test suite.

The per-mode oracle diagonalizes the asymptotic operator brute-force: for a
constant coefficient matrix S the operator acts on the k-th Fourier mode as
the Hermitian matrix 2 pi k (i J0) + S, so its full spectrum is the union of
these small eigenproblems.  This never touches the circle-grid assembly it
is used to check.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

from crlab.loops import standard_j


def mode_oracle_eigenvalues(S, kmax=24):
    """Sorted eigenvalues of J0 d/dt + S (constant S) over modes |k| <= kmax."""
    S = np.asarray(S, dtype=float)
    dim = S.shape[0]
    J = standard_j(dim)
    out = []
    for k in range(-kmax, kmax + 1):
        H = S.astype(complex) + 2.0 * np.pi * k * (1j * J)
        out.extend(np.linalg.eigvalsh(H))
    return np.sort(np.array(out))


# dim-4 endpoints with margins 1.148 and 1.305 and spectral flow 0 along the
# linear path, on which two eigenvalues come within 7e-5 of each other near
# s = 0.09
NEAR_COLLISION_ENDPOINTS = (
    [[-5.1, 0.4, -0.4, -4.6], [0.4, -4.4, 2.2, -3.6], [-0.4, 2.2, 0.4, 1.7],
     [-4.6, -3.6, 1.7, -3.4]],
    [[-0.9, -0.6, 0.5, 3.1], [-0.6, 1.7, -2.6, 2.5], [0.5, -2.6, 0.9, -1.0],
     [3.1, 2.5, -1.0, 3.2]],
)


def oracle_min_abs_eigenvalue(S, kmax=8):
    return float(np.abs(mode_oracle_eigenvalues(S, kmax)).min())


def random_symmetric(rng, dim, scale=1.0):
    A = rng.normal(size=(dim, dim))
    return scale * (A + A.T) / 2.0


def random_nondegenerate_symmetric(rng, dim, scale=2.0, margin=0.2):
    """Random symmetric matrix whose asymptotic operator has spectral gap >= margin."""
    while True:
        S = random_symmetric(rng, dim, scale)
        lam = mode_oracle_eigenvalues(S, kmax=6)
        if np.abs(lam).min() >= margin:
            return S


QUARTERS = st.integers(1, 12).map(lambda n: n / 4.0)          # weight magnitudes 0.25..3
SIGNED_WEIGHTS = st.tuples(st.sampled_from([-1.0, 1.0]), QUARTERS).map(lambda p: p[0] * p[1])


def _symmetric_2x2(vals):
    a, b, c = (v / 4.0 for v in vals)
    return np.array([[a, b], [b, c]])


SYMMETRIC_2X2 = st.tuples(*[st.integers(-12, 12)] * 3).map(_symmetric_2x2)


def clear_of_walls(ends, weights):
    """Every constant end nondegenerate, its weight 0.2 clear of the walls on either side."""
    for S, w in zip(ends, weights):
        lam = mode_oracle_eigenvalues(S, kmax=6)
        if not (np.abs(lam).min() >= 0.2 and np.abs(lam - w).min() >= 0.2
                and np.abs(lam + w).min() >= 0.2):
            return False
    return True


def t_dependent_copy(problem):
    """The same problem with its coefficient read as a function of (s, t):
    ``assemble`` then builds it as one coupled block."""
    return replace(problem, coeff_st=lambda s, t: problem.coefficient(s))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
