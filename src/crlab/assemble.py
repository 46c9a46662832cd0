"""Discretization of cylinder operators with spectral boundary conditions.

The s-direction uses an eighth-order finite-difference collocation on a
uniform node grid: the PDE is collocated at the N-1 interval midpoints, each
row built from an 8-node local stencil (Fornberg weights), so the matrix has
one fewer residual block than unknown blocks.  The stencils are stored as
(N-1) x 8 weight bands (``fd_operators``), O(N) memory, their first nodes set
by one rule, ``_stencil_starts``, that gluing's interpolation shares.  The
t-direction is represented by real trigonometric modes with band limit
K = t_nodes/2 - 1; when the coefficient field is independent of t the
operator block-diagonalizes over modes and each block is assembled and
decomposed separately, otherwise a coupled all-mode matrix is built.

At a truncation boundary the admissible trace components are selected by the
spectral projections of the weight-shifted asymptotic operator: components
along eigenvectors whose decay direction points out of the box are
constrained to zero.  These boundary rows are what give the rectangular
matrix a nonzero index; a periodic or unconstrained truncation always has
numerical index zero.

Weight conjugation is folded in analytically: the assembled operator is
e^{w} L e^{-w} = d/ds + J d/dt + B(s,t) - w'(s), with w the smooth per-end
weight profile.  Augmentation columns are produced by applying the discrete
operator rows to the sampled shift shapes e^{w(s)} beta_end(s); this keeps
the discrete kernel relations exact up to the stencil error on e^{w} alone.

Every block, scalar, contact, augmented or coupled, is built by one
function, ``_mode_block``, as row windows.  A mode is given by its
t-derivative part ``base`` (the 1x1 [-2 pi k] of a scalar complex-line
mode, the 2x2 zero of the realified complex-line mode 0 with its two real
fields (a, theta), 2 pi i k J of a contact mode, the trig-basis derivative
of the coupled block), B at the midpoints, and each end's asymptotic
matrix.  ``_stencil_rows`` computes the 8-node band of the collocated rows,
node-major and field-minor; ``_end_rows`` the spectral projection at an
end, in the first or last window.  ``_shifted`` makes a block dense and
appends its shift columns, on both backends: so every block's unknowns are
its fields node-major and field-minor, then the shift parameters.  The
disk cap of a plane is one rule: the trace is constrained along the
positive eigenspace of ``base``, the Fourier modes that do not extend
holomorphically over the disk.

Storage.  Every row of a mode lives in an 8-node window (8F columns on F
fields), so a mode block is stored as row windows: the 8F values of each
row and the column its window starts at (``ModeBlock.windows``).  A block
has one row order, the one its dense view and its products read: the
stencil rows, then the negative-end rows, then the positive-end rows, with
``ModeBlock.pde_rows`` marking where the end rows begin.  On the
2-dimensional contact fiber that is 16 columns per row against 2N, about
1/48 of the dense bytes at N = 384.  The realified mode 0 that carries
shift columns and the coupled block, with or without them, are written out
dense once by ``_shifted`` from their row windows and stored dense
(``ModeBlock.dense``); a block holds one storage, and it decides the block.
``ModeBlock.matrix`` materializes a row-window block on first read and
keeps it; only the dense fallback below, ``kernel_vectors`` on
rank-deficient blocks and ``transposed`` read it.  The rank decision reads
``ModeBlock.shape``, the gluing residuals the product ``ModeBlock @ v``,
and ``DiscreteOperator.matrix`` (the Matrix Market export) builds its CSR
matrix from the windows.
The row-window blocks of one decoupled operator also share one object
(``ModeBlock.gram_terms``, ``_GramTerms``): mode k's stencil rows are
W0 + k WX, so their Gram band is G0 + k G1 + k^2 G2, three bands built once
per operator, on its first decomposition or certificate.

Each block is decomposed at most once per operator, lazily, by one of two
routes chosen by the block's storage alone.  A row-window block M has one
Gram matrix, M^H M, whatever its shape: banded on its columns with
bandwidth 8F - 1 (7 on a scalar mode, 15 on the 2-dimensional contact
fiber).  It gets its singular values as square roots of the Gram
eigenvalues from LAPACK's banded eigensolver, in O(n^2 kd) instead of
O(n^3).  A wide block's Gram matrix also holds its structural kernel:
eig(M^H M) is {sigma_i^2} and n_cols - n_rows zeros, and those smallest
eigenvalues are dropped.  Its one Gram band (``_gram_band``) is the shared
terms at its k plus its end rows' outer products (two axpys and a few
rows, not a band rebuilt from every window), or the sum over all its rows
without shared terms.  Dense blocks take the values-only dense SVD, which
stays the reference.  A guard sends a row-window block to dense SVD when
its smallest kept Gram eigenvalue is below 1e-8 times its largest
(sigma_min < 1e-4 sigma_max), because squaring blurs values near the rank
threshold; so every rank-deficient or near-deficient block is decided by
dense SVD.

A row-window block whose values cannot reach a report is not decomposed at
all but certified: a banded Cholesky factorization of its Gram matrix
shifted by x I succeeds only when every Gram eigenvalue lies above x (of
x I - G: below x), up to rounding, in O(n kd^2).  Every rank decision asks
one question of a block, ``DiscreteOperator.values_below(i, cut, most)``:
its singular values below the cut, an empty array when all of them are
certified to exceed it.  The operator keeps one record per block
(``Evidence``), the statement "these are every singular value of the block
below b": a decomposition gives all of them with b = inf, a floor
certificate none with b the floor, and the partial route (below) the
smallest ones with b its inertia point.  The callers (the index walk in
``crlab.indexing``, ``kernel_vectors``, the gluing stability constant)
choose the cuts.  A wide block's structural zeros would fail
every floor certificate, so it is always decomposed; its sigma_max
certificate holds as on any block.  A certificate factors the same band the
block's values come from, so a certified floor and any values computed
later for that block describe one matrix.  The shared terms differ
from a band summed over the block's own rows by rounding, of order
eps max|G|, inside the certificates' relative room of 1e-12.

A row-window block that holds values the caller reads is still not
decomposed when it is large: not wide, its full rank certified, and with
at least _PARTIAL_FINITE_MIN_COLS columns under a finite cut (which asks
for the one or two values below it) or _PARTIAL_MIN_COLS under an infinite
cut (which asks for the ``most`` smallest), ``values_below`` takes the
partial route (``_lowest_gram``) and returns only its smallest values, the
ones below the cut or the ``most`` smallest.  The banded Cholesky factor of
G - sigma I, sigma at the guard's 1e-8 lambda_top, certifies that floor;
shift-invert block Lanczos on that factor (Ericsson & Ruhe, 1980) proposes
the values; Kahan's residual bound puts each within rounding of a distinct
eigenvalue; and a Sylvester inertia count at a point y in the gap after
them, from an unpivoted block LDL^H of G - y I (``_count_below``), shows
that exactly that many eigenvalues lie below y.  It costs O(n kd) per
Lanczos step and O(n kd^2) per factorization, against eig_banded's O(n^2
kd), which only pays below those sizes; under a finite cut the route
checks its Ritz values after every Krylov block, so it stops once the few
values below the cut have converged.  A block that fails a check is
decomposed; ``block_values`` stays the full reference.

No row-window block is decomposed for sigma_max either
(``DiscreteOperator.sigma_max``).  A block's top Gram eigenvalue is settled
by the same certificate (``_gram_top``): a short Lanczos run on the band,
with matrix-vector products in O(n kd), proposes it, and it is fixed as
the smallest point of a grid h Z, h about 2^-46 of the block's norm bound,
at which x I - G factors.  The settled value is a function of the band
alone, not of the Lanczos rounding, the search path or the BLAS thread
count, so an operator and a copy with every block decomposed agree on
sigma_max bit for bit; it lies within h of lambda_max, a few 1e-14
relative.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import profiles
from .exceptions import AssemblyError, FredholmWeightError, NumericalError, ResolutionError
from .loops import standard_j
from .problems import CRProblem, GridSpec, default_grid_for

_FD_STENCIL = 8


def fornberg_weights(x0, nodes, max_order=1):
    """Finite-difference weights for derivatives 0..max_order at x0.

    ``x0`` may also be an array of points, ``nodes`` then holding one row of
    nodes per point: the recurrence runs elementwise over the points, with the
    same floating-point operations as for a single point.  Returns the weights
    with shape nodes.shape + (max_order + 1,).
    """
    x0 = np.asarray(x0, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.shape[-1]
    c = np.zeros(nodes.shape + (max_order + 1,))
    c1 = 1.0
    c4 = nodes[..., 0] - x0
    c[..., 0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, max_order)
        c2 = 1.0
        c5 = c4
        c4 = nodes[..., i] - x0
        for j in range(i):
            c3 = nodes[..., i] - nodes[..., j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[..., i, k] = c1 * (k * c[..., i - 1, k - 1] - c5 * c[..., i - 1, k]) / c2
                c[..., i, 0] = -c1 * c5 * c[..., i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[..., j, k] = (c4 * c[..., j, k] - k * c[..., j, k - 1]) / c3
            c[..., j, 0] = c4 * c[..., j, 0] / c3
        c1 = c2
    return c


def fd_operators(s_lo, s_hi, n_nodes):
    """Midpoint derivative/interpolation stencils on a uniform grid.

    Returns (D, P, s, mids): D and P are (n_nodes-1, 8) weight bands; row i
    holds the 8-node stencil differentiating (D) or interpolating (P) at the
    midpoint of interval i, on the nodes from ``_stencil_starts(s, mids)[i]``
    on.  The bands are cached per grid and shared between callers, so they
    are read-only; they take O(n_nodes) memory.
    """
    return _fd_operators(round(float(s_lo), 12), round(float(s_hi), 12), int(n_nodes))


def _stencil_starts(s, x):
    """First node of the 8-node stencil at each point x of the uniform grid s:
    centred on x's interval, shifted at the edges, never widened."""
    first = np.floor((x - s[0]) / (s[1] - s[0])).astype(int) - (_FD_STENCIL // 2 - 1)
    return np.clip(first, 0, len(s) - _FD_STENCIL)


@functools.lru_cache(maxsize=32)
def _fd_operators(s_lo, s_hi, N):
    if N < _FD_STENCIL + 1:
        raise ResolutionError(f"need at least {_FD_STENCIL + 1} s-nodes, got {N}")
    s = np.linspace(s_lo, s_hi, N)
    mids = 0.5 * (s[:-1] + s[1:])
    cols = _stencil_starts(s, mids)[:, None] + np.arange(_FD_STENCIL)
    cc = fornberg_weights(mids, s[cols], 1)
    D, P = cc[..., 1].copy(), cc[..., 0].copy()
    for a in (D, P, s, mids):
        a.flags.writeable = False
    return D, P, s, mids


@dataclass(eq=False)
class ModeBlock:
    """One decoupled (or the single coupled) factor of the discrete operator.

    ``mult`` is the real multiplicity each matrix dimension carries: 2 for a
    scalar complex-line mode (identical real and imaginary copies) and for a
    contact-fiber mode k >= 1 (conjugate pair +-k), 1 for realified blocks.

    A block with the stencil row layout (every unshifted decoupled block) is
    stored as row windows: ``windows[r]`` holds the 8F entries of row r from
    column ``starts[r]`` on, F being the fields per s-node.  The rows are
    stored in the one order every reader sees: the ``pde_rows`` stencil rows,
    then the negative-end rows, whose windows start at column 0, then the
    positive-end rows, whose windows start where the last stencil row's
    does.  Every other block is stored ``dense``, and a block given both
    storages or neither raises ``ValueError``.  ``matrix`` is the dense view,
    row r of it being row r of the windows: the given ``dense``, or the
    windows materialized on first read and kept, so only the readers that
    need the dense entries pay for them.  ``shape`` never materializes.  The
    columns are the fields node-major and field-minor, then the ``aug_cols``
    shift columns.

    ``gram_terms`` is the Gram band of the stencil rows that the row-window
    blocks of one assembled operator share (``_GramTerms``, mode factor
    ``k``); the block's Gram band reads it instead of summing every row.
    It is set only by the assembler and is no constructor argument, so a
    block built from other windows (directly or by ``dataclasses.replace``)
    carries no shared terms and sums its band over its own rows.  The
    invariants: an assembled block's stencil windows are never edited in
    place, and a block's windows, end rows included, are edited only before
    ``matrix`` is first read, since ``matrix`` keeps the entries it
    materialized.  Before that, an assembled block's end rows may be edited;
    the band reads them when it is built.
    """

    k: object
    mult: int
    pde_rows: int
    aug_cols: int = 0
    tag: str = ""
    dense: np.ndarray = None
    windows: np.ndarray = None
    starts: np.ndarray = None
    gram_terms: object = field(default=None, init=False)

    def __post_init__(self):
        given = (self.dense is not None, self.windows is not None, self.starts is not None)
        if given not in ((True, False, False), (False, True, True)):
            raise ValueError(f"block {self.tag!r} takes either dense or windows and starts")

    def __repr__(self):         # the generated repr would print every array
        return f"ModeBlock({self.tag!r}, shape={self.shape})"

    @property
    def shape(self):
        if self.windows is None:
            return self.dense.shape
        # the last stencil row's window ends at the last column
        return len(self.windows), int(self.starts[self.pde_rows - 1]) + self.windows.shape[1]

    @functools.cached_property
    def matrix(self):
        return self.dense if self.windows is None else _materialize(self)

    def __matmul__(self, v):
        """M v, without making a row-window block dense."""
        if self.windows is None:
            return self.dense @ v
        w = self.windows.shape[1]
        return np.einsum("rj,rj->r", self.windows, v[self.starts[:, None] + np.arange(w)])

    def realified(self):
        """Real matrix carrying this block's full real multiplicity."""
        M = self.matrix
        if np.iscomplexobj(M):
            R, I = M.real, M.imag
            return np.block([[R, -I], [I, R]])
        return scipy.linalg.block_diag(M, M) if self.mult == 2 else M


def _realified_csr(b):
    """``b.realified()`` as CSR, without dense entries for a row-window block:
    each window realified in place, [[Re, -Im], [Im, Re]] for a complex
    block and two copies for a real one of multiplicity 2, explicit zeros
    dropped as ``sp.csr_matrix`` drops them from a dense matrix."""
    if b.windows is None:
        return sp.csr_matrix(b.realified())
    (n_rows, n_cols), width = b.shape, b.windows.shape[1]
    r = np.repeat(np.arange(n_rows), width)
    c = (b.starts[:, None] + np.arange(width)).ravel()
    v = b.windows.ravel()
    if np.iscomplexobj(v):
        parts = [(r, c, v.real), (r, c + n_cols, -v.imag),
                 (r + n_rows, c, v.imag), (r + n_rows, c + n_cols, v.real)]
    elif b.mult == 2:
        parts = [(r, c, v), (r + n_rows, c + n_cols, v)]
    else:
        parts = [(r, c, v)]
    r, c, v = (np.concatenate(x) for x in zip(*parts))
    keep = v != 0
    copies = 1 if len(parts) == 1 else 2
    return sp.csr_matrix((v[keep], (r[keep], c[keep])), shape=(copies * n_rows, copies * n_cols))


def _materialize(b):
    """Dense matrix of a row-window block."""
    n, width = b.windows.shape
    M = np.zeros(b.shape, dtype=b.windows.dtype)
    M[np.arange(n)[:, None], b.starts[:, None] + np.arange(width)] = b.windows
    return M


# Squaring blurs values below 1e-4 sigma_max, near the rank threshold: dense SVD there.
_GRAM_GUARD = 1e-8


@functools.lru_cache(maxsize=None)
def _triu(width):
    """``np.triu_indices(width)``, built once per window width and read-only."""
    p, q = np.triu_indices(width)
    p.flags.writeable = q.flags.writeable = False
    return p, q


def _window_band(U, V, starts, n_cols):
    """Upper band storage, bandwidth width - 1 on n_cols columns, of the sum
    over rows r of the window outer products conj(U[r]) V[r]^T, the windows
    of row r starting at column ``starts[r]``."""
    width = U.shape[1]
    p, q = _triu(width)
    idx = (starts[:, None] + ((width - 1 + p - q) * n_cols + q)).ravel()
    prod, size = (U.conj()[:, p] * V[:, q]).ravel(), width * n_cols
    band = np.bincount(idx, prod.real, size)
    if np.iscomplexobj(prod):
        band = band + 1j * np.bincount(idx, prod.imag, size)
    return band.reshape(width, n_cols)


def _gram_band(b):
    """Upper band storage of M^H M for a row-window block M: n_cols columns,
    bandwidth 8F - 1.

    Every row lives in its window of 8F columns.  The band is the shared
    terms at the block's mode plus its end rows, read from its windows now,
    each end's rows summed as one group in its window, or without shared
    terms the sum over all its rows.  On a wide block it holds the
    n_cols - n_rows structural zero eigenvalues besides sigma_i^2.
    """
    V, starts = b.windows, b.starts
    if b.gram_terms is None:
        return _window_band(V, V, starts, b.shape[1])
    ab = b.gram_terms.band(b.k)
    width = V.shape[1]
    p, q = _triu(width)
    # the end rows follow the stencil rows; the negative end's start at column 0
    e = b.pde_rows
    pos = e + np.count_nonzero(starts[e:] == 0)
    for rows, start in ((V[e:pos], 0), (V[pos:], starts[e - 1])):
        ab[width - 1 + p - q, start + q] += (rows.conj()[:, p] * rows[:, q]).sum(axis=0)
    return ab


def _banded_singular_values(b):
    """Singular values of a row-window block from the eigenvalues of its
    Gram matrix M^H M (``_gram_band``), by LAPACK's banded eigensolver.

    A wide block's n_cols - n_rows smallest eigenvalues are its structural
    zeros and are dropped.  Returns None when lambda_min < 1e-8 lambda_max
    among the rest; the caller then decomposes the block densely.
    """
    n_rows, n_cols = b.shape
    lam = scipy.linalg.eig_banded(_gram_band(b), eigvals_only=True, overwrite_a_band=True,
                                  check_finite=False)[max(n_cols - n_rows, 0):]
    if lam[0] < _GRAM_GUARD * lam[-1]:
        return None
    return np.sqrt(lam[::-1])


# Relative room a certificate leaves for the rounding of the Cholesky
# factorization and of the eigensolver, both of order kd eps ||G||.
_CERT_MARGIN = 1e-12


class _GramTerms:
    """The Gram band of the stencil rows of every mode of one operator.

    The decoupled modes of an operator share the stencil bands D and P
    and the coefficient A(s) = B(s) - w'(s); mode k only adds k X, with
    X = 2 pi i J on the contact fiber and [-2 pi] on the complex line.  So
    mode k's stencil rows are W0 + k WX, W0 the rows of d/ds + A and WX those
    of X alone, and their Gram band is G0 + k G1 + k^2 G2, with G0 = W0^H W0,
    G1 = W0^H WX + WX^H W0 and G2 = WX^H WX.  X is given as phase Y, Y real
    and |phase| = 1, so that every product is real on a real A: then G2 =
    WY^T WY and G1 = phase W0^T WY + conj(phase) WY^T W0.  The three bands
    are built on first use; their sum differs from the band summed over the
    mode's own stencil rows by rounding, of order eps max|G|.
    """

    def __init__(self, stencil, A, Y, phase):
        self._rows = (stencil, A, Y, phase)

    @functools.cached_property
    def bands(self):
        stencil, A, Y, phase = self._rows
        W0, starts = _stencil_rows(stencil, A)
        WY, _ = _stencil_rows((None,) + stencil[1:], np.broadcast_to(Y, A.shape))
        n_cols = len(stencil[2]) * A.shape[1]
        g1 = _window_band(W0, WY, starts, n_cols) * phase
        g1 += _window_band(WY, W0, starts, n_cols) * np.conj(phase)
        return _window_band(W0, W0, starts, n_cols), g1, _window_band(WY, WY, starts, n_cols)

    def band(self, k):
        """Gram band of mode k's stencil rows: G0 alone at k = 0."""
        g0, g1, g2 = self.bands
        if not k:
            return g0.copy()
        ab = g1 * k
        ab += g0
        ab += g2 * (k * k)
        return ab


def _definite(ab, shift, below):
    """Whether shift I - G (``below``) or G - shift I is positive definite, up
    to rounding, G the Hermitian matrix of upper band storage ``ab``: whether
    LAPACK's banded Cholesky factorization of it succeeds (the inertia
    argument), in O(n kd^2).  ``ab`` is left as it was."""
    c = np.negative(ab) if below else ab.copy()
    c[-1] += shift if below else -shift
    pbtrf, = scipy.linalg.get_lapack_funcs(("pbtrf",), (c,))
    return pbtrf(c, lower=0, overwrite_ab=1)[1] == 0


def _gram_certified(b, shift, below):
    """Whether every eigenvalue of the Gram matrix G = M^H M of a row-window
    block M lies below (``below``) or above ``shift`` (``_definite``), against
    the eigensolver's O(n^2 kd).  It factors the band the block's values come
    from (``_gram_band``).
    """
    return _definite(_gram_band(b), shift, below)


# Grid step of a settled top Gram eigenvalue relative to the block's norm
# bound, and the Lanczos steps its proposal may take
_TOP_STEP = 2.0 ** -46
_LANCZOS_STEPS = 64


def _band_matvec(ab):
    """x -> G x for the Hermitian G of upper band storage ``ab``: one product
    of the n x (2 kd + 1) rows of G with the windows of x, O(n kd) per
    vector; x is one vector or a p x n block of them, one per row."""
    kd, n = len(ab) - 1, ab.shape[1]
    rows = np.empty((n, 2 * kd + 1), dtype=ab.dtype)     # rows[i, kd + e] = G[i, i + e]
    rows[:, :kd + 1] = ab.conj().T
    # G[i, i + e] = ab[kd - e, i + e]; past the last column any entry does,
    # since it meets the zero padding of x
    i, e = np.arange(n)[:, None], np.arange(1, kd + 1)
    rows[:, kd + 1:] = ab[kd - e, np.minimum(i + e, n - 1)]

    buffers = {}        # x's leading shape and dtype -> zero-padded copy and its windows

    def matvec(x):
        key = x.shape[:-1] + (x.dtype,)
        if key not in buffers:
            padded = np.zeros(x.shape[:-1] + (n + 2 * kd,), dtype=np.result_type(ab, x))
            buffers[key] = padded, np.lib.stride_tricks.sliding_window_view(
                padded, 2 * kd + 1, axis=-1)
        padded, windows = buffers[key]
        padded[..., kd:kd + n] = x
        return np.einsum("id,...id->...i", rows, windows)

    return matvec


def _ritz_top(ab, step):
    """Lanczos estimate of the largest eigenvalue of the Hermitian matrix of
    upper band ``ab``, from a seeded random start with full
    reorthogonalization.  It stops when the Ritz residual bound, sharpened by
    the gap to the next Ritz value, is below ``step``, or after
    _LANCZOS_STEPS steps.  Only a proposal: ``_gram_top`` certifies it."""
    n = ab.shape[1]
    matvec = _band_matvec(ab)
    Q = np.zeros((min(n, _LANCZOS_STEPS), n), dtype=ab.dtype)
    q = np.random.default_rng(n).standard_normal(n)
    Q[0] = q / np.linalg.norm(q)
    alpha, off = np.zeros(len(Q)), np.zeros(len(Q))     # the tridiagonal Q^H G Q
    for j in range(len(Q)):
        w = matvec(Q[j])
        alpha[j] = np.vdot(Q[j], w).real
        # einsum, not BLAS: a threaded BLAS would spin its idle threads afterwards
        w -= np.einsum("j,jn->n", np.einsum("jn,n->j", Q[:j + 1], w.conj()).conj(), Q[:j + 1])
        beta = np.sqrt(np.vdot(w, w).real)
        theta, s, _ = scipy.linalg.lapack.dstev(alpha[:j + 1], off[:max(j, 1)])
        res = beta * abs(s[-1, -1])
        if j:
            res = min(res, res * res / max(theta[-1] - theta[-2], step))
        if res <= step or j + 1 == len(Q):
            return theta[-1]
        off[j] = beta
        Q[j + 1] = w / beta


def _gram_top(b, bound):
    """The largest eigenvalue of the Gram matrix G = M^H M of row-window block
    M, settled without decomposing it.

    The value is the smallest point x of the grid h Z at which x I - G
    factors (``_definite``), h the power of two with bound 2^-47 < h <=
    bound 2^-46, ``bound`` (``_norm_bound``) >= lambda_max; so it lies
    within h of lambda_max, up to rounding.  ``_ritz_top`` proposes the
    grid point; a galloping search from it, then bisection, finds the
    boundary within [largest diagonal entry of G, bound], x I - G failing
    to factor at the diagonal.  The value depends only on the band, as long
    as factoring is monotone along the grid: a proposal off by rounding
    changes the search path, not the point.
    """
    if not bound:
        return 0.0
    ab = _gram_band(b)
    h = 2.0 ** (np.frexp(bound)[1] - 1) * _TOP_STEP
    lo, hi = int(ab[-1].real.max() // h), int(bound // h) + 2   # fails at lo h, factors at hi h
    untried = hi
    m = min(max(int(np.ceil(_ritz_top(ab, h) / h)), lo + 1), hi - 1)
    down = _definite(ab, m * h, below=True)
    lo, hi = (lo, m) if down else (m, hi)
    step = 1
    while hi - lo > 1:
        m = hi - step if down else lo + step
        if not lo < m < hi:
            m = (lo + hi) // 2
        ok = _definite(ab, m * h, below=True)
        step = 2 * step if ok == down else 0
        lo, hi = (lo, m) if ok else (m, hi)
    if hi == untried and not _definite(ab, hi * h, below=True):
        raise NumericalError(f"no Cholesky certificate above the norm bound of block {b.tag}")
    return float(hi * h)


def _norm_bound(b):
    """||M||_1 ||M||_inf of a row-window block, an upper bound on sigma_max^2."""
    A = np.abs(b.windows)
    cols = np.bincount((b.starts[:, None] + np.arange(A.shape[1])).ravel(), A.ravel())
    return float(A.sum(axis=1).max() * cols.max())


# The partial route takes blocks of at least this many columns when it is
# asked for the ``most`` smallest values (an infinite cut), and of at least
# _PARTIAL_FINITE_MIN_COLS when asked for the few below a finite cut: below
# them eig_banded is as fast (measured on the contact fiber, 1 thread).  Its
# Lanczos basis grows to at most _LANCZOS_DIM vectors, each block of them
# _LANCZOS_POWER solves from the last; under an infinite cut _LANCZOS_CHECK
# blocks lie between its Rayleigh-Ritz checks, under a finite one a check
# follows every block.
_PARTIAL_MIN_COLS = 512
_PARTIAL_FINITE_MIN_COLS = 192
_LANCZOS_DIM = 96
_LANCZOS_POWER = 3
_LANCZOS_CHECK = 4


def _orthonormal(W):
    """Orthonormal rows spanning the rows of the p x n block W (Cholesky QR,
    twice), or None when W is numerically rank-deficient.  einsum, not BLAS,
    as in ``_ritz_top``."""
    for _ in range(2):
        try:
            L = np.linalg.cholesky(np.einsum("pn,qn->pq", W.conj(), W))
        except np.linalg.LinAlgError:
            return None
        W = np.einsum("pq,qn->pn", np.linalg.inv(L).conj(), W)
    return W


def _pivot_inertia(lu, ipiv, room):
    """Negative eigenvalues of the block-diagonal D of a Bunch-Kaufman
    factorization (``?sytrf``/``?hetrf``, lower), or None when one of its 1x1
    or 2x2 pivots has an eigenvalue within ``room`` of zero."""
    eig = lu.diagonal().real
    if ipiv.min() < 0:
        k = np.flatnonzero(ipiv < 0)[::2]       # a 2x2 pivot marks both its rows
        mid = 0.5 * (eig[k] + eig[k + 1])
        r = np.hypot(0.5 * (eig[k] - eig[k + 1]), abs(lu[k + 1, k]))
        eig = np.concatenate([eig[ipiv > 0], mid - r, mid + r])
    return None if np.abs(eig).min() <= room else int((eig < 0).sum())


def _count_below(ab, y, room):
    """How many eigenvalues of the Hermitian G of upper band ``ab`` lie below
    y, by Sylvester's law of inertia, or None when the count cannot be
    trusted.

    G - y I is block tridiagonal in blocks of kd + 1 (padded with identity
    rows, which add positive eigenvalues only).  Its block LDL^H, unpivoted
    across blocks, has as D the Schur complements S_0 = A_00, S_{j+1} =
    A_{j+1,j+1} - A_{j+1,j} S_j^-1 A_{j,j+1}, and the count is theirs; each
    one's inertia is read from its Bunch-Kaufman factorization.  A pivot
    within ``room`` of singular refuses the count.
    """
    kd, n = len(ab) - 1, ab.shape[1]
    b = kd + 1
    nb = -(-n // b)
    padded = np.zeros((b, nb * b), dtype=ab.dtype)
    padded[:, :n] = ab
    padded[-1, n:] = 1.0 + y
    p, q = np.arange(b)[:, None], np.arange(b)
    starts = np.arange(nb)[:, None, None] * b
    # diagonal blocks from their upper triangles; the super-diagonal block
    # G[jb + p, (j + 1) b + q] is nonzero only for q < p, at offset b + q - p
    upper = np.where(q >= p, padded[kd - np.abs(q - p), starts + q], 0.0)
    diag = (upper + np.swapaxes(upper, 1, 2).conj()
            - np.eye(b) * (padded[-1][starts + q].real + y))
    sup = np.where(q < p, padded[np.maximum(p - q - 1, 0),
                                 np.minimum(starts + b + q, nb * b - 1)], 0.0)
    trf, trs = scipy.linalg.get_lapack_funcs(
        ("hetrf", "hetrs") if np.iscomplexobj(ab) else ("sytrf", "sytrs"), (diag,))
    count, S = 0, diag[0]
    for j in range(nb):
        lu, ipiv, info = trf(S, lower=1)
        neg = None if info else _pivot_inertia(lu, ipiv, room)
        if neg is None:
            return None
        count += neg
        if j + 1 < nb:
            S = diag[j + 1] - sup[j].conj().T @ trs(lu, ipiv, sup[j], lower=1)[0]
    return count


def _lowest_gram(ab, m, shift, room, top=np.inf):
    """The smallest eigenvalues of the Hermitian G of upper band ``ab``,
    certified without decomposing G: (values, y), the values ascending and
    every eigenvalue of G below y among them; or None.  They are at least the
    m smallest, or every eigenvalue below ``top`` when fewer lie there.

    G - shift I is factored by banded Cholesky, which certifies that G has
    no eigenvalue below ``shift``, and a shift-invert block Lanczos on that
    factor (Ericsson & Ruhe, 1980) proposes the values: one Krylov vector
    per field from a seeded random start, each new block (G - shift I)^-k
    times the last, k = _LANCZOS_POWER, fully reorthogonalized; the values
    are the Rayleigh-Ritz values of G on the basis
    (``_accepted_ritz_values``), checked after every Krylov block from the
    second on when ``top`` is finite (the caller reads the few values below
    it), else once the basis exceeds m + p vectors and then every
    _LANCZOS_CHECK blocks.  A proposal of c values with Ritz vectors X
    and residual R = G X - X Theta, ||R||_F <= ``room``, puts c eigenvalues
    of G, multiplicities counted, within ``room`` of them (Kahan's theorem),
    all below a point y in the gap after them; an inertia count at y
    (``_count_below``) that finds exactly c makes them the c smallest.  A
    failed factorization or count, or no proposal within _LANCZOS_DIM Krylov
    vectors, returns None.  The products are einsum, the solves and the
    small eigenproblems LAPACK without level-3 BLAS, so the values do not
    depend on the BLAS thread count and no BLAS thread spins afterwards.
    """
    kd, n = len(ab) - 1, ab.shape[1]
    factor = ab.copy()
    factor[-1] -= shift
    pbtrf, pbtrs = scipy.linalg.get_lapack_funcs(("pbtrf", "pbtrs"), (factor,))
    factor, info = pbtrf(factor, lower=0, overwrite_ab=1)
    if info:
        return None
    matvec = _band_matvec(ab)
    p = (kd + 1) // _FD_STENCIL
    dim = min(n, _LANCZOS_DIM) // p * p
    # the basis and G times it, one Krylov vector per row, and H = V^H G V
    V, GV = np.zeros((dim, n), dtype=ab.dtype), np.zeros((dim, n), dtype=ab.dtype)
    H = np.zeros((dim, dim), dtype=ab.dtype)
    W = np.random.default_rng(n).standard_normal((p, n)).astype(ab.dtype)
    for j in range(p, dim + 1, p):
        for _ in range(2):
            W -= np.einsum("jp,jn->pn",
                           np.einsum("jn,pn->jp", V[:j - p], W.conj()).conj(), V[:j - p])
        Q = _orthonormal(W)
        if Q is None:
            return None
        V[j - p:j], GV[j - p:j] = Q, matvec(Q)
        H[:j, j - p:j] = np.einsum("jn,pn->jp", V[:j], GV[j - p:j].conj()).conj()
        H[j - p:j, :j] = H[:j, j - p:j].conj().T
        if (j > p and np.isfinite(top)) or (
                j > m + p and (j // p % _LANCZOS_CHECK == 0 or j == dim)):
            found = _accepted_ritz_values(V[:j], GV[:j], H[:j, :j], m, p, room, top)
            if found is not None:
                return found if _count_below(ab, found[1], room) == len(found[0]) else None
        W = Q.T
        for _ in range(_LANCZOS_POWER):
            W = pbtrs(factor, W, lower=0)[0]
        W = W.T
    return None


def _small_eigh(H):
    """Eigenvalues, ascending, and eigenvectors of the small Hermitian H, by
    LAPACK's band eigensolver on H as one full band: ``?syevd`` would call
    threaded level-3 BLAS, whose idle threads spin afterwards."""
    d = len(H)
    i, j = np.triu_indices(d)
    band = np.zeros((d, d), dtype=H.dtype)
    band[d - 1 - (j - i), j] = H[i, j]
    sbevd, = scipy.linalg.get_lapack_funcs(("hbevd" if np.iscomplexobj(H) else "sbevd",), (band,))
    w, Z, info = sbevd(band)
    if info:
        raise NumericalError(f"band eigensolver failed on a {d}x{d} Rayleigh-Ritz matrix")
    return w, Z


def _accepted_ritz_values(V, GV, H, m, p, room, top):
    """Rayleigh-Ritz on the orthonormal rows V, GV their products with G and
    H = V^H G V: the c smallest Ritz values and a point y after them, or
    None.

    c is the first count from m on, within one Krylov block, at which the
    Ritz values leave a gap wider than 2 ``room``, y the gap's midpoint; or,
    when fewer than m Ritz values lie below ``top``, c counts those and y is
    at least ``top``; when every Ritz value lies below ``top`` there is no
    gap to test, and the basis must grow.  The c Ritz vectors' residual must
    be within ``room`` in Frobenius norm.
    """
    theta, Y = _small_eigh(H)
    below = int(np.searchsorted(theta, top))
    if below >= m:
        splits = range(m, min(m + p, len(theta) - 1) + 1)
    else:
        splits = [below] if 0 < below < len(theta) else []
    for c in splits:
        if theta[c] - theta[c - 1] > 2.0 * room:
            Yc = Y[:, :c]
            R = np.einsum("jc,jn->cn", Yc, GV) - theta[:c, None] * np.einsum("jc,jn->cn", Yc, V)
            if np.linalg.norm(R) > room:
                return None
            y = 0.5 * (theta[c - 1] + theta[c])
            return theta[:c], (y if c >= m else max(y, top))
    return None


class Evidence(NamedTuple):
    """One block's record: ``values``, descending, are every singular value
    of the block below ``bound``, computed or certified by ``route``."""

    values: np.ndarray
    bound: float
    route: str


@dataclass
class DiscreteOperator:
    """Assembled rectangular operator with grid metadata.

    ``blocks`` hold the per-mode factors, as row windows or dense
    (``ModeBlock``); ``matrix`` builds the full real rectangular matrix as
    CSR (block diagonal over modes, a row-window block from its windows,
    never made dense) for export and transpose experiments.  cols - rows equals the analytic index
    candidate once the boundary rows are installed.

    Each block is decomposed at most once per operator, in ``block_values``
    (banded Gram eigenvalues for row-window blocks, dense SVD for the others
    and for the blocks the guard rejects).  The operator keeps one record of
    evidence per block (``Evidence``): every singular value of the block
    below a bound, with the route that found them.  ``sigma_max`` settles
    the top of the spectrum without decomposing any row-window block, and
    ``values_below`` answers with a block's values below a cut, from its
    record or one new certificate, and, when none settles the question,
    from the block's smallest values (the partial route) or all of them.
    The rank decision, the kernel directions and the gluing stability
    constant all ask ``values_below``.  ``block_routes`` says which route
    computed each block.  The evidence belongs to one operator: it is
    allocated empty at construction, so a copy by ``dataclasses.replace``
    decides its blocks afresh.  Values from the banded route agree with
    dense SVD to about eps (sigma_max / sigma)^2 relative, not bit for bit.
    """

    blocks: list
    grid: tuple                      # (s_nodes, t_nodes, s_max)
    problem: object = None

    def __post_init__(self):
        self._evidence = [None] * len(self.blocks)
        self._sigma_max = None

    @property
    def rows(self):
        return sum(b.mult * b.shape[0] for b in self.blocks)

    @property
    def cols(self):
        return sum(b.mult * b.shape[1] for b in self.blocks)

    @property
    def index_candidate(self):
        return self.cols - self.rows

    @functools.cached_property
    def matrix(self):
        return sp.block_diag([_realified_csr(b) for b in self.blocks], format="csr")

    def block_values(self, i):
        """Singular values of block i: all min(rows, cols), descending.

        The full reference: computed when block i's record does not hold
        all of them (no record, or a finite bound) and kept as its record,
        so each block is decomposed at most once, whatever was certified
        before.  A row-window block (``ModeBlock.windows``) takes the banded
        route (``_banded_singular_values``); every dense block, and every
        block the route's accuracy guard rejects, takes the reference
        values-only ``np.linalg.svd`` of ``ModeBlock.matrix``.
        """
        ev = self._evidence[i]
        if ev is None or ev.bound < np.inf:
            b = self.blocks[i]
            try:
                sv = _banded_singular_values(b) if b.windows is not None else None
                route = "direct_svd" if sv is None else "banded_gram"
                if sv is None:
                    sv = np.linalg.svd(b.matrix, compute_uv=False)
            except np.linalg.LinAlgError as exc:  # pragma: no cover
                raise NumericalError(f"SVD failed on block {b.tag}: {exc}") from exc
            ev = self._evidence[i] = Evidence(sv, np.inf, route)
        return ev.values

    def known_values(self, i):
        """The values block i's record holds: all of them once decomposed,
        its smallest ones after the partial route, else None."""
        ev = self._evidence[i]
        return ev.values if ev is not None and len(ev.values) else None

    def sigma_max(self):
        """Largest singular value of the operator.

        Settled once per operator, from the blocks' matrices alone: an
        operator and a copy with every block decomposed settle the same
        float.  Dense blocks are decomposed.  No row-window block is: the one
        with the largest bound ||M||_1 ||M||_inf on sigma_max^2 is settled by
        ``_gram_top``, the smallest point of a grid of step about 2^-46 of
        that bound at which x I - M^H M has a banded Cholesky factor.  Every
        other one is certified to have its Gram eigenvalues below lambda_top
        (1 - 1e-12), lambda_top the largest found so far, by its bound where
        that suffices and by a banded Cholesky factorization otherwise; a
        block whose certificate fails is settled too and raises lambda_top.
        """
        if self._sigma_max is None:
            windowed = [i for i, b in enumerate(self.blocks) if b.windows is not None]
            top = max((float(self.block_values(i)[0]) for i, b in enumerate(self.blocks)
                       if b.windows is None and min(b.shape)), default=0.0)
            bound = {i: _norm_bound(self.blocks[i]) for i in windowed}

            def settled(i):
                return float(np.sqrt(_gram_top(self.blocks[i], bound[i])))

            first = max(windowed, key=bound.get, default=None)
            if first is not None:
                top = max(top, settled(first))
            for i in windowed:
                ceiling = top ** 2 * (1 - _CERT_MARGIN)
                if (i != first and bound[i] >= ceiling
                        and not _gram_certified(self.blocks[i], ceiling, below=True)):
                    top = max(top, settled(i))
            self._sigma_max = top
        return self._sigma_max

    def values_below(self, i, cut, most=None):
        """Block i's singular values below ``cut``, descending: all of them,
        or, on a block whose full rank is certified, its smallest ones, every
        one below ``cut`` or at least the ``most`` smallest.  Empty when
        every value is certified to exceed ``cut``: the block then has full
        rank, and no value below ``cut`` reads it.

        The block's record answers when its bound is at least ``cut`` or it
        holds ``most`` values.  Failing that, a row-window block that is not
        wide tries one banded Cholesky certificate of its Gram matrix at the
        shift max(cut^2, 1e-8 lambda_top) (1 + 1e-12) + 1e-12 lambda_top,
        lambda_top = sigma_max^2, and records no values below the square
        root of max(cut^2, 1e-8 lambda_top).  When that fails above the
        guard's 1e-8 lambda_top, ``most`` is given and the block has at least
        _PARTIAL_FINITE_MIN_COLS columns under a finite cut, or
        _PARTIAL_MIN_COLS under an infinite one, the partial route
        (``_lowest_gram``) finds its smallest values and records them below
        the square root of its inertia point; a block it refuses is
        decomposed.  A certified block so also passes the banded route's
        guard: its route is ``banded_gram``.  A dense block, a wide block
        (its Gram matrix holds structural zeros below any shift) and an
        infinite cut without ``most`` are decomposed (``block_values``).  A new record replaces
        the old one exactly: a floor is certified only above every recorded
        value, so never after a partial answer.
        """
        ev, b = self._evidence[i], self.blocks[i]
        if ev is not None and (cut <= ev.bound or len(ev.values) >= (most or np.inf)):
            return ev.values
        if b.windows is not None and b.shape[0] >= b.shape[1]:
            lam_top = self.sigma_max() ** 2
            guard, room = _GRAM_GUARD * lam_top, _CERT_MARGIN * lam_top
            lam = max(cut * cut, guard)
            if np.isfinite(cut) and _gram_certified(b, lam * (1 + _CERT_MARGIN) + room,
                                                    below=False):
                ev = self._evidence[i] = Evidence(np.zeros(0), float(np.sqrt(lam)), "banded_gram")
                return ev.values
            least = _PARTIAL_FINITE_MIN_COLS if np.isfinite(cut) else _PARTIAL_MIN_COLS
            if most is not None and lam > guard and b.shape[1] >= least:
                found = _lowest_gram(_gram_band(b), most, guard * (1 + _CERT_MARGIN) + room,
                                     room, lam)
                if found is not None:
                    ev = self._evidence[i] = Evidence(np.sqrt(found[0][::-1]),
                                                      float(np.sqrt(found[1])), "banded_gram")
                    return ev.values
        return self.block_values(i)

    def block_routes(self):
        """How each block's singular values were computed: "banded_gram" or
        "direct_svd".  A certified block names the banded route, whose guard
        it passes; a block with no evidence yet is decomposed."""
        for i, ev in enumerate(self._evidence):
            if ev is None:
                self.block_values(i)
        return [ev.route for ev in self._evidence]

    def transposed(self):
        blocks = [ModeBlock(k=b.k, mult=b.mult, pde_rows=0, tag=b.tag + "^T",
                            dense=b.matrix.conj().T)
                  for b in self.blocks]
        return DiscreteOperator(blocks=blocks, grid=self.grid, problem=self.problem)

    def export_matrix_market(self, path):
        from scipy.io import mmwrite
        mmwrite(str(path), self.matrix)

    def grid_tag(self):
        s_nodes, t_nodes, s_max = self.grid
        return f"{s_nodes}x{t_nodes}@S{s_max:g}"


_RESOLUTION_SCALE = 0.25    # s_max/s_nodes <= this / max|delta|


def _check_resolution(problem, grid):
    deltas = [abs(e.weight) for e in problem.ends]
    dmax = max(deltas) if deltas else 0.0
    scale = problem.truncation.s_max / grid.s_nodes
    if dmax > 0 and scale > _RESOLUTION_SCALE / dmax * (1 + 1e-12):
        raise ResolutionError(
            f"s resolution too coarse for the weight scale: s_max/s_nodes = {scale:.4f} "
            f"> {_RESOLUTION_SCALE}/|delta|max = {_RESOLUTION_SCALE / dmax:.4f}")


def required_s_nodes(problem):
    """Fewest s-nodes, and no fewer than round(8 s_max), that pass the
    weight-resolution rule s_max/s_nodes <= 0.25/max|delta|."""
    dmax = max((abs(e.weight) for e in problem.ends), default=0.0)
    base = int(round(8 * problem.truncation.s_max))
    if dmax <= 0:
        return base
    need = int(np.ceil(problem.truncation.s_max * dmax / _RESOLUTION_SCALE))
    return max(base, need)


def _guard_shifted_spectrum(values, what):
    m = float(np.abs(values).min())
    if m <= 1e-9:
        raise FredholmWeightError(
            f"{what}: weight-shifted asymptotic spectrum within {m:.2e} of zero")


def _finite_or_raise(M, tag):
    if not np.isfinite(M).all():
        raise AssemblyError(f"non-finite entries in block {tag}")


def _bc_scale(s):
    # trace rows scaled by 1/sqrt(h): a nodal constraint must cost as much as
    # the L2 graph norm charges for violating it, else one-node boundary
    # layers produce spurious O(sqrt(h)) singular values
    return 1.0 / np.sqrt(s[1] - s[0])


# ---------------------------------------------------------------------------
# rows shared by every mode block
# ---------------------------------------------------------------------------

def _stencil_rows(stencil, C):
    """Row windows of the collocated rows of d/ds + C(s) on F = C.shape[1] fields.

    ``stencil`` is ``fd_operators``' (D, P, s, mids).  Row block i is
    sum_b D[i, b] I + P[i, b] C[i] on its 8 stencil nodes, node-major and
    field-minor.  Returns the (n F, 8F) windows and the first column of each:
    the same einsum products as the dense formula, so the bytes agree with
    it, signed zeros included.  With D None the rows are those of C(s) alone.
    """
    D, P, s, mids = stencil
    n, F = C.shape[:2]
    band = np.einsum("ib,ifg->ifbg", P, C)
    if D is not None:
        band = np.einsum("ib,fg->ifbg", D, np.eye(F)).astype(C.dtype) + band
    return band.reshape(n * F, _FD_STENCIL * F), np.repeat(_stencil_starts(s, mids) * F, F)


def _end_rows(A, keep_positive, first, gamma, what=None):
    """Boundary row windows at the first (``first``) or last s-node.

    One row per eigenvector of the Hermitian A with positive
    (``keep_positive``) or negative eigenvalue, conjugated and scaled by
    gamma, in the first or last 8-node window.  ``what`` names the end for
    the spectral-gap guard; the disk cap passes None, its zero eigenvalues
    being exact.
    """
    lam, V = np.linalg.eigh(A)
    if what is not None:
        _guard_shifted_spectrum(lam, what)
    sel = lam > 0 if keep_positive else lam < 0
    F = len(A)
    r = np.zeros((int(sel.sum()), _FD_STENCIL * F), dtype=A.dtype)
    r[:, slice(0, F) if first else slice(-F, None)] = gamma * V[:, sel].conj().T
    return r


def _mode_block(k, mult, tag, problem, base, B_mid, end_matrix, stencil, prof, terms=None):
    """Row-window block of one mode.

    The mode's operator is d/ds + base + B(s) - w'(s) on F = len(base)
    fields: ``base`` is its t-derivative part, ``B_mid`` holds B at the
    collocation midpoints and ``end_matrix(end)`` gives B at a cylindrical
    end.  An end keeps the trace components along which the weight-shifted
    asymptotic matrix decays out of the box: positive eigenvalues at the
    negative end, negative ones at the positive end.  A plane's disk cap
    keeps the positive eigenspace of ``base``.  ``terms`` are the Gram
    terms of the operator's stencil rows (``_GramTerms``), with mode factor k.
    """
    s, mids = stencil[2:]
    eye = np.eye(len(base))
    C = base[None, :, :] + B_mid - prof.wprime(mids)[:, None, None] * eye[None, :, :]
    pde, pde_starts = _stencil_rows(stencil, C)
    gamma = _bc_scale(s)
    ends = []
    for end, first, s_end in ((problem.negative_end, True, problem.s_lo),
                              (problem.positive_end, False, problem.truncation.s_max)):
        if end is None:         # a plane's disk cap
            ends.append(_end_rows(base, True, first, gamma))
            continue
        A = base + end_matrix(end) - float(prof.wprime(s_end)) * eye
        ends.append(_end_rows(A, end.sign == "negative", first, gamma,
                              f"{tag} at {end.sign} end"))
    neg, pos = ends
    windows = np.vstack([pde, neg, pos])
    _finite_or_raise(windows, tag)
    starts = np.concatenate([pde_starts, np.zeros(len(neg), dtype=int),
                             np.full(len(pos), pde_starts[-1])])
    b = ModeBlock(k=k, mult=mult, pde_rows=len(pde), tag=tag, windows=windows, starts=starts)
    b.gram_terms = terms
    return b


def augmentation_layout(problem):
    """Ordered (end, component) keys of the shift columns.

    Component 0 is the a-shift, 1 the theta-shift.  The positive end comes
    first, then the negative end, each with a then theta up to its
    shift_dims; the reduced pattern {1, 2} identifies the two angular shifts
    into one ("shared", 1) column after both a-shifts.
    """
    if problem.reduced_shifts:
        return [("positive", 0), ("negative", 0), ("shared", 1)]
    return [(end.sign, comp)
            for end in (problem.positive_end, problem.negative_end) if end is not None
            for comp in range(end.shift_dims)]


def _shifted(b, problem, s, prof):
    """Dense block of row-window block b with its shift columns appended.

    Shift column (end, comp), in ``augmentation_layout`` order, is b's
    stencil rows applied to the sampled conjugated shift shape e^{w} beta_end
    placed in field comp of every node, normalized; its end rows are zero.
    Without shifts the block is only made dense.
    """
    npr = problem.truncation.n_prime
    ew = np.exp(prof.w(s))
    shapes = {"positive": ew * profiles.cutoff(s, npr),
              "negative": ew * profiles.cutoff(-s, npr)}
    shapes["shared"] = shapes["positive"] + shapes["negative"]
    layout = augmentation_layout(problem)
    M = b.matrix
    cols = np.zeros((len(M), len(layout)))
    for j, (end, comp) in enumerate(layout):
        field = np.zeros((len(s), M.shape[1] // len(s)))
        field[:, comp] = shapes[end]
        c = M[:b.pde_rows] @ field.reshape(-1)
        nrm = np.linalg.norm(c)
        if nrm == 0:
            raise AssemblyError("augmentation column vanished")
        cols[:b.pde_rows, j] = c / nrm
    M = np.hstack([M, cols])
    _finite_or_raise(M, b.tag)
    return ModeBlock(k=b.k, mult=b.mult, pde_rows=b.pde_rows, aug_cols=len(layout), tag=b.tag,
                     dense=M)


# ---------------------------------------------------------------------------
# decoupled backend
# ---------------------------------------------------------------------------

def _complex_line_blocks(problem, grid, stencil, prof):
    """Scalar modes d/ds - 2 pi k - w'(s), k = -K..K; with shifts, mode 0 is
    realified, carries the shift columns and comes last.

    The realified unknowns are the two real fields (a, theta) of each node,
    node-major like every block, then the parameters in
    ``augmentation_layout`` order.
    """
    K = grid.t_nodes // 2 - 1
    n_aug = problem.augmentation_dims
    mids = stencil[3]
    terms = _GramTerms(stencil, -prof.wprime(mids)[:, None, None], np.array([[-2.0 * np.pi]]), 1.0)
    blocks = [_mode_block(k, 2, f"scalar k={k}", problem, np.array([[-2.0 * np.pi * k]]), 0.0,
                          lambda end: 0.0, stencil, prof, terms)
              for k in range(-K, K + 1) if k or not n_aug]
    if n_aug:
        b = _mode_block(0, 1, "realified k=0 + shifts", problem, np.zeros((2, 2)), 0.0,
                        lambda end: 0.0, stencil, prof)
        blocks.append(_shifted(b, problem, stencil[2], prof))
    return blocks


def _contact_blocks(problem, grid, stencil, prof):
    """Complex modes d/ds + 2 pi i k J + B(s) - w'(s), k = 0..K; mode k >= 1
    stands for the conjugate pair +-k."""
    F = problem.fiber_dim
    J = standard_j(F)
    mids = stencil[3]
    B_mid = np.array([problem.coefficient(m) for m in mids])
    terms = _GramTerms(stencil, B_mid - prof.wprime(mids)[:, None, None] * np.eye(F),
                       2.0 * np.pi * J, 1j)

    def block(k):
        base = (2.0j * np.pi * k * J).astype(complex) if k else np.zeros((F, F))
        return _mode_block(k, 1 if k == 0 else 2, f"contact k={k}", problem, base, B_mid,
                           lambda end: end.asymptotic.constant_matrix(), stencil, prof, terms)

    return [block(k) for k in range(grid.t_nodes // 2)]


# ---------------------------------------------------------------------------
# coupled backend (t-dependent coefficients)
# ---------------------------------------------------------------------------

def _trig_basis(M, K):
    """Orthonormal sampled trig basis: columns 1, sqrt2 cos, sqrt2 sin, ..."""
    t = np.arange(M) / M
    cols = [np.ones(M)]
    for k in range(1, K + 1):
        cols.append(np.sqrt(2.0) * np.cos(2 * np.pi * k * t))
        cols.append(np.sqrt(2.0) * np.sin(2 * np.pi * k * t))
    return np.stack(cols, axis=1), t


def _trig_derivative(K, F):
    J = standard_j(F)
    nb = 2 * K + 1
    A = np.zeros((nb * F, nb * F))
    for k in range(1, K + 1):
        c = (2 * k - 1) * F
        sgn = 2 * k * F
        A[c:c + F, sgn:sgn + F] = 2 * np.pi * k * J
        A[sgn:sgn + F, c:c + F] = -2 * np.pi * k * J
    return A


def _trig_coupling(B_samples, T):
    M = B_samples.shape[0]
    C = np.einsum("jp,jq,jfg->pfqg", T, T, B_samples) / M
    nb = T.shape[1]
    F = B_samples.shape[1]
    return C.reshape(nb * F, nb * F)


def _coupled_block(problem, grid, stencil, prof):
    """All trig modes at once: fields are the coefficients of the orthonormal
    sampled trig basis, node-major; B(s, t) couples the modes."""
    K = grid.t_nodes // 2 - 1
    nfield = (2 * K + 1) * problem.fiber_dim
    s, mids = stencil[2:]
    N = len(s)
    if N * nfield > 12000:
        raise ResolutionError(
            f"coupled backend size {N * nfield} too large; reduce the grid "
            "or use a t-independent coefficient")
    T, t = _trig_basis(grid.t_nodes, K)
    B_mid = np.array([_trig_coupling(np.stack([problem.coefficient(m, tj) for tj in t]), T)
                      for m in mids])
    b = _mode_block(None, 1, "coupled", problem, _trig_derivative(K, problem.fiber_dim), B_mid,
                    lambda end: _trig_coupling(end.asymptotic.sample(t), T), stencil, prof)
    return _shifted(b, problem, s, prof)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def assemble(problem: CRProblem, grid: GridSpec = None):
    """Assemble the weighted, boundary-conditioned discrete operator.

    Problems with t-independent coefficients decouple over trig modes; a
    t-dependent one is assembled as one coupled block.
    """
    grid = grid or default_grid_for(problem.truncation)
    _check_resolution(problem, grid)
    problem.check_end_decay()
    args = (problem, grid, fd_operators(problem.s_lo, problem.truncation.s_max, grid.s_nodes),
            problem.weight_profile())
    if problem.t_dependent:
        blocks = [_coupled_block(*args)]
    elif problem.fiber == "complex_line":
        blocks = _complex_line_blocks(*args)
    else:
        blocks = _contact_blocks(*args)
    return DiscreteOperator(blocks=blocks,
                            grid=(grid.s_nodes, grid.t_nodes, problem.truncation.s_max),
                            problem=problem)


def kernel_vectors(op, threshold):
    """Right-singular directions with singular value below threshold, per block.

    Returns a list of (block, vectors) where vectors has shape
    (block_cols, n_small); structural kernel directions of wide blocks are
    included through the rank decision.  Each block's rank is min(shape)
    less its values below the threshold, which
    ``DiscreteOperator.values_below(i, threshold)`` holds: none on a block
    certified above the threshold, which is not decomposed.  Only
    rank-deficient blocks are made dense and run the full SVD.
    """
    out = []
    for i, b in enumerate(op.blocks):
        rank = min(b.shape) - int((op.values_below(i, threshold) < threshold).sum())
        if rank < b.shape[1]:
            Vh = np.linalg.svd(b.matrix)[2]
            out.append((b, Vh[rank:].conj().T))
    return out
