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
of the coupled block) and its end rows.  The 8-node band of the collocated
rows, node-major and field-minor, comes from one builder per operator
(``_StencilRows``; the realified mode 0 of a shifted complex-line operator,
on two fields, has its own), which holds what every mode shares: the rows'
first columns, the interpolation band P, w'(mids) I, B at the midpoints
(the builders' coefficient evaluated on the midpoint array in one call)
and D (x) I.  Each mode only forms its coefficient C_k, writes P (x) C_k
into one preallocated window array, adds D (x) I in place and copies its
end rows below, byte for byte the per-mode einsum formula; the Gram terms
read their rows from the same builder.  ``_end_rows`` computes the
spectral projections at both ends of every mode of an operator, in the
first or last window, from one stacked eigensolver call per end.
``_shifted`` appends a block's shift columns as its ``border``, on both
backends: so every block's unknowns are its fields node-major and
field-minor, then the shift parameters.  The disk cap of a plane is one
rule: the trace is constrained along the positive eigenspace of ``base``,
the Fourier modes that do not extend holomorphically over the disk.

Storage.  Every row of a mode lives in an 8-node window (8F columns on F
fields), so a mode block is stored as row windows: the 8F values of each
row and the column its window starts at (``ModeBlock.windows``).  A block
has one row order, the one its dense view and its products read: the
stencil rows, then the negative-end rows, then the positive-end rows, with
``ModeBlock.pde_rows`` marking where the end rows begin.  On the
2-dimensional contact fiber that is 16 columns per row against 2N, about
1/48 of the dense bytes at N = 384.  The realified mode 0 that carries
shift columns keeps them beside its windows as a dense ``border`` of at
most 4 columns (``ModeBlock.border``), zero in its end rows.  Only the
coupled block, with or without shift columns, is written out dense and
stored dense (``ModeBlock.dense``); a block holds one storage, and it
decides the block.  ``ModeBlock.matrix`` materializes a row-window block on
first read and keeps it; only the dense fallback below and ``transposed``
read it.  The rank decision reads ``ModeBlock.shape``, the gluing
residuals the product ``ModeBlock @ v``, and ``DiscreteOperator.matrix``
(the Matrix Market export) builds its CSR matrix from the windows and the
border.
The row-window blocks of one decoupled operator also share one object
(``ModeBlock.gram_terms``, ``_GramTerms``): mode k's stencil rows are
W0 + k WX, so their Gram band is G0 + k G1 + k^2 G2, three bands built once
per operator, on its first decomposition or certificate.

The Gram matrix.  A row-window block M = [W C], C its border, has one Gram
matrix, M^H M, whatever its shape (``_gram``, ``_Gram``): the band W^H W
on its window columns, with bandwidth 8F - 1 (7 on a scalar mode, 15 on
the 2-dimensional contact fiber), and the dense border W^H C, C^H C.  A
wide block's Gram matrix also holds its structural kernel: eig(M^H M) is
{sigma_i^2} and n_cols - n_rows zeros.  Its band (``_gram_band``) is the
shared terms at its k plus its end rows' outer products (two axpys and a
few rows, not a band rebuilt from every window), or the sum over all its
rows without shared terms.  Every certified primitive reads a band with or
without its border: a banded Cholesky factorization of the band, and on a
bordered matrix the Schur complement of the band, at most 4x4, by
Haynsworth's inertia additivity, In(K) = In(K11) + In(K/K11) (Haynsworth,
1968), in O(n kd^2) plus O(n kd a) for a border of a columns.

Each block is decomposed at most once per operator, lazily, and a
decomposition is the exception.  An unbordered row-window block gets its
singular values as square roots of its Gram eigenvalues from LAPACK's
banded eigensolver, in O(n^2 kd) instead of O(n^3), the structural zeros
of a wide block dropped.  Squaring blurs values below 1e-4 sigma_max, near
the rank threshold: where the block's smallest kept Gram eigenvalue is
below 1e-8 times its largest (the guard), its values below the guard come
from the M X route (below) instead.  A bordered block's Gram matrix is no
band, so its full decomposition is the dense SVD; every question the rank
walk, the kernel directions and the gluing stability constant ask of it
is answered by the partial route, at any size.  The coupled block takes
the values-only dense SVD, which stays the reference, as does every block
whose route refuses a check.

A row-window block whose values cannot reach a report is not decomposed at
all but certified: a banded Cholesky factorization of its Gram matrix
shifted by x I (``_cholesky``) succeeds only when every Gram eigenvalue
lies above x (of x I - G: below x), up to rounding, in O(n kd^2).  A wide
block's Gram matrix holds its structural zeros below any shift, so its
floor is certified by an inertia count (``_count_below``) that finds
exactly those n_cols - n_rows eigenvalues below x.  Every question to a
block is one call, ``DiscreteOperator.values_below(i, cut, most)``: its
singular values below the cut, an empty array when all of them are
certified to exceed it; ``values_below(i, inf)`` is the full
decomposition.  The operator keeps one record per block (``Evidence``),
the statement "these are every singular value of the block below b": a
decomposition gives all of them with b = inf, a floor certificate none
with b the floor, and the partial route (below) the smallest ones with b
its inertia point.  The callers (the index walk in ``crlab.indexing``,
``kernel_vectors``, the gluing stability constant) choose the cuts.  A
block's sigma_max certificate holds as on any block.  A certificate
factors the same Gram matrix the block's values come from, so a certified
floor and any values computed later for that block describe one matrix.
The shared terms differ from a band summed over the block's own rows by
rounding, of order eps max|G|, inside the certificates' relative room of
1e-12.

A row-window block that holds values the caller reads is still not
decomposed when it is large: with at least _PARTIAL_FINITE_MIN_COLS
columns under a finite cut (which asks for the one or two values below
it) or _PARTIAL_MIN_COLS under an infinite cut (which asks for the
``most`` smallest), and a bordered block at any size, ``values_below``
takes the partial route (``_lowest_gram``) and returns only its smallest
values, the ones below the cut or the ``most`` smallest.  A block whose
Gram matrix has no eigenvalue below the guard's 1e-8 lambda_top is
factored there, G - sigma I by banded Cholesky, which certifies that
floor, and its values are the square roots of the certified eigenvalues.
A bordered block with no such floor (wide, rank-deficient, or with a
value below the guard) takes the M X route (``_mx_values``): the factor
at the negative shift -1e-8 lambda_top, which needs none, and as values
the singular values of the thin product M X, X the Ritz vectors of the
eigenvalues below the inertia point, read from the windows and border,
less its structural zeros: by interlacing each is an upper bound on the
value it stands for, accurate to about eps sigma_max as a dense SVD's.
Shift-invert block Lanczos on the factor (Ericsson & Ruhe, 1980) proposes
the values; Kahan's residual bound puts each within rounding of a distinct
eigenvalue; and a Sylvester inertia count at a point y in the gap after
them, from an unpivoted block LDL^H of G - y I (``_count_below``), shows
that exactly that many eigenvalues lie below y, structural zeros
included.  It costs O(n kd) per Lanczos step and O(n kd^2) per
factorization, against eig_banded's O(n^2 kd), which only pays below those
sizes; under a finite cut the route checks its Ritz values after every
Krylov block, so it stops once the few values below the cut have
converged.  A block that fails a check is decomposed.  The kernel
directions come from the same route: ``DiscreteOperator.kernel`` takes
the right singular vectors of M X below the threshold, mapped back by X,
the X the block's record keeps when its values came from M X.

No row-window block is decomposed for sigma_max either
(``DiscreteOperator.sigma_max``).  A block's top Gram eigenvalue is settled
by the same certificate (``_gram_top``): a short Lanczos run on its Gram
matrix, with matrix-vector products in O(n kd), proposes it, and it is
fixed as the smallest point of a grid h Z, h about 2^-46 of the block's
norm bound, at which x I - G factors.  The settled value is a function of
the Gram matrix alone, not of the Lanczos rounding, the search path or the
BLAS thread count, so an operator and a copy with every block decomposed
agree on sigma_max bit for bit; it lies within h of lambda_max, a few
1e-14 relative.
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

    A block with the stencil row layout (every decoupled block) is stored
    as row windows: ``windows[r]`` holds the 8F entries of row r from column
    ``starts[r]`` on, F being the fields per s-node.  The rows are stored in
    the one order every reader sees: the ``pde_rows`` stencil rows, then the
    negative-end rows, whose windows start at column 0, then the
    positive-end rows, whose windows start where the last stencil row's
    does.  A row-window block with shift columns keeps them as its
    ``border``, the n_rows x ``aug_cols`` dense columns after the windows'
    columns.  The coupled block is stored ``dense``; a block given both
    storages or neither, or a border without windows or of another width
    than ``aug_cols``, raises ``ValueError``.  ``matrix`` is the dense view,
    row r of it being row r of the windows and the border: the given
    ``dense``, or the windows materialized on first read and kept, so only
    the readers that need the dense entries pay for them.  ``shape`` never
    materializes.  The columns are the fields node-major and field-minor,
    then the ``aug_cols`` shift columns.

    ``gram_terms`` is the Gram band of the stencil rows that the row-window
    blocks of one assembled operator share (``_GramTerms``, mode factor
    ``k``; the realified mode 0 has terms of its own); the block's Gram band
    reads it instead of summing every row.
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
    border: np.ndarray = None
    gram_terms: object = field(default=None, init=False)

    def __post_init__(self):
        given = (self.dense is not None, self.windows is not None, self.starts is not None)
        if given not in ((True, False, False), (False, True, True)):
            raise ValueError(f"block {self.tag!r} takes either dense or windows and starts")
        if self.border is not None and (self.windows is None
                                        or self.border.shape != (len(self.windows), self.aug_cols)):
            raise ValueError(f"block {self.tag!r}: a border is aug_cols columns beside windows")

    def __repr__(self):         # the generated repr would print every array
        return f"ModeBlock({self.tag!r}, shape={self.shape})"

    @property
    def shape(self):
        if self.windows is None:
            return self.dense.shape
        # the last stencil row's window ends at the last column before the border
        return (len(self.windows),
                int(self.starts[self.pde_rows - 1]) + self.windows.shape[1] + self.aug_cols)

    @functools.cached_property
    def matrix(self):
        return self.dense if self.windows is None else _materialize(self)

    def __matmul__(self, v):
        """M v, without making a row-window block dense; v may also hold one
        vector per column."""
        if self.windows is None:
            return self.dense @ v
        w = self.windows.shape[1]
        out = np.einsum("rj,rj...->r...", self.windows, v[self.starts[:, None] + np.arange(w)])
        if self.border is not None:
            out = out + np.einsum("ra,a...->r...", self.border, v[len(v) - self.aug_cols:])
        return out

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
    if b.border is not None:    # each row's border entries after its window's
        r = np.concatenate([r, np.repeat(np.arange(n_rows), b.aug_cols)])
        c = np.concatenate([c, np.tile(np.arange(n_cols - b.aug_cols, n_cols), n_rows)])
        v = np.concatenate([v, b.border.ravel()])
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
    if b.border is not None:
        M[:, M.shape[1] - b.aug_cols:] = b.border
    return M


# Squaring blurs values below 1e-4 sigma_max, near the rank threshold: the M X
# route there (``_mx_values``).
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
        return _window_band(V, V, starts, b.shape[1] - b.aug_cols)
    ab = b.gram_terms.band(b.k)
    width = V.shape[1]
    p, q = _triu(width)
    # the end rows follow the stencil rows; the negative end's start at column 0
    e = b.pde_rows
    pos = e + np.count_nonzero(starts[e:] == 0)
    for rows, start in ((V[e:pos], 0), (V[pos:], starts[e - 1])):
        ab[width - 1 + p - q, start + q] += (rows.conj()[:, p] * rows[:, q]).sum(axis=0)
    return ab


def _banded_singular_values(b, ab):
    """Singular values of an unbordered row-window block, descending, from
    the eigenvalues of its Gram band ``ab`` (``_gram_band``), by LAPACK's
    banded eigensolver: (values, X), X the Ritz vectors its values below the
    guard were read from or None; or None.  A wide block's n_cols - n_rows
    smallest eigenvalues are its structural zeros and are dropped.

    When lambda_min < 1e-8 lambda_max among the rest (the guard), the
    values below the square root of the inertia point of the M X route on
    the same band, asked for every Gram eigenvalue below the guard
    (``_mx_values``), are the singular values of M X^T; above it they are
    the square roots of the banded eigenvalues.  Returns None when that
    route refuses; the caller then decomposes the block densely.
    """
    lam = scipy.linalg.eig_banded(ab, eigvals_only=True, check_finite=False)
    zeros = _structural_zeros(b)
    guard = _GRAM_GUARD * lam[-1]
    if lam[zeros] >= guard:
        return np.sqrt(lam[zeros:][::-1]), None
    found = _mx_values(b, _Gram(ab), b.shape[1], guard, _CERT_MARGIN * lam[-1], guard)
    if found is None:
        return None
    low, _, X, _ = found
    return np.sort(np.concatenate([np.sqrt(lam[len(X):]), low]))[::-1], X


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
    WY^T WY and G1 = phase W0^T WY + conj(phase) WY^T W0.  W0 and WY come
    from the operator's stencil-row builder ``rows`` (``_StencilRows``), W0
    as the rows of the mode with base 0.  The three bands are built on first
    use; their sum differs from the band summed over the mode's own stencil
    rows by rounding, of order eps max|G|.
    """

    def __init__(self, rows, Y, phase):
        self._terms = (rows, Y, phase)

    @functools.cached_property
    def _rows(self):
        rows, Y, phase = self._terms
        F = len(Y)
        W0, starts = rows.windows(rows.coefficient(np.zeros((F, F))))
        WY, _ = rows.windows(np.broadcast_to(Y, (len(starts) // F, F, F)), derivative=False)
        return W0, WY, starts, rows.n_cols, phase

    @functools.cached_property
    def g0(self):
        W0, _, starts, n_cols, _ = self._rows
        return _window_band(W0, W0, starts, n_cols)

    @functools.cached_property
    def bands(self):
        W0, WY, starts, n_cols, phase = self._rows
        g1 = _window_band(W0, WY, starts, n_cols) * phase
        g1 += _window_band(WY, W0, starts, n_cols) * np.conj(phase)
        return self.g0, g1, _window_band(WY, WY, starts, n_cols)

    def band(self, k):
        """Gram band of mode k's stencil rows: G0 alone at k = 0, which
        builds neither G1 nor G2."""
        if not k:
            return self.g0.copy()
        g0, g1, g2 = self.bands
        ab = g1 * k
        ab += g0
        ab += g2 * (k * k)
        return ab


class _Gram(NamedTuple):
    """The Gram matrix M^H M of a row-window block M = [W C], C its border
    of shift columns: ``band``, the upper band storage of W^H W, and the
    dense ``cross`` = W^H C and ``corner`` = C^H C, both None without a
    border.  Every certified primitive takes it."""

    band: np.ndarray
    cross: np.ndarray = None
    corner: np.ndarray = None


def _size(g):
    """Order and dtype of the Hermitian matrix of ``g``."""
    ab, cross, _ = g
    if cross is None:
        return ab.shape[1], ab.dtype
    return ab.shape[1] + cross.shape[1], np.result_type(ab, cross)


def _gram(b):
    """The Gram matrix of row-window block b (``_Gram``): its band
    (``_gram_band``), and for a bordered block the products of the border
    with each row's window and with itself, O(n_rows F a)."""
    ab = _gram_band(b)
    if b.border is None:
        return _Gram(ab)
    width = b.windows.shape[1]
    idx = (b.starts[:, None] + np.arange(width)).ravel()
    prod = (b.windows.conj()[:, :, None] * b.border[:, None, :]).reshape(len(idx), -1)
    cross = np.stack([np.bincount(idx, p.real, ab.shape[1]) for p in prod.T], axis=1)
    if np.iscomplexobj(prod):
        cross = cross + 1j * np.stack([np.bincount(idx, p.imag, ab.shape[1]) for p in prod.T],
                                      axis=1)
    return _Gram(ab, cross, np.einsum("ra,rb->ab", b.border.conj(), b.border))


def _schur_factor(factor, cross, corner, scale):
    """Haynsworth's step for a bordered Hermitian K = [[K11, X], [X^H, Y]]
    whose band K11 has the banded Cholesky factor ``factor``: K is
    positive definite exactly when the Schur complement S = Y - X^H K11^-1 X
    is (In(K) = In(K11) + In(S)).  Returns K11^-1 X and the Cholesky factor
    of S, or None when S is not positive definite by more than the room its
    rounding needs, _CERT_MARGIN ``scale`` (1 + ||K11^-1 X||_F^2), ``scale``
    bounding ||K||."""
    pbtrs, = scipy.linalg.get_lapack_funcs(("pbtrs",), (factor,))
    X = pbtrs(factor, cross, lower=0)[0]
    S = corner - np.einsum("na,nb->ab", cross.conj(), X)
    S = 0.5 * (S + S.conj().T)
    room = _CERT_MARGIN * scale * (1.0 + np.vdot(X, X).real)
    potrf, = scipy.linalg.get_lapack_funcs(("potrf",), (S,))
    if potrf(S - room * np.eye(len(S)), lower=1)[1]:
        return None
    L, info = potrf(S, lower=1, clean=1)
    return None if info else (X, L)


def _scale(ab, shift):
    """A bound on ||G - shift I||, G Hermitian of upper band ``ab``."""
    return abs(shift) + (2 * len(ab) - 1) * float(np.abs(ab).max(initial=0.0))


def _cholesky(g, shift, below=False):
    """The Cholesky factors of G - shift I, or of shift I - G (``below``), G
    the Hermitian matrix of the ``_Gram`` g, or None when it is not positive
    definite, up to rounding: LAPACK's banded Cholesky factor of the band,
    in O(n kd^2), and the factors of a bordered G's Schur complement
    (``_schur_factor``), in O(n kd a), else None.  Factors certify that
    every eigenvalue of G lies above (below) ``shift``.  ``g`` is kept."""
    ab, cross, corner = g
    c = np.negative(ab) if below else ab.copy()
    c[-1] += shift if below else -shift
    pbtrf, = scipy.linalg.get_lapack_funcs(("pbtrf",), (c,))
    factor, info = pbtrf(c, lower=0, overwrite_ab=1)
    if info:
        return None
    if cross is None:
        return factor, None
    tail = corner - shift * np.eye(len(corner))
    schur = _schur_factor(factor, -cross if below else cross, -tail if below else tail,
                          _scale(ab, shift))
    return None if schur is None else (factor, schur)


# Grid step of a settled top Gram eigenvalue relative to the block's norm
# bound, and the Lanczos steps its proposal may take
_TOP_STEP = 2.0 ** -46
_LANCZOS_STEPS = 64


def _band_matvec(g):
    """x -> G x for the Hermitian G of the ``_Gram`` g: one product of the
    n x (2 kd + 1) rows of the band with the windows of x, O(n kd) per
    vector, plus the border's products, O(n a); x is one vector or a p x n
    block of them, one per row."""
    ab, cross, corner = g
    kd, n = len(ab) - 1, ab.shape[1]
    rows = np.empty((n, 2 * kd + 1), dtype=ab.dtype)     # rows[i, kd + e] = G[i, i + e]
    rows[:, :kd + 1] = ab.conj().T
    # G[i, i + e] = ab[kd - e, i + e]; past the last column any entry does,
    # since it meets the zero padding of x
    i, e = np.arange(n)[:, None], np.arange(1, kd + 1)
    rows[:, kd + 1:] = ab[kd - e, np.minimum(i + e, n - 1)]

    buffers = {}        # x's leading shape and dtype -> zero-padded copy and its windows

    def band(x):
        key = x.shape[:-1] + (x.dtype,)
        if key not in buffers:
            padded = np.zeros(x.shape[:-1] + (n + 2 * kd,), dtype=np.result_type(ab, x))
            buffers[key] = padded, np.lib.stride_tricks.sliding_window_view(
                padded, 2 * kd + 1, axis=-1)
        padded, windows = buffers[key]
        padded[..., kd:kd + n] = x
        return np.einsum("id,...id->...i", rows, windows)

    if cross is None:
        return band

    def matvec(x):
        head, tail = x[..., :n], x[..., n:]
        return np.concatenate(
            [band(head) + np.einsum("na,...a->...n", cross, tail),
             np.einsum("na,...n->...a", cross.conj(), head) + np.einsum("ab,...b->...a",
                                                                        corner, tail)], axis=-1)

    return matvec


def _ritz_top(g, step):
    """Lanczos estimate of the largest eigenvalue of the Hermitian matrix of
    the ``_Gram`` g, from a seeded random start with full
    reorthogonalization.  It stops when the Ritz residual bound, sharpened by
    the gap to the next Ritz value, is below ``step``, or after
    _LANCZOS_STEPS steps.  Only a proposal: ``_gram_top`` certifies it."""
    n, dtype = _size(g)
    matvec = _band_matvec(g)
    Q = np.zeros((min(n, _LANCZOS_STEPS), n), dtype=dtype)
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
    factors (``_cholesky``), h the power of two with bound 2^-47 < h <=
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
    g = _gram(b)
    h = 2.0 ** (np.frexp(bound)[1] - 1) * _TOP_STEP
    diagonal = g.band[-1].real.max()
    if g.corner is not None:
        diagonal = max(diagonal, g.corner.diagonal().real.max())
    lo, hi = int(diagonal // h), int(bound // h) + 2   # fails at lo h, factors at hi h
    untried = hi
    m = min(max(int(np.ceil(_ritz_top(g, h) / h)), lo + 1), hi - 1)
    down = _cholesky(g, m * h, below=True) is not None
    lo, hi = (lo, m) if down else (m, hi)
    step = 1
    while hi - lo > 1:
        m = hi - step if down else lo + step
        if not lo < m < hi:
            m = (lo + hi) // 2
        ok = _cholesky(g, m * h, below=True) is not None
        step = 2 * step if ok == down else 0
        lo, hi = (lo, m) if ok else (m, hi)
    if hi == untried and _cholesky(g, hi * h, below=True) is None:
        raise NumericalError(f"no Cholesky certificate above the norm bound of block {b.tag}")
    return float(hi * h)


def _norm_bound(b):
    """||M||_1 ||M||_inf of a row-window block, an upper bound on sigma_max^2."""
    A = np.abs(b.windows)
    rows = A.sum(axis=1)
    cols = np.bincount((b.starts[:, None] + np.arange(A.shape[1])).ravel(), A.ravel())
    if b.border is not None:
        C = np.abs(b.border)
        rows, cols = rows + C.sum(axis=1), np.concatenate([cols, C.sum(axis=0)])
    return float(rows.max() * cols.max())


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


def _count_below(g, y, room):
    """How many eigenvalues of the Hermitian G of the ``_Gram`` g lie below
    y, by Sylvester's law of inertia, or None when the count cannot be
    trusted.

    G - y I is block tridiagonal in blocks of kd + 1 (padded with identity
    rows, which add positive eigenvalues only).  Its block LDL^H, unpivoted
    across blocks, has as D the Schur complements S_0 = A_00, S_{j+1} =
    A_{j+1,j+1} - A_{j+1,j} S_j^-1 A_{j,j+1}, and the count is theirs; each
    one's inertia is read from its Bunch-Kaufman factorization.  A bordered
    G adds its border as a last block row and column: each step also
    eliminates block j from the border, and the border's own Schur
    complement adds its inertia last (Haynsworth, 1968), in O(n kd a).  A
    pivot within ``room`` of singular refuses the count.
    """
    ab, cross, corner = g
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
    if cross is not None:
        border = np.zeros((nb * b, cross.shape[1]), dtype=np.result_type(ab, cross))
        border[:n] = cross
        border = border.reshape(nb, b, -1)
        tail = corner - y * np.eye(len(corner))
        diag, sup = diag.astype(border.dtype), sup.astype(border.dtype)
    trf, trs = scipy.linalg.get_lapack_funcs(
        ("hetrf", "hetrs") if np.iscomplexobj(diag) else ("sytrf", "sytrs"), (diag,))
    count, S = 0, diag[0]
    for j in range(nb):
        lu, ipiv, info = trf(S, lower=1)
        neg = None if info else _pivot_inertia(lu, ipiv, room)
        if neg is None:
            return None
        count += neg
        if cross is not None:
            Z = trs(lu, ipiv, border[j], lower=1)[0]
            tail = tail - border[j].conj().T @ Z
        if j + 1 < nb:
            S = diag[j + 1] - sup[j].conj().T @ trs(lu, ipiv, sup[j], lower=1)[0]
            if cross is not None:
                border[j + 1] -= sup[j].conj().T @ Z
    if cross is not None:
        lu, ipiv, info = trf(0.5 * (tail + tail.conj().T), lower=1)
        neg = None if info else _pivot_inertia(lu, ipiv, room)
        if neg is None:
            return None
        count += neg
    return count


def _shift_solver(g, shift):
    """x -> (G - shift I)^-1 x on the columns of x, G the Hermitian matrix of
    the ``_Gram`` g, or None when G - shift I is not positive definite: its
    Cholesky factors (``_cholesky``), each solve one pass through the band's
    and, on a bordered G, its Schur complement's by block elimination."""
    factors = _cholesky(g, shift)
    if factors is None:
        return None
    factor, schur = factors
    pbtrs, = scipy.linalg.get_lapack_funcs(("pbtrs",), (factor,))
    if schur is None:
        return lambda R: pbtrs(factor, R, lower=0)[0]
    X, L = schur
    potrs, = scipy.linalg.get_lapack_funcs(("potrs",), (L,))
    n, cross = g.band.shape[1], g.cross

    def solve(R):
        head = pbtrs(factor, R[:n], lower=0)[0]
        tail = potrs(L, R[n:] - np.einsum("na,nk->ak", cross.conj(), head), lower=1)[0]
        return np.concatenate([head - np.einsum("na,ak->nk", X, tail), tail])

    return solve


def _lowest_gram(g, m, solve, room, top=np.inf, power=_LANCZOS_POWER):
    """The smallest eigenvalues of the Hermitian G of the ``_Gram`` g,
    certified without decomposing G: (values, y, X), the values ascending,
    every eigenvalue of G below y among them, and X their Ritz vectors, one
    per row; or None.  They are at least the m smallest, or every
    eigenvalue below ``top`` when fewer lie there.

    ``solve`` applies (G - shift I)^-1 (``_shift_solver``).  At a shift
    below which G has no eigenvalue its factors certify that floor; a
    negative shift serves G with eigenvalues at or near zero.  A
    shift-invert block Lanczos on it (Ericsson & Ruhe, 1980) proposes the
    values: one Krylov vector per field and block from a seeded random
    start, each new block (G - shift I)^-k times the last, k =
    ``power``, fully reorthogonalized; the values are the
    Rayleigh-Ritz values of G on the basis (``_accepted_ritz_values``),
    checked after every Krylov block from the second on when ``top`` is
    finite (the caller reads the few values below it), else once the basis
    exceeds m + p vectors and then every _LANCZOS_CHECK blocks.  A proposal
    of c values with Ritz vectors X and residual R = G X - X Theta, ||R||_F
    <= ``room``, puts c eigenvalues of G, multiplicities counted, within
    ``room`` of them (Kahan's theorem), all below a point y in the gap after
    them; an inertia count at y (``_count_below``) that finds exactly c
    makes them the c smallest.  A failed count, or no proposal within
    _LANCZOS_DIM Krylov vectors, returns None.  The products are einsum, the
    solves and the small eigenproblems LAPACK without level-3 BLAS, so the
    values do not depend on the BLAS thread count and no BLAS thread spins
    afterwards.
    """
    n, dtype = _size(g)
    matvec = _band_matvec(g)
    p = len(g.band) // _FD_STENCIL
    dim = min(n, _LANCZOS_DIM) // p * p
    # the basis and G times it, one Krylov vector per row, and H = V^H G V
    V, GV = np.zeros((dim, n), dtype=dtype), np.zeros((dim, n), dtype=dtype)
    H = np.zeros((dim, dim), dtype=dtype)
    W = np.random.default_rng(n).standard_normal((p, n)).astype(dtype)
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
                values, y, Y = found
                if _count_below(g, y, room) != len(values):
                    return None
                return values, y, np.einsum("jc,jn->cn", Y, V[:j])
        W = Q.T
        for _ in range(power):
            W = solve(W)
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
    H = V^H G V: the c smallest Ritz values, a point y after them and
    their coefficients in V, one Ritz vector per column; or None.

    c is the first count from m on, within one Krylov block, at which the
    Ritz values leave a gap wider than 2 ``room``, y the gap's midpoint; or,
    when fewer than m Ritz values lie below ``top``, c counts those and y is
    at least ``top``, once the next Ritz value's residual puts an eigenvalue
    above ``top`` (Ritz values only fall as the basis grows); when every
    Ritz value lies below ``top`` there is no gap to test, and the basis
    must grow.  The c Ritz vectors' residual must be within ``room`` in
    Frobenius norm.
    """
    theta, Y = _small_eigh(H)
    below = int(np.searchsorted(theta, top))
    if below >= m:
        splits = range(m, min(m + p, len(theta) - 1) + 1)
    else:
        splits = [below] if 0 < below < len(theta) else []
    for c in splits:
        if theta[c] - theta[c - 1] > 2.0 * room:
            Yc = Y[:, :c + (c < m)]
            R = np.einsum("jc,jn->cn", Yc, GV) - theta[:Yc.shape[1], None] * np.einsum(
                "jc,jn->cn", Yc, V)
            if np.linalg.norm(R[:c]) > room or (c < m and np.linalg.norm(R[c]) > theta[c] - top):
                return None
            y = 0.5 * (theta[c - 1] + theta[c])
            return theta[:c], (y if c >= m else max(y, top)), Yc[:, :c]
    return None


def _triangular(P):
    """R of a Householder QR of the tall n x c matrix P, its reflections
    applied by einsum, so that its bytes do not depend on the BLAS thread
    count."""
    A = P.astype(np.result_type(P, 1.0))
    for j in range(A.shape[1]):
        x = A[j:, j]
        nrm = np.sqrt(np.vdot(x, x).real)
        if nrm == 0.0:
            continue
        v = x.copy()
        v[0] += (x[0] / abs(x[0]) if x[0] else 1.0) * nrm
        A[j:, j:] -= np.outer(v, np.einsum("i,ik->k", v.conj(), A[j:, j:]) / np.vdot(v, v).real
                              * 2.0)
    return np.triu(A[:A.shape[1]])


def _thin_svd(b, X):
    """Singular values, ascending, of the thin product M X^T of row-window
    block M with the c orthonormal rows X, and its right singular vectors,
    one per column, in the coordinates of X: a QR of M X^T by
    ``_triangular``, then the SVD of its c x c factor.  M X^T is read from
    the windows and border (``ModeBlock.__matmul__``), so each value is
    accurate to about eps sigma_max absolutely, as a dense SVD's."""
    _, sv, Wh = scipy.linalg.svd(_triangular(b @ X.T), check_finite=False)
    return sv[::-1], Wh[::-1].conj().T


def _structural_zeros(b):
    """The n_cols - n_rows zero eigenvalues a wide block's Gram matrix holds."""
    return max(b.shape[1] - b.shape[0], 0)


def _mx_values(b, g, m, guard, room, top=np.inf):
    """The M X route on row-window block M with Gram matrix g: (values, y,
    X, svd) or None.  The partial route (``_lowest_gram``) on the factor at
    the negative shift -``guard``, which needs no floor, gives X, the Ritz
    vectors of at least the m smallest Gram eigenvalues or every one below
    ``top``, one per row, every eigenvalue below y among them; ``svd`` is
    the thin SVD of M X^T (``_thin_svd``), and the values are its singular
    values, ascending, less the block's structural zeros, each by
    interlacing an upper bound on the value it stands for, within rounding
    of it.

    Its Krylov blocks take one solve each, not _LANCZOS_POWER: a cluster at
    zero grows by 1/``guard`` at every solve, and within a few solves its
    rounding buries the next eigenvectors: on 52 runs (the blocks with
    shift columns of ``reproduce-all`` and of trivial cylinders and planes
    of every shift pattern, and their kernel directions), two or three
    solves per block refused up to 45 of them at shifts of 1 to 100 times
    the guard (two solves at 100 times none, and no faster than one), one
    solve none.
    """
    solve = _shift_solver(g, -guard)
    found = solve and _lowest_gram(g, m, solve, room, top, power=1)
    if not found:
        return None
    svd = _thin_svd(b, found[2])
    return svd[0][_structural_zeros(b):], found[1], found[2], svd


def _lowest_values(b, g, m, guard, room, top=np.inf):
    """Row-window block b's smallest singular values by the partial route
    on its Gram matrix g: (values, y, X), the values descending, every
    singular value below sqrt(y) among them, at least the m smallest or
    every one below sqrt(top), X the Ritz vectors of the M X route or None;
    or None.

    A block whose Gram matrix factors at the guard's floor, ``guard`` (1 +
    1e-12) + ``room``, takes that factor (``_lowest_gram``) and the square
    roots of the certified eigenvalues; a bordered block with no such floor
    (wide, rank-deficient, or with a value below it) the M X route
    (``_mx_values``), asked for m more than its structural zeros; an
    unbordered one neither.
    """
    zeros = _structural_zeros(b)
    solve = None if zeros else _shift_solver(g, guard * (1 + _CERT_MARGIN) + room)
    if solve is not None:
        found = _lowest_gram(g, m, solve, room, top)
        return None if found is None else (np.sqrt(found[0][::-1]), found[1], None)
    found = b.border is not None and _mx_values(b, g, m + zeros, guard, room, top)
    return (found[0][::-1], found[1], found[2]) if found else None


class Evidence(NamedTuple):
    """One block's record: ``values``, descending, are every singular value
    of the block below ``bound``, computed or certified by ``route``.
    ``ritz`` holds the Ritz vectors, one per row, whose M X^T gave the
    values below the guard when the M X route did, else None."""

    values: np.ndarray
    bound: float
    route: str
    ritz: np.ndarray = None


@dataclass
class DiscreteOperator:
    """Assembled rectangular operator with grid metadata.

    ``blocks`` hold the per-mode factors, as row windows (with their border
    of shift columns) or dense (``ModeBlock``); ``matrix`` builds the full
    real rectangular matrix as CSR (block diagonal over modes, a row-window
    block from its windows and border, never made dense) for export and
    transpose experiments.  cols - rows equals the analytic index candidate
    once the boundary rows are installed.

    Every question to a block is ``values_below``: its values below a cut,
    from its record or one new certificate, and, when none settles the
    question, from the block's smallest values (the partial route) or all
    of them, a decomposition, at most once per operator (banded Gram
    eigenvalues for unbordered row-window blocks, with the values below the
    guard from the M X route; dense SVD for the others and for the blocks a
    route refuses).  The operator keeps one record of evidence per block
    (``Evidence``): every singular value of the block below a bound, with
    the route that found them.  ``sigma_max`` settles the top of the
    spectrum without decomposing any row-window block.  The rank decision,
    the kernel directions (``kernel``) and the gluing stability constant
    all ask ``values_below``.  ``block_routes`` says which route computed
    each block.  The evidence belongs to one operator: it is allocated
    empty at construction, so a copy by ``dataclasses.replace`` decides its
    blocks afresh.  Values from the banded route agree with dense SVD to
    about eps (sigma_max / sigma)^2 relative, those from M X on the Ritz
    vectors X to about eps sigma_max absolutely, not bit for bit.
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
            top = max((float(self.values_below(i, np.inf)[0]) for i, b in enumerate(self.blocks)
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
                        and _cholesky(_gram(self.blocks[i]), ceiling, below=True) is None):
                    top = max(top, settled(i))
            self._sigma_max = top
        return self._sigma_max

    def values_below(self, i, cut, most=None):
        """Block i's singular values below ``cut``, descending: all of them,
        or only its smallest ones, every one below ``cut`` or at least the
        ``most`` smallest.  Empty when every value is certified to exceed
        ``cut``: the block then has full rank, and no value below ``cut``
        reads it.  ``values_below(i, np.inf)`` is all min(rows, cols) values.

        The block's record answers when its bound is at least ``cut`` or it
        holds ``most`` values.  Failing that, a row-window block tries one
        certificate of its Gram matrix at the shift max(cut^2, 1e-8
        lambda_top) (1 + 1e-12) + 1e-12 lambda_top, lambda_top =
        sigma_max^2 (``_cholesky``, or on a wide block an inertia count that
        finds only its structural zeros below the shift), and records no
        values below the square root of max(cut^2, 1e-8 lambda_top).  When
        that fails, a bordered block of any size with ``most`` given or
        under a finite cut (then asked for every value below it), or an
        unbordered one with ``most`` given, above the guard's 1e-8
        lambda_top and with at least _PARTIAL_FINITE_MIN_COLS columns under
        a finite cut or _PARTIAL_MIN_COLS under an infinite one, takes the
        partial route (``_lowest_values``): it finds the block's smallest
        values and records them below the square root of its inertia point,
        with the Ritz vectors they were read from.  An unbordered wide block
        takes no partial route.  A certified block so also passes the banded
        route's guard: its route is ``banded_gram``.

        Any other question decomposes the block, once per operator, and
        records all its values: an unbordered row-window block by the banded
        route on the Gram band just built (``_banded_singular_values``),
        with the Ritz vectors of its guard step; a dense or bordered block
        and a block a route refuses by the reference values-only
        ``np.linalg.svd``.  Asked with an infinite cut and no ``most``, it
        goes to the decomposition directly, settling no sigma_max and
        building no more of the Gram matrix than the band the banded route
        reads.  A new record replaces the old one exactly: a
        floor is certified only above every recorded value, so never after
        a partial answer.
        """
        ev, b = self._evidence[i], self.blocks[i]
        if ev is not None and (cut <= ev.bound or len(ev.values) >= (most or np.inf)):
            return ev.values
        g = None
        # the full decomposition without ``most`` reads no certificate, and a
        # dense SVD neither the Gram matrix nor sigma_max
        if b.windows is not None and (np.isfinite(cut) or most is not None):
            lam_top = self.sigma_max() ** 2
            guard, room = _GRAM_GUARD * lam_top, _CERT_MARGIN * lam_top
            lam = max(cut * cut, guard)
            g, zeros = _gram(b), _structural_zeros(b)
            shift = lam * (1 + _CERT_MARGIN) + room
            if np.isfinite(cut) and (_count_below(g, shift, room) == zeros if zeros
                                     else _cholesky(g, shift) is not None):
                ev = self._evidence[i] = Evidence(np.zeros(0), float(np.sqrt(lam)), "banded_gram")
                return ev.values
            # a bordered block has no band eigensolver to fall back on; under a
            # finite cut it is asked for every value below the cut
            least = _PARTIAL_FINITE_MIN_COLS if np.isfinite(cut) else _PARTIAL_MIN_COLS
            if most is None and b.border is not None and np.isfinite(cut):
                most = b.shape[1]
            if most is not None and (b.border is not None
                                     or (lam > guard and b.shape[1] >= least)):
                found = _lowest_values(b, g, most, guard, room, lam)
                if found is not None:
                    ev = self._evidence[i] = Evidence(found[0], float(np.sqrt(found[1])),
                                                      "banded_gram", found[2])
                    return ev.values
        try:
            found = (_banded_singular_values(b, _gram_band(b) if g is None else g.band)
                     if b.windows is not None and b.border is None else None)
            route = "direct_svd" if found is None else "banded_gram"
            found = found or (np.linalg.svd(b.matrix, compute_uv=False), None)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise NumericalError(f"SVD failed on block {b.tag}: {exc}") from exc
        ev = self._evidence[i] = Evidence(found[0], np.inf, route, found[1])
        return ev.values

    def kernel(self, i, threshold):
        """Orthonormal columns spanning block i's right singular vectors
        with singular value below ``threshold``, its structural kernel
        included: as many as its rank decision (``values_below``) counts.

        A row-window block takes them from the Ritz vectors X of the M X
        route, the X its record keeps or a new run (``_mx_values``): the
        right singular vectors of M X^T below the threshold, mapped back by
        X.  A block whose M X^T counts otherwise than its rank decision, one
        the route refuses, and a dense block take the full dense SVD.
        """
        b = self.blocks[i]
        d = b.shape[1] - min(b.shape) + int((self.values_below(i, threshold) < threshold).sum())
        if not d:
            return np.zeros((b.shape[1], 0))
        X, svd = self._evidence[i].ritz, None
        if X is None and b.windows is not None:
            lam_top = self.sigma_max() ** 2
            found = _mx_values(b, _gram(b), d, _GRAM_GUARD * lam_top, _CERT_MARGIN * lam_top)
            X, svd = found[2:] if found else (None, None)
        if X is not None:
            sv, W = svd or _thin_svd(b, X)
            if np.count_nonzero(sv < threshold) == d:
                return np.einsum("cn,ck->nk", X, W[:, :d])
        return np.linalg.svd(b.matrix)[2][b.shape[1] - d:].conj().T

    def block_routes(self):
        """How each block's singular values were computed: "banded_gram" or
        "direct_svd".  A certified block names the banded route, whose guard
        it passes; a block with no evidence yet is decomposed."""
        for i, ev in enumerate(self._evidence):
            if ev is None:
                self.values_below(i, np.inf)
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

class _StencilRows:
    """The collocated stencil rows of every mode of one operator.

    Mode k's operator is d/ds + C_k(s) on F fields, C_k = (base_k + B(s)) -
    w'(s) I at the midpoints, ``stencil`` being ``fd_operators``' (D, P, s,
    mids) and ``B_mid`` B at the midpoints (0.0 for B = 0).  Row block i is
    sum_b D[i, b] I + P[i, b] C_k[i] on its 8 stencil nodes, node-major and
    field-minor.  What every mode shares is built once: the rows' first
    columns (``starts``), P, w'(mids) I and D (x) I.  A mode's windows are
    P (x) C_k written into one preallocated array, D (x) I added in place,
    and its end rows copied below.

    The bytes are those of ``np.einsum("ib,fg->ifbg", D, I).astype(C.dtype)
    + np.einsum("ib,ifg->ifbg", P, C)``, signed zeros included: the einsum
    computes 0 + P C, so the plain product differs from it only in the sign
    of a zero, and D (x) I, +0.0 wherever it is zero, erases that sign when
    added.  Added to complex rows, the real D (x) I is cast to complex
    element by element, the same sums as a cast array.
    """

    def __init__(self, stencil, prof, F, B_mid=0.0):
        D, P, s, mids = stencil
        self.starts, self.n_cols = np.repeat(_stencil_starts(s, mids) * F, F), len(s) * F
        self._P, self._B = P[:, None, :, None], B_mid
        self._wI = prof.wprime(mids)[:, None, None] * np.eye(F)
        self._DI = np.einsum("ib,fg->ifbg", D, np.eye(F))

    def coefficient(self, base):
        """C = (base + B) - w' I at the midpoints, for a mode's t-part ``base``."""
        return base[None, :, :] + self._B - self._wI

    def windows(self, C, ends=(), derivative=True):
        """(windows, starts) of the stencil rows of d/ds + C, of C alone
        without ``derivative``, then the negative- and positive-end rows
        ``ends`` when given: the former's windows start at column 0, the
        latter's where the last stencil row's does."""
        n, F = C.shape[:2]
        out = np.empty((n * F + sum(map(len, ends)), _FD_STENCIL * F),
                       dtype=np.result_type(C, *ends))
        rows = out[:n * F].reshape(n, F, _FD_STENCIL, F)
        np.multiply(self._P, C[:, :, None, :], out=rows)
        if derivative:
            rows += self._DI
        if not ends:
            return out, self.starts
        neg, pos = ends
        out[n * F:n * F + len(neg)], out[n * F + len(neg):] = neg, pos
        return out, np.concatenate([self.starts, np.zeros(len(neg), dtype=int),
                                    np.full(len(pos), self.starts[-1])])


def _end_rows(problem, bases, end_matrix, prof, gamma, tags):
    """Boundary row windows of every mode, (negative-end rows, positive-end
    rows) per mode, each in the first or last 8-node window.

    Mode j's operator at an end is the Hermitian A_j = bases[j] + B_end -
    w'(s_end), B_end = ``end_matrix(end)``; the end keeps one row per
    eigenvector of A_j whose decay direction points out of the box
    (positive eigenvalues at the negative end, negative ones at the
    positive end), conjugated and scaled by gamma.  A plane's disk cap
    keeps the positive eigenspace of the base.  The eigenvectors of each end
    come from one stacked ``np.linalg.eigh`` per dtype, which runs the same
    LAPACK routine on each matrix as one call per mode.  The spectral-gap
    guard reads the modes in order, each mode's negative end first, and
    names the mode by its tag; the disk cap's zero eigenvalues are exact
    and not guarded.
    """
    F = bases[0].shape[-1]
    sides = []
    for end, first, s_end in ((problem.negative_end, True, problem.s_lo),
                              (problem.positive_end, False, problem.truncation.s_max)):
        if end is None:
            A = bases
        else:
            B_end, slope = end_matrix(end), float(prof.wprime(s_end))
            A = [base + B_end - slope * np.eye(F) for base in bases]
        side = [None] * len(A)
        for dtype in dict.fromkeys(a.dtype for a in A):
            group = [j for j, a in enumerate(A) if a.dtype == dtype]
            lam, V = np.linalg.eigh(np.stack([A[j] for j in group]))
            # row i of mode j: eigenvector i conjugated and scaled, in its window
            rows = np.zeros((len(group), F, _FD_STENCIL * F), dtype=dtype)
            rows[:, :, slice(0, F) if first else slice(-F, None)] = gamma * V.conj().swapaxes(1, 2)
            keep = lam > 0 if end is None or end.sign == "negative" else lam < 0
            for j, w, r, sel in zip(group, lam, rows, keep):
                side[j] = (w, r[sel])
        sides.append((end, side))
    for j, tag in enumerate(tags):
        for end, side in sides:
            if end is not None:
                _guard_shifted_spectrum(side[j][0], f"{tag} at {end.sign} end")
    return [(neg[1], pos[1]) for neg, pos in zip(sides[0][1], sides[1][1])]


def _mode_block(k, mult, tag, rows, base, ends, terms=None):
    """Row-window block of one mode.

    The mode's operator is d/ds + base + B(s) - w'(s) on F = len(base)
    fields: ``base`` is its t-derivative part, ``rows`` the operator's
    stencil-row builder (``_StencilRows``).  ``ends`` are its negative- and
    positive-end rows (``_end_rows``).  ``terms`` are the Gram terms of the
    operator's stencil rows (``_GramTerms``), with mode factor k.
    """
    windows, starts = rows.windows(rows.coefficient(base), ends)
    _finite_or_raise(windows, tag)
    b = ModeBlock(k=k, mult=mult, pde_rows=len(rows.starts), tag=tag, windows=windows,
                  starts=starts)
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
    """Row-window block b with its shift columns as its ``border``.

    Shift column (end, comp), in ``augmentation_layout`` order, is b's
    stencil rows applied to the sampled conjugated shift shape e^{w} beta_end
    placed in field comp of every node, normalized; its end rows are zero.
    Without shifts b is returned as it is.
    """
    layout = augmentation_layout(problem)
    if not layout:
        return b
    npr = problem.truncation.n_prime
    ew = np.exp(prof.w(s))
    shapes = {"positive": ew * profiles.cutoff(s, npr),
              "negative": ew * profiles.cutoff(-s, npr)}
    shapes["shared"] = shapes["positive"] + shapes["negative"]
    n_cols = b.shape[1]
    fields = np.zeros((n_cols, len(layout)))
    for j, (end, comp) in enumerate(layout):
        fields[comp::n_cols // len(s), j] = shapes[end]
    border = np.zeros((len(b.windows), len(layout)))
    border[:b.pde_rows] = (b @ fields)[:b.pde_rows]
    nrm = np.sqrt(np.einsum("ra,ra->a", border, border))
    if not nrm.all():
        raise AssemblyError("augmentation column vanished")
    border /= nrm
    _finite_or_raise(border, b.tag)
    shifted = ModeBlock(k=b.k, mult=b.mult, pde_rows=b.pde_rows, aug_cols=len(layout), tag=b.tag,
                        windows=b.windows, starts=b.starts, border=border)
    shifted.gram_terms = b.gram_terms
    return shifted


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
    gamma = _bc_scale(stencil[2])
    rows = _StencilRows(stencil, prof, 1)
    terms = _GramTerms(rows, np.array([[-2.0 * np.pi]]), 1.0)
    modes = [k for k in range(-K, K + 1) if k or not n_aug]
    bases = [np.array([[-2.0 * np.pi * k]]) for k in modes]
    tags = [f"scalar k={k}" for k in modes]
    ends = _end_rows(problem, bases, lambda end: 0.0, prof, gamma, tags)
    blocks = [_mode_block(k, 2, tag, rows, base, e, terms)
              for k, base, tag, e in zip(modes, bases, tags, ends)]
    if n_aug:
        tag, base = "realified k=0 + shifts", np.zeros((2, 2))
        e, = _end_rows(problem, [base], lambda end: 0.0, prof, gamma, [tag])
        # mode 0 reads G0 alone, so its terms need no X
        own = _StencilRows(stencil, prof, 2)
        b = _mode_block(0, 1, tag, own, base, e, _GramTerms(own, np.zeros((2, 2)), 1.0))
        blocks.append(_shifted(b, problem, stencil[2], prof))
    return blocks


def _contact_blocks(problem, grid, stencil, prof):
    """Complex modes d/ds + 2 pi i k J + B(s) - w'(s), k = 0..K; mode k >= 1
    stands for the conjugate pair +-k.  The builders' coefficient is
    evaluated on the midpoint array in one call, a ``coeff_s`` once per
    midpoint."""
    F = problem.fiber_dim
    J = standard_j(F)
    mids = stencil[3]
    B_mid = (problem.coefficient(mids) if problem.coeff_s is None
             else np.array([problem.coefficient(m) for m in mids]))
    rows = _StencilRows(stencil, prof, F, B_mid)
    terms = _GramTerms(rows, 2.0 * np.pi * J, 1j)

    modes = range(grid.t_nodes // 2)
    bases = [(2.0j * np.pi * k * J).astype(complex) if k else np.zeros((F, F)) for k in modes]
    tags = [f"contact k={k}" for k in modes]
    ends = _end_rows(problem, bases, lambda end: end.asymptotic.constant_matrix(), prof,
                     _bc_scale(stencil[2]), tags)
    return [_mode_block(k, 1 if k == 0 else 2, tag, rows, base, e, terms)
            for k, base, tag, e in zip(modes, bases, tags, ends)]


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
    base = _trig_derivative(K, problem.fiber_dim)
    e, = _end_rows(problem, [base], lambda end: _trig_coupling(end.asymptotic.sample(t), T), prof,
                   _bc_scale(s), ["coupled"])
    rows = _StencilRows(stencil, prof, nfield, B_mid)
    b = _shifted(_mode_block(None, 1, "coupled", rows, base, e), problem, s, prof)
    return ModeBlock(k=b.k, mult=b.mult, pde_rows=b.pde_rows, aug_cols=b.aug_cols, tag=b.tag,
                     dense=_materialize(b))


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
    (block_cols, n_small), for the rank-deficient blocks only; structural
    kernel directions of wide blocks are included through the rank
    decision.  Each block's directions come from ``DiscreteOperator.kernel``,
    as many as its rank decision counts: min(shape) less its values below
    the threshold, which ``DiscreteOperator.values_below(i, threshold)``
    holds, none on a block certified above the threshold.
    """
    pieces = [(b, op.kernel(i, threshold)) for i, b in enumerate(op.blocks)]
    return [(b, V) for b, V in pieces if V.shape[1]]
