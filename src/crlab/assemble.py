"""Discretization of cylinder operators with spectral boundary conditions.

The s-direction uses an eighth-order finite-difference collocation on a
uniform node grid: the PDE is collocated at the N-1 interval midpoints, each
row built from an 8-node local stencil (Fornberg weights), so the matrix has
one fewer residual block than unknown blocks.  The t-direction is represented
by real trigonometric modes with band limit K = t_nodes/2 - 1; when the
coefficient field is independent of t the operator block-diagonalizes over
modes and each block is assembled and decomposed separately, otherwise a
coupled all-mode matrix is built.

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

Each block is decomposed once per operator, by one of two routes.  A block
with more than 512 columns whose Gram matrix has bandwidth kd at most n/16
(the 8-node stencils give kd = 15 on the 2-dimensional contact fiber) gets
its singular values as square roots of the Gram eigenvalues from LAPACK's
banded eigensolver, in O(n^2 kd) instead of O(n^3).  Every other block,
augmented blocks among them (their shift columns are dense), takes the
values-only dense SVD, which stays the reference.  A guard sends a banded
block back to dense SVD when its smallest Gram eigenvalue is below 1e-8
times its largest (sigma_min < 1e-4 sigma_max), because squaring blurs
values near the rank threshold; so every rank-deficient or near-deficient
block is decided by dense SVD.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import profiles
from .exceptions import AssemblyError, FredholmWeightError, NumericalError, ResolutionError
from .loops import standard_j
from .problems import CRProblem, GridSpec, default_grid_for

_FD_STENCIL = 8


def fornberg_weights(x0, nodes, max_order=1):
    """Finite-difference weights for derivatives 0..max_order at x0."""
    n = len(nodes)
    c = np.zeros((n, max_order + 1))
    c1 = 1.0
    c4 = nodes[0] - x0
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, max_order)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


def fd_operators(s_lo, s_hi, n_nodes):
    """Midpoint derivative/interpolation matrices on a uniform grid.

    Returns (D, P, s, mids): D and P are (n_nodes-1, n_nodes); row i holds the
    8-node stencil differentiating (D) or interpolating (P) at the midpoint
    of interval i.  Stencils shift near the edges but never widen, so every
    row touches at most 8 consecutive nodes.  The arrays are cached per grid
    and shared between callers, so they are read-only.
    """
    return _fd_operators(round(float(s_lo), 12), round(float(s_hi), 12), int(n_nodes))


@functools.lru_cache(maxsize=32)
def _fd_operators(s_lo, s_hi, N):
    if N < _FD_STENCIL + 1:
        raise ResolutionError(f"need at least {_FD_STENCIL + 1} s-nodes, got {N}")
    s = np.linspace(s_lo, s_hi, N)
    mids = 0.5 * (s[:-1] + s[1:])
    D = np.zeros((N - 1, N))
    P = np.zeros((N - 1, N))
    for i, m in enumerate(mids):
        w0 = min(max(i - (_FD_STENCIL // 2 - 1), 0), N - _FD_STENCIL)
        cc = fornberg_weights(m, s[w0:w0 + _FD_STENCIL], 1)
        D[i, w0:w0 + _FD_STENCIL] = cc[:, 1]
        P[i, w0:w0 + _FD_STENCIL] = cc[:, 0]
    for a in (D, P, s, mids):
        a.flags.writeable = False
    return D, P, s, mids


@dataclass
class ModeBlock:
    """One decoupled (or the single coupled) factor of the discrete operator.

    ``mult`` is the real multiplicity each matrix dimension carries: 2 for a
    scalar complex-line mode (identical real and imaginary copies) and for a
    contact-fiber mode k >= 1 (conjugate pair +-k), 1 for realified blocks.
    """

    k: object
    matrix: np.ndarray
    mult: int
    pde_rows: int
    bc_rows: int
    aug_cols: int = 0
    tag: str = ""

    @property
    def real_rows(self):
        return self.mult * self.matrix.shape[0]

    @property
    def real_cols(self):
        return self.mult * self.matrix.shape[1]

    def realified(self):
        """Real matrix carrying this block's full real multiplicity."""
        M = self.matrix
        if np.iscomplexobj(M):
            R, I = M.real, M.imag
            return np.block([[R, -I], [I, R]])
        if self.mult == 2:
            Z = np.zeros_like(M)
            return np.block([[M, Z], [Z, M]])
        return M


# Blocks of reproduce-all and gluing (at most 384 columns) stay dense, byte for byte.
_BANDED_MIN_COLS = 512
# A wider band erodes the O(n^2 kd) gain; dense shift columns fail this test.
_BANDED_MAX_KD_FRACTION = 1 / 16
# Squaring blurs values below 1e-4 sigma_max, near the rank threshold: dense SVD there.
_GRAM_GUARD = 1e-8


def _banded_singular_values(M):
    """Singular values of M from the eigenvalues of its smaller Gram matrix.

    The Gram matrix (M^H M for tall and square M, M M^H for wide M, whose
    rows are first ordered by their first nonzero column so appended boundary
    rows sit next to their node) is built from the sparse pattern and handed
    to LAPACK's banded eigensolver in upper band storage.  Returns None when
    the bandwidth exceeds n/16 or lambda_min < 1e-8 lambda_max; the caller
    then decomposes M densely.
    """
    wide = M.shape[0] < M.shape[1]
    if wide:
        M = M[np.argsort(np.argmax(M != 0, axis=1), kind="stable")]
    A = sp.csr_matrix(M)
    G = (A @ A.conj().T if wide else A.conj().T @ A).tocoo()
    upper = G.row <= G.col
    r, c = G.row[upper], G.col[upper]
    kd = int((c - r).max(initial=0))
    if kd > _BANDED_MAX_KD_FRACTION * G.shape[0]:
        return None
    ab = np.zeros((kd + 1, G.shape[0]), dtype=G.dtype)
    ab[kd + r - c, c] = G.data[upper]
    lam = scipy.linalg.eig_banded(ab, eigvals_only=True, overwrite_a_band=True,
                                  check_finite=False)
    if lam[0] < _GRAM_GUARD * lam[-1]:
        return None
    return np.sqrt(lam[::-1])


@dataclass
class DiscreteOperator:
    """Assembled rectangular operator with grid metadata.

    ``blocks`` hold the per-mode factors; ``matrix`` materializes the full
    real rectangular matrix (block diagonal over modes) for export and
    transpose experiments.  cols - rows equals the analytic index candidate
    once the boundary rows are installed; both row groups are recorded.

    Each block is decomposed once per operator, in ``block_singular_values``
    (banded Gram eigenvalues for large banded blocks, dense SVD otherwise);
    the rank decision, the kernel directions and the gluing stability
    constant all read that cache.  Values from the banded route agree with
    dense SVD to about eps (sigma_max / sigma)^2 relative, not bit for bit.
    """

    blocks: list
    grid: tuple                      # (s_nodes, t_nodes, s_max, spacing)
    weight_conjugated: bool
    augmentation_cols: int
    pde_rows: int
    bc_rows: int
    problem: object = None
    backend: str = "decoupled"
    _matrix: object = field(default=None, repr=False)
    _svals: object = field(default=None, repr=False)

    @property
    def rows(self):
        return sum(b.real_rows for b in self.blocks)

    @property
    def cols(self):
        return sum(b.real_cols for b in self.blocks)

    @property
    def index_candidate(self):
        return self.cols - self.rows

    @property
    def matrix(self):
        if self._matrix is None:
            self._matrix = sp.block_diag([sp.csr_matrix(b.realified()) for b in self.blocks],
                                         format="csr")
        return self._matrix

    def block_singular_values(self):
        """Singular values of each block: all min(rows, cols), descending.

        Computed on first use and cached on the operator.  A block with more
        than 512 columns whose Gram matrix has bandwidth at most n/16 takes
        the banded route (``_banded_singular_values``); every other block, and
        every block the route's accuracy guard rejects, takes the reference
        values-only ``np.linalg.svd``.
        """
        if self._svals is None:
            svals = []
            for b in self.blocks:
                try:
                    sv = (_banded_singular_values(b.matrix)
                          if b.matrix.shape[1] > _BANDED_MIN_COLS else None)
                    if sv is None:
                        sv = np.linalg.svd(b.matrix, compute_uv=False)
                except np.linalg.LinAlgError as exc:  # pragma: no cover
                    raise NumericalError(f"SVD failed on block {b.tag}: {exc}") from exc
                svals.append(sv)
            self._svals = svals
        return self._svals

    def singular_values(self):
        """All singular values with real multiplicities, ascending."""
        out = [np.repeat(sv, b.mult) for b, sv in zip(self.blocks, self.block_singular_values())]
        return np.sort(np.concatenate(out)) if out else np.zeros(0)

    def transposed(self):
        blocks = [ModeBlock(k=b.k, matrix=b.matrix.conj().T, mult=b.mult,
                            pde_rows=0, bc_rows=0, aug_cols=0, tag=b.tag + "^T")
                  for b in self.blocks]
        return DiscreteOperator(blocks=blocks, grid=self.grid,
                                weight_conjugated=self.weight_conjugated,
                                augmentation_cols=0, pde_rows=0, bc_rows=0,
                                problem=self.problem, backend=self.backend + "^T")

    def export_matrix_market(self, path):
        from scipy.io import mmwrite
        mmwrite(str(path), self.matrix)

    def grid_tag(self):
        s_nodes, t_nodes, s_max, _ = self.grid
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
    """Smallest s_nodes at the default density passing the weight-resolution rule."""
    dmax = max((abs(e.weight) for e in problem.ends), default=0.0)
    base = int(round(8 * problem.truncation.s_max))
    if dmax <= 0:
        return base
    need = int(np.ceil(problem.truncation.s_max * dmax / _RESOLUTION_SCALE))
    return max(base, need)


def _guard_shifted_spectrum(values, what, tol=1e-9):
    m = float(np.abs(values).min())
    if m <= tol:
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
# decoupled backend
# ---------------------------------------------------------------------------

def _scalar_mode_block(k, D, P, s, mids, wprime, cap_left, bc_signs):
    """Complex-line mode-k block: d/ds - (2 pi k + w'(s)) on the scalar profile."""
    c_mid = -2.0 * np.pi * k - wprime(mids)
    M = D + c_mid[:, None] * P
    rows = [M]
    bc = 0
    gamma = _bc_scale(s)
    c_lo = -2.0 * np.pi * k - bc_signs[0]
    c_hi = -2.0 * np.pi * k - bc_signs[1]
    _guard_shifted_spectrum(np.array([c_hi]), f"mode {k} at +s_max")
    if cap_left:
        if k < 0:
            r = np.zeros((1, M.shape[1]))
            r[0, 0] = gamma
            rows.append(r)
            bc += 1
    else:
        _guard_shifted_spectrum(np.array([c_lo]), f"mode {k} at -s_max")
        if c_lo > 0:
            r = np.zeros((1, M.shape[1]))
            r[0, 0] = gamma
            rows.append(r)
            bc += 1
    if c_hi < 0:
        r = np.zeros((1, M.shape[1]))
        r[0, -1] = gamma
        rows.append(r)
        bc += 1
    return np.vstack(rows), bc


def _complex_line_blocks(problem, grid):
    prof = problem.weight_profile()
    D, P, s, mids = fd_operators(problem.s_lo, problem.truncation.s_max, grid.s_nodes)
    K = grid.t_nodes // 2 - 1
    cap_left = problem.domain_kind == "plane"
    wp_lo = float(prof.wprime(problem.s_lo))
    wp_hi = float(prof.wprime(problem.truncation.s_max))
    wprime = prof.wprime

    blocks = []
    n_aug = problem.augmentation_dims
    for k in range(-K, K + 1):
        if k == 0 and n_aug:
            continue
        M, bc = _scalar_mode_block(k, D, P, s, mids, wprime, cap_left, (wp_lo, wp_hi))
        _finite_or_raise(M, f"k={k}")
        blocks.append(ModeBlock(k=k, matrix=M, mult=2, pde_rows=M.shape[0] - bc,
                                bc_rows=bc, tag=f"scalar k={k}"))
    if n_aug:
        blocks.append(_augmented_mode0_block(problem, grid, D, P, s, mids, prof, cap_left,
                                             (wp_lo, wp_hi)))
    return blocks, s


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


def _augmentation_shapes(problem, s, prof):
    """(sampled conjugated shift shape e^{w} beta_end, component) per layout key."""
    npr = problem.truncation.n_prime
    ew = np.exp(prof.w(s))
    shapes = {"positive": ew * profiles.cutoff(s, npr),
              "negative": ew * profiles.cutoff(-s, npr)}
    shapes["shared"] = shapes["positive"] + shapes["negative"]
    return [(shapes[end], comp) for end, comp in augmentation_layout(problem)]


def _augmented_mode0_block(problem, grid, D, P, s, mids, prof, cap_left, bc_signs):
    """Realified mode-0 block of the complex-line fiber with shift columns.

    Unknown layout: [a-component nodes, theta-component nodes, parameters],
    the parameter columns in ``augmentation_layout`` order.
    """
    N = len(s)
    L = D - prof.wprime(mids)[:, None] * P
    Z = np.zeros_like(L)
    pde = np.block([[L, Z], [Z, L]])
    rows = [pde]
    bc = 0
    gamma = _bc_scale(s)
    wp_lo, wp_hi = bc_signs
    if not cap_left and -wp_lo > 0:
        for comp in range(2):
            r = np.zeros((1, 2 * N))
            r[0, comp * N] = gamma
            rows.append(r)
            bc += 1
    if -wp_hi < 0:
        for comp in range(2):
            r = np.zeros((1, 2 * N))
            r[0, comp * N + N - 1] = gamma
            rows.append(r)
            bc += 1
    M = np.vstack(rows)

    npde = N - 1

    def column(shape, comp):
        v = L @ shape
        c = np.zeros((M.shape[0], 1))
        c[comp * npde:(comp + 1) * npde, 0] = v
        nrm = np.linalg.norm(c)
        if nrm == 0:
            raise AssemblyError("augmentation column vanished")
        return c / nrm

    cols = [column(shape, comp) for shape, comp in _augmentation_shapes(problem, s, prof)]
    M = np.hstack([M] + cols)
    _finite_or_raise(M, "k=0 augmented")
    n_aug = len(cols)
    return ModeBlock(k=0, matrix=M, mult=1, pde_rows=pde.shape[0], bc_rows=bc,
                     aug_cols=n_aug, tag="realified k=0 + shifts")


def _contact_mode_block(problem, grid, k, D, P, s, mids, prof):
    F = problem.fiber_dim
    J = standard_j(F)
    N = len(s)
    dtype = float if k == 0 else complex
    base = (2.0j * np.pi * k * J).astype(complex) if k else np.zeros((F, F))
    wp = prof.wprime(mids)
    Bm = np.empty((N - 1, F, F))
    for i, m in enumerate(mids):
        Bm[i] = problem.coefficient(m)
    C = base[None, :, :] + Bm - wp[:, None, None] * np.eye(F)[None, :, :]
    # rows: kron of the stencil with identity plus interpolated coefficient
    M = (np.einsum("ij,fg->ifjg", D, np.eye(F)).astype(dtype)
         + np.einsum("ij,ifg->ifjg", P, C.astype(dtype)))
    M = M.reshape((N - 1) * F, N * F)
    rows = [M]
    bc = 0
    for end, node in ((problem.negative_end, 0), (problem.positive_end, N - 1)):
        if end is None:
            continue
        sign = end.sign
        s_end = problem.truncation.s_max if sign == "positive" else problem.s_lo
        A_end = base + end.asymptotic.constant_matrix() - float(prof.wprime(s_end)) * np.eye(F)
        lam, V = np.linalg.eigh(A_end)
        _guard_shifted_spectrum(lam, f"contact mode {k} at {sign} end")
        sel = lam > 0 if sign == "negative" else lam < 0
        if sel.any():
            r = np.zeros((int(sel.sum()), N * F), dtype=dtype)
            r[:, node * F:(node + 1) * F] = _bc_scale(s) * V[:, sel].conj().T
            rows.append(r)
            bc += int(sel.sum())
    M = np.vstack(rows)
    _finite_or_raise(M, f"contact k={k}")
    return ModeBlock(k=k, matrix=M, mult=1 if k == 0 else 2,
                     pde_rows=(N - 1) * F, bc_rows=bc, tag=f"contact k={k}")


def _contact_blocks(problem, grid):
    prof = problem.weight_profile()
    D, P, s, mids = fd_operators(problem.s_lo, problem.truncation.s_max, grid.s_nodes)
    K = grid.t_nodes // 2 - 1
    blocks = [_contact_mode_block(problem, grid, k, D, P, s, mids, prof)
              for k in range(0, K + 1)]
    return blocks, s


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


def _coupled_block(problem, grid):
    F = problem.fiber_dim
    K = grid.t_nodes // 2 - 1
    nb = 2 * K + 1
    nfield = nb * F
    prof = problem.weight_profile()
    D, P, s, mids = fd_operators(problem.s_lo, problem.truncation.s_max, grid.s_nodes)
    N = len(s)
    if N * nfield > 12000:
        raise ResolutionError(
            f"coupled backend size {N * nfield} too large; reduce the grid "
            "or use a t-independent coefficient")
    T, t = _trig_basis(grid.t_nodes, K)
    Aderiv = _trig_derivative(K, F)

    def coeff_op(s_val):
        Bs = np.stack([problem.coefficient(s_val, tj) for tj in t])
        return Aderiv + _trig_coupling(Bs, T) - float(prof.wprime(s_val)) * np.eye(nfield)

    M = np.zeros(((N - 1) * nfield, N * nfield))
    for i, m in enumerate(mids):
        Ct = coeff_op(m)
        j0 = np.flatnonzero(D[i])[0]
        for j in range(j0, j0 + _FD_STENCIL):
            blockij = D[i, j] * np.eye(nfield) + P[i, j] * Ct
            M[i * nfield:(i + 1) * nfield, j * nfield:(j + 1) * nfield] += blockij
    rows = [M]
    bc = 0
    for end, node in ((problem.negative_end, 0), (problem.positive_end, N - 1)):
        if end is None:
            if problem.domain_kind == "plane":
                # cap rows: negative Fourier modes of the complex trace
                cap = []
                gamma = _bc_scale(s)
                for k in range(1, K + 1):
                    c = (2 * k - 1) * F
                    sgn = 2 * k * F
                    r1 = np.zeros(N * nfield)
                    r1[node * nfield + c] = gamma / np.sqrt(2.0)
                    r1[node * nfield + sgn + 1] = -gamma / np.sqrt(2.0)
                    r2 = np.zeros(N * nfield)
                    r2[node * nfield + sgn] = gamma / np.sqrt(2.0)
                    r2[node * nfield + c + 1] = gamma / np.sqrt(2.0)
                    cap.extend([r1, r2])
                if cap:
                    rows.append(np.vstack(cap))
                    bc += len(cap)
            continue
        sign = end.sign
        Ss = end.asymptotic.sample(t)
        A_end = Aderiv + _trig_coupling(Ss, T) - float(
            prof.wprime(problem.truncation.s_max if sign == "positive" else problem.s_lo)
        ) * np.eye(nfield)
        lam, V = np.linalg.eigh(0.5 * (A_end + A_end.T))
        _guard_shifted_spectrum(lam, f"coupled {sign} end")
        sel = lam > 0 if sign == "negative" else lam < 0
        if sel.any():
            r = np.zeros((int(sel.sum()), N * nfield))
            r[:, node * nfield:(node + 1) * nfield] = _bc_scale(s) * V[:, sel].T
            rows.append(r)
            bc += int(sel.sum())
    Mfull = np.vstack(rows)

    n_aug = problem.augmentation_dims
    if n_aug:
        if problem.fiber != "complex_line":
            raise AssemblyError("augmentation requires the complex-line fiber")
        pde_rows = (N - 1) * nfield
        Lrows = Mfull[:pde_rows]

        def column(shape, comp):
            field = np.zeros((N, nfield))
            field[:, comp] = shape          # mode-0 basis entry of component comp
            vec = Lrows @ field.reshape(-1)
            c = np.zeros((Mfull.shape[0], 1))
            c[:pde_rows, 0] = vec
            return c / np.linalg.norm(c)

        cols = [column(shape, comp) for shape, comp in _augmentation_shapes(problem, s, prof)]
        Mfull = np.hstack([Mfull] + cols)
    _finite_or_raise(Mfull, "coupled")
    return ModeBlock(k=None, matrix=Mfull, mult=1, pde_rows=(N - 1) * nfield,
                     bc_rows=bc, aug_cols=n_aug, tag="coupled"), s


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def assemble(problem: CRProblem, grid: GridSpec = None, backend: str = None):
    """Assemble the weighted, boundary-conditioned discrete operator.

    ``backend`` may force "decoupled" or "coupled"; by default problems with
    t-independent coefficients decouple over trig modes.
    """
    grid = grid or default_grid_for(problem.truncation)
    _check_resolution(problem, grid)
    problem.check_end_decay()
    if backend is None:
        backend = "coupled" if problem.t_dependent else "decoupled"
    if backend == "decoupled":
        if problem.t_dependent:
            raise AssemblyError("t-dependent coefficients cannot decouple")
        if problem.fiber == "complex_line":
            blocks, s = _complex_line_blocks(problem, grid)
        else:
            blocks, s = _contact_blocks(problem, grid)
    elif backend == "coupled":
        block, s = _coupled_block(problem, grid)
        blocks = [block]
    else:
        raise ValueError(f"unknown backend {backend!r}")
    spacing = (s[-1] - s[0]) / (len(s) - 1)
    op = DiscreteOperator(
        blocks=blocks,
        grid=(grid.s_nodes, grid.t_nodes, problem.truncation.s_max, spacing),
        weight_conjugated=True,
        augmentation_cols=sum(b.aug_cols for b in blocks),
        pde_rows=sum(b.mult * b.pde_rows for b in blocks),
        bc_rows=sum(b.mult * b.bc_rows for b in blocks),
        problem=problem,
        backend=backend,
    )
    return op


def kernel_vectors(op, threshold):
    """Right-singular directions with singular value below threshold, per block.

    Returns a list of (block, vectors) where vectors has shape
    (block_cols, n_small); structural kernel directions of wide blocks are
    included through the rank decision.  The rank comes from the operator's
    cached singular values; only rank-deficient blocks run the full SVD.
    """
    out = []
    for b, sv in zip(op.blocks, op.block_singular_values()):
        rank = int((sv >= threshold).sum())
        if rank < b.matrix.shape[1]:
            Vh = np.linalg.svd(b.matrix)[2]
            out.append((b, Vh[rank:].conj().T))
    return out
