"""Self-adjoint asymptotic operators on the circle.

The operators analyzed here have the form A(z) = J0 dz/dt + S(t) z acting on
loops z: S^1 = R/Z -> R^{2n}, with J0 the standard complex structure in block
form and S(t) a symmetric coefficient loop.  Their spectra control Fredholm
weights, window counts control wall-crossing jumps, and the spectral flow of
a path of such operators computes indices of the cylinder operators built in
:mod:`crlab.assemble`.  On the discrete operators the flow is the drop in the
number of negative eigenvalues between the endpoints: only those are solved.

A constant S is stored as its mode blocks: the DFT splits the operator into
the Hermitian blocks S + sigma(k) (i J0), |k| <= (M-1)/2, with sigma(k) =
2 pi k on the Fourier grid and M sin(2 pi k / M) for finite differences, and
one batched ``eigvalsh`` over them gives its spectrum.  The dense matrix on
the grid stays the reference; only a t-dependent S reads it.

Sign convention, fixed once for the whole package:

    spectral_flow = #(crossings neg -> pos) - #(crossings pos -> neg)

as the path parameter increases.  Index contracts elsewhere are stated
relative to this convention together with a path orientation; see
:func:`crlab.indexing.analytic_index`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import (
    CoefficientError,
    DegenerateEndError,
    NumericalError,
    ResolutionError,
    refuse_unknown_keys,
)

SYMMETRY_TOL = 1e-12
# the circle grid of every weight check, window count and spectral flow
# (rounded up to 65 nodes by assemble_loop_operator)
T_RESOLUTION = 64

# the key besides "kind" that each coefficient kind reads
_COEFF_KEYS = {"zero": (), "diag": ("values",), "constant": ("matrix",)}


def standard_j(dim):
    """The standard complex structure on R^{dim}: J(e_i) = e_{i+n}, J(e_{i+n}) = -e_i."""
    if dim % 2 != 0 or dim <= 0:
        raise CoefficientError(f"fiber dimension must be even and positive, got {dim}")
    n = dim // 2
    J = np.zeros((dim, dim))
    J[n:, :n] = np.eye(n)
    J[:n, n:] = -np.eye(n)
    return J


@dataclass(frozen=True)
class LoopOperatorSpec:
    """Data of an asymptotic operator A = J0 d/dt + S(t) on loops in R^{dim}.

    ``coeff`` may be None (S = 0), a constant symmetric matrix, or a callable
    t -> matrix for a 1-periodic coefficient loop.  Loops are parameterized
    over R/Z: an orbit of period T enters rescaled to it, which multiplies
    its operator, coefficient included, by T.
    """

    dim: int
    coeff: object = None

    def __post_init__(self):
        if self.dim % 2 != 0 or self.dim <= 0:
            raise CoefficientError(f"dim must be even positive, got {self.dim}")
        if self.coeff is not None and not callable(self.coeff):
            S = np.asarray(self.coeff, dtype=float)
            if S.shape != (self.dim, self.dim):
                raise CoefficientError(f"coefficient shape {S.shape} != ({self.dim}, {self.dim})")
            if not np.isfinite(S).all():
                raise CoefficientError("coefficient contains non-finite entries")
            if np.abs(S - S.T).max() > SYMMETRY_TOL:
                raise CoefficientError("constant coefficient matrix is not symmetric")

    @property
    def is_constant(self):
        return self.coeff is None or not callable(self.coeff)

    def constant_matrix(self):
        """The coefficient matrix for constant specs (zero matrix when coeff is None)."""
        if callable(self.coeff):
            raise CoefficientError("spec has a t-dependent coefficient loop")
        if self.coeff is None:
            return np.zeros((self.dim, self.dim))
        return np.asarray(self.coeff, dtype=float)

    def sample(self, ts):
        """Sample S(t) at the given parameter values, validating symmetry."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if self.is_constant:
            S = self.constant_matrix()
            return np.broadcast_to(S, (len(ts), self.dim, self.dim)).copy()
        out = np.empty((len(ts), self.dim, self.dim))
        for i, t in enumerate(ts):
            S = np.asarray(self.coeff(t), dtype=float)
            if S.shape != (self.dim, self.dim):
                raise CoefficientError(f"coefficient at t={t} has shape {S.shape}")
            if not np.isfinite(S).all():
                raise CoefficientError(f"coefficient at t={t} has non-finite entries")
            if np.abs(S - S.T).max() > SYMMETRY_TOL:
                raise CoefficientError(f"coefficient at t={t} is not symmetric")
            out[i] = S
        return out

    def sup_norm(self):
        if self.is_constant:
            return float(np.linalg.norm(self.constant_matrix(), 2))
        ts = np.arange(T_RESOLUTION) / T_RESOLUTION
        return float(max(np.linalg.norm(S, 2) for S in self.sample(ts)))

    def degeneracy_tol(self):
        """Scale-aware zero-eigenvalue tolerance: 1e-8 * (1 + ||S||_inf)."""
        return 1e-8 * (1.0 + self.sup_norm())

    def check_periodicity(self, t_resolution):
        if self.is_constant:
            return
        S0 = self.sample([0.0])[0]
        S1 = self.sample([1.0 - 1.0 / t_resolution])[0]
        Sm = self.sample([-1.0 / t_resolution])[0]
        if np.abs(S1 - Sm).max() > 1e-8 * (1.0 + np.abs(S0).max()):
            raise CoefficientError("coefficient loop is not 1-periodic within tolerance")

    def to_json(self):
        d = {"dim": self.dim}
        if self.coeff is None:
            d["coeff"] = {"kind": "zero"}
        elif not callable(self.coeff):
            S = self.constant_matrix()
            if np.array_equal(S, np.diag(np.diag(S))):
                d["coeff"] = {"kind": "diag", "values": list(np.diag(S))}
            else:
                d["coeff"] = {"kind": "constant", "matrix": S.tolist()}
        else:
            raise CoefficientError("callable coefficient loops do not serialize")
        return d

    @staticmethod
    def from_json(d):
        refuse_unknown_keys(d, ("dim", "coeff", "period"), CoefficientError,
                            "loop operator spec")
        if d.get("period", 1) != 1:
            raise CoefficientError(f"loops are parameterized over R/Z: period must be 1, "
                                   f"got {d['period']!r}")
        coeff = d.get("coeff", {"kind": "zero"})
        kind = coeff.get("kind")
        if kind not in _COEFF_KEYS:
            raise CoefficientError(f"unknown coefficient kind {kind!r}")
        refuse_unknown_keys(coeff, ("kind",) + _COEFF_KEYS[kind], CoefficientError,
                            f"{kind!r} coefficient")
        if kind == "zero":
            C = None
        elif kind == "diag":
            C = np.diag(np.asarray(coeff["values"], dtype=float))
        else:
            C = np.asarray(coeff["matrix"], dtype=float)
        return LoopOperatorSpec(dim=int(d["dim"]), coeff=C)


@dataclass
class DiscreteLoopOperator:
    """A on a circle grid of ``t_resolution`` (odd) nodes.

    ``modes`` holds the (M, dim, dim) Hermitian blocks S + sigma(k) (i J0) of
    a constant S, k in ``np.fft.fftfreq`` order, with the symbol sigma(k) of
    the method (``assemble_loop_operator``), and is None otherwise.
    ``matrix`` is the real symmetric (M dim, M dim) matrix; it is built on
    first read, and every operator without ``modes`` has it from assembly on.
    """

    spec: LoopOperatorSpec
    t_resolution: int
    method: str
    modes: np.ndarray = field(default=None, repr=False)

    @cached_property
    def matrix(self):
        """The assembled matrix, node-major: entry (j * dim + i) holds
        component i at node t_j.  The derivative term kron(D, J0) is symmetric
        because both factors are antisymmetric; the result is symmetrized to
        kill round-off."""
        M, dim = self.t_resolution, self.spec.dim
        D = _fourier_diff_matrix(M) if self.method == "fourier" else _fd_diff_matrix(M)
        A = np.kron(D, standard_j(dim))
        Ss = self.spec.sample(np.arange(M) / M)
        for j in range(M):
            A[j * dim:(j + 1) * dim, j * dim:(j + 1) * dim] += Ss[j]
        return 0.5 * (A + A.T)

    def eigenvalues(self):
        """All eigenvalues, sorted: ``mode_eigenvalues`` flattened, or
        ``eigvalsh(matrix)`` without ``modes``."""
        if self.modes is not None:
            return np.sort(self.mode_eigenvalues().ravel())
        return self._eigvalsh(self.matrix)

    def mode_eigenvalues(self):
        """One batched ``eigvalsh`` over ``modes``: row j of the (M, dim)
        result holds the eigenvalues of mode ``np.fft.fftfreq(M, 1 / M)[j]``."""
        return self._eigvalsh(self.modes)

    def _eigvalsh(self, a):
        try:
            return np.linalg.eigvalsh(a)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise NumericalError(
                f"eigensolver failed on the {self.method} operator at "
                f"{self.t_resolution} nodes: {exc}") from exc


def _fourier_diff_matrix(M):
    # spectral differentiation for period-1 grids, M odd; antisymmetric and
    # exact on modes |k| <= (M-1)/2, with no Nyquist null direction
    j = np.arange(M)
    diff = j[:, None] - j[None, :]
    D = np.zeros((M, M))
    off = diff != 0
    D[off] = np.pi * (-1.0) ** diff[off] / np.sin(np.pi * diff[off] / M)
    return D


def _fd_diff_matrix(M):
    h = 1.0 / M
    D = np.zeros((M, M))
    for j in range(M):
        D[j, (j + 1) % M] = 1.0 / (2 * h)
        D[j, (j - 1) % M] = -1.0 / (2 * h)
    return D


def assemble_loop_operator(spec, t_resolution, method="fourier"):
    """Assemble A = J0 d/dt + S(t) on a t-grid as a :class:`DiscreteLoopOperator`.

    A constant S is stored as its mode blocks, S + sigma(k) (i J0) with the
    symbol sigma(k) = 2 pi k of spectral differentiation (exact) or
    M sin(2 pi k / M) of centered differences; the dense matrix is then
    built only when read.  A t-dependent operator is assembled dense, its
    coefficient loop sampled and checked here.  Even requested resolutions are rounded up
    to the next odd node count: an even periodic grid carries a Nyquist mode
    that spectral differentiation annihilates, which would contaminate the
    low spectrum with copies of the eigenvalues of S alone.
    """
    if t_resolution < 8:
        raise ResolutionError(f"t_resolution must be >= 8, got {t_resolution}")
    if method not in ("fourier", "finite_difference"):
        raise ValueError(f"unknown method {method!r}")
    spec.check_periodicity(t_resolution)
    M = int(t_resolution) | 1
    op = DiscreteLoopOperator(spec=spec, t_resolution=M, method=method)
    if spec.is_constant:
        k = np.fft.fftfreq(M, d=1.0 / M)
        symbol = 2j * np.pi * k if method == "fourier" else 1j * M * np.sin(2 * np.pi * k / M)
        op.modes = spec.constant_matrix() + symbol[:, None, None] * standard_j(spec.dim)
    else:
        op.matrix  # built now, so that a bad coefficient loop raises here
    return op


@dataclass
class SpectrumReport:
    """Eigenvalues of a discrete loop operator, grouped into multiplicities."""

    eigenvalues: list          # list of (value, multiplicity, reliable)
    dim: int
    t_resolution: int
    method: str
    raw: np.ndarray = field(repr=False)

    def values(self, reliable_only=False):
        return np.array([v for v, m, r in self.eigenvalues for _ in range(m)
                         if not reliable_only or r])

    def to_json(self):
        return {
            "dim": self.dim,
            "resolution": self.t_resolution,
            "method": self.method,
            "eigenvalues": [
                {"value": float(v), "multiplicity": int(m), "reliable": bool(r)}
                for v, m, r in self.eigenvalues
            ],
        }


def spectrum(op):
    """All eigenvalues of the discrete operator, sorted, with multiplicities.

    Eigenvalues within 1e-6 (1 + max |lambda|) of each other form one group.
    Eigenvalues outside the resolvable band |lambda| > (pi/2) * resolution are
    reported but flagged unreliable.  For the finite-difference method,
    eigenvalues of modes |k| > M/4 are also flagged: centered differences fold
    the top of the band back to small eigenvalues, and those folded copies
    carry no spectral information.  An operator with ``modes`` knows the mode
    of each eigenvalue; without them, a dense ``eigh`` classifies each
    eigenvector by its FFT energy on |k| <= M/4.
    """
    M = op.t_resolution
    band = 0.5 * np.pi * M
    low = np.abs(np.fft.fftfreq(M, d=1.0 / M)) <= M / 4.0
    if op.modes is not None:
        lam = op.mode_eigenvalues()
        ok = np.abs(lam) <= band
        if op.method == "finite_difference":
            ok &= low[:, None]
        order = np.argsort(lam, axis=None)
        lam, ok = lam.ravel()[order], ok.ravel()[order]
    elif op.method == "finite_difference":
        try:
            lam, vec = np.linalg.eigh(op.matrix)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise NumericalError(
                f"eigensolver failed on {op.matrix.shape} {op.method} matrix: {exc}") from exc
        modes = np.fft.fft(vec.reshape(M, op.spec.dim, -1), axis=0)
        energy = np.abs(modes) ** 2
        frac = energy[low].sum(axis=(0, 1)) / energy.sum(axis=(0, 1))
        ok = (np.abs(lam) <= band) & (frac >= 0.5)
    else:
        lam = op.eigenvalues()
        ok = np.abs(lam) <= band
    cluster_tol = 1e-6 * (1.0 + float(np.abs(lam).max(initial=0.0)))
    groups = [(float(lam[i:j].mean()), j - i, bool(ok[i:j].all()))
              for i, j in _clusters(lam, cluster_tol)]
    return SpectrumReport(eigenvalues=groups, dim=op.spec.dim, t_resolution=M,
                          method=op.method, raw=lam)


def _eigenvalues(spec):
    """Sorted eigenvalues of A on the T_RESOLUTION circle grid."""
    return assemble_loop_operator(spec, T_RESOLUTION).eigenvalues()


def is_nondegenerate(spec):
    """Whether 0 is separated from the spectrum of A by more than
    ``spec.degeneracy_tol()``; returns (flag, margin)."""
    margin = float(np.abs(_eigenvalues(spec)).min())
    return margin > spec.degeneracy_tol(), margin


def _clusters(lam, tol):
    """(start, stop) index pairs of the runs of sorted ``lam`` whose
    consecutive gaps are at most ``tol``."""
    if len(lam) == 0:
        return []
    edges = (np.flatnonzero(~(np.diff(lam) <= tol)) + 1).tolist()
    return list(zip([0] + edges, edges + [len(lam)]))


def spectral_flow(path):
    """Signed count of eigenvalue crossings through zero along a spec path.

    ``path`` maps s in [0, 1] to a :class:`LoopOperatorSpec`; both endpoints
    must be nondegenerate.  On one circle grid every operator of the path is a
    symmetric matrix of one size, so the crossings sum to the drop of the
    negative-eigenvalue count between the endpoints (Robbin & Salamon, 1995).
    """
    specs = (path(0.0), path(1.0))
    lams = [_eigenvalues(sp) for sp in specs]
    m0, m1 = (float(np.abs(lam).min()) for lam in lams)
    if not (m0 > specs[0].degeneracy_tol() and m1 > specs[1].degeneracy_tol()):
        raise DegenerateEndError(
            f"path endpoints must be nondegenerate (margins {m0:.2e}, {m1:.2e})")
    return int(np.count_nonzero(lams[0] < 0.0)) - int(np.count_nonzero(lams[1] < 0.0))


def linear_path(spec0, spec1):
    """Linear interpolation between two constant-coefficient specs."""
    if spec0.dim != spec1.dim:
        raise CoefficientError("path endpoints have different dimensions")
    S0, S1 = spec0.constant_matrix(), spec1.constant_matrix()

    def path(s):
        return LoopOperatorSpec(dim=spec0.dim, coeff=(1.0 - s) * S0 + s * S1)

    return path
