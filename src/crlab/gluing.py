"""Operator-level gluing along a shared cylindrical end.

Two cylinder problems whose shared end carries identical asymptotic data are
spliced into one long cylinder: in glued coordinates the first component's
coefficient field occupies s <= 0 (its coordinate shifted by +tau) and the
second's s >= 0 (shifted by -tau); both are constant on the free neck of
half-length rho = tau - n'.  The glued weight profile inherits the component
profiles, which requires the shared-end exponents to continue across the
seam (delta on the first component's positive end equals minus delta on the
second's negative end); with the exponent below the spectral gap this choice
changes no index.

Transplanting the component kernels onto the glued grid with the neck
cutoffs produces the approximate kernel N_tau.  Shared-end shift parameters
of the components have no counterpart on the glued cylinder; their dropped
columns are exactly what makes the transplant residuals nonzero, decaying
like e^{-delta rho}.  The stability constant comes from the rank walk:
sigma_{a+1} of each mode block carrying a transplant vectors, an upper bound
(Courant-Fischer) on the minimum off N_tau, its gap set by the residuals.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import profiles
from .assemble import assemble, augmentation_layout, kernel_vectors
from .exceptions import IncompatibleEndsError
from .indexing import numerical_index
from .problems import CRProblem, GridSpec, Truncation, default_grid_for

_END_MATCH_SAMPLES = 16
_END_MATCH_TOL = 1e-10


@dataclass(frozen=True)
class GluingConfig:
    """Gluing parameter tau with the derived neck geometry and cutoffs.

    beta_u(s) = 1 for s < tau - 1 and 0 for s > tau; beta_w mirrored.  The
    plateaus hold exactly, in particular on every grid node.
    """

    tau: float
    n_prime: float

    def __post_init__(self):
        if not self.tau > self.n_prime + 2.0:
            raise ValueError(
                f"tau must exceed n_prime + 2 = {self.n_prime + 2}, got {self.tau}")

    @property
    def rho(self):
        return self.tau - self.n_prime

    def beta_u(self, s):
        return 1.0 - profiles.smoothstep(np.asarray(s) - (self.tau - 1.0))

    def beta_w(self, s):
        return 1.0 - profiles.smoothstep(-np.asarray(s) - (self.tau - 1.0))


def _ends_match(end_u, end_w):
    a, b = end_u.asymptotic, end_w.asymptotic
    if a.dim != b.dim:
        return False
    ts = np.arange(_END_MATCH_SAMPLES) / _END_MATCH_SAMPLES
    return bool(np.abs(a.sample(ts) - b.sample(ts)).max() <= _END_MATCH_TOL)


def glue(problem_u, problem_w, tau):
    """Glued problem D_u #_tau D_w; returns (problem, GluingConfig).

    Preconditions: two cylinders over the same fiber; the shared end (u's
    positive, w's negative) carries the same asymptotic spec with the same
    parameterization -- no relative rotation at the seam -- and the weight
    exponent continues across it.  Shift parameters at the shared end are
    dropped: the glued map has no asymptotic limit there to shift.
    """
    if problem_u.domain_kind != "cylinder" or problem_w.domain_kind != "cylinder":
        raise IncompatibleEndsError("gluing needs two cylinder problems")
    if problem_u.fiber != problem_w.fiber:
        raise IncompatibleEndsError("fiber mismatch")
    end_u = problem_u.positive_end
    end_w = problem_w.negative_end
    if not _ends_match(end_u, end_w):
        raise IncompatibleEndsError(
            "shared-end asymptotic operators differ (same parameterized orbit required)")
    if abs(end_u.weight + end_w.weight) > 1e-12:
        raise IncompatibleEndsError(
            f"shared-end weight must continue across the seam: got "
            f"{end_u.weight} on u's positive end, {end_w.weight} on w's negative end")
    npr = problem_u.truncation.n_prime
    if abs(npr - problem_w.truncation.n_prime) > 1e-12:
        raise IncompatibleEndsError("neck markers n' differ")
    tau = float(tau)
    config = GluingConfig(tau=tau, n_prime=npr)

    s_comp = max(problem_u.truncation.s_max, problem_w.truncation.s_max)
    trunc = Truncation(s_max=tau + s_comp, n_prime=tau + npr)

    Bu, Bw = problem_u.coefficient, problem_w.coefficient
    if problem_u.t_dependent or problem_w.t_dependent:
        coeff_s = None

        def coeff_st(s, t):
            return Bu(s + tau, t) if s <= 0 else Bw(s - tau, t)
    else:
        coeff_st = None

        def coeff_s(s):
            return Bu(s + tau) if s <= 0 else Bw(s - tau)

    glued = CRProblem(
        domain_kind="cylinder",
        ends=(replace(problem_u.negative_end), replace(problem_w.positive_end)),
        fiber=problem_u.fiber,
        truncation=trunc,
        coeff_s=coeff_s,
        coeff_st=coeff_st,
        label=f"glue(tau={tau:g})",
        profile_override=profiles.glued_weight_profile(
            problem_u.weight_profile(), problem_w.weight_profile(), tau),
    )
    return glued, config


# ---------------------------------------------------------------------------
# kernels and transplants
# ---------------------------------------------------------------------------

@dataclass
class KernelVector:
    """One kernel element of a component problem, in block-native pieces.

    ``field`` has shape (s_nodes, F), the block's columns node-major and
    field-minor, real or complex for contact modes.  The complex-line fiber
    has F = 1: a scalar mode's real profile, or on the realified mode 0 that
    carries the shifts the complex profile a + i theta of its two real
    fields (a, theta).  ``params`` maps each ``augmentation_layout`` key of
    the component to its shift coefficient, the block's columns after the
    fields.
    """

    k: object
    s: np.ndarray
    field: np.ndarray
    params: dict


def component_kernel(problem, grid=None):
    """Orthonormalized kernel vectors of a component, with the index report."""
    grid = grid or default_grid_for(problem.truncation)
    op = assemble(problem, grid)
    rep = numerical_index(op)
    s = np.linspace(problem.s_lo, problem.truncation.s_max, grid.s_nodes)
    out = []
    for block, V in kernel_vectors(op, rep.threshold):
        # orthonormalize within the block
        Q, _ = np.linalg.qr(V)
        n = block.shape[1] - block.aug_cols
        for v in Q.T:
            field = v[:n].reshape(len(s), -1)    # node-major, field-minor
            if block.aug_cols and block.k == 0:  # realified mode 0: (a, theta) of each node
                field = (field[:, 0] + 1j * field[:, 1])[:, None]
            params = dict(zip(augmentation_layout(problem), v[n:]))
            out.append(KernelVector(k=block.k, s=s, field=field, params=params))
    return out, rep


def _interp_columns(x_src, values, x_tgt):
    """Local 8-point polynomial interpolation of uniformly sampled columns."""
    from .assemble import fornberg_weights
    N = len(x_src)
    h = x_src[1] - x_src[0]
    first = np.clip(np.floor((x_tgt - x_src[0]) / h) - 3, 0, N - 8).astype(int)
    weights = fornberg_weights(x_tgt, x_src[first[:, None] + np.arange(8)], 0)[..., 0]
    out = np.zeros((len(x_tgt),) + values.shape[1:], dtype=values.dtype)
    for i, (j, w) in enumerate(zip(first, weights)):
        out[i] = w @ values[j:j + 8]
    return out


def _glued_block_vector(glued_op, kv, shift, cutoff, side):
    """Interpolate a component kernel vector onto a glued block's columns."""
    problem = glued_op.problem
    s_nodes = glued_op.grid[0]
    sg = np.linspace(problem.s_lo, problem.truncation.s_max, s_nodes)
    src = sg + shift
    inside = (src >= kv.s[0]) & (src <= kv.s[-1])
    F = kv.field.shape[1]
    g = np.zeros((len(sg), F), dtype=kv.field.dtype)
    g[inside] = _interp_columns(kv.s, kv.field, src[inside])
    g = g * cutoff(src)[:, None]

    block = next((b for b in glued_op.blocks if b.k == kv.k), None)
    if block is None:
        raise IncompatibleEndsError(f"glued operator has no mode {kv.k}")
    if block.aug_cols and block.k == 0:     # realified mode 0: (a, theta) of each node
        g = np.column_stack([g[:, 0].real, g[:, 0].imag])
    n = block.shape[1] - block.aug_cols
    vec = np.zeros(block.shape[1], dtype=g.dtype)
    vec[:n] = g.reshape(-1)
    # each component keeps only the shifts of its own outer end, in the
    # glued column that carries the same (end, component) key
    own = "negative" if side == "u" else "positive"
    for col, key in enumerate(augmentation_layout(problem)):
        if key[0] == own and key in kv.params:
            vec[n + col] = kv.params[key]
    nrm = np.linalg.norm(vec)
    return vec / nrm if nrm > 0 else None


def approximate_kernel(ker_u, ker_w, config, glued_op):
    """Transplanted, cutoff-multiplied kernel sections on the glued grid, as
    a list of (mode k, glued-block column vector).

    Empty bases on both sides give a valid empty kernel.
    """
    vectors = []
    for kv in ker_u:
        v = _glued_block_vector(glued_op, kv, config.tau, config.beta_u, "u")
        if v is not None:
            vectors.append((kv.k, v))
    for kv in ker_w:
        v = _glued_block_vector(glued_op, kv, -config.tau, config.beta_w, "w")
        if v is not None:
            vectors.append((kv.k, v))
    return vectors


def transplant_residuals(glued_op, n_tau):
    """Relative residuals ||D f|| / ||f|| of the transplanted sections."""
    block = {b.k: b for b in glued_op.blocks}
    return [float(np.linalg.norm(block[k] @ v) / np.linalg.norm(v)) for k, v in n_tau]


def stability_constant(glued_op, n_tau):
    """Stability constant off N_tau: the least over blocks of sigma_{a+1}.

    a counts a block's transplant vectors, and its values count its n_cols -
    n_rows structural zeros.  By Courant-Fischer that bounds min ||D eta|| /
    ||eta|| off the transplants' span from above: equal when the span is the
    block's bottom right-singular subspace, apart at second order in the
    transplant error (the residuals) otherwise.  Blocks are asked
    ``values_below(i, best)`` under the running minimum best, those that carry
    transplants or are decomposed already first, so that best is finite.
    """
    carried = Counter(k for k, _ in n_tau)
    blocks, best = glued_op.blocks, np.inf
    for i in sorted(range(len(blocks)), key=lambda i: not carried[blocks[i].k]
                    and glued_op.known_values(i) is None):
        (rows, cols), a = blocks[i].shape, carried[blocks[i].k]
        zeros = max(cols - rows, 0)
        if a < zeros:   # exact null vectors remain in the complement
            return 0.0
        sv = glued_op.values_below(i, best)
        if sv is not None and len(sv) > a - zeros:
            best = min(best, float(sv[zeros - a - 1]))
    return best


# ---------------------------------------------------------------------------
# additivity verification
# ---------------------------------------------------------------------------

@dataclass
class AdditivityRow:
    tau: float
    ind_u: int
    ind_w: int
    ind_glued: int
    decisive: bool
    stability: float
    max_residual: float

    @property
    def additive(self):
        return self.ind_glued == self.ind_u + self.ind_w

    def to_csv_row(self):
        return (self.tau, self.ind_u, self.ind_w, self.ind_glued,
                "decisive" if self.decisive else "flagged",
                self.stability, self.max_residual)


@dataclass
class AdditivityReport:
    rows: list
    passed: bool

    def to_json(self):
        return {"passed": self.passed,
                "rows": [{"tau": r.tau, "ind_u": r.ind_u, "ind_w": r.ind_w,
                          "ind_glued": r.ind_glued, "decisive": r.decisive,
                          "stability": r.stability, "max_residual": r.max_residual}
                         for r in self.rows]}


def verify_additivity(problem_u, problem_w, taus, grid=None):
    """Index additivity across the tau sweep, with kernel-transplant metrics.

    Passes when index(glued) == index(u) + index(w) at every decisive tau.
    ``grid`` is both components' grid and sets the circle resolution of the
    glued assemblies, whose s-resolution follows the glued truncation; None
    takes each problem's default grid.
    """
    ker_u, rep_u = component_kernel(problem_u, grid)
    ker_w, rep_w = component_kernel(problem_w, grid)
    rows = []
    for tau in taus:
        glued, config = glue(problem_u, problem_w, tau)
        grid_g = default_grid_for(glued.truncation)
        if grid is not None:
            grid_g = GridSpec(s_nodes=grid_g.s_nodes, t_nodes=grid.t_nodes)
        op = assemble(glued, grid_g)
        rep = numerical_index(op)
        n_tau = approximate_kernel(ker_u, ker_w, config, op)
        res = transplant_residuals(op, n_tau)
        rows.append(AdditivityRow(
            tau=float(tau), ind_u=rep_u.index, ind_w=rep_w.index,
            ind_glued=rep.index, decisive=rep.decisive,
            stability=stability_constant(op, n_tau),
            max_residual=max(res) if res else 0.0))
    passed = all(r.additive for r in rows if r.decisive) and any(r.decisive for r in rows)
    return AdditivityReport(rows=rows, passed=passed)
