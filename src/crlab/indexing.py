"""Numerical and analytic Fredholm indices of assembled operators.

The numerical route counts singular values under the threshold
REL_THRESHOLD sigma_max and refuses to guess when the gap between kept and
discarded values is below GAP_MIN: it flags the report indecisive.  These
are fixed constants, written into every report as its
``tolerance_policy``.  It reads sigma_max, the values below the threshold,
the smallest kept value and the REPORTED_VALUES smallest values, and
decomposes only the mode blocks that can hold one of them, each at most
once (``DiscreteOperator.block_values``).  sigma_max is settled first, by
banded Cholesky certificates alone on the row-window blocks, so its block
is decomposed only when it also holds reported values; then one walk asks
every block for its values below a running cut that every value the report
reads lies at or below (``DiscreteOperator.values_below``), and a block
certified by banded Cholesky to have all its values above the cut answers
with none and is not decomposed.  A certified block has full rank, but for
the structural kernel of a wide block, whose floor an inertia count
certifies.  Each block is asked for at most REPORTED_VALUES values: a large
block that holds some of them (criterion 6's k=0 from 512 columns on, a
block with shift columns at any size) gives only its smallest values, by the
partial route of ``crlab.assemble``, shift-invert Lanczos certified by an
inertia count, and is not decomposed.  A block's storage chooses its route:
every row-window block of the decoupled backend, with its shift columns as
a dense border, gets its singular values from its one Gram matrix M^H M,
banded or band plus border: from its banded eigenvalues, its certified
smallest eigenvalues, or, below the accuracy guard sigma < 1e-4 sigma_max
and on a block with shift columns that has no floor there, as the singular
values of M X on the Ritz vectors X of the partial route at a negative
shift.  The coupled block and any block whose route refuses a check are
decided by dense SVD.  So no other rank-deficient block of the decoupled
backend needs dense SVD, nor do its kernel directions
(``kernel_vectors``), which come from the same Ritz vectors, those of its
rank decision when it read its values from them; a banded
value carries a relative error of
order 1e-8 at worst (below 1e-11 on the operators of ``reproduce-all``), a
value of M X an absolute one of about eps sigma_max.  The report's
``method`` names the routes that decided; a certified block passes the
guard and counts as ``banded_gram``, as does a block the partial route
took.

The analytic route never assembles the two-dimensional operator: the index
is decided by the ends alone.  With A_- the negative end's asymptotic
operator plus delta_- I and A_+ the positive end's minus delta_+ I, it is
n_-(A_-) - n_-(A_+) plus the augmentation dimensions, n_- counting the
negative eigenvalues on the circle grid.  One formula covers every fiber and
domain: a plane's disk cap is a negative end of weight -pi on i d/dt, and a
t-dependent end enters as its coefficient loop.  A sweep's crossed
multiplicity is the change of this count between two weights.

Orientation convention: the count is computed as the spectral flow of a path
traversed from A_+ to A_-.  With the crossing convention of
:mod:`crlab.loops` (flow = #(neg->pos) - #(pos->neg)) this fixes
Ind(d/ds + A(s)) = -spectral_flow(path from A_+ to A_-), equivalently
+spectral_flow of the negative-to-positive traversal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .assemble import assemble, required_s_nodes
from .exceptions import AssemblyError, DegenerateEndError, FredholmWeightError, InstabilityError
from .loops import LoopOperatorSpec, spectral_flow
from .problems import EndSpec, GridSpec, default_grid_for, with_weights

# The rank decision: threshold = REL_THRESHOLD sigma_max, decisive when the
# kept/discarded singular-value ratio is at least GAP_MIN
REL_THRESHOLD = 1e-6
GAP_MIN = 1e3

# how many of the smallest singular values an IndexReport lists; the rank
# decision asks every block that can hold one of them for at most this many
REPORTED_VALUES = 10


@dataclass
class IndexReport:
    """Rank decision of one operator.  ``method`` names the routes that
    computed its blocks' singular values: ``banded_gram``, ``direct_svd``, or
    ``banded_gram+direct_svd`` when the blocks took both.
    ``min_singular_value`` is the smallest kept value, which lies outside
    ``singular_values`` when REPORTED_VALUES or more values are discarded;
    ``to_json`` leaves it out."""

    dim_ker: int
    dim_coker: int
    index: int
    singular_values: list
    gap_ratio: float
    decisive: bool
    method: str
    grid_tag: str
    threshold: float = 0.0
    sigma_max: float = 0.0
    min_singular_value: float = 0.0   # the smallest kept value, 0.0 when none is kept

    def __post_init__(self):
        if self.index != self.dim_ker - self.dim_coker:
            raise AssemblyError("index != dim_ker - dim_coker")

    def to_json(self):
        return {
            "dim_ker": self.dim_ker, "dim_coker": self.dim_coker, "index": self.index,
            "singular_values": [float(s) for s in self.singular_values],
            "gap_ratio": (None if np.isinf(self.gap_ratio) else float(self.gap_ratio)),
            "decisive": self.decisive, "method": self.method, "grid_tag": self.grid_tag,
            "threshold": self.threshold, "sigma_max": self.sigma_max,
            "tolerance_policy": {"rel_threshold": REL_THRESHOLD, "gap_min": GAP_MIN,
                                 "strict": False},
        }


def numerical_index(op):
    """Kernel/cokernel dimensions and index of a discrete operator by SVD.

    dim_ker counts columns beyond the numerical rank, dim_coker rows beyond
    it; wide blocks contribute structural kernel directions that never appear
    among the singular values.  The rank threshold is REL_THRESHOLD
    sigma_max, and a report with gap_ratio below GAP_MIN is flagged
    indecisive, never raised: the caller reads ``decisive``.

    Only the blocks whose values can reach the report are decomposed.
    sigma_max is settled first (``DiscreteOperator.sigma_max``), decomposing
    only dense blocks.  Then one walk asks every block for its values below
    a running cut, at most REPORTED_VALUES of them
    (``DiscreteOperator.values_below``): dense blocks first, then the
    row-window blocks in ascending |k|.  Every block's rank is min(shape)
    less its values below the threshold among the answer: all of its
    values, none when it is certified above the cut, or only its smallest
    ones when its full rank is certified.  The cut is the larger of
    the REPORTED_VALUES-th smallest value seen so far (counted with
    multiplicity) and the smallest seen value >= threshold.  It only falls
    as values are seen, so every block certified above it has full rank and
    values above every reported value, the smallest kept value, the
    threshold and every discarded value.  The report is read from the
    decomposed blocks and equals the one read from all of them.
    """
    sigma_max = op.sigma_max()
    theta = REL_THRESHOLD * sigma_max
    low = np.full(REPORTED_VALUES, np.inf)    # the smallest values seen, ascending
    least_kept = np.inf                       # the smallest value seen >= theta
    ker = coker = 0
    known = []
    order = sorted(range(len(op.blocks)), key=lambda i: (op.blocks[i].windows is not None,
                                                         abs(op.blocks[i].k or 0)))
    for i in order:
        b = op.blocks[i]
        sv = op.values_below(i, max(low[-1], least_kept), REPORTED_VALUES)
        rank = min(b.shape) - int((sv < theta).sum())
        known.append(np.repeat(sv, b.mult))
        low = np.sort(np.concatenate([low, known[-1][-REPORTED_VALUES:]]))[:REPORTED_VALUES]
        least_kept = min(least_kept, float(sv[sv >= theta].min(initial=np.inf)))
        ker += b.mult * (b.shape[1] - rank)
        coker += b.mult * (b.shape[0] - rank)
    merged = np.sort(np.concatenate(known))
    discarded = merged[merged < theta]
    kept = merged[merged >= theta]
    if len(discarded) == 0 or len(kept) == 0:
        gap_ratio = np.inf
    else:
        gap_ratio = float(kept[0] / max(discarded[-1], 1e-300))
    decisive = bool(gap_ratio >= GAP_MIN)
    index = ker - coker
    if index != op.index_candidate:
        raise AssemblyError(
            f"rank bookkeeping broke: index {index} != cols - rows {op.index_candidate}")
    return IndexReport(
        dim_ker=ker, dim_coker=coker, index=index,
        singular_values=[float(x) for x in merged[:REPORTED_VALUES]],
        gap_ratio=gap_ratio, decisive=decisive, method="+".join(sorted(set(op.block_routes()))),
        grid_tag=op.grid_tag(), threshold=theta, sigma_max=sigma_max,
        min_singular_value=float(kept[0]) if len(kept) else 0.0)


def index_of(problem, grid=None):
    """Assemble and decompose in one step."""
    return numerical_index(assemble(problem, grid))


# ---------------------------------------------------------------------------
# analytic route
# ---------------------------------------------------------------------------

# a plane's disk cap read as a negative end: like any negative end with a
# weight in (-2 pi, 0) on i d/dt, it constrains the trace along the
# eigenvalues above 0
_DISK_CAP = EndSpec("negative", LoopOperatorSpec(dim=2), -np.pi)


def _weight_shifted(end):
    """The end's asymptotic operator minus its weight slope: A - w' I.  A
    coefficient loop S(t) is shifted as the loop t -> S(t) - w' I."""
    a = end.asymptotic
    shift = end.slope * np.eye(a.dim)
    if a.is_constant:
        return LoopOperatorSpec(dim=a.dim, coeff=a.constant_matrix() - shift)
    return LoopOperatorSpec(dim=a.dim, coeff=lambda t: a.sample(t)[0] - shift)


def analytic_index(problem):
    """Integer index from the two weight-shifted end operators alone.

    A_- is the negative end's asymptotic operator plus delta_- I, A_+ the
    positive end's minus delta_+ I, and the index is
    n_-(A_-) - n_-(A_+) + augmentation_dims, with n_- the count of negative
    eigenvalues on the circle grid: minus the spectral flow from A_+ to A_-
    (Robbin & Salamon, 1995), which depends on its endpoints alone.  A
    plane's disk cap is the negative end ``_DISK_CAP``.  The formula has no
    branch on fiber or domain, and a t-dependent end enters as its loop.
    """
    a_minus = _weight_shifted(problem.negative_end or _DISK_CAP)
    a_plus = _weight_shifted(problem.positive_end)
    return problem.augmentation_dims - spectral_flow(lambda u: a_plus if u < 0.5 else a_minus)


# ---------------------------------------------------------------------------
# sweeps and studies
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    delta: float
    report: object            # IndexReport or None when skipped
    skipped: bool = False
    reason: str = ""


@dataclass
class SweepReport:
    rows: list
    jumps: list                # (delta_lo, delta_hi, jump, crossed_multiplicity)

    def to_csv_rows(self):
        out = []
        for r in self.rows:
            if r.skipped:
                out.append((r.delta, "", "", "", "skipped:" + r.reason))
            else:
                out.append((r.delta, r.report.index, r.report.dim_ker,
                            r.report.dim_coker, "decisive" if r.report.decisive else "flagged"))
        return out


def delta_sweep(problem, deltas, grid=None):
    """Recompute the index across weight magnitudes, recording index jumps.

    Each sample keeps the sign pattern of the problem's weights and replaces
    the magnitudes by delta.  Samples whose weight or shifted end degenerates
    are skipped and flagged.  The crossed multiplicity of each jump is the
    change of ``analytic_index`` between consecutive valid samples: as
    n_-(A - c_2) - n_-(A - c_1) counts the eigenvalues of A between the two
    shifts, it is the signed window count of the end spectra crossed
    (Lockhart & McOwen, 1985).  Equal consecutive magnitudes cross nothing.

    A sample runs on ``grid`` (by default ``default_grid_for``) with its
    s-nodes raised to ``required_s_nodes`` where the sample's weight needs
    more, even when the grid was given: ``index_of`` on that grid would
    raise ``ResolutionError``.  The report does not record the grid a sample
    ran on.
    """
    rows = []
    valid = []                 # (delta, index, analytic index) of each valid sample
    signs = {e.sign: (1.0 if e.weight >= 0 else -1.0) for e in problem.ends}
    for d in deltas:
        d = float(d)
        try:
            p = with_weights(problem, (signs.get("negative", 1.0) * d
                                       if problem.negative_end is not None else None,
                                       signs["positive"] * d))
            g = grid or default_grid_for(p.truncation)
            if g.s_nodes < required_s_nodes(p):
                g = GridSpec(s_nodes=required_s_nodes(p), t_nodes=g.t_nodes)
            ana = analytic_index(p)
            rows.append(SweepRow(delta=d, report=index_of(p, g)))
            valid.append((d, rows[-1].report.index, ana))
        except (DegenerateEndError, FredholmWeightError, ValueError) as exc:
            rows.append(SweepRow(delta=d, report=None, skipped=True, reason=str(exc)))
    jumps = [(d1, d2, i2 - i1, a2 - a1)
             for (d1, i1, a1), (d2, i2, a2) in zip(valid, valid[1:])]
    return SweepReport(rows=rows, jumps=jumps)


@dataclass
class ConvergenceReport:
    grids: list
    reports: list
    stable: bool

    def indices(self):
        return [r.index for r in self.reports]


def convergence_study(problem, grids):
    """Index must stabilize over the finest two grids; else InstabilityError."""
    if len(grids) < 3:
        raise ValueError("need at least 3 grids of increasing resolution")
    reports = [index_of(problem, g) for g in grids]
    stable = (reports[-1].index == reports[-2].index
              and reports[-1].decisive and reports[-2].decisive)
    rep = ConvergenceReport(grids=list(grids), reports=reports, stable=stable)
    if not stable:
        raise InstabilityError(
            f"index failed to stabilize: {[r.index for r in reports]} "
            f"(decisive: {[r.decisive for r in reports]})")
    return rep


def _reflection(problem):
    """The weighted dual of ``problem`` as a problem of its own kind.

    The formal adjoint -d/ds + J0 d/dt + B(s)^T under s -> -s is
    d/ds + J0 d/dt + B(-s)^T with the ends swapped, and the dual weights
    (-delta_+, -delta_-) (Lockhart & McOwen, 1985).  Only an unshifted,
    t-independent cylinder with its builder's weight profile has such a
    partner; planes, shifted, t-dependent and glued problems raise
    ValueError.
    """
    if (problem.domain_kind != "cylinder" or problem.augmentation_dims
            or problem.t_dependent or problem.profile_override is not None):
        raise ValueError("the reflected dual needs an unshifted, t-independent, "
                         "unglued cylinder")
    neg, pos = problem.negative_end, problem.positive_end
    # the builders' ramp between the swapped ends is B(-s)^T already, since the
    # smoothstep S satisfies S(1 - x) = 1 - S(x)
    coeff_s = None if problem.coeff_s is None else (lambda s: problem.coefficient(-s).T)
    return replace(problem, coeff_s=coeff_s,
                   ends=(replace(pos, sign="negative", weight=-pos.weight),
                         replace(neg, sign="positive", weight=-neg.weight)))


def adjoint_check(problem, grid=None):
    """Duality: index(problem) == -index(dual), checked two ways.

    The adjoint side is computed both as the transpose of the assembled
    matrix (boundary roles exchanged by conjugation) and as an independent
    assembly of the reflected dual (``_reflection``), whose kernel and
    cokernel are the problem's cokernel and kernel; the ``*_negated`` keys
    report it.  Raises ValueError on problems without a reflected dual.
    """
    p_dual = _reflection(problem)
    op = assemble(problem, grid)
    rep = numerical_index(op)
    rep_t = numerical_index(op.transposed())
    rep_neg = index_of(p_dual, grid)
    return {
        "index": rep.index,
        "index_transposed": rep_t.index,
        "index_negated": rep_neg.index,
        "dim_ker": rep.dim_ker,
        "dim_coker": rep.dim_coker,
        "dim_ker_negated": rep_neg.dim_ker,
        "dim_coker_negated": rep_neg.dim_coker,
        "transpose_antisymmetric": rep_t.index == -rep.index
                                   and rep_t.dim_ker == rep.dim_coker,
        "weight_duality": rep_neg.index == -rep.index,
        "kernel_cokernel_swap": rep_neg.dim_ker == rep.dim_coker
                                and rep_neg.dim_coker == rep.dim_ker,
    }
