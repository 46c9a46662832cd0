"""Index computations against the analytic formulas and the sweep machinery."""

import functools
import importlib
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    SIGNED_WEIGHTS,
    SYMMETRIC_2X2,
    clear_of_walls,
    mode_oracle_eigenvalues,
    random_nondegenerate_symmetric,
    t_dependent_copy,
)

from crlab.assemble import (DiscreteOperator, Evidence, ModeBlock, assemble, kernel_vectors,
                            required_s_nodes)
from crlab.gluing import stability_constant
from crlab.indexing import (
    REL_THRESHOLD,
    REPORTED_VALUES,
    adjoint_check,
    analytic_index,
    convergence_study,
    delta_sweep,
    index_of,
    numerical_index,
)
from crlab.loops import LoopOperatorSpec, standard_j
from crlab.problems import (
    GridSpec,
    Truncation,
    build_contact_fiber_cylinder,
    build_plane,
    build_trivial_cylinder,
)

# the package's ``assemble`` attribute is the function, not the module
assemble_module = importlib.import_module("crlab.assemble")

D = 1.0


def golden_problems():
    diag1 = LoopOperatorSpec(dim=2, coeff=np.diag([1.0, 1.0]))
    return [
        (build_trivial_cylinder((D, D)), -2),
        (build_trivial_cylinder((-D, -D)), 2),
        (build_trivial_cylinder((-D, D)), 0),
        (build_trivial_cylinder((D, -D)), 0),
        (build_trivial_cylinder((D, D), (2, 2)), 2),
        (build_trivial_cylinder((D, D), (1, 2)), 1),
        (build_plane(-D), 2),
        (build_plane(D), 0),
        (build_plane(D, 2), 2),
        (build_contact_fiber_cylinder(diag1, diag1), 0),
    ]


def test_golden_indices_numerical_equals_analytic():
    for problem, want in golden_problems():
        rep = index_of(problem)
        assert rep.index == want, problem.label or problem.to_json()
        assert analytic_index(problem) == want
        assert rep.decisive


def test_decay_cylinder_kernel_cokernel_split():
    rep = index_of(build_trivial_cylinder((D, D)))
    assert (rep.dim_ker, rep.dim_coker) == (0, 2)
    rep = index_of(build_trivial_cylinder((-D, -D)))
    assert (rep.dim_ker, rep.dim_coker) == (2, 0)
    rep = index_of(build_trivial_cylinder((D, D), (2, 2)))
    assert (rep.dim_ker, rep.dim_coker) == (2, 0)


def test_reduced_shifts_are_nontransversal():
    # the reduced problem keeps the two-dimensional symmetry kernel but
    # acquires a one-dimensional cokernel: index 1 rather than 2
    rep = index_of(build_trivial_cylinder((D, D), (1, 2)))
    assert rep.index == 1
    assert (rep.dim_ker, rep.dim_coker) == (2, 1)


def test_index_invariant_under_smax():
    for smax in (10.0, 12.0, 16.0):
        p = build_trivial_cylinder((D, D), truncation=Truncation(smax, 6.0))
        rep = index_of(p, GridSpec(int(8 * smax), 32))
        assert rep.index == -2


def test_contact_index_equals_minus_spectral_flow(rng):
    from crlab.loops import LoopOperatorSpec
    for dim in (2, 4):
        for _ in range(2):
            S0 = random_nondegenerate_symmetric(rng, dim)
            S1 = random_nondegenerate_symmetric(rng, dim)
            p = build_contact_fiber_cylinder(LoopOperatorSpec(dim=dim, coeff=S0),
                                             LoopOperatorSpec(dim=dim, coeff=S1))
            rep = index_of(p, GridSpec(96, 16))
            ana = analytic_index(p)
            assert rep.index == ana


def test_delta_sweep_mixed_family_flat():
    p = build_trivial_cylinder((-D, D))
    rep = delta_sweep(p, [0.3, 1.0, 2.0, 3.0])
    assert all(not r.skipped for r in rep.rows)
    assert all(r.report.index == 0 for r in rep.rows)
    assert all(j[2] == 0 and j[3] == 0 for j in rep.jumps)


def test_delta_sweep_rejects_magnitudes_beyond_two_pi():
    p = build_trivial_cylinder((D, D))
    rep = delta_sweep(p, [1.0, 7.0])
    assert not rep.rows[0].skipped
    assert rep.rows[1].skipped


def test_delta_sweep_contact_wall_crossing():
    S = LoopOperatorSpec(dim=2, coeff=np.diag([1.0, 1.0]))
    p = build_contact_fiber_cylinder(S, S, weights=(0.5, 0.5))
    rep = delta_sweep(p, [0.5, 1.5])
    (d1, d2, jump, crossed) = rep.jumps[0]
    assert jump == -2
    assert crossed == -2


def test_delta_sweep_counts_a_wall_at_the_window_edge():
    # 1 + 1e-6 lies within 2e-6 of the eigenvalue 1 of the ends, inside a
    # window count's tolerance; the negative-eigenvalue counts still read it
    S = LoopOperatorSpec(dim=2, coeff=np.diag([1.0, 1.0]))
    p = build_contact_fiber_cylinder(S, S, weights=(0.5, 0.5))
    rep = delta_sweep(p, [0.5, 1.0 + 1e-6])
    assert all(r.report.decisive for r in rep.rows)
    assert rep.jumps == [(0.5, 1.0 + 1e-6, -2, -2)]


MAGNITUDES = st.floats(1e-7, 2.0 * np.pi - 1e-7)
SHIFT_PATTERNS = [(0, 0), (2, 2), (1, 2), (2, 1), (2, 0), (0, 2), (1, 0), (0, 1)]


@settings(derandomize=True, deadline=None, max_examples=250)
@given(signs=st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0])),
       mags=st.tuples(MAGNITUDES, MAGNITUDES), shifts=st.sampled_from(SHIFT_PATTERNS),
       plane=st.booleans())
def test_analytic_index_closed_form_on_the_complex_line(signs, mags, shifts, plane):
    # cylinders: growth/growth +2, decay/decay -2, mixed 0; a plane 2 when
    # its end permits growth; plus the shift columns
    dm, dp = signs[0] * mags[0], signs[1] * mags[1]
    if plane:
        p, base = build_plane(dp, shifts[1]), (2 if dp < 0 else 0)
    else:
        p, base = build_trivial_cylinder((dm, dp), shifts), {-2.0: 2, 0.0: 0, 2.0: -2}[sum(signs)]
    assert analytic_index(p) == base + p.augmentation_dims


# magnitudes anywhere in (0, 2 pi), and within 0.05 of either wall
WALL_NEAR_MAGNITUDES = (st.floats(1e-3, 2.0 * np.pi - 1e-3) | st.floats(1e-3, 0.05)
                        | st.floats(2.0 * np.pi - 0.05, 2.0 * np.pi - 1e-3))


@settings(derandomize=True, deadline=None, max_examples=20)
@given(signs=st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0])),
       mags=st.tuples(WALL_NEAR_MAGNITUDES, WALL_NEAR_MAGNITUDES),
       shifts=st.sampled_from(SHIFT_PATTERNS), plane=st.booleans(),
       s_maxes=st.sampled_from([(6.0, 8.0), (6.0, 12.0), (8.0, 12.0)]),
       t_nodes=st.sampled_from([8, 16, 32]))
def test_numerical_index_is_invariant_under_refinement_and_s_max(signs, mags, shifts, plane,
                                                                  s_maxes, t_nodes):
    # complex-line cylinders over every shift pattern and planes with 0-2
    # shifts: at two boxes, each on its fewest admissible s-nodes n, n + 16,
    # n + 32 and 1.5 n, every report is decisive and reads the analytic index
    dm, dp = signs[0] * mags[0], signs[1] * mags[1]
    for s_max in s_maxes:
        box = Truncation(s_max, s_max / 2)
        p = (build_plane(dp, shifts[1], truncation=box) if plane
             else build_trivial_cylinder((dm, dp), shifts, truncation=box))
        want = analytic_index(p)
        n = max(round(8 * s_max), 16, required_s_nodes(p))
        for s_nodes in (n, n + 16, n + 32, round(1.5 * n)):
            rep = index_of(p, GridSpec(s_nodes, t_nodes))
            assert (rep.index, rep.decisive) == (want, True), (s_max, s_nodes)


# symmetric 2x2 ends whose mode spectra (|k| <= 6) stay 0.3 clear of zero:
# weights in [-0.2, 0.2] then cross no wall
CLEAR_2X2 = SYMMETRIC_2X2.filter(lambda S: np.abs(mode_oracle_eigenvalues(S, kmax=6)).min() >= 0.3)


@settings(derandomize=True, deadline=None, max_examples=12)
@given(ends=st.tuples(CLEAR_2X2, CLEAR_2X2),
       weights=st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2)),
       s_maxes=st.sampled_from([(6.0, 8.0), (6.0, 12.0), (8.0, 12.0)]),
       t_nodes=st.sampled_from([16, 32]))
def test_numerical_index_is_invariant_under_refinement_and_s_max_contact(ends, weights, s_maxes,
                                                                         t_nodes):
    # contact cylinders: at two boxes, each on its fewest admissible s-nodes
    # n, n + 16 and 1.5 n, every report is decisive and reads the analytic
    # index; the blocks of 192 columns and more take the partial route
    specs = [LoopOperatorSpec(dim=2, coeff=S) for S in ends]
    for s_max in s_maxes:
        p = build_contact_fiber_cylinder(*specs, weights=weights,
                                         truncation=Truncation(s_max, s_max / 2))
        want = analytic_index(p)
        n = max(round(8 * s_max), 16, required_s_nodes(p))
        for s_nodes in (n, n + 16, round(1.5 * n)):
            rep = index_of(p, GridSpec(s_nodes, t_nodes))
            assert (rep.index, rep.decisive) == (want, True), (s_max, s_nodes)


def _gauged(S, m):
    """The loop t -> R(t) (S + 2 pi m I) R(t)^T, R(t) = exp(2 pi m J0 t): its
    operator is conjugate to J0 d/dt + S by the rotation z -> R(t) z."""
    J = standard_j(2)

    def loop(t):
        R = np.cos(2 * np.pi * m * t) * np.eye(2) + np.sin(2 * np.pi * m * t) * J
        return R @ (S + 2 * np.pi * m * np.eye(2)) @ R.T

    return loop


@pytest.mark.parametrize("m", [-1, 1, 2])
def test_analytic_index_of_a_gauge_family_is_the_constant_one(m):
    # the whole operator is conjugate to the constant problem's, so every
    # weight pair reads the constant index, which differs across the pairs
    ends = [LoopOperatorSpec(dim=2, coeff=np.array(S)) for S in
            ([[1.0, 0.3], [0.3, 2.0]], [[-1.5, 0.4], [0.4, 0.5]])]
    for weights, want in (((0.0, 0.0), -1), ((-2.2, 0.0), 1), ((3.0, 3.0), -2)):
        const = build_contact_fiber_cylinder(*ends, truncation=SMALL_TRUNC, weights=weights)
        gauged = replace(const, coeff_st=lambda s, t: _gauged(const.coefficient(s), m)(t),
                         ends=tuple(replace(e, asymptotic=LoopOperatorSpec(
                             dim=2, coeff=_gauged(e.asymptotic.constant_matrix(), m)))
                             for e in const.ends))
        assert gauged.t_dependent
        assert analytic_index(gauged) == analytic_index(const) == want
        if weights == (0.0, 0.0):      # the coupled numerical index agrees
            rep = index_of(gauged, GridSpec(48, 16))
            assert rep.decisive and rep.index == want


def test_delta_sweep_jump_consistency_randomized(rng):
    # jumps across eigenvalue walls equal the signed crossed multiplicities
    for _ in range(5):
        a = float(rng.uniform(0.5, 2.5))
        S = LoopOperatorSpec(dim=2, coeff=np.diag([a, a]))
        signs = rng.choice([-1.0, 1.0], size=2)
        p = build_contact_fiber_cylinder(S, S,
                                         weights=(signs[0] * a / 3, signs[1] * a / 3))
        deltas = [a / 3, min(a + 0.5, a * 1.5)]
        rep = delta_sweep(p, deltas)
        for (_, _, jump, crossed) in rep.jumps:
            assert jump == crossed


def test_convergence_study_table():
    grids = [GridSpec(48, 16), GridSpec(96, 32), GridSpec(192, 64)]
    rep = convergence_study(build_trivial_cylinder((D, D)), grids)
    assert rep.indices() == [-2, -2, -2]
    S = LoopOperatorSpec(dim=2, coeff=np.diag([1.0, 1.0]))
    rep2 = convergence_study(build_contact_fiber_cylinder(S, S), grids)
    assert rep2.indices() == [0, 0, 0]
    # the invertibility margin converges to a positive limit
    mins = [r.min_singular_value for r in rep2.reports]
    assert mins[-1] > 0.3
    assert abs(mins[-1] - mins[-2]) < 0.1 * mins[-1]
    rep3 = convergence_study(build_plane(-D), grids)
    assert [r.dim_ker for r in rep3.reports] == [2, 2, 2]


def test_criterion_6_margin_approaches_its_limit():
    # A constant, self-adjoint, spectral gap 1.  The end rows act as a
    # unit-weight penalty |u(end)|^2, so the margin tends to sqrt(1 + (x/24)^2)
    # = 1.001972 with tan x = 24/x, not to 1, and crosses 1 between 1536 and
    # 3072 s-nodes.  At 192 and 384 it is below 1, and each doubling there
    # cuts 1 - m by 2.4-3.1x
    problem, _ = _isomorphism_96x32()
    m192, m384 = (index_of(problem, GridSpec(n, 32)).min_singular_value for n in (192, 384))
    assert m192 < 1 and m384 < 1
    assert 1 - m384 < 0.02 and 1 - m384 <= 0.5 * (1 - m192)


def test_convergence_study_needs_three_grids():
    with pytest.raises(ValueError):
        convergence_study(build_plane(-D), [GridSpec(48, 16), GridSpec(96, 32)])


def test_duality_randomized(rng):
    for _ in range(6):
        dm = float(rng.uniform(0.3, 2.8)) * float(rng.choice([-1.0, 1.0]))
        dp = float(rng.uniform(0.3, 2.8)) * float(rng.choice([-1.0, 1.0]))
        p = build_trivial_cylinder((dm, dp))
        from crlab.assemble import required_s_nodes
        res = adjoint_check(p, GridSpec(required_s_nodes(p), 32))
        assert res["transpose_antisymmetric"]
        assert res["weight_duality"]
        assert res["kernel_cokernel_swap"]


def test_duality_mirrors_adjoint_kernel_identity():
    # dim ker L*(d, d) = dim coker L(-d, -d)
    p = build_trivial_cylinder((-D, -D))
    res = adjoint_check(p)
    assert res["dim_ker"] == 2 and res["dim_coker"] == 0
    assert res["dim_ker_negated"] == 0 and res["dim_coker_negated"] == 2


def test_dim_ker_monotone_in_wall_free_interval():
    kers = []
    for d in (0.4, 0.8, 1.2):
        kers.append(index_of(build_trivial_cylinder((-d, -d))).dim_ker)
    assert all(a >= b for a, b in zip(kers, kers[1:]))


def test_weak_gap_is_flagged_at_the_fixed_policy():
    # threshold 1e-6 falls between 1e-5 (kept) and 1e-7 (discarded): gap 100
    block = ModeBlock(k=0, mult=1, pde_rows=3, dense=np.diag([1.0, 1e-5, 1e-7]))
    rep = numerical_index(DiscreteOperator(blocks=[block], grid=(96, 32, 12.0)))
    assert rep.threshold == pytest.approx(REL_THRESHOLD) and rep.gap_ratio == pytest.approx(100.0)
    assert (rep.dim_ker, rep.dim_coker, rep.index, rep.decisive) == (1, 1, 0, False)


def test_report_json_fields():
    rep = index_of(build_trivial_cylinder((D, D)))
    d = rep.to_json()
    assert d["index"] == -2
    assert len(d["singular_values"]) == 10
    assert d["tolerance_policy"]["rel_threshold"] == 1e-6


# ---------------------------------------------------------------------------
# banded route of the full decomposition, values_below(i, inf) (blocks above
# 512 columns)
# ---------------------------------------------------------------------------

def banded_cases():
    from test_gluing import flow_pair
    S = LoopOperatorSpec(dim=2, coeff=np.diag([1.0, 1.0]))
    pu, pw = flow_pair()
    return {
        # square contact blocks of 576 columns
        "isomorphism": (build_contact_fiber_cylinder(S, S), GridSpec(288, 32)),
        # a wide mode-0 block (kernel 2) and an invertible component
        "flow_u": (pu, GridSpec(288, 16)),
        "flow_w": (pw, GridSpec(288, 16)),
        # scalar blocks of 600 columns: wide mode 0 (growth), tall mode 0 (decay)
        "wide": (build_trivial_cylinder((-D, -D)), GridSpec(600, 8)),
        "tall": (build_trivial_cylinder((D, D)), GridSpec(600, 8)),
    }


def decompose_all(op):
    """Singular values of every block of ``op``, certified blocks decomposed too."""
    return [op.values_below(i, np.inf) for i in range(len(op.blocks))]


def dense_reference(op):
    """The same operator with every block decomposed by values-only dense SVD."""
    ref = replace(op)
    ref._evidence[:] = [Evidence(np.linalg.svd(b.matrix, compute_uv=False), np.inf, "direct_svd")
                        for b in op.blocks]
    return ref


def svd_calls(monkeypatch):
    calls = []
    real = np.linalg.svd

    def svd(a, *args, **kwargs):
        calls.append(a)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    return calls


def assert_reports_agree(rep, ref):
    assert (rep.dim_ker, rep.dim_coker, rep.index, rep.decisive) == (
        ref.dim_ker, ref.dim_coker, ref.index, ref.decisive)
    np.testing.assert_allclose(rep.singular_values, ref.singular_values, rtol=1e-9)
    np.testing.assert_allclose([rep.sigma_max, rep.threshold],
                               [ref.sigma_max, ref.threshold], rtol=1e-9)


def assert_kept_values_agree(rep, ref):
    """``rep`` equals ``ref`` in every integer and flag and in its values at
    or above the threshold within rtol 1e-9; the values below it, which
    the partial route computes to rounding of sigma_max and not to relative
    accuracy, lie below the threshold in both."""
    assert (rep.dim_ker, rep.dim_coker, rep.index, rep.decisive) == (
        ref.dim_ker, ref.dim_coker, ref.index, ref.decisive)
    np.testing.assert_allclose([rep.sigma_max, rep.threshold],
                               [ref.sigma_max, ref.threshold], rtol=1e-9)
    for got, want in ((rep.singular_values, ref.singular_values),
                      ([rep.min_singular_value], [ref.min_singular_value])):
        got, want = np.asarray(got), np.asarray(want)
        kept = want >= ref.threshold
        assert np.array_equal(got >= rep.threshold, kept)
        np.testing.assert_allclose(got[kept], want[kept], rtol=1e-9)


def assert_same_decision(rep, ref):
    """``rep`` equals ``ref`` in every integer, flag, method and tag, and in
    the settled sigma_max and threshold; its values, where one of the two
    read a block's smallest values from the partial route and the other from
    eig_banded, agree within rtol 1e-9."""
    floats = ("singular_values", "gap_ratio", "min_singular_value")
    assert replace(rep, **{f: getattr(ref, f) for f in floats}) == ref
    np.testing.assert_allclose([getattr(rep, f) for f in floats[1:]] + rep.singular_values,
                               [getattr(ref, f) for f in floats[1:]] + ref.singular_values,
                               rtol=1e-9)


@pytest.mark.parametrize("case", sorted(banded_cases()))
def test_banded_route_matches_dense_reference(case):
    problem, grid = banded_cases()[case]
    op = assemble(problem, grid)
    assert all(b.matrix.shape[1] > 512 for b in op.blocks)
    ref = dense_reference(op)
    assert_reports_agree(numerical_index(op), numerical_index(ref))
    for b, sv, sv_ref in zip(op.blocks, decompose_all(op), decompose_all(ref)):
        assert sv.shape == sv_ref.shape == (min(b.matrix.shape),)
        np.testing.assert_allclose(sv, sv_ref, rtol=1e-9)


def test_isomorphism_large_blocks_make_no_dense_svd(monkeypatch):
    op = assemble(*banded_cases()["isomorphism"])
    calls = svd_calls(monkeypatch)
    decompose_all(op)
    assert calls == []


def test_criterion_6_is_decided_from_row_windows(monkeypatch):
    # 32 blocks of 768x768, 31 of them complex: 297 MB dense against 6 MB of row windows
    materialized = []
    real = assemble_module._materialize

    def spy(b):
        materialized.append(b.tag)
        return real(b)

    monkeypatch.setattr(assemble_module, "_materialize", spy)
    eig_banded = _eig_banded_calls(monkeypatch)
    S = LoopOperatorSpec(dim=2, coeff=np.diag([1.0, 1.0]))
    problem = build_contact_fiber_cylinder(S, S)
    tracemalloc.start()
    try:
        op = assemble(problem, GridSpec(384, 64))
        rep = numerical_index(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.index, rep.dim_ker, rep.decisive) == (0, 0, True)
    assert materialized == []
    assert peak < 64 * 2**20
    # block k=0 holds the reported values and the gap: the partial route finds
    # its ten smallest values, and no block is decomposed; sigma_max is
    # settled on k=31 and the other 31 are certified
    assert [op.blocks[i].k for i in range(len(op.blocks)) if op.known_values(i) is not None] == [0]
    assert len(op.known_values(0)) == REPORTED_VALUES and eig_banded == []


def _guard_rejected():
    # the positive end's boundary row replaced by the negative end's: a
    # square block with a one-dimensional kernel and cokernel, given as an
    # explicit dense matrix and so decided from it
    op = assemble(*banded_cases()["isomorphism"])
    b = op.blocks[1]
    M = b.matrix.copy()
    M[-1] = M[-2]
    return replace(op, blocks=[replace(b, dense=M, windows=None, starts=None)]), 0


def _guard_rejected_windows():
    # the positive end's boundary row zeroed in the row windows: the banded
    # route's guard sends the values of the square block with a kernel below
    # it to the M X route
    op = assemble(*banded_cases()["isomorphism"])
    b = op.blocks[1]
    b.windows[-1] = 0.0
    return replace(op, blocks=[b]), 0


def _bandwidth_rejected():
    # the shift columns of the augmented mode-0 block are dense
    op = assemble(build_trivial_cylinder((D, D), (2, 2)), GridSpec(264, 8))
    return op, len(op.blocks) - 1


@pytest.mark.parametrize("rejected", [_guard_rejected, _bandwidth_rejected],
                         ids=["guard", "bandwidth"])
def test_rejected_block_takes_one_dense_svd(rejected, monkeypatch):
    op, i = rejected()
    M = op.blocks[i].matrix
    assert M.shape[1] > 512
    calls = svd_calls(monkeypatch)
    sv = decompose_all(op)[i]
    assert sum(a is M for a in calls) == 1
    monkeypatch.undo()
    assert np.array_equal(sv, np.linalg.svd(M, compute_uv=False))
    rep = numerical_index(op)
    assert_reports_agree(rep, numerical_index(dense_reference(op)))
    assert rep.dim_ker == 2


def test_guard_rejected_row_window_block_takes_no_dense_svd(monkeypatch):
    # the square block with a kernel: its banded values above the guard, and
    # below it the singular values of M X^T on the Ritz vectors of the
    # partial route at a negative shift
    op, i = _guard_rejected_windows()
    M = op.blocks[i].matrix
    calls = svd_calls(monkeypatch)
    sv = decompose_all(op)[i]
    rep = numerical_index(op)
    monkeypatch.undo()
    assert calls == [] and op.block_routes() == ["banded_gram"]
    ref = np.linalg.svd(M, compute_uv=False)
    theta = REL_THRESHOLD * op.sigma_max()
    assert sv.shape == ref.shape and np.array_equal(sv < theta, ref < theta)
    np.testing.assert_allclose(sv[ref >= theta], ref[ref >= theta], rtol=1e-9)
    assert_kept_values_agree(rep, numerical_index(dense_reference(op)))
    assert rep.dim_ker == 2


def test_guard_rejected_kernel_reads_the_walks_ritz_vectors(monkeypatch):
    # the rank walk decomposes the square block with a kernel and reads its
    # values below the guard from M X^T; its kernel direction comes from the
    # same Ritz vectors X, with no second run of the M X route
    from test_gluing import subspace_sine
    op, i = _guard_rejected_windows()
    b = op.blocks[i]
    calls, runs = svd_calls(monkeypatch), []
    real = assemble_module._mx_values
    monkeypatch.setattr(assemble_module, "_mx_values",
                        lambda *args: runs.append(args) or real(*args))
    rep = numerical_index(op)
    found = kernel_vectors(op, rep.threshold)
    monkeypatch.undo()
    assert calls == [] and len(runs) == 1 and op._evidence[i].ritz is not None
    _, sv, Vh = np.linalg.svd(b.matrix)
    rank = int((sv >= rep.threshold).sum())
    assert rank == b.shape[1] - 1 and [(blk.tag, V.shape[1]) for blk, V in found] == [(b.tag, 1)]
    assert subspace_sine(found[0][1], Vh[rank:].conj().T) <= 1e-8


def test_reproduce_all_operators_match_dense_reference(tmp_path, monkeypatch):
    import crlab.cli as cli
    import crlab.gluing as gluing
    import crlab.indexing as indexing
    ops, rejected, svds, eig_banded = [], [], [], []
    real_assemble, real_banded, real_svd = (indexing.assemble,
                                            assemble_module._banded_singular_values,
                                            np.linalg.svd)
    real_eig_banded = scipy.linalg.eig_banded

    def assemble_spy(*args, **kwargs):
        ops.append(real_assemble(*args, **kwargs))
        return ops[-1]

    def banded_spy(b, ab):
        found = real_banded(b, ab)
        if found is None:
            rejected.append(b)
        return found

    def svd(a, *args, **kwargs):
        svds.append(a)
        return real_svd(a, *args, **kwargs)

    for module in (indexing, gluing):
        monkeypatch.setattr(module, "assemble", assemble_spy)
    monkeypatch.setattr(assemble_module, "_banded_singular_values", banded_spy)
    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(scipy.linalg, "eig_banded",
                        lambda *args, **kwargs: eig_banded.append(1)
                        or real_eig_banded(*args, **kwargs))
    partial, negative, bands = [], [], []
    real_lowest, real_mx = assemble_module._lowest_gram, assemble_module._mx_values
    real_band = assemble_module._gram_band

    def lowest_spy(*args, **kwargs):
        partial.append(real_lowest(*args, **kwargs))
        return partial[-1]

    monkeypatch.setattr(assemble_module, "_lowest_gram", lowest_spy)
    monkeypatch.setattr(assemble_module, "_mx_values",
                        lambda *args: negative.append(1) or real_mx(*args))
    monkeypatch.setattr(assemble_module, "_gram_band", lambda b: bands.append(1) or real_band(b))
    assert cli.main(["reproduce-all", "--out", str(tmp_path)]) == cli.EXIT_OK
    monkeypatch.undo()
    # the work: 44 banded decompositions and 22 partial answers, none
    # refused: 18 on the floor (the contact blocks of 192-320 columns under
    # a finite cut) and 4 at a negative shift (the three blocks with shift
    # columns, and the kernel directions of the component's wide contact
    # block k=0); every other row-window block certified, and no dense SVD.
    # Each decomposition reads the Gram band its question built
    assert len(eig_banded) == 44 and svds == [] and rejected == []
    assert len(negative) == 4 and len(partial) == 22
    assert all(found is not None for found in partial)
    assert len(bands) == 469

    blocks = [b for op in ops for b in op.blocks]
    # 8 index rows, the two gluing components and the glued problems at 4 taus
    assert len(ops) == 14 and sum(op.problem.label.startswith("glue(") for op in ops) == 4
    assert sum(b.border is not None for b in blocks) == 3
    assert all(b.windows is not None for b in blocks)
    for op in ops:
        ref = dense_reference(op)
        rep, rep_ref = numerical_index(op), numerical_index(ref)
        # a block with shift columns computes its discarded values, and so the
        # gap ratio that divides by the largest, from M X to rounding of
        # sigma_max; every other block is held to relative accuracy
        if any(b.border is not None for b in op.blocks):
            assert_kept_values_agree(rep, rep_ref)
            assert (rep.gap_ratio == np.inf) == (rep_ref.gap_ratio == np.inf)
        else:
            assert_reports_agree(rep, rep_ref)
            np.testing.assert_allclose(rep.gap_ratio, rep_ref.gap_ratio, rtol=1e-9)
        for sv, sv_ref in zip(decompose_all(op), decompose_all(ref)):
            np.testing.assert_allclose(sv, sv_ref, rtol=1e-9)


def _isomorphism():
    S = LoopOperatorSpec(dim=2, coeff=np.diag([1.0, 1.0]))
    return assemble(build_contact_fiber_cylinder(S, S))


@pytest.mark.parametrize("make_op, method", [
    (_isomorphism, "banded_gram"),
    (lambda: assemble(build_trivial_cylinder((D, D), (2, 2))), "banded_gram"),
    (lambda: _guard_rejected()[0], "direct_svd"),
], ids=["isomorphism", "augmented", "guard_rejected"])
def test_report_method_names_the_routes(make_op, method):
    assert numerical_index(make_op()).method == method


# ---------------------------------------------------------------------------
# certified blocks: decomposed only when their values can reach the report
# ---------------------------------------------------------------------------

def full_reference(problem, grid):
    """The operator with every block decomposed before any rank decision."""
    ref = assemble(problem, grid)
    decompose_all(ref)
    return ref


def assert_bordered_walk_matches_full(op, ref, rep):
    """The rank walk ``rep`` of ``op``, which has a block with shift columns,
    against its fully decomposed copy ``ref``, which decides that block by
    dense SVD while the walk reads its smallest values from the partial
    route: the reports equal in every field but the values, the gap ratio
    and the method, the values as ``assert_kept_values_agree`` has them; the
    kernel directions span the reference's within a subspace angle of 1e-8;
    the stability constants agree within rtol 1e-9, or lie below the
    threshold both."""
    from test_gluing import subspace_sine
    rep_ref = numerical_index(ref)
    floats = ("singular_values", "gap_ratio", "min_singular_value", "method")
    assert replace(rep, **{f: getattr(rep_ref, f) for f in floats}) == rep_ref
    assert_kept_values_agree(rep, rep_ref)
    assert (rep.gap_ratio == np.inf) == (rep_ref.gap_ratio == np.inf)
    found, found_ref = kernel_vectors(op, rep.threshold), kernel_vectors(ref, rep.threshold)
    assert [(b.tag, V.shape[1]) for b, V in found] == [(b.tag, V.shape[1]) for b, V in found_ref]
    assert all(subspace_sine(V, V_ref) <= 1e-8 for (_, V), (_, V_ref) in zip(found, found_ref))
    for pieces, pieces_ref in (([], []), (found, found_ref)):
        n_tau, n_tau_ref = ([(b.k, V[:, j]) for b, V in p for j in range(V.shape[1])]
                            for p in (pieces, pieces_ref))
        c, c_ref = stability_constant(op, n_tau), stability_constant(ref, n_tau_ref)
        if c_ref < rep.threshold:
            assert c < rep.threshold
        else:
            np.testing.assert_allclose(c, c_ref, rtol=1e-9)


def assert_certified_route_matches_full(problem, grid):
    op, ref = assemble(problem, grid), full_reference(problem, grid)
    rep = numerical_index(op)
    if any(b.border is not None for b in op.blocks):
        assert_bordered_walk_matches_full(op, ref, rep)
        return
    assert rep == numerical_index(ref)
    assert_reports_agree(rep, numerical_index(dense_reference(op)))
    found, found_ref = kernel_vectors(op, rep.threshold), kernel_vectors(ref, rep.threshold)
    assert [b.tag for b, _ in found] == [b.tag for b, _ in found_ref]
    assert all(np.array_equal(V, V_ref) for (_, V), (_, V_ref) in zip(found, found_ref))
    # the complement of nothing, and of the kernel: certified blocks then count
    # through their floors only
    for pieces, pieces_ref in (([], []), (found, found_ref)):
        n_tau, n_tau_ref = ([(b.k, V[:, j]) for b, V in p for j in range(V.shape[1])]
                            for p in (pieces, pieces_ref))
        assert stability_constant(op, n_tau) == stability_constant(ref, n_tau_ref)


SMALL_TRUNC = Truncation(s_max=4.0, n_prime=1.0)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(weights=st.tuples(SIGNED_WEIGHTS, SIGNED_WEIGHTS),
       shifts=st.sampled_from([(0, 0), (2, 2), (2, 0), (1, 2)]),
       t_nodes=st.sampled_from([16, 32]))
def test_certified_route_matches_full_decomposition_trivial(weights, shifts, t_nodes):
    problem = build_trivial_cylinder(weights, shifts, truncation=SMALL_TRUNC)
    assert_certified_route_matches_full(problem, GridSpec(required_s_nodes(problem), t_nodes))


@settings(derandomize=True, deadline=None, max_examples=20)
@given(ends=st.tuples(SYMMETRIC_2X2, SYMMETRIC_2X2),
       weights=st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
       t_nodes=st.sampled_from([16, 32]))
def test_certified_route_matches_full_decomposition_contact(ends, weights, t_nodes):
    weights = tuple(w / 4.0 for w in weights)
    assume(clear_of_walls(ends, weights))
    problem = build_contact_fiber_cylinder(
        *(LoopOperatorSpec(dim=2, coeff=S) for S in ends), weights=weights,
        truncation=SMALL_TRUNC)
    grid = GridSpec(max(required_s_nodes(problem), 32), t_nodes)
    assert_certified_route_matches_full(problem, grid)


def assert_fresh_questions_match_full(problem, grid):
    """kernel_vectors and stability_constant asked of fresh operators, with no
    rank decision before them: the ranks and minima ``values_below`` gives
    them equal those of the fully decomposed copy, bit for bit."""
    ref = full_reference(problem, grid)
    threshold = REL_THRESHOLD * ref.sigma_max()
    found, found_ref = (kernel_vectors(o, threshold) for o in (assemble(problem, grid), ref))
    assert [(b.tag, V.shape[1]) for b, V in found] == [(b.tag, V.shape[1]) for b, V in found_ref]
    assert all(np.array_equal(V, V_ref) for (_, V), (_, V_ref) in zip(found, found_ref))
    empty = []
    assert stability_constant(assemble(problem, grid), empty) == stability_constant(ref, empty)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(weights=st.tuples(SIGNED_WEIGHTS, SIGNED_WEIGHTS),
       shifts=st.sampled_from([(0, 0), (2, 2), (2, 0), (1, 2)]),
       t_nodes=st.sampled_from([16, 32]))
def test_fresh_questions_match_full_decomposition_trivial(weights, shifts, t_nodes):
    problem = build_trivial_cylinder(weights, shifts, truncation=SMALL_TRUNC)
    assert_fresh_questions_match_full(problem, GridSpec(required_s_nodes(problem), t_nodes))


@settings(derandomize=True, deadline=None, max_examples=20)
@given(ends=st.tuples(SYMMETRIC_2X2, SYMMETRIC_2X2),
       weights=st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
       t_nodes=st.sampled_from([16, 32]))
def test_fresh_questions_match_full_decomposition_contact(ends, weights, t_nodes):
    weights = tuple(w / 4.0 for w in weights)
    assume(clear_of_walls(ends, weights))
    problem = build_contact_fiber_cylinder(
        *(LoopOperatorSpec(dim=2, coeff=S) for S in ends), weights=weights,
        truncation=SMALL_TRUNC)
    assert_fresh_questions_match_full(problem, GridSpec(max(required_s_nodes(problem), 32),
                                                        t_nodes))


def assert_sigma_max_is_the_dense_one(problem, grid):
    """The settled sigma_max is the largest dense singular value within 1e-13
    relative, and no decomposed block's top value exceeds it by more."""
    op = assemble(problem, grid)
    dense = max(np.linalg.svd(b.matrix, compute_uv=False)[0] for b in op.blocks)
    sigma_max = op.sigma_max()
    assert abs(sigma_max - dense) <= 1e-13 * dense
    assert all(sv[0] <= sigma_max * (1 + 1e-13) for sv in decompose_all(op))


@settings(derandomize=True, deadline=None, max_examples=20)
@given(weights=st.tuples(SIGNED_WEIGHTS, SIGNED_WEIGHTS),
       shifts=st.sampled_from([(0, 0), (2, 2), (1, 2)]),
       t_nodes=st.sampled_from([8, 16, 32]))
def test_settled_sigma_max_is_the_dense_one_trivial(weights, shifts, t_nodes):
    problem = build_trivial_cylinder(weights, shifts, truncation=SMALL_TRUNC)
    assert_sigma_max_is_the_dense_one(problem, GridSpec(required_s_nodes(problem), t_nodes))


@settings(derandomize=True, deadline=None, max_examples=20)
@given(ends=st.tuples(SYMMETRIC_2X2, SYMMETRIC_2X2),
       weights=st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
       t_nodes=st.sampled_from([8, 16, 32]))
def test_settled_sigma_max_is_the_dense_one_contact(ends, weights, t_nodes):
    weights = tuple(w / 4.0 for w in weights)
    assume(clear_of_walls(ends, weights))
    problem = build_contact_fiber_cylinder(
        *(LoopOperatorSpec(dim=2, coeff=S) for S in ends), weights=weights,
        truncation=SMALL_TRUNC)
    assert_sigma_max_is_the_dense_one(problem, GridSpec(max(required_s_nodes(problem), 32),
                                                        t_nodes))


@settings(derandomize=True, deadline=None, max_examples=12)
@given(ends=st.tuples(SYMMETRIC_2X2, SYMMETRIC_2X2),
       weights=st.tuples(st.integers(-8, 8), st.integers(-8, 8)))
def test_duality_on_contact_cylinders(ends, weights):
    # the dual is the reflection: ends swapped, B(-s), weights (-delta+, -delta-)
    weights = tuple(w / 4.0 for w in weights)
    assume(clear_of_walls(ends, weights))
    problem = build_contact_fiber_cylinder(
        *(LoopOperatorSpec(dim=2, coeff=S) for S in ends), weights=weights,
        truncation=SMALL_TRUNC)
    res = adjoint_check(problem, GridSpec(max(required_s_nodes(problem), 32), 16))
    assert res["transpose_antisymmetric"] and res["weight_duality"]
    assert res["kernel_cokernel_swap"]
    assert res["index"] == analytic_index(problem)


@pytest.mark.parametrize("make_problem", [
    lambda: build_plane(D),
    lambda: build_trivial_cylinder((D, D), (2, 0)),
    lambda: replace(build_contact_fiber_cylinder(*[LoopOperatorSpec(dim=2, coeff=np.eye(2))] * 2),
                    coeff_s=None, coeff_st=lambda s, t: np.eye(2)),
    lambda: _glued_flow_pair()[0],
], ids=["plane", "shifted", "t_dependent", "glued"])
def test_duality_refuses_problems_without_a_reflected_dual(make_problem):
    with pytest.raises(ValueError, match="reflected dual"):
        adjoint_check(make_problem())


def assert_backends_agree_with_shifts(problem):
    # the realified mode 0 and the coupled block carry the shift columns in
    # one node-major layout, built by one function; the shifts live in mode
    # 0, so 8 circle nodes keep the coupled block small (672 columns)
    grid = GridSpec(48, 8)
    rep_d, rep_c = index_of(problem, grid), index_of(t_dependent_copy(problem), grid)
    assert (rep_c.index, rep_c.dim_ker, rep_c.dim_coker, rep_c.decisive) == \
        (rep_d.index, rep_d.dim_ker, rep_d.dim_coker, rep_d.decisive)
    assert rep_d.index == analytic_index(problem)


@pytest.mark.parametrize("shifts", [(0, 0), (2, 2), (1, 2), (2, 1), (2, 0), (0, 2), (1, 0), (0, 1)],
                         ids=lambda sd: "sd%d%d" % sd)
@settings(derandomize=True, deadline=None, max_examples=3)
@given(weights=st.tuples(SIGNED_WEIGHTS, SIGNED_WEIGHTS))
def test_backends_agree_with_shifts_trivial(shifts, weights):
    assert_backends_agree_with_shifts(
        build_trivial_cylinder(weights, shifts, truncation=SMALL_TRUNC))


@pytest.mark.parametrize("shift_dims", [0, 1, 2])
@settings(derandomize=True, deadline=None, max_examples=2)
@given(weight=SIGNED_WEIGHTS)
def test_backends_agree_with_shifts_plane(shift_dims, weight):
    assert_backends_agree_with_shifts(build_plane(weight, shift_dims, truncation=SMALL_TRUNC))


def _isomorphism_96x32():
    S = LoopOperatorSpec(dim=2, coeff=np.diag([1.0, 1.0]))
    return build_contact_fiber_cylinder(S, S), GridSpec(96, 32)


def test_failed_sigma_max_certificate_settles_the_block(monkeypatch):
    # the bound of block k=0 inflated, still a bound: k=0 is settled first and
    # the blocks above it fail their certificates; each of them is settled in
    # turn, and none is decomposed.  A certificate is a factorization of a
    # block's Gram matrix outside the settlement's own search
    problem, grid = _isomorphism_96x32()
    real_bound, real_cholesky = assemble_module._norm_bound, assemble_module._cholesky
    real_top, real_gram = assemble_module._gram_top, assemble_module._gram
    failed, settled, grams, searching = [], [], {}, []

    def gram(b):
        g = real_gram(b)
        grams[id(g)] = b.k
        return g

    def cholesky(g, shift, below=False):
        factors = real_cholesky(g, shift, below)
        if below and factors is None and not searching:
            failed.append(grams[id(g)])
        return factors

    def top(b, bound):
        settled.append(b.k)
        searching.append(b.k)
        try:
            return real_top(b, bound)
        finally:
            searching.pop()

    monkeypatch.setattr(assemble_module, "_norm_bound",
                        lambda b: real_bound(b) * (1e6 if b.k == 0 else 1.0))
    monkeypatch.setattr(assemble_module, "_gram", gram)
    monkeypatch.setattr(assemble_module, "_cholesky", cholesky)
    monkeypatch.setattr(assemble_module, "_gram_top", top)
    op = assemble(problem, grid)
    sigma_max = op.sigma_max()
    monkeypatch.undo()
    ref = full_reference(problem, grid)
    top = max(range(len(ref.blocks)), key=lambda i: ref.values_below(i, np.inf)[0])
    assert failed and ref.blocks[top].k in failed and settled == [0] + failed
    assert all(op.known_values(i) is None for i in range(len(op.blocks)))
    assert sigma_max == ref.sigma_max()
    assert_same_decision(numerical_index(op), numerical_index(ref))


@pytest.mark.parametrize("offset", [-2.0 ** 50, -3.0, 0.0, 5.0, 2.0 ** 30, 2.0 ** 50],
                         ids=["below_the_diagonal", "3_below", "as_proposed", "5_above",
                              "far_above", "above_the_bound"])
def test_settled_top_is_the_first_grid_point_that_factors(offset, monkeypatch):
    # the Lanczos proposal moved by ``offset`` grid steps, out to either end of
    # the search range: the search path changes, the settled point does not
    b = assemble(*_isomorphism_96x32()).blocks[15]
    bound, g = assemble_module._norm_bound(b), assemble_module._gram(b)
    step = 2.0 ** (np.frexp(bound)[1] - 1) * assemble_module._TOP_STEP
    lam = assemble_module._gram_top(b, bound)
    assert assemble_module._cholesky(g, lam, below=True) is not None
    assert assemble_module._cholesky(g, lam - step, below=True) is None
    lam_max = np.linalg.svd(b.matrix, compute_uv=False)[0] ** 2
    assert abs(lam - lam_max) <= 1e-13 * lam_max
    real = assemble_module._ritz_top
    monkeypatch.setattr(assemble_module, "_ritz_top",
                        lambda ab, h: real(ab, h) + offset * h)
    assert assemble_module._gram_top(b, bound) == lam


def _variant(b, k, windows):
    """A row-window block with b's layout, mode label k and the given windows."""
    return ModeBlock(k=k, mult=b.mult, pde_rows=b.pde_rows, tag=f"variant k={k}",
                     windows=windows, starts=b.starts)


def _last_row_scaled(b, k, scale):
    windows = b.windows.copy()
    windows[-1] *= scale
    return _variant(b, k, windows)


@pytest.mark.parametrize("above, certified", [(0.0, False), (1e-6, True)],
                         ids=["on_the_cut", "above_the_cut"])
def test_block_on_the_cut_is_decomposed(above, certified):
    # blocks k=15 (sigma_max, settled, not decomposed), k=1, and k=1 scaled so
    # that its sigma_min sits on the cut the walk reaches after decomposing
    # k=1, the first block it meets: the tenth smallest value of k=1, counted
    # with multiplicity 2 (all are kept)
    blocks = assemble(*_isomorphism_96x32()).blocks
    top, low = blocks[15], blocks[1]
    known = decompose_all(DiscreteOperator(blocks=[low], grid=None))[0]
    cut = np.sort(np.repeat(known, 2))[REPORTED_VALUES - 1]
    parts = [top, low, _variant(low, 2, cut / known[-1] * (1.0 + above) * low.windows)]
    op, ref = _decide_against_full(parts)
    assert ref.values_below(2, np.inf)[0] < ref.values_below(0, np.inf)[0]
    assert op.known_values(1) is not None
    assert (op.known_values(2) is None) == certified
    # a certified block answers the same cut from its floor, still undecomposed
    assert (len(op.values_below(2, cut)) == 0) == certified


def _decide_against_full(parts):
    """Rank decisions of the blocks ``parts`` with and without certificates,
    the same decision (``assert_same_decision``)."""
    op = DiscreteOperator(blocks=parts, grid=(96, 32, 12.0))
    ref = DiscreteOperator(blocks=parts, grid=(96, 32, 12.0))
    decompose_all(ref)
    assert_same_decision(numerical_index(op), numerical_index(ref))
    return op, ref


def test_smallest_kept_value_behind_ten_discarded_is_decomposed():
    # blocks k=1..5 with their last row zeroed hold ten zero values (with
    # multiplicity), so the tenth smallest known value lies below the
    # threshold; the cut is then the smallest kept value, and block k=6,
    # scaled below it, must be decomposed: it holds the smallest kept value
    blocks = assemble(*_isomorphism_96x32()).blocks
    parts = ([blocks[15]] + [_last_row_scaled(blocks[k], k, 0.0) for k in range(1, 6)]
             + [_variant(blocks[6], 6, 0.1 * blocks[6].windows)])
    op, ref = _decide_against_full(parts)
    kept = [sv[sv >= numerical_index(ref).threshold][-1] for sv in decompose_all(ref)]
    assert int(np.argmin(kept)) == 6
    assert op.known_values(6) is not None
    # the report holds the smallest kept value, though its ten reported values
    # are the discarded ones
    rep = numerical_index(op)
    assert (rep.dim_ker, rep.dim_coker, rep.decisive) == (10, 10, True)
    assert max(rep.singular_values) < rep.threshold
    assert rep.min_singular_value > 0.09
    np.testing.assert_allclose(rep.min_singular_value, min(kept), rtol=1e-9)


def test_block_the_guard_rejects_is_never_certified():
    # its last row scaled by 1e-3: sigma_min < 1e-4 sigma_max, so the banded
    # route's guard sends its values below the guard to the partial route at
    # a negative shift, and no cut below sigma_min certifies it; sigma_min
    # lies well above the rounding room of the certificate
    b = assemble(*_isomorphism_96x32()).blocks[2]
    near = _last_row_scaled(b, 2, 1e-3)
    op = DiscreteOperator(blocks=[_variant(b, 3, 1.01 * near.windows), near], grid=(96, 32, 12.0))
    op.sigma_max()
    assert op.known_values(1) is None
    sv = np.linalg.svd(near.matrix, compute_uv=False)
    assert 1e-5 * sv[0] < sv[-1] < 1e-4 * sv[0]
    assert len(op.values_below(1, 0.5 * sv[-1])) > 0
    assert op.block_routes()[1] == "banded_gram"
    np.testing.assert_allclose(op.values_below(1, np.inf), sv, rtol=1e-9)


def test_stability_constant_decomposes_certified_blocks_below_its_minimum():
    # N_tau holds the right singular vectors of every block with known values
    # up to past every certified block's smallest value: the restricted blocks
    # then lie above them, and the certified blocks must be decomposed, or
    # given their smallest values by the partial route, to find the minimum
    problem, grid = _isomorphism_96x32()
    op, ref = assemble(problem, grid), full_reference(problem, grid)
    numerical_index(op)
    certified = [i for i in range(len(op.blocks)) if op.known_values(i) is None]
    top_min = max(np.linalg.svd(op.blocks[i].matrix, compute_uv=False)[-1] for i in certified)
    vectors = []
    for i, b in enumerate(op.blocks):
        if i not in certified:
            _, sv, Vh = np.linalg.svd(b.matrix)
            vectors += [(b.k, v) for v in Vh[sv <= 2.0 * top_min].conj()]
    np.testing.assert_allclose(stability_constant(op, vectors),
                               stability_constant(ref, vectors), rtol=1e-9)
    assert any(op.known_values(i) is not None for i in certified)


# ---------------------------------------------------------------------------
# one Gram band per block, read from the Gram terms an operator's blocks share
# ---------------------------------------------------------------------------

def _all_rows_band(b):
    """The Gram band of a row-window block summed over all its rows."""
    return assemble_module._window_band(b.windows, b.windows, b.starts, b.shape[1] - b.aug_cols)


def assert_certificate_bands_match(op):
    """Every row-window block's Gram band, wide blocks included, read from the
    shared terms, is the sum over all its rows within 1e-13 max|G|."""
    windowed = [b for b in op.blocks if b.windows is not None]
    assert windowed and all(b.gram_terms is not None for b in windowed)
    for b in windowed:
        direct = _all_rows_band(b)
        band = assemble_module._gram_band(b)
        assert band.dtype == direct.dtype and band.shape == direct.shape
        assert np.abs(band - direct).max() <= 1e-13 * np.abs(direct).max()


@settings(derandomize=True, deadline=None, max_examples=15)
@given(weights=st.tuples(SIGNED_WEIGHTS, SIGNED_WEIGHTS),
       shifts=st.sampled_from([(0, 0), (2, 2), (1, 2)]),
       t_nodes=st.sampled_from([8, 16]))
def test_certificate_band_matches_direct_band_trivial(weights, shifts, t_nodes):
    problem = build_trivial_cylinder(weights, shifts, truncation=SMALL_TRUNC)
    assert_certificate_bands_match(assemble(problem, GridSpec(required_s_nodes(problem), t_nodes)))


@settings(derandomize=True, deadline=None, max_examples=15)
@given(ends=st.tuples(SYMMETRIC_2X2, SYMMETRIC_2X2),
       weights=st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
       t_nodes=st.sampled_from([8, 16]))
def test_certificate_band_matches_direct_band_contact(ends, weights, t_nodes):
    weights = tuple(w / 4.0 for w in weights)
    assume(clear_of_walls(ends, weights))
    problem = build_contact_fiber_cylinder(
        *(LoopOperatorSpec(dim=2, coeff=S) for S in ends), weights=weights,
        truncation=SMALL_TRUNC)
    assert_certificate_bands_match(
        assemble(problem, GridSpec(max(required_s_nodes(problem), 32), t_nodes)))


def _glued_flow_pair():
    from crlab.gluing import glue
    from test_gluing import flow_pair
    return glue(*flow_pair(), 6.0)[0], GridSpec(144, 16)


@pytest.mark.parametrize("make_case", [
    # ends off the diagonal: B(s) does not commute with J along the neck
    lambda: (build_contact_fiber_cylinder(
        LoopOperatorSpec(dim=2, coeff=np.array([[0.5, 0.75], [0.75, -1.25]])),
        LoopOperatorSpec(dim=2, coeff=np.array([[1.5, -0.5], [-0.5, 0.25]])),
        weights=(0.25, -0.5)), GridSpec(96, 16)),
    lambda: (build_plane(-D), GridSpec(96, 16)),
    lambda: (build_plane(D), GridSpec(96, 16)),
    _glued_flow_pair,
], ids=["contact_off_diagonal", "plane_growth", "plane_decay", "glued"])
def test_certificate_band_matches_direct_band(make_case):
    assert_certificate_bands_match(assemble(*make_case()))


def _window_band_calls(monkeypatch):
    """The first windows argument of every ``_window_band`` call from now on."""
    calls = []
    real = assemble_module._window_band
    monkeypatch.setattr(assemble_module, "_window_band",
                        lambda U, *args: calls.append(U) or real(U, *args))
    return calls


def test_criterion_6_sums_no_block_from_all_its_rows(monkeypatch):
    # 80 blocks over the three grids: 2 decomposed (k=0 at 96x32 and
    # 192x64), 6 given their smallest values by the partial route (k=1..5 of
    # 192 columns at 96x32 under a finite cut, k=0 of 768 columns at 384x64),
    # 72 certified (108 certificates), each grid's top block settled by two more
    # factorizations; every band, for values, certificates, settlements and
    # the partial route alike, reads the shared terms, and the only sums over
    # rows are each operator's four terms
    calls = _window_band_calls(monkeypatch)
    S = LoopOperatorSpec(dim=2, coeff=np.diag([1.0, 1.0]))
    problem = build_contact_fiber_cylinder(S, S)
    ops = [assemble(problem, g) for g in (GridSpec(96, 32), GridSpec(192, 64), GridSpec(384, 64))]
    for op in ops:
        numerical_index(op)
    blocks = [b for op in ops for b in op.blocks]
    assert len(blocks) == 80 and len(calls) == 4 * len(ops)
    assert not any(U is b.windows for U in calls for b in blocks)
    assert sum(ev.bound == np.inf for op in ops for ev in op._evidence) == 2
    assert [(op.grid_tag(), op.blocks[i].k) for op in ops for i, ev in enumerate(op._evidence)
            if ev.bound < np.inf and len(ev.values)] == (
        [("96x32@S12", k) for k in range(1, 6)] + [("384x64@S12", 0)])


def test_block_from_other_windows_takes_the_direct_band(monkeypatch):
    # a block without shared terms sums its own rows: twice b's windows, four
    # times b's band
    b = assemble(*_isomorphism_96x32()).blocks[3]
    assert b.gram_terms is not None
    shared = assemble_module._gram_band(b)
    calls = _window_band_calls(monkeypatch)
    other = _variant(b, 3, 2.0 * b.windows)
    assert other.gram_terms is None
    band = assemble_module._gram_band(other)
    assert len(calls) == 1 and calls[0] is other.windows
    assert np.abs(band - 4.0 * shared).max() <= 1e-13 * np.abs(band).max()


def test_certificate_reads_end_rows_edited_in_place():
    # the positive end's boundary row zeroed in place, as in
    # _guard_rejected_windows: the square block gains a kernel, and the band
    # its certificate and its values read must both see it
    b = assemble(*banded_cases()["isomorphism"]).blocks[1]
    sigma_min = np.linalg.svd(b.matrix, compute_uv=False)[-1]
    shift = 0.5 * sigma_min ** 2
    g = assemble_module._gram(b)
    assert assemble_module._cholesky(g, shift) is not None
    sv, ritz = assemble_module._banded_singular_values(b, g.band)
    np.testing.assert_allclose(sv[-1], sigma_min, rtol=1e-9)
    assert ritz is None
    b.windows[-1] = 0.0
    g, direct = assemble_module._gram(b), _all_rows_band(b)
    assert np.abs(g.band - direct).max() <= 1e-13 * np.abs(direct).max()
    assert assemble_module._cholesky(g, shift) is None
    # the banded route's guard rejects it: sigma_min < 1e-4 sigma_max, read
    # from M X^T on the Ritz vectors it returns
    sv, ritz = assemble_module._banded_singular_values(b, g.band)
    assert sv[-1] < 1e-4 * sv[0] and ritz is not None


# ---------------------------------------------------------------------------
# the partial route: certified smallest values of large full-rank blocks
# ---------------------------------------------------------------------------

PARTIAL_COLS = assemble_module._PARTIAL_MIN_COLS


def _eig_banded_calls(monkeypatch):
    """One entry per ``scipy.linalg.eig_banded`` call from now on."""
    calls = []
    real = scipy.linalg.eig_banded
    monkeypatch.setattr(scipy.linalg, "eig_banded",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    return calls


def assert_partial_route_matches_eig_banded(problem, grid):
    """Each block that takes the partial route from a fresh operator returns
    its smallest values, multiplicities included, equal to eig_banded's within
    rtol 1e-9; the rank decision equals the fully decomposed copy's."""
    op, ref = assemble(problem, grid), full_reference(problem, grid)
    taken = 0
    for i, b in enumerate(op.blocks):
        fresh = replace(op)
        sv = fresh.values_below(i, np.inf, REPORTED_VALUES)
        if fresh._evidence[i].bound == np.inf:      # decomposed: every value
            assert len(sv) == min(b.shape)
            continue
        taken += 1
        assert b.windows is not None and b.shape[0] >= b.shape[1] >= PARTIAL_COLS
        assert len(sv) >= REPORTED_VALUES
        np.testing.assert_allclose(sv, ref.values_below(i, np.inf)[-len(sv):], rtol=1e-9)
        assert fresh.block_routes()[i] == "banded_gram"
    rep, rep_ref = numerical_index(op), numerical_index(ref)
    assert (rep.dim_ker, rep.dim_coker, rep.index, rep.decisive, rep.method) == (
        rep_ref.dim_ker, rep_ref.dim_coker, rep_ref.index, rep_ref.decisive, rep_ref.method)
    np.testing.assert_allclose(rep.singular_values, rep_ref.singular_values, rtol=1e-9)
    np.testing.assert_allclose([rep.gap_ratio, rep.min_singular_value, rep.sigma_max],
                               [rep_ref.gap_ratio, rep_ref.min_singular_value,
                                rep_ref.sigma_max], rtol=1e-9)
    return taken


@settings(derandomize=True, deadline=None, max_examples=8)
@given(weights=st.tuples(SIGNED_WEIGHTS, SIGNED_WEIGHTS),
       s_nodes=st.sampled_from([PARTIAL_COLS, 640]))
def test_partial_route_matches_eig_banded_trivial(weights, s_nodes):
    # scalar blocks of s_nodes columns, one field
    problem = build_trivial_cylinder(weights, truncation=SMALL_TRUNC)
    assert_partial_route_matches_eig_banded(problem, GridSpec(s_nodes, 8))


@settings(derandomize=True, deadline=None, max_examples=8)
@given(ends=st.tuples(SYMMETRIC_2X2, SYMMETRIC_2X2),
       weights=st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
       s_nodes=st.sampled_from([PARTIAL_COLS // 2, 320]))
def test_partial_route_matches_eig_banded_contact(ends, weights, s_nodes):
    # blocks of 2 s_nodes columns on the 2-dimensional fiber
    weights = tuple(w / 4.0 for w in weights)
    assume(clear_of_walls(ends, weights))
    problem = build_contact_fiber_cylinder(
        *(LoopOperatorSpec(dim=2, coeff=S) for S in ends), weights=weights,
        truncation=SMALL_TRUNC)
    assert_partial_route_matches_eig_banded(problem, GridSpec(s_nodes, 8))


def test_partial_route_takes_doubled_values():
    # criterion 6's block k=0 has every value doubled (S = I on two fields)
    S = LoopOperatorSpec(dim=2, coeff=np.eye(2))
    assert assert_partial_route_matches_eig_banded(build_contact_fiber_cylinder(S, S),
                                                   GridSpec(288, 8)) >= 1


def test_proposal_missing_one_copy_of_a_doubled_value_is_refused(monkeypatch):
    # one copy of the smallest doubled value of block k=0 dropped from the
    # accepted proposal: the inertia count finds one more value below y, and
    # the block falls back to eig_banded
    S = LoopOperatorSpec(dim=2, coeff=np.eye(2))
    problem, grid = build_contact_fiber_cylinder(S, S), GridSpec(288, 32)
    real = assemble_module._accepted_ritz_values
    proposals = []

    def drop_one_copy(*args):
        found = real(*args)
        if found is not None:
            values, y, Y = found
            assert values[1] - values[0] <= 1e-12 * values[0]
            proposals.append(values)
            return values[1:], y, Y[:, 1:]
        return found

    monkeypatch.setattr(assemble_module, "_accepted_ritz_values", drop_one_copy)
    eig_banded = _eig_banded_calls(monkeypatch)
    op = assemble(problem, grid)
    rep = numerical_index(op)
    monkeypatch.undo()
    assert len(proposals) == 1 and op.blocks[0].k == 0
    assert op.known_values(0) is not None and op._evidence[0].bound == np.inf
    assert len(eig_banded) == 1 and len(op.values_below(0, np.inf)) == op.blocks[0].shape[1]
    assert rep == numerical_index(full_reference(problem, grid))


FINITE_COLS = assemble_module._PARTIAL_FINITE_MIN_COLS


def _distinct(sv):
    """The distinct values of the descending ``sv``, ascending (values within
    1e-6 relative of each other are one value)."""
    low = sv[::-1]
    return low[np.r_[True, np.diff(low) > 1e-6 * low[1:]]]


def assert_finite_cut_takes_the_partial_route(op, ref, i, cut):
    """A fresh copy of ``op`` asked for block i's values below the finite
    ``cut`` answers from the partial route, with no eig_banded call: exactly
    the values eig_banded finds below the cut, multiplicities included,
    within rtol 1e-9, recorded below a bound at least the cut."""
    fresh = replace(op)
    fresh.sigma_max()
    with mock.patch.object(scipy.linalg, "eig_banded", wraps=scipy.linalg.eig_banded) as eig:
        sv = fresh.values_below(i, cut, REPORTED_VALUES)
    full = ref.values_below(i, np.inf)
    below = full[full < cut]
    assert eig.call_count == 0 and fresh.block_routes()[i] == "banded_gram"
    assert len(sv) == len(below) > 0
    np.testing.assert_allclose(sv, below, rtol=1e-9)
    assert fresh._evidence[i].bound >= cut


@settings(derandomize=True, deadline=None, max_examples=6)
@given(ends=st.tuples(SYMMETRIC_2X2, SYMMETRIC_2X2),
       weights=st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
       s_nodes=st.integers(FINITE_COLS // 2, 160), t_nodes=st.sampled_from([8, 16, 32]),
       after=st.integers(1, 3))
@example(ends=(np.eye(2) / 4.0, -np.eye(2) / 4.0), weights=(0, 0), s_nodes=96, t_nodes=8,
         after=3)
def test_finite_cut_partial_route_matches_eig_banded(ends, weights, s_nodes, t_nodes, after):
    # contact blocks of 192-320 columns, each fresh block asked for its values
    # below the geometric midpoint after its 1st, 2nd or 3rd smallest
    # distinct value, so doubled values lie below the cut in pairs.  The
    # example: block k=2's third and fourth distinct values, 12.341 and
    # 12.414, lie 0.6% apart, and early Ritz values above the cut still fall
    # below it as the basis grows
    weights = tuple(w / 4.0 for w in weights)
    assume(clear_of_walls(ends, weights))
    problem = build_contact_fiber_cylinder(
        *(LoopOperatorSpec(dim=2, coeff=S) for S in ends), weights=weights,
        truncation=SMALL_TRUNC)
    grid = GridSpec(s_nodes, t_nodes)
    op, ref = assemble(problem, grid), full_reference(problem, grid)
    square = [i for i, b in enumerate(op.blocks) if b.shape[0] >= b.shape[1]]
    assert square and all(op.blocks[i].shape[1] >= FINITE_COLS for i in square)
    for i in square:
        low = _distinct(ref.values_below(i, np.inf))
        assert_finite_cut_takes_the_partial_route(
            op, ref, i, float(np.sqrt(low[after - 1] * low[after])))


def _criterion_6_block(k):
    """Criterion 6 at 96x32 (S = I on both ends), its block of mode k (192
    columns) and that block's fully decomposed values."""
    S = LoopOperatorSpec(dim=2, coeff=np.eye(2))
    problem, grid = build_contact_fiber_cylinder(S, S), GridSpec(96, 32)
    op = assemble(problem, grid)
    i = next(i for i, b in enumerate(op.blocks) if b.k == k)
    return op, i, full_reference(problem, grid).values_below(i, np.inf)


def test_finite_cut_check_with_every_ritz_value_below_goes_on(monkeypatch):
    # block k=1 asked for its ten smallest values below a cut under its
    # largest one: the checks after 2, 3 and 4 Krylov blocks hold 4, 6 and 8
    # Ritz values, all below the cut, fewer than ten and with no gap after
    # them to test; the route goes on and answers
    op, i, full = _criterion_6_block(1)
    top = _distinct(full)[-2:]
    real = assemble_module._accepted_ritz_values
    checks = []

    def spy(V, GV, H, m, p, room, top):
        theta = np.linalg.eigvalsh(H)
        checks.append((len(theta), int((theta < top).sum())))
        return real(V, GV, H, m, p, room, top)

    monkeypatch.setattr(assemble_module, "_accepted_ritz_values", spy)
    op.sigma_max()
    with mock.patch.object(scipy.linalg, "eig_banded", wraps=scipy.linalg.eig_banded) as eig:
        sv = op.values_below(i, float(np.sqrt(top[0] * top[1])), REPORTED_VALUES)
    assert eig.call_count == 0 and checks[:3] == [(4, 4), (6, 6), (8, 8)]
    assert len(sv) >= REPORTED_VALUES and op._evidence[i].bound < np.inf
    np.testing.assert_allclose(sv, full[-len(sv):], rtol=1e-9)


def test_partial_answer_with_a_miscounted_inertia_is_decomposed(monkeypatch):
    # block k=1 asked for its values below the midpoint after its smallest:
    # the inertia count off by one refuses the proposal, and the block takes
    # exactly one eig_banded call, its full values
    op, i, full = _criterion_6_block(1)
    low = _distinct(full)
    op.sigma_max()
    real = assemble_module._count_below
    counts = []

    def off_by_one(ab, y, room):
        counts.append(real(ab, y, room))
        return counts[-1] + 1

    monkeypatch.setattr(assemble_module, "_count_below", off_by_one)
    calls = _eig_banded_calls(monkeypatch)
    sv = op.values_below(i, float(np.sqrt(low[0] * low[1])), REPORTED_VALUES)
    monkeypatch.undo()
    assert counts == [1] and len(calls) == 1
    assert op._evidence[i].bound == np.inf and len(sv) == op.blocks[i].shape[1]
    np.testing.assert_array_equal(sv, full)


def _wide():
    # mode 0 of the growth cylinder: 599 x 600 row windows
    op = assemble(*banded_cases()["wide"])
    return op, next(i for i, b in enumerate(op.blocks) if b.shape[0] < b.shape[1])


@pytest.mark.parametrize("make_op", [_wide, _guard_rejected_windows, _guard_rejected],
                         ids=["wide", "guard_windows", "dense_guard"])
def test_wide_rejected_and_dense_blocks_never_take_the_partial_route(make_op):
    op, i = make_op()
    b = op.blocks[i]
    assert b.shape[1] >= PARTIAL_COLS
    rep = numerical_index(op)
    assert op._evidence[i].bound == np.inf or len(op._evidence[i].values) == 0
    assert len(op.values_below(i, np.inf, REPORTED_VALUES)) == min(b.shape)
    # the row-window block the guard rejects reads its values below the
    # guard from M X^T on the Ritz vectors, to rounding of sigma_max
    if make_op is _guard_rejected_windows:
        assert_kept_values_agree(rep, numerical_index(dense_reference(op)))
    else:
        assert_reports_agree(rep, numerical_index(dense_reference(op)))


def test_bordered_block_takes_the_partial_route_at_a_negative_shift(monkeypatch):
    # the (2, 2)-shifted mode 0 of 532 columns, 4 of them shift columns, asked
    # first with an infinite cut: its ten smallest values and its two
    # structural zeros from the partial route, no decomposition
    op, i = _bandwidth_rejected()
    b = op.blocks[i]
    assert b.border is not None and b.shape == (530, 532)
    calls = svd_calls(monkeypatch)
    eig = _eig_banded_calls(monkeypatch)
    rep = numerical_index(op)
    monkeypatch.undo()
    assert calls == [] and len(eig) < len(op.blocks)
    assert 0 < op._evidence[i].bound < np.inf
    assert len(op._evidence[i].values) >= REPORTED_VALUES
    ref = np.linalg.svd(b.matrix, compute_uv=False)
    sv = op._evidence[i].values
    np.testing.assert_allclose(sv, ref[len(ref) - len(sv):], rtol=1e-9)
    assert_kept_values_agree(rep, numerical_index(dense_reference(op)))


@pytest.mark.parametrize("walk", [True, False], ids=["walk", "fresh"])
@pytest.mark.parametrize("shifts", [(2, 2), (1, 2)])
@pytest.mark.parametrize("s_nodes", [48, 96])
def test_bordered_kernel_takes_one_route_run_and_no_dense_svd(s_nodes, shifts, walk,
                                                              monkeypatch):
    # the shifted mode 0 of 99-196 columns, on either side of the 192 columns
    # from which an unbordered block takes the partial route; with shifts
    # (1, 2) it has a value below the threshold besides its structural zero.
    # Its kernel directions, asked after the rank walk or of a fresh operator,
    # take one run of the route at a negative shift, the one the rank
    # decision read its values from when it took one, and no dense SVD
    from test_gluing import subspace_sine
    op = assemble(build_trivial_cylinder((D, D), shifts), GridSpec(s_nodes, 8))
    i = next(i for i, b in enumerate(op.blocks) if b.border is not None)
    b = op.blocks[i]
    assert b.shape[1] == 2 * s_nodes + sum(shifts)
    threshold = REL_THRESHOLD * op.sigma_max()
    calls, runs = svd_calls(monkeypatch), []
    real = assemble_module._mx_values
    monkeypatch.setattr(assemble_module, "_mx_values",
                        lambda *args: runs.append(args) or real(*args))
    rep = numerical_index(op) if walk else None
    found = kernel_vectors(op, threshold)
    monkeypatch.undo()
    assert calls == [] and len(runs) == 1
    if walk:
        assert op._evidence[i].ritz is not None and rep.method == "banded_gram"
        assert_kept_values_agree(rep, numerical_index(dense_reference(op)))
    _, sv, Vh = np.linalg.svd(b.matrix)
    rank = int((sv >= threshold).sum())
    assert [(blk.tag, V.shape[1]) for blk, V in found] == [(b.tag, b.shape[1] - rank)]
    assert subspace_sine(found[0][1], Vh[rank:].conj().T) <= 1e-8


# ---------------------------------------------------------------------------
# one record per block: floors, partial answers and decompositions in turn
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _evidence_case(name):
    """An assembled operator, its blocks' fully decomposed values, and the
    geometric midpoints between the operator's distinct values, ascending."""
    if name == "criterion6_384x64":      # 32 contact blocks of 768 columns
        S = LoopOperatorSpec(dim=2, coeff=np.eye(2))
        problem, grid = build_contact_fiber_cylinder(S, S), GridSpec(384, 64)
    elif name == "shifted_264x8":         # mode 0 of 530x532, 4 of them shift columns
        problem, grid = build_trivial_cylinder((D, D), (2, 2)), GridSpec(264, 8)
    else:                                 # scalar blocks of 600 columns
        problem, grid = build_trivial_cylinder((D, D)), GridSpec(600, 8)
    ref = decompose_all(assemble(problem, grid))
    merged = np.sort(np.concatenate(ref))
    distinct = merged[np.r_[True, np.diff(merged) > 1e-6 * merged[1:]]]
    return assemble(problem, grid), ref, np.sqrt(distinct[:-1] * distinct[1:])


@settings(derandomize=True, deadline=None, max_examples=30)
@given(name=st.sampled_from(["criterion6_384x64", "decay_600x8", "shifted_264x8"]),
       data=st.data())
def test_one_operator_answers_across_evidence_kinds(name, data):
    # 2-5 questions in a row to one fresh operator, at cuts low in its
    # spectrum (certificates, partial answers) or anywhere (decompositions):
    # each answer is the tail of the block's full values, holds every value
    # below the cut or the ``most`` smallest, and no block is decomposed
    # twice, by the banded route or by dense SVD
    base, ref, cuts = _evidence_case(name)
    op = replace(base)
    theta = REL_THRESHOLD * op.sigma_max()
    real = assemble_module._banded_singular_values
    with mock.patch.object(assemble_module, "_banded_singular_values", wraps=real) as banded, \
            mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        for _ in range(data.draw(st.integers(2, 5))):
            i = data.draw(st.integers(0, len(op.blocks) - 1))
            rank = data.draw(st.none() | st.integers(0, 40) | st.integers(0, len(cuts) - 1))
            cut = np.inf if rank is None else float(cuts[rank])
            most = data.draw(st.sampled_from([None, 1, 2, 5, REPORTED_VALUES]))
            sv, full = op.values_below(i, cut, most), ref[i]
            want = full[len(full) - len(sv):]
            # a bordered block's values below the threshold come from M X^T,
            # to rounding of sigma_max: they are compared by count
            kept = (want >= theta) | (op.blocks[i].border is None)
            assert (sv[~kept] < theta).all()
            np.testing.assert_allclose(sv[kept], want[kept], rtol=1e-9)
            assert len(sv) >= min(np.count_nonzero(full < cut), most or np.inf)
            decomposed = [id(args[0]) for args, _ in banded.call_args_list + svd.call_args_list]
            assert len(decomposed) == len(set(decomposed))


# ---------------------------------------------------------------------------
# bordered bands: the certified primitives on band plus border
# ---------------------------------------------------------------------------

def _bordered_matrix(seed, n, kd, a, complex_):
    """A random Hermitian band of order n and bandwidth kd with a border of a
    dense columns, as its ``_Gram`` and as the dense matrix."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_ else x

    G = np.zeros((n + a, n + a), dtype=complex if complex_ else float)
    i, j = np.triu_indices(n)
    inside = j - i <= kd
    G[i[inside], j[inside]] = draw(int(inside.sum()))
    G[:n, n:] = draw(n, a)
    G[n:, n:] = draw(a, a)
    G = np.triu(G) + np.triu(G, 1).conj().T
    G[np.diag_indices(n + a)] = G.diagonal().real
    band = np.zeros((kd + 1, n), dtype=G.dtype)
    for e in range(kd + 1):                 # band[kd - e, c] = G[c - e, c]
        band[kd - e, e:] = G[np.arange(n - e), np.arange(e, n)]
    return assemble_module._Gram(band, G[:n, n:].copy(), G[n:, n:].copy()), G


BORDERED = st.tuples(st.integers(0, 2 ** 16), st.integers(20, 64), st.sampled_from([7, 15]),
                     st.integers(1, 4), st.booleans())
# where a shift falls: on an eigenvalue, within rounding of it, or between two
NEAR = st.tuples(st.integers(0, 200), st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12,
                                                       1e-9, -1e-9, 1e-6, 0.5]))


def _near(lam, near):
    j, offset = near
    j %= len(lam)
    gap = lam[min(j + 1, len(lam) - 1)] - lam[j] if offset == 0.5 else np.abs(lam).max()
    return lam[j] + offset * gap


@settings(derandomize=True, deadline=None, max_examples=60)
@given(case=BORDERED, near=NEAR)
def test_bordered_count_is_correct_or_refused(case, near):
    g, G = _bordered_matrix(*case)
    lam = np.linalg.eigvalsh(G)
    y = _near(lam, near)
    count = assemble_module._count_below(g, y, 1e-12 * np.abs(lam).max())
    assert count is None or count == int((lam < y).sum())


@settings(derandomize=True, deadline=None, max_examples=60)
@given(case=BORDERED, near=NEAR, below=st.booleans())
def test_bordered_definite_is_correct_or_refused(case, near, below):
    # a Cholesky certificate that holds is never wrong beyond rounding, and
    # one a margin of 1e-3 ||G|| clears never fails
    g, G = _bordered_matrix(*case)
    lam = np.linalg.eigvalsh(G)
    shift, scale = _near(lam, near), np.abs(lam).max()
    margin = shift - lam[-1] if below else lam[0] - shift
    ok = assemble_module._cholesky(g, shift, below) is not None
    assert not ok or margin > -1e-12 * scale
    assert ok or margin < 1e-3 * scale


@settings(derandomize=True, deadline=None, max_examples=40)
@given(case=BORDERED, near=NEAR, p=st.integers(1, 3))
def test_bordered_matvec_and_solve_match_dense(case, near, p):
    g, G = _bordered_matrix(*case)
    n = len(G)
    X = np.random.default_rng(case[0]).standard_normal((n, p)).astype(G.dtype)
    np.testing.assert_allclose(assemble_module._band_matvec(g)(X.T), (G @ X).T, rtol=0,
                               atol=1e-12 * np.abs(G).max() * n)
    # G - shift I at a shift at or near an eigenvalue, or below the least one
    lam = np.linalg.eigvalsh(G)
    for shift in (_near(lam, near), lam[0] - 0.5 * (lam[1] - lam[0])):
        solve = assemble_module._shift_solver(g, shift)
        if solve is None:
            continue
        K = G - shift * np.eye(n)
        assert lam[0] - shift > -1e-12 * np.abs(lam).max()
        Y = solve(X)
        assert np.abs(K @ Y - X).max() <= 1e-9 * np.abs(K).max() * np.abs(Y).max() * n


# every shift pattern of the trivial cylinder, the reduced ones included,
# planes with 0-2 shifts, decaying and growing
SHIFTED_PROBLEMS = st.one_of(
    st.builds(lambda w, sd: build_trivial_cylinder(w, sd, truncation=SMALL_TRUNC),
              st.tuples(SIGNED_WEIGHTS, SIGNED_WEIGHTS),
              st.sampled_from([(2, 2), (1, 2), (2, 1), (2, 0), (0, 2), (1, 0), (0, 1)])),
    st.builds(lambda w, sd: build_plane(w, sd, truncation=SMALL_TRUNC), SIGNED_WEIGHTS,
              st.sampled_from([0, 1, 2])))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(problem=SHIFTED_PROBLEMS, s_nodes=st.sampled_from([96, 128]))
def test_rank_walk_on_bordered_blocks_matches_dense_reference(problem, s_nodes):
    # blocks with shift columns of 192-260 columns take the partial route at
    # a negative shift; the rank walk, its kept values and the kernel
    # directions match the dense SVD of every block
    from test_gluing import subspace_sine
    op = assemble(problem, GridSpec(s_nodes, 8))
    rep = numerical_index(op)
    ref = dense_reference(op)
    rep_ref = numerical_index(ref)
    assert_kept_values_agree(rep, rep_ref)
    assert rep.method == "banded_gram"
    for i, b in enumerate(op.blocks):
        if b.border is not None:
            assert op._evidence[i].bound < np.inf and len(op._evidence[i].values)
    found = {id(b): V for b, V in kernel_vectors(op, rep.threshold)}
    for b in op.blocks:
        _, sv, Vh = np.linalg.svd(b.matrix)
        rank = int((sv >= rep.threshold).sum())
        if rank < b.shape[1]:
            assert subspace_sine(found[id(b)], Vh[rank:].conj().T) <= 1e-8
        else:
            assert id(b) not in found
