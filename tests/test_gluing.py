"""Gluing: neck construction, approximate kernels, stability, additivity."""

import importlib

import numpy as np
import pytest
import scipy.linalg

import crlab.gluing as gluing
from crlab.assemble import assemble, augmentation_layout, fd_operators, kernel_vectors
from crlab.exceptions import IncompatibleEndsError
from crlab.gluing import (
    GluingConfig,
    approximate_kernel,
    component_kernel,
    glue,
    stability_constant,
    transplant_residuals,
    verify_additivity,
)
from crlab.indexing import delta_sweep, index_of, numerical_index
from crlab.loops import LoopOperatorSpec
from crlab.problems import (
    GridSpec,
    Truncation,
    build_contact_fiber_cylinder,
    build_trivial_cylinder,
    default_grid_for,
    with_weights,
)

# the package's ``assemble`` attribute is the function, not the module
assemble_module = importlib.import_module("crlab.assemble")

TRUNC = Truncation(s_max=12.0, n_prime=3.0)


def diag_spec(*vals):
    return LoopOperatorSpec(dim=len(vals), coeff=np.diag(vals))


def iso_pair():
    S = diag_spec(1.0, 1.0)
    pu = build_contact_fiber_cylinder(S, S, truncation=TRUNC)
    pw = build_contact_fiber_cylinder(S, S, truncation=TRUNC)
    return pu, pw


def flow_pair():
    pu = build_contact_fiber_cylinder(diag_spec(-2.0, -2.0), diag_spec(1.0, 1.0),
                                      weights=(1.0, 0.5), truncation=TRUNC)
    pw = build_contact_fiber_cylinder(diag_spec(1.0, 1.0), diag_spec(3.0, 3.0),
                                      weights=(-0.5, 1.5), truncation=TRUNC)
    return pu, pw


def test_gluing_config_invariants():
    cfg = GluingConfig(tau=8.0, n_prime=3.0)
    assert cfg.rho == 5.0
    s = np.linspace(-20, 20, 801)
    bu = cfg.beta_u(s)
    assert np.all(bu[s < cfg.tau - 1.0] == 1.0)
    assert np.all(bu[s > cfg.tau] == 0.0)
    bw = cfg.beta_w(s)
    assert np.all(bw[s > -cfg.tau + 1.0] == 1.0)
    assert np.all(bw[s < -cfg.tau] == 0.0)
    with pytest.raises(ValueError):
        GluingConfig(tau=4.9, n_prime=3.0)


def test_glue_rejects_mismatched_ends():
    pu = build_contact_fiber_cylinder(diag_spec(1.0, 1.0), diag_spec(1.0, 1.0),
                                      truncation=TRUNC)
    pw = build_contact_fiber_cylinder(diag_spec(2.0, 2.0), diag_spec(1.0, 1.0),
                                      truncation=TRUNC)
    with pytest.raises(IncompatibleEndsError):
        glue(pu, pw, 10.0)


def test_glue_rejects_discontinuous_weight():
    S = diag_spec(1.0, 1.0)
    pu = build_contact_fiber_cylinder(S, S, weights=(0.0, 0.5), truncation=TRUNC)
    pw = build_contact_fiber_cylinder(S, S, weights=(0.5, 0.0), truncation=TRUNC)
    with pytest.raises(IncompatibleEndsError):
        glue(pu, pw, 10.0)


def test_glued_coefficient_inherits_components():
    pu = build_contact_fiber_cylinder(diag_spec(-1.0, -1.0), diag_spec(1.0, 1.0),
                                      truncation=TRUNC)
    pw = build_contact_fiber_cylinder(diag_spec(1.0, 1.0), diag_spec(2.0, 2.0),
                                      truncation=TRUNC)
    tau = 10.0
    glued, cfg = glue(pu, pw, tau)
    rho = cfg.rho
    for s in np.linspace(-glued.truncation.s_max, -rho / 2, 13):
        assert np.allclose(glued.coefficient(s), pu.coefficient(s + tau))
    for s in np.linspace(rho / 2, glued.truncation.s_max, 13):
        assert np.allclose(glued.coefficient(s), pw.coefficient(s - tau))
    # constant on the free neck
    mid = glued.coefficient(0.0)
    assert np.allclose(mid, np.diag([1.0, 1.0]))
    assert np.allclose(glued.coefficient(rho / 4), mid)


def test_near_continuing_weights_glue_like_the_exact_pair():
    # a seam mismatch below glue's 1e-12 tolerance changes neither the
    # decision nor, beyond it, the glued slope w'
    pu, pw = flow_pair()
    pw_near = build_contact_fiber_cylinder(diag_spec(1.0, 1.0), diag_spec(3.0, 3.0),
                                           weights=(-0.5 + 1e-13, 1.5), truncation=TRUNC)
    exact, _ = glue(pu, pw, 6.0)
    near, _ = glue(pu, pw_near, 6.0)
    rep_exact, rep_near = index_of(exact), index_of(near)
    assert (rep_near.index, rep_near.decisive) == (rep_exact.index, rep_exact.decisive)
    _, _, s, mids = fd_operators(near.s_lo, near.truncation.s_max,
                                 default_grid_for(near.truncation).s_nodes)
    for x in (s, mids):
        gap = np.abs(near.weight_profile().wprime(x) - exact.weight_profile().wprime(x))
        assert gap.max() <= 1e-12


def test_glue_of_trivial_problems_is_trivial():
    pu = build_trivial_cylinder((-1.0, 1.0), truncation=TRUNC)
    pw = build_trivial_cylinder((-1.0, 1.0), truncation=TRUNC)
    glued, _ = glue(pu, pw, 10.0)
    assert glued.weights() == (-1.0, 1.0)
    rep = index_of(glued)
    assert rep.index == 0 == index_of(pu).index + index_of(pw).index


def test_reweighting_a_glued_problem_refuses_its_profile():
    # the glued profile's slopes realize the component weights (1, 1): a copy
    # claiming (-1, 1) would still realize delta_- = 1, index -2 against the
    # analytic 0
    pu = build_trivial_cylinder((1.0, 1.0), truncation=TRUNC)
    pw = build_trivial_cylinder((-1.0, 1.0), truncation=TRUNC)
    glued, _ = glue(pu, pw, 6.0)
    assert glued.weights() == (1.0, 1.0)
    with pytest.raises(ValueError, match="negative end: weight -1 needs the weight "
                                         "profile's slope 1 at s = -18, got -1"):
        with_weights(glued, (-1.0, 1.0))
    rep = delta_sweep(glued, [1.0, 2.0])
    assert not rep.rows[0].skipped and rep.rows[0].report.index == -2
    assert rep.rows[1].skipped and "weight profile's slope" in rep.rows[1].reason


def test_iso_pair_has_empty_approximate_kernel():
    pu, pw = iso_pair()
    ker_u, rep_u = component_kernel(pu)
    ker_w, rep_w = component_kernel(pw)
    assert rep_u.dim_ker == rep_w.dim_ker == 0
    assert ker_u == [] and ker_w == []
    glued, cfg = glue(pu, pw, 10.0)
    op = assemble(glued)
    n_tau = approximate_kernel(ker_u, ker_w, cfg, op)
    assert len(n_tau) == 0
    # the constant equals the global minimum singular value, positive
    c = stability_constant(op, n_tau)
    np.testing.assert_allclose(
        c, min(op.values_below(i, np.inf)[-1] for i in range(len(op.blocks))), rtol=1e-9)
    dense = min(np.linalg.svd(b.matrix, compute_uv=False)[-1] for b in op.blocks)
    np.testing.assert_allclose(c, dense, rtol=1e-9)
    assert c > 0.3


def test_stability_plateau_over_tau():
    pu, pw = iso_pair()
    consts = []
    for tau in (6.0, 8.0, 10.0, 12.0):
        glued, cfg = glue(pu, pw, tau)
        op = assemble(glued)
        consts.append(stability_constant(op, approximate_kernel([], [], cfg, op)))
    top = consts[-2:]
    assert min(consts) > 0.3
    assert abs(top[1] - top[0]) < 0.1 * max(top)


def test_transplant_gram_approaches_identity():
    pu, pw = flow_pair()
    ker_u, _ = component_kernel(pu)
    ker_w, _ = component_kernel(pw)
    glued, cfg = glue(pu, pw, 12.0)
    op = assemble(glued)
    n_tau = approximate_kernel(ker_u, ker_w, cfg, op)
    assert len(n_tau) == 2
    # transplants of different modes are orthogonal; the cutoffs' disjoint
    # supports drive the Gram condition number to one as tau grows
    G = np.array([[np.vdot(vi, vj) if ki == kj else 0.0 for kj, vj in n_tau]
                  for ki, vi in n_tau])
    assert np.linalg.cond(G) < 1.0 + 1e-6


def test_additivity_report_and_residual_decay():
    pu, pw = flow_pair()
    taus = (6.0, 8.0, 10.0, 12.0)
    rep = verify_additivity(pu, pw, taus)
    assert rep.passed
    assert all(r.ind_glued == r.ind_u + r.ind_w for r in rep.rows)
    # residuals follow e^{-delta rho} within a factor of three (delta = 0.5)
    delta = 0.5
    r0 = rep.rows[0]
    for r in rep.rows[1:]:
        predicted = r0.max_residual * np.exp(-delta * (r.tau - r0.tau))
        assert predicted / 3.0 <= r.max_residual <= 3.0 * predicted
    # stability plateau on the top half of the sweep
    s_top = [r.stability for r in rep.rows[-2:]]
    assert abs(s_top[1] - s_top[0]) < 0.1 * max(s_top)


def test_dimension_matching_at_large_tau():
    pu, pw = flow_pair()
    ker_u, rep_u = component_kernel(pu)
    ker_w, rep_w = component_kernel(pw)
    glued, cfg = glue(pu, pw, 12.0)
    op = assemble(glued)
    rep = numerical_index(op)
    n_tau = approximate_kernel(ker_u, ker_w, cfg, op)
    assert rep.decisive
    assert rep.dim_ker == len(n_tau) == rep_u.dim_ker + rep_w.dim_ker


def test_control_experiment_kernel_in_complement():
    # leaving a true kernel direction out of N_tau must collapse the constant
    pu, pw = flow_pair()
    ker_u, _ = component_kernel(pu)
    glued, cfg = glue(pu, pw, 12.0)
    op = assemble(glued)
    full = approximate_kernel(ker_u, [], cfg, op)
    partial = approximate_kernel(ker_u[:1], [], cfg, op)
    c_full = stability_constant(op, full)
    c_partial = stability_constant(op, partial)
    assert c_partial < 1e-6
    assert c_full > 1e-2


def restricted_minimum(op, n_tau):
    """Dense reference: min ||D eta|| / ||eta|| over the orthogonal complement
    of N_tau, block by block (QR of the transplants, null_space, dense SVD)."""
    by_mode = {}
    for k, v in n_tau:
        by_mode.setdefault(k, []).append(v)
    best = np.inf
    for b in op.blocks:
        T = b.matrix
        if b.k in by_mode:
            Q, _ = np.linalg.qr(np.stack(by_mode[b.k], axis=1))
            T = T @ scipy.linalg.null_space(Q.conj().T)
        if T.shape[1] > T.shape[0]:
            return 0.0
        sv = np.linalg.svd(T, compute_uv=False)
        if len(sv):
            best = min(best, float(sv[-1]))
    return best


# ROADMAP item 2's cases A-D, and E, whose square block k=0 carries a
# transplant beyond its structural zeros: (u weights, u shifts), (w weights, w shifts)
SHIFTED_CASES = {
    "A": (((1.0, 1.0), (2, 0)), ((-1.0, 1.0), (0, 1))),
    "B": (((1.0, -1.0), (1, 0)), ((1.0, -1.0), (0, 2))),
    "C": (((1.0, 1.0), (2, 0)), ((-1.0, 1.0), (0, 2))),
    "D": (((1.0, 1.0), (0, 0)), ((-1.0, 1.0), (0, 0))),
    "E": (((1.0, 1.0), (0, 0)), ((-1.0, -1.0), (0, 0))),
}


@pytest.mark.parametrize("case", ["flow_pair", "A", "B", "C", "D", "E"])
def test_stability_constant_bounds_the_restricted_minimum(case):
    # Courant-Fischer: the restricted minimum is at most sigma_{a+1}; they
    # part at second order in the transplant error
    if case == "flow_pair":
        pu, pw = flow_pair()
    else:
        pu, pw = (build_trivial_cylinder(*side, truncation=TRUNC) for side in SHIFTED_CASES[case])
    ker_u, _ = component_kernel(pu)
    ker_w, _ = component_kernel(pw)
    for tau in (6.0, 10.0, 14.0):
        glued, cfg = glue(pu, pw, tau)
        op = assemble(glued)
        n_tau = approximate_kernel(ker_u, ker_w, cfg, op)
        sigma, restricted = stability_constant(op, n_tau), restricted_minimum(op, n_tau)
        residual = max(transplant_residuals(op, n_tau), default=0.0)
        # computed values carry an absolute rounding error of order eps sigma_max
        assert restricted <= sigma * (1 + 1e-9) + np.finfo(float).eps * op.sigma_max()
        if case == "A":
            assert max(sigma, restricted) < 1e-12
        elif case in ("flow_pair", "B"):
            assert abs(sigma - restricted) <= residual ** 2 * sigma
        else:
            assert abs(sigma - restricted) <= 1e-10 * sigma
        if case == "B":
            # the transplants miss the glued kernel: the restricted minimum
            # collapses, sigma_{a+1} does not, and only the residual says so
            assert restricted < 1e-8 and sigma > 0.5 and residual > 1.0


def test_augmented_component_transplants_decay_at_weight_rate():
    # m = 2, n = 0: the augmented component's kernel fields carry a rate-delta
    # tail into the seam (growth weight at its shared end), so the cutoffs
    # produce residuals ~ e^{-delta rho}.  Grids are node-aligned (spacing
    # 1/4, tau a multiple of it) so the transplant is an exact node copy and
    # the outer shift columns cancel across grids.
    delta = 1.0
    pu = build_trivial_cylinder((delta, -delta), (2, 0), truncation=TRUNC)
    pw = build_trivial_cylinder((delta, -delta), truncation=TRUNC)
    comp_grid = GridSpec(97, 32)
    ker_u, rep_u = component_kernel(pu, comp_grid)
    ker_w, rep_w = component_kernel(pw, comp_grid)
    assert (rep_u.dim_ker, rep_w.dim_ker) == (2, 0)
    res = {}
    for tau in (6.0, 8.0, 10.0):
        glued, cfg = glue(pu, pw, tau)
        op = assemble(glued, GridSpec(int(8 * (tau + 12)) + 1, 32))
        rep = numerical_index(op)
        assert rep.index == rep_u.index + rep_w.index == 2
        n_tau = approximate_kernel(ker_u, ker_w, cfg, op)
        assert len(n_tau) == 2
        res[tau] = max(transplant_residuals(op, n_tau))
    for t0, t1 in ((6.0, 8.0), (8.0, 10.0)):
        ratio = res[t1] / res[t0]
        predicted = np.exp(-delta * (t1 - t0))
        assert predicted / 3.0 <= ratio <= 3.0 * predicted


def test_each_block_is_decomposed_at_most_once_per_gluing_pass(monkeypatch):
    pu, pw = flow_pair()
    ops, kernels = [], []
    real_svd, real_assemble, real_approx = np.linalg.svd, gluing.assemble, gluing.approximate_kernel
    real_banded, real_null_space = assemble_module._banded_singular_values, scipy.linalg.null_space
    calls, banded, null_spaces = [], [], []

    def svd(a, *args, **kwargs):
        calls.append((a, kwargs.get("compute_uv", True)))
        return real_svd(a, *args, **kwargs)

    def assemble_spy(*args, **kwargs):
        ops.append(real_assemble(*args, **kwargs))
        return ops[-1]

    def approx_spy(*args, **kwargs):
        kernels.append(real_approx(*args, **kwargs))
        return kernels[-1]

    def banded_spy(b, ab):
        found = real_banded(b, ab)
        if found is not None:
            banded.append(id(b.matrix))
        return found

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(scipy.linalg, "null_space", 
                        lambda *a, **k: null_spaces.append(a) or real_null_space(*a, **k))
    monkeypatch.setattr(assemble_module, "_banded_singular_values", banded_spy)
    monkeypatch.setattr(gluing, "assemble", assemble_spy)
    monkeypatch.setattr(gluing, "approximate_kernel", approx_spy)
    rep = verify_additivity(pu, pw, (8.0, 12.0))
    monkeypatch.undo()
    assert rep.passed

    block_ids = [id(b.matrix) for op in ops for b in op.blocks]
    values_only = [id(a) for a, uv in calls if not uv and id(a) in block_ids]
    full = [a for a, uv in calls if uv]
    # the stability constant reads the blocks' own values: no restricted matrix
    assert all(id(a) in block_ids for a, uv in calls if not uv)
    assert null_spaces == []
    # every assembled block: at most one decomposition, banded or values-only
    # dense; every other block is certified or given its smallest values by
    # the partial route, and neither is decomposed
    decomposed = values_only + banded
    assert len(set(decomposed)) == len(decomposed)
    certified = [(op, i) for op in ops for i in range(len(op.blocks))
                 if op.known_values(i) is None]
    partial = [(op, i) for op in ops for i, ev in enumerate(op._evidence)
               if ev is not None and ev.bound < np.inf and len(ev.values)]
    assert all(id(op.blocks[i].matrix) not in decomposed for op, i in certified + partial)
    assert len(decomposed) + len(partial) + len(certified) == len(block_ids)
    assert certified and partial
    # a certified block's values lie strictly between its floor and sigma_max:
    # its floor answers every value its operator's report read
    for op, i in certified:
        sv = np.linalg.svd(op.blocks[i].matrix, compute_uv=False)
        reported = max(numerical_index(op).singular_values)
        assert len(op.values_below(i, reported)) == 0
        assert reported < sv[-1] and sv[0] < op.sigma_max()

    def rank_deficient(op):
        svs = [np.linalg.svd(b.matrix, compute_uv=False) for b in op.blocks]
        theta = 1e-6 * max(sv.max() for sv in svs)
        return sum((sv >= theta).sum() < b.matrix.shape[1] for b, sv in zip(op.blocks, svs))

    deficient = sum(rank_deficient(op) for op in ops[:2])      # the two components
    carrying = sum(len({k for k, _ in n_tau}) for n_tau in kernels)
    assert deficient >= 1 and carrying >= 1
    # the kernel directions come from the partial route's Ritz vectors
    assert full == []


@pytest.mark.parametrize("problem", [
    flow_pair()[0],
    flow_pair()[1],
    build_trivial_cylinder((1.0, -1.0), (2, 0), truncation=TRUNC),
], ids=["flow_u", "flow_w", "augmented"])
def test_kernel_vectors_match_full_svd_reference(problem):
    # the directions come from the partial route, not the full SVD: the same
    # subspace within an angle of 1e-8, in orthonormal columns
    op = assemble(problem)
    rep = numerical_index(op)
    found = kernel_vectors(op, rep.threshold)
    pieces = {id(b): V for b, V in found}
    for b in op.blocks:
        _, sv, Vh = np.linalg.svd(b.matrix)
        rank = int((sv >= rep.threshold).sum())
        if rank < b.matrix.shape[1]:
            assert subspace_sine(pieces[id(b)], Vh[rank:].conj().T) <= 1e-8
        else:
            assert id(b) not in pieces
    assert sum(b.mult * V.shape[1] for b, V in found) == rep.dim_ker


def subspace_sine(V, ref):
    """Sine of the largest principal angle between the column spans of V and
    of the orthonormal ``ref``, with V's columns orthonormal too."""
    assert V.shape == ref.shape
    np.testing.assert_allclose(V.conj().T @ V, np.eye(V.shape[1]), atol=1e-12)
    return float(np.linalg.norm(V - ref @ (ref.conj().T @ V), 2))


def test_reduced_glued_transplant_keeps_params_in_own_columns():
    # u's negative end carries one shift, w's positive end two: the glued
    # problem has the reduced pattern {1, 2} and a shared angular column
    pu = build_trivial_cylinder((1.0, -1.0), (1, 0), truncation=TRUNC)
    pw = build_trivial_cylinder((1.0, -1.0), (0, 2), truncation=TRUNC)
    comp_grid = GridSpec(97, 32)
    ker_u, _ = component_kernel(pu, comp_grid)
    ker_w, _ = component_kernel(pw, comp_grid)
    res_u = {}
    for tau in (6.0, 8.0):
        glued, cfg = glue(pu, pw, tau)
        assert glued.reduced_shifts
        layout = augmentation_layout(glued)
        op = assemble(glued, GridSpec(int(8 * (tau + 12)) + 1, 32))
        n_tau = approximate_kernel(ker_u, ker_w, cfg, op)
        assert len(n_tau) == len(ker_u) + len(ker_w)
        N = op.grid[0]
        for i, (_, v) in enumerate(n_tau):
            own = "negative" if i < len(ker_u) else "positive"
            keys = {layout[j] for j in np.flatnonzero(v[2 * N:])}
            assert all(end == own for end, _ in keys)
            if own == "negative":
                assert keys == {("negative", 0)}
        res_u[tau] = transplant_residuals(op, n_tau)[0]
    # with the a-shift in its own column, u's transplant decays like e^{-delta rho}
    predicted = np.exp(-1.0 * 2.0)
    assert predicted / 3.0 <= res_u[8.0] / res_u[6.0] <= 3.0 * predicted
