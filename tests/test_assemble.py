"""Discretization properties: conjugation, boundary rows, augmentation, locality."""

import importlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import SIGNED_WEIGHTS, SYMMETRIC_2X2, clear_of_walls, t_dependent_copy
from hypothesis import given, settings
from hypothesis import strategies as st

from crlab.assemble import (
    ModeBlock,
    _fd_operators,
    _stencil_rows,
    _stencil_starts,
    assemble,
    augmentation_layout,
    fd_operators,
    fornberg_weights,
    required_s_nodes,
)
from crlab.exceptions import (
    AssemblyError,
    CoefficientError,
    FredholmWeightError,
    ResolutionError,
)
from crlab.indexing import analytic_index, index_of, numerical_index
from crlab.loops import LoopOperatorSpec, standard_j
from crlab.problems import (
    CRProblem,
    EndSpec,
    GridSpec,
    Truncation,
    build_contact_fiber_cylinder,
    build_plane,
    build_trivial_cylinder,
    default_grid_for,
)
from crlab.profiles import smoothstep


def test_fornberg_weights_differentiate_polynomials():
    nodes = np.linspace(-1.2, 0.7, 8)
    c = fornberg_weights(0.13, nodes, 1)
    for p in range(8):
        assert abs(c[:, 0] @ nodes**p - 0.13**p) < 1e-11
        want = p * 0.13 ** (p - 1) if p else 0.0
        assert abs(c[:, 1] @ nodes**p - want) < 1e-10


def _scalar_fornberg(x0, nodes, max_order):
    """Fornberg's recurrence on Python floats, one point at a time: the reference."""
    n = len(nodes)
    c = np.zeros((n, max_order + 1))
    c1, c4 = 1.0, nodes[0] - x0
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, max_order)
        c2, c5, c4 = 1.0, c4, nodes[i] - x0
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


@pytest.mark.parametrize("N", [96, 192, 384, 12288])
def test_fornberg_weights_over_rows_match_the_scalar_recurrence(N):
    # the stencil bands, their first nodes, and weights at off-grid points,
    # byte for byte; at 12288 nodes rounding in the start rule's floor could first show
    D, P, s, mids = fd_operators(-12.0, 12.0, N)
    first = np.clip(np.arange(N - 1) - 3, 0, N - 8)
    assert np.array_equal(_stencil_starts(s, mids), first)
    ref = [_scalar_fornberg(float(m), [float(x) for x in s[w:w + 8]], 1) for m, w in zip(mids, first)]
    assert D.tobytes() == np.stack([c[:, 1] for c in ref]).tobytes()
    assert P.tobytes() == np.stack([c[:, 0] for c in ref]).tobytes()
    x = np.random.default_rng(N).uniform(s[0], s[-1], 40)
    starts = np.clip(np.floor((x - s[0]) / (s[1] - s[0])).astype(int) - 3, 0, N - 8)
    assert np.array_equal(_stencil_starts(s, x), starts)
    nodes = s[starts[:, None] + np.arange(8)]
    batch = fornberg_weights(x, nodes, 0)
    assert batch.shape == (40, 8, 1)
    assert batch.tobytes() == np.stack([_scalar_fornberg(float(a), [float(v) for v in row], 0)
                                        for a, row in zip(x, nodes)]).tobytes()


def test_stencils_stay_local():
    # one 8-node band row per midpoint, on 8 consecutive nodes around it:
    # centred where the grid allows, shifted but never widened at the edges
    for N in (9, 96):
        D, P, s, mids = fd_operators(-12.0, 12.0, N)
        assert D.shape == P.shape == (N - 1, 8)
        first = _stencil_starts(s, mids)
        assert first.min() == 0 and first.max() == N - 8
        assert (s[first] < mids).all() and (mids < s[first + 7]).all()
        inner = (first > 0) & (first < N - 8)
        assert np.allclose(mids[inner], 0.5 * (s[first + 3] + s[first + 4])[inner],
                           rtol=0, atol=1e-12)
        assert set(np.diff(first)) <= {0, 1}


def _dense_stencils(D, P, s, mids):
    """``fd_operators``' bands written out as the dense (N-1) x N matrices."""
    N = len(s)
    rows = np.arange(N - 1)[:, None]
    cols = np.clip(np.arange(N - 1) - 3, 0, N - 8)[:, None] + np.arange(8)
    dense = np.zeros((2, N - 1, N))
    dense[0][rows, cols], dense[1][rows, cols] = D, P
    return dense


def test_cached_stencils_are_read_only():
    D, P, s, mids = fd_operators(-12.0, 12.0, 96)
    assert fd_operators(-12.0, 12.0, 96)[0] is D
    for a in (D, P, s, mids):
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_stencils_and_assembly_take_memory_linear_in_the_s_nodes():
    # no (N-1) x N stencil matrix on the way: at 3072 nodes one would take
    # 75 MB; the grid is cleared from the cache so that its stencils are built
    problem = build_contact_fiber_cylinder(_S1, _S1)
    peaks = []
    tracemalloc.start()
    try:
        for build in (lambda: fd_operators(-12.0, 12.0, 3072),
                      lambda: assemble(problem, GridSpec(3072, 8))):
            _fd_operators.cache_clear()
            tracemalloc.reset_peak()
            build()
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[0] < 2 * 2**20
    assert peaks[1] < 20 * 2**20


def test_weight_conjugation_equals_shifted_asymptotics():
    # a mixed-sign weight has a linear profile, so conjugation is exactly a
    # constant shift of the coefficient: assembling (S, weights (-d, +d)) must
    # equal assembling (S - d, weights 0) entry for entry
    S = LoopOperatorSpec(dim=2, coeff=np.diag([2.0, 2.0]))
    Sm = LoopOperatorSpec(dim=2, coeff=np.diag([1.5, 1.5]))
    p1 = build_contact_fiber_cylinder(S, S, weights=(-0.5, 0.5))
    p2 = build_contact_fiber_cylinder(Sm, Sm, weights=(0.0, 0.0))
    op1 = assemble(p1)
    op2 = assemble(p2)
    assert len(op1.blocks) == len(op2.blocks)
    for b1, b2 in zip(op1.blocks, op2.blocks):
        assert b1.matrix.shape == b2.matrix.shape
        assert np.abs(b1.matrix - b2.matrix).max() < 1e-10


def test_doubling_t_nodes_keeps_index():
    p = build_trivial_cylinder((1.0, 1.0))
    r1 = index_of(p, GridSpec(96, 32))
    r2 = index_of(p, GridSpec(96, 64))
    assert r1.index == r2.index == -2


def test_augmentation_column_counts():
    for sd, want in (((2, 2), 4), ((2, 1), 3), ((1, 2), 3), ((0, 2), 2), ((0, 0), 0)):
        p = build_trivial_cylinder((1.0, 1.0), sd)
        op = assemble(p)
        assert sum(b.aug_cols for b in op.blocks) == want
    op = assemble(build_plane(1.0, 2))
    assert sum(b.aug_cols for b in op.blocks) == 2


def _shift_column_key(column, mids, nfield):
    """(end, component) of an assembled shift column, read off its support:
    the component from the residual rows it fills, the end from the sign of
    the collocation midpoints where it is nonzero (both signs: shared)."""
    rows = np.flatnonzero(np.abs(column) > 1e-8 * np.abs(column).max())
    npde = len(mids) * nfield
    assert rows.max() < npde, "shift columns live in the PDE rows only"
    node, comp = rows // nfield, rows % nfield       # rows node-major, field-minor
    assert len(set(comp)) == 1
    signs = set(np.sign(mids[node]))
    end = {frozenset({1.0}): "positive", frozenset({-1.0}): "negative",
           frozenset({-1.0, 1.0}): "shared"}[frozenset(signs)]
    return end, int(comp[0])


@pytest.mark.parametrize("backend", ["decoupled", "coupled"])
def test_augmentation_layout_matches_assembled_columns(backend):
    # "coupled" assembles a t-dependent copy of each problem as one block
    trunc = Truncation(s_max=6.0, n_prime=2.0)
    grid = GridSpec(48, 8)
    problems = [build_trivial_cylinder((1.0, 1.0), sd, truncation=trunc)
                for sd in ((2, 2), (1, 2), (2, 1), (1, 0), (0, 2), (2, 0), (0, 1), (0, 0))]
    problems += [build_plane(1.0, sd, truncation=trunc) for sd in (1, 2)]
    for p in problems:
        layout = augmentation_layout(p)
        op = assemble(p if backend == "decoupled" else t_dependent_copy(p), grid)
        block = next(b for b in op.blocks if b.k in (0, None))
        assert block.aug_cols == len(layout) == p.augmentation_dims
        _, _, _, mids = fd_operators(p.s_lo, trunc.s_max, grid.s_nodes)
        nfield = block.pde_rows // len(mids)
        cols = block.matrix[:, block.matrix.shape[1] - block.aug_cols:]
        got = [_shift_column_key(cols[:, j], mids, nfield) for j in range(cols.shape[1])]
        assert got == layout, (p.ends, backend)
    reduced = build_trivial_cylinder((1.0, 1.0), (2, 1), truncation=trunc)
    assert augmentation_layout(reduced) == [("positive", 0), ("negative", 0), ("shared", 1)]


def test_row_and_column_bookkeeping():
    p = build_trivial_cylinder((1.0, 1.0), (2, 2))
    op = assemble(p)
    assert op.cols - op.rows == op.index_candidate == 2
    assert 0 < sum(b.mult * b.pde_rows for b in op.blocks) < op.rows
    rep = numerical_index(op)
    assert rep.index == op.index_candidate


def test_end_locality_of_coefficient_changes():
    # changing the coefficient inside |s| <= n' must not touch any matrix
    # row collocated beyond n' + 1
    S0 = LoopOperatorSpec(dim=2, coeff=np.diag([1.0, 1.0]))
    S1 = LoopOperatorSpec(dim=2, coeff=np.diag([2.0, 2.0]))
    p1 = build_contact_fiber_cylinder(S0, S1)
    npr = p1.truncation.n_prime

    def bumped(s):
        # u (1 - u) vanishes identically outside |s| <= n'
        u = smoothstep((np.asarray(s) + npr) / (2.0 * npr))
        return p1.coefficient(s) + u * (1.0 - u) * np.diag([1.0, -1.0])

    p2 = replace(p1, coeff_s=bumped)
    op1, op2 = assemble(p1), assemble(p2)
    changed = 0
    _, _, s, mids = fd_operators(p1.s_lo, p1.truncation.s_max, op1.grid[0])
    F = 2
    for b1, b2 in zip(op1.blocks, op2.blocks):
        diff = np.abs(b1.matrix - b2.matrix).max(axis=1)
        pde = b1.pde_rows
        rows_changed = np.flatnonzero(diff[:pde] > 1e-14)
        if len(rows_changed):
            assert np.abs(mids[rows_changed // F]).max() <= npr + 1.0
        changed += len(rows_changed)
        assert np.abs(diff[pde:]).max() <= 1e-14   # boundary rows untouched
    assert changed


def test_cap_condition_matches_laurent_oracle():
    # oracle: monomials z^m, m >= 0, are weight-admissible iff 2 pi m + delta < 0
    from crlab.assemble import required_s_nodes
    for delta in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
        admissible = [m for m in range(0, 4) if 2.0 * np.pi * m + delta < 0]
        p = build_plane(delta)
        rep = index_of(p, GridSpec(required_s_nodes(p), 32))
        assert rep.dim_ker == 2 * len(admissible)


_SMALL = Truncation(6.0, 3.0)
_S1 = LoopOperatorSpec(dim=2, coeff=np.diag([1.0, 1.0]))
_BACKEND_CASES = {
    "contact": build_contact_fiber_cylinder(_S1, _S1, truncation=_SMALL),
    **{f"plane{w:+g}_sd{sd}": build_plane(w, sd, truncation=_SMALL)
       for w in (1.0, -1.0) for sd in (0, 1, 2)},
    **{f"cylinder{w}_sd{sd}": build_trivial_cylinder(w, sd, truncation=_SMALL)
       for w, sd in (((1.0, 1.0), (2, 2)), ((1.0, 1.0), (1, 2)), ((1.0, -1.0), (2, 0)))},
}


@pytest.mark.parametrize("p", _BACKEND_CASES.values(), ids=_BACKEND_CASES.keys())
def test_full_and_decoupled_backends_agree(p):
    # capped planes and shift columns included: the coupled backend realizes
    # the cap and the augmentation in the trig basis, the decoupled per mode
    grid = GridSpec(48, 16)
    rep_d = index_of(p, grid)
    rep_c = index_of(t_dependent_copy(p), grid)
    assert (rep_c.index, rep_c.dim_ker, rep_c.dim_coker, rep_c.decisive) == \
        (rep_d.index, rep_d.dim_ker, rep_d.dim_coker, rep_d.decisive)
    assert rep_d.index == analytic_index(p)
    assert analytic_index(t_dependent_copy(p)) == rep_c.index
    assert abs(rep_d.sigma_max - rep_c.sigma_max) < 1e-8 * rep_d.sigma_max
    assert np.allclose(rep_c.singular_values, rep_d.singular_values, rtol=0, atol=1e-8)
    assert abs(rep_d.min_singular_value - rep_c.min_singular_value) < 1e-8


@pytest.mark.parametrize("F", [1, 2, 4])
@pytest.mark.parametrize("dtype", [float, complex])
def test_stencil_rows_match_dense_formula(F, dtype):
    # byte for byte, signed zeros included: the rank decisions downstream
    # read the signs through LAPACK's Householder reflections
    rng = np.random.default_rng(F)
    stencil = fd_operators(-3.0, 3.0, 24)
    D, P = _dense_stencils(*stencil)
    C = rng.normal(size=(23, F, F)).astype(dtype)
    if dtype is complex:
        C += 1j * rng.normal(size=C.shape)
    C[::3] = 0.0
    C[1::5] = -0.0
    dense = (np.einsum("ij,fg->ifjg", D, np.eye(F)).astype(dtype)
             + np.einsum("ij,ifg->ifjg", P, C)).reshape(23 * F, 24 * F)
    windows, starts = _stencil_rows(stencil, C)
    assert windows.dtype == dense.dtype and windows.shape == (23 * F, 8 * F)
    M = np.zeros_like(dense)
    M[np.arange(23 * F)[:, None], starts[:, None] + np.arange(8 * F)] = windows
    assert M.tobytes() == dense.tobytes()


def _dense_contact_block(p, grid, k):
    """Contact mode k written out densely from the formulas: the stencil rows
    of d/ds + 2 pi i k J + B - w', then the negative-end and the positive-end
    spectral rows at the first and last node."""
    F = p.fiber_dim
    stencil = fd_operators(p.s_lo, p.truncation.s_max, grid.s_nodes)
    (D, P), (s, mids) = _dense_stencils(*stencil), stencil[2:]
    N, prof, eye = len(s), p.weight_profile(), np.eye(F)
    base = (2.0j * np.pi * k * standard_j(F)).astype(complex) if k else np.zeros((F, F))
    C = (base + np.array([p.coefficient(m) for m in mids])
         - prof.wprime(mids)[:, None, None] * eye)
    rows = [(np.einsum("ij,fg->ifjg", D, eye).astype(C.dtype)
             + np.einsum("ij,ifg->ifjg", P, C)).reshape((N - 1) * F, N * F)]
    for end, node, s_end in ((p.negative_end, 0, p.s_lo),
                             (p.positive_end, N - 1, p.truncation.s_max)):
        A = base + end.asymptotic.constant_matrix() - float(prof.wprime(s_end)) * eye
        lam, V = np.linalg.eigh(A)
        sel = lam > 0 if end.sign == "negative" else lam < 0
        r = np.zeros((int(sel.sum()), N * F), dtype=A.dtype)
        r[:, node * F:(node + 1) * F] = 1.0 / np.sqrt(s[1] - s[0]) * V[:, sel].conj().T
        rows.append(r)
    return np.vstack(rows)


def test_materialized_block_is_the_dense_layout():
    # byte for byte: stencil rows, negative-end rows, positive-end rows
    S = LoopOperatorSpec(dim=2, coeff=np.diag([-2.0, 3.0]))
    p = build_contact_fiber_cylinder(S, _S1, weights=(1.0, 0.5))
    grid = GridSpec(64, 8)
    op = assemble(p, grid)
    for b in op.blocks:
        assert b.windows is not None and b.starts[b.pde_rows] == 0   # negative-end rows
        dense = _dense_contact_block(p, grid, b.k)
        assert b.shape == dense.shape
        assert b.matrix.dtype == dense.dtype and b.matrix.tobytes() == dense.tobytes()


def _glued_flow_pair():
    from crlab.gluing import glue
    from test_gluing import flow_pair
    return glue(*flow_pair(), 6.0)[0], GridSpec(144, 8)


@pytest.mark.parametrize("make_case", [
    lambda: (build_trivial_cylinder((1.0, 1.0)), GridSpec(96, 8)),
    lambda: (build_contact_fiber_cylinder(LoopOperatorSpec(dim=2, coeff=np.diag([-2.0, 3.0])),
                                          _S1, weights=(1.0, 0.5)), GridSpec(64, 8)),
    # modes k < 0 store a disk-cap row last and no positive-end row
    lambda: (build_plane(-1.0), GridSpec(96, 8)),
    _glued_flow_pair,
], ids=["trivial_cylinder", "contact_cylinder", "plane_growth", "glued"])
def test_row_windows_are_the_rows_of_the_dense_view(make_case):
    op = assemble(*make_case())
    windowed = [b for b in op.blocks if b.windows is not None]
    assert windowed
    for b in windowed:
        assert b.shape == b.matrix.shape
        w = b.windows.shape[1]
        for r, start in enumerate(b.starts):
            assert np.array_equal(b.windows[r], b.matrix[r, start:start + w]), (b.tag, r)


def test_dense_view_is_materialized_once(monkeypatch):
    # the package's ``assemble`` attribute is the function, not the module
    assemble_module = importlib.import_module("crlab.assemble")
    calls = []
    real = assemble_module._materialize

    def spy(b):
        calls.append(b)
        return real(b)

    monkeypatch.setattr(assemble_module, "_materialize", spy)
    b = assemble(build_contact_fiber_cylinder(_S1, _S1), GridSpec(64, 8)).blocks[1]
    assert b.shape == (128, 128) and b.mult == 2
    assert calls == []
    assert b.matrix is b.matrix
    assert calls == [b]


@pytest.mark.parametrize("shifts", [(0, 0), (2, 0)], ids=["row_windows", "bordered"])
def test_block_product_matches_the_dense_view(monkeypatch, shifts):
    # M v from the row windows and the border of shift columns, in the dense
    # view's row order, never materialized
    assemble_module = importlib.import_module("crlab.assemble")
    op = assemble(build_trivial_cylinder((1.0, 1.0), shifts), GridSpec(64, 8))
    rng = np.random.default_rng(0)
    vs = [rng.standard_normal(b.shape[1]) + 1j * rng.standard_normal(b.shape[1])
          for b in op.blocks]
    monkeypatch.setattr(assemble_module, "_materialize", None)
    products = [b @ v for b, v in zip(op.blocks, vs)]
    monkeypatch.undo()
    assert any(b.border is not None for b in op.blocks) == (shifts != (0, 0))
    for b, v, Mv in zip(op.blocks, vs, products):
        np.testing.assert_allclose(Mv, b.matrix @ v, rtol=0, atol=1e-12 * np.abs(b.matrix).max())


def test_block_given_a_dense_matrix_is_decided_from_it():
    # block k=1 with row 0 tripled, placed in copies of an operator whose rank
    # is already decided: a copy must not read the original's evidence
    op = assemble(build_contact_fiber_cylinder(_S1, _S1), GridSpec(64, 8))
    numerical_index(op)
    b = op.blocks[1]
    M = b.matrix.copy()
    M[0] *= 3.0
    given = [replace(b, dense=M, windows=None, starts=None),
             ModeBlock(k=b.k, mult=b.mult, pde_rows=b.pde_rows, dense=M)]
    for g in given:
        assert g.matrix is M and g.windows is None and g.shape == M.shape
        dec = replace(op, blocks=[g])
        assert dec.known_values(0) is None
        assert dec.block_routes() == ["direct_svd"]
        assert np.array_equal(dec.values_below(0, np.inf), np.linalg.svd(M, compute_uv=False))
        assert dec.sigma_max() == dec.values_below(0, np.inf)[0]
    assert b.windows is not None


@pytest.mark.parametrize("storage", ["both", "windows_without_starts", "neither"])
def test_block_takes_exactly_one_storage(storage):
    b = assemble(build_contact_fiber_cylinder(_S1, _S1), GridSpec(64, 8)).blocks[1]
    given = {"both": dict(dense=b.matrix, windows=b.windows, starts=b.starts),
             "windows_without_starts": dict(windows=b.windows),
             "neither": {}}[storage]
    with pytest.raises(ValueError, match="either dense or windows and starts"):
        ModeBlock(k=b.k, mult=b.mult, pde_rows=b.pde_rows, **given)


def test_block_replaced_with_other_windows_is_decided_from_them():
    op = assemble(build_contact_fiber_cylinder(_S1, _S1), GridSpec(64, 8))
    b = op.blocks[1]
    W = 3.0 * b.windows
    g = replace(b, windows=W)
    assert g.windows is W and g.starts is b.starts and g.dense is None
    assert g.gram_terms is None
    assert np.array_equal(g.matrix, 3.0 * b.matrix)
    dec = replace(op, blocks=[g])
    assert dec.block_routes() == ["banded_gram"]
    np.testing.assert_allclose(dec.values_below(0, np.inf),
                               np.linalg.svd(g.matrix, compute_uv=False), rtol=1e-9)


def test_complex_line_coefficient_needs_coeff_st():
    # the decoupled complex-line backend has B = 0 and never reads coeff_s,
    # so a complex-line problem that sets one is refused; the coupled
    # backend honours the same coefficient given as coeff_st
    p = build_trivial_cylinder((1.0, 1.0), truncation=_SMALL)

    def bump(s):
        return np.diag([3.0, -2.0]) * np.exp(-s * s)

    with pytest.raises(CoefficientError, match="coeff_st"):
        replace(p, coeff_s=bump)
    grid = GridSpec(48, 8)
    plain = assemble(t_dependent_copy(p), grid)
    bumped = assemble(replace(p, coeff_st=lambda s, t: bump(s)), grid)
    assert np.abs(bumped.blocks[0].matrix - plain.blocks[0].matrix).max() > 1.0
    assert numerical_index(bumped).index == numerical_index(plain).index == analytic_index(p)


def test_contact_fiber_plane_rejected():
    with pytest.raises(ValueError, match="complex-line"):
        CRProblem(domain_kind="plane", ends=(EndSpec("positive", _S1, 0.5),),
                  fiber="contact_fiber")


def _rotating(t):
    """A rotating coefficient loop: S(t) nondegenerate, genuinely t-dependent."""
    c, s = np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)
    return np.array([[1.0 + 0.3 * c, 0.3 * s], [0.3 * s, 1.0 - 0.3 * c]])


@pytest.mark.parametrize("fiber, neg, pos, weight, message", [
    ("contact_fiber", _S1, LoopOperatorSpec(dim=4, coeff=np.eye(4)), 0.0,
     "asymptotic dimensions differ"),
    ("complex_line", LoopOperatorSpec(dim=2, coeff=np.diag([3.0, 3.0])),
     LoopOperatorSpec(dim=2), 1.0, "asymptotic operator is i d/dt"),
    ("contact_fiber", LoopOperatorSpec(dim=2, coeff=_rotating),
     LoopOperatorSpec(dim=2, coeff=_rotating), 0.0, "require an explicit coeff_st"),
], ids=["contact_dims_differ", "complex_line_not_i_d_dt", "t_dependent_ends_without_coefficient"])
def test_problem_rules_hold_at_construction(fiber, neg, pos, weight, message):
    # a problem built directly is held to the rules the builders and the
    # JSON reader meet, before any assembly
    with pytest.raises(CoefficientError, match=message):
        CRProblem(domain_kind="cylinder", fiber=fiber,
                  ends=(EndSpec("negative", neg, weight), EndSpec("positive", pos, weight)))


def test_coupled_backend_handles_t_dependent_coefficients():
    spec = LoopOperatorSpec(dim=2, coeff=_rotating)
    from crlab.problems import CRProblem, EndSpec
    ends = (EndSpec("negative", spec, 0.0, 0), EndSpec("positive", spec, 0.0, 0))

    def coeff_st(s, t):
        return _rotating(t)

    p = CRProblem(domain_kind="cylinder", ends=ends, fiber="contact_fiber",
                  truncation=Truncation(6.0, 3.0), coeff_st=coeff_st)
    rep = index_of(p, GridSpec(48, 16))
    # a constant-in-s nondegenerate coefficient gives an isomorphism
    assert rep.index == 0
    assert rep.dim_ker == 0
    assert rep.min_singular_value > 0.1


def test_non_finite_coefficient_rejected():
    from dataclasses import replace
    S = LoopOperatorSpec(dim=2, coeff=np.diag([1.0, 1.0]))
    p = build_contact_fiber_cylinder(S, S)
    bad = replace(p, coeff_s=lambda s: np.full((2, 2), np.nan))
    with pytest.raises((AssemblyError, CoefficientError)):
        assemble(bad)


def test_resolution_guard():
    p = build_trivial_cylinder((2.5, 2.5))
    with pytest.raises(ResolutionError):
        assemble(p, GridSpec(64, 32))


def test_weight_guards():
    with pytest.raises(FredholmWeightError):
        build_trivial_cylinder((7.0, 1.0))
    with pytest.raises(FredholmWeightError):
        build_trivial_cylinder((0.0, 1.0))
    S = LoopOperatorSpec(dim=2, coeff=np.diag([1.0, 1.0]))
    # a weight sitting exactly on an asymptotic eigenvalue breaks Fredholmness
    with pytest.raises(FredholmWeightError):
        build_contact_fiber_cylinder(S, S, weights=(0.0, 1.0))
    # beyond the spectral gap is fine as long as the spectrum is avoided
    build_contact_fiber_cylinder(S, S, weights=(0.0, 1.5))


def test_degenerate_contact_end_rejected():
    from crlab.exceptions import DegenerateEndError
    S_ok = LoopOperatorSpec(dim=2, coeff=np.diag([1.0, 1.0]))
    with pytest.raises(DegenerateEndError):
        build_contact_fiber_cylinder(LoopOperatorSpec(dim=2), S_ok)


def test_transpose_swaps_dimensions():
    op = assemble(build_trivial_cylinder((1.0, 1.0)))
    opt = op.transposed()
    assert (opt.rows, opt.cols) == (op.cols, op.rows)
    for i in range(len(op.blocks)):
        assert np.allclose(op.values_below(i, np.inf), opt.values_below(i, np.inf))


def test_matrix_market_export(tmp_path):
    op = assemble(build_trivial_cylinder((1.0, 1.0), truncation=Truncation(6.0, 3.0)),
                  GridSpec(48, 16))
    path = tmp_path / "op.mtx"
    op.export_matrix_market(path)
    from scipy.io import mmread
    M = mmread(str(path))
    assert M.shape == (op.rows, op.cols)


def _glued_contact():
    from crlab.gluing import glue
    trunc = Truncation(12.0, 3.0)
    pu = build_contact_fiber_cylinder(LoopOperatorSpec(dim=2, coeff=np.diag([-2.0, -2.0])),
                                      LoopOperatorSpec(dim=2, coeff=np.eye(2)),
                                      weights=(1.0, 0.5), truncation=trunc)
    pw = build_contact_fiber_cylinder(LoopOperatorSpec(dim=2, coeff=np.eye(2)),
                                      LoopOperatorSpec(dim=2, coeff=np.diag([3.0, 3.0])),
                                      weights=(-0.5, 1.5), truncation=trunc)
    return glue(pu, pw, 6.0)[0]


@pytest.mark.parametrize("make_case", [
    lambda: (build_trivial_cylinder((1.0, 1.0), (2, 2)), GridSpec(96, 8)),
    lambda: (build_contact_fiber_cylinder(*[LoopOperatorSpec(dim=2, coeff=np.eye(2))] * 2),
             GridSpec(96, 16)),
    lambda: (build_plane(1.0, 2), GridSpec(96, 8)),
    lambda: (build_plane(-1.0), GridSpec(96, 8)),
    lambda: (_glued_contact(), GridSpec(144, 16)),
], ids=["trivial_shifted", "contact", "plane_shifted", "plane_growth", "glued"])
def test_matrix_market_bytes_match_the_dense_build(make_case, tmp_path):
    # the CSR matrix is built from the row windows; the reference from each
    # block's dense realified matrix, as the export read it before
    import scipy.sparse as sp
    op = assemble(*make_case())
    assert any(b.windows is not None for b in op.blocks)
    dense = sp.block_diag([sp.csr_matrix(b.realified()) for b in op.blocks], format="csr")
    for got, want in ((op.matrix.indptr, dense.indptr), (op.matrix.indices, dense.indices),
                      (op.matrix.data, dense.data)):
        assert np.array_equal(got, want)
    from scipy.io import mmwrite
    op.export_matrix_market(tmp_path / "windows.mtx")
    mmwrite(str(tmp_path / "dense.mtx"), dense)
    assert (tmp_path / "windows.mtx").read_bytes() == (tmp_path / "dense.mtx").read_bytes()


def test_matrix_market_export_makes_no_block_dense(tmp_path, monkeypatch):
    # criterion 6 at 1536x8: four blocks of 3072 columns, 319k nonzeros; made
    # dense, the blocks alone take 600 MB
    assemble_module = importlib.import_module("crlab.assemble")
    materialized = []
    real = assemble_module._materialize
    monkeypatch.setattr(assemble_module, "_materialize",
                        lambda b: materialized.append(b.tag) or real(b))
    S = LoopOperatorSpec(dim=2, coeff=np.eye(2))
    op = assemble(build_contact_fiber_cylinder(S, S), GridSpec(1536, 8))
    tracemalloc.start()
    try:
        op.export_matrix_market(tmp_path / "op.mtx")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert materialized == []
    assert op.matrix.nnz == 319306
    assert peak < 32 * 2**20


_TINY = Truncation(4.0, 1.0)
# one problem of each kind per example: trivial cylinders with every accepted
# shift pattern, planes with 0 and 2 shifts, and a contact cylinder
BUILT_PROBLEMS = st.tuples(
    *[st.builds(lambda w, sd=sd: build_trivial_cylinder(w, sd, _TINY, label="trivial"),
                st.tuples(SIGNED_WEIGHTS, SIGNED_WEIGHTS))
      for sd in [(0, 0), (2, 2), (1, 2), (2, 1), (2, 0), (0, 2), (1, 0), (0, 1)]],
    *[st.builds(lambda w, sd=sd: build_plane(w, sd, _TINY, label="plane"), SIGNED_WEIGHTS)
      for sd in (0, 2)],
    st.tuples(st.tuples(SYMMETRIC_2X2, SYMMETRIC_2X2),
              st.tuples(*[st.integers(-8, 8).map(lambda n: n / 4.0)] * 2))
    .filter(lambda c: clear_of_walls(*c))
    .map(lambda c: build_contact_fiber_cylinder(
        *(LoopOperatorSpec(dim=2, coeff=S) for S in c[0]), _TINY, c[1], label="contact")),
)


@settings(derandomize=True, deadline=None, max_examples=10)
@given(problems=BUILT_PROBLEMS)
def test_problem_serialization_roundtrip(problems):
    from crlab.problems import problem_from_json
    for p in problems:
        d = p.to_json()
        for ends in (d["ends"], d["ends"][::-1]):     # either end may come first
            q = problem_from_json(dict(d, ends=ends))
            assert q.to_json() == d
        grid = GridSpec(max(required_s_nodes(p), 32), 16)
        assert index_of(q, grid).to_json() == index_of(p, grid).to_json()


def test_problem_with_its_own_coefficient_has_no_json_form():
    from crlab.gluing import glue
    from crlab.problems import problem_from_json
    eye = LoopOperatorSpec(dim=2, coeff=np.eye(2))
    p = build_contact_fiber_cylinder(eye, eye)
    # written in the builder's form, a replaced coeff_s would come back as
    # the builder's ramp, with B(0)[0, 0] = 1.0
    bumped = replace(p, coeff_s=lambda s: (1.0 + np.exp(-s * s)) * np.eye(2))
    assert bumped.coefficient(0.0)[0, 0] == 2.0
    # nor has a t-dependent coefficient or a glued weight profile a JSON form
    t_dependent = replace(p, coeff_st=lambda s, t: np.eye(2))
    glued, _ = glue(p, p, 10.0)
    for refused in (bumped, t_dependent, glued):
        with pytest.raises(CoefficientError):
            refused.to_json()
    # the builder's ramp is the problem's own default, which JSON rebuilds
    assert p.coeff_s is None
    q = problem_from_json(p.to_json())
    for s in np.linspace(-12.0, 12.0, 49):
        assert np.array_equal(q.coefficient(s), p.coefficient(s))


def test_reflected_ramp_is_the_transposed_reflection():
    from crlab.indexing import _reflection
    p = build_contact_fiber_cylinder(
        LoopOperatorSpec(dim=2, coeff=np.array([[1.0, 0.3], [0.3, 2.0]])),
        LoopOperatorSpec(dim=2, coeff=np.diag([-1.0, 3.0])), weights=(0.2, -0.4))
    dual = _reflection(p)
    for s in np.linspace(-12.0, 12.0, 49):
        assert np.allclose(dual.coefficient(s), p.coefficient(-s).T, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("reader, d, key", [
    (EndSpec.from_json, {"sign": "positive", "weight": 1.0, "asymptotic": {"dim": 2},
                         "shiftdims": 2}, "shiftdims"),
    (Truncation.from_json, {"s_max": 12.0, "n_prime": 6.0, "smax": 8.0}, "smax"),
    (GridSpec.from_json, {"s_nodes": 96, "t_nodes": 32, "tnodes": 64}, "tnodes"),
    ("problem", {"labels": "p"}, "labels"),
], ids=["end", "truncation", "grid", "problem"])
def test_problem_readers_refuse_unknown_keys(reader, d, key):
    from crlab.problems import problem_from_json
    if reader == "problem":
        reader, d = problem_from_json, dict(build_plane(1.0).to_json(), **d)
    with pytest.raises(ValueError, match=repr(key)):
        reader(d)


def test_plane_profile_is_exactly_linear():
    for d in (1.0, -1.0):
        p = build_plane(d)
        s = np.linspace(p.s_lo, p.truncation.s_max, default_grid_for(p.truncation).s_nodes)
        prof = p.weight_profile()
        assert np.array_equal(prof.w(s), d * s)
        assert np.array_equal(prof.wprime(s), np.full_like(s, d))


def _end_rows_one_mode(A, keep_positive, first, gamma):
    """One end's boundary rows of one mode, by its own ``np.linalg.eigh``
    call: the rule the stacked call in ``_end_rows`` must reproduce."""
    lam, V = np.linalg.eigh(A)
    sel = lam > 0 if keep_positive else lam < 0
    F = len(A)
    r = np.zeros((int(sel.sum()), 8 * F), dtype=A.dtype)
    r[:, slice(0, F) if first else slice(-F, None)] = gamma * V[:, sel].conj().T
    return r


@settings(derandomize=True, deadline=None, max_examples=10)
@given(problems=BUILT_PROBLEMS, t_nodes=st.sampled_from([8, 16, 32]))
def test_end_rows_of_every_mode_are_the_one_by_one_bytes(problems, t_nodes):
    # the end rows of every assembled block, batched over modes by one stacked
    # eigh per end and dtype, equal byte for byte those of one eigh per mode
    # and end; a plane's disk cap keeps the positive eigenspace of the base
    for p in problems:
        grid = GridSpec(max(required_s_nodes(p), 32), t_nodes)
        op = assemble(p, grid)
        s = fd_operators(p.s_lo, p.truncation.s_max, grid.s_nodes)[2]
        gamma = 1.0 / np.sqrt(s[1] - s[0])
        for b in op.blocks:
            F = b.windows.shape[1] // 8
            if p.fiber == "contact_fiber" and b.k:
                base = (2.0j * np.pi * b.k * standard_j(F)).astype(complex)
            elif p.fiber == "contact_fiber" or b.border is not None:
                base = np.zeros((F, F))
            else:
                base = np.array([[-2.0 * np.pi * b.k]])
            want = []
            for end, first, s_end in ((p.negative_end, True, p.s_lo),
                                      (p.positive_end, False, p.truncation.s_max)):
                if end is None:
                    want.append(_end_rows_one_mode(base, True, first, gamma))
                    continue
                B = end.asymptotic.constant_matrix() if p.fiber == "contact_fiber" else 0.0
                A = base + B - float(p.weight_profile().wprime(s_end)) * np.eye(F)
                want.append(_end_rows_one_mode(A, end.sign == "negative", first, gamma))
            got = b.windows[b.pde_rows:]
            assert got.dtype == want[0].dtype and got.tobytes() == np.vstack(want).tobytes()
