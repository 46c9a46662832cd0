"""Acceptance suite: the golden index formulas and property suites at desk scale.

Each test prints one PASS line with its measured quantities; the assertions
pin the exact integers and stated tolerances.
"""

import time

import numpy as np

from conftest import mode_oracle_eigenvalues, random_nondegenerate_symmetric

from crlab.assemble import assemble, kernel_vectors, required_s_nodes
from crlab.dimension import (
    CANONICAL_CASES,
    codimension,
    one_bubble_pair,
    broken_pair,
    multi_end_split_pair,
    double_multi_split_pair,
    randomized_budget_variants,
    smoothing,
)
from crlab.gluing import verify_additivity
from crlab.indexing import adjoint_check, delta_sweep, index_of, numerical_index
from crlab.loops import (
    LoopOperatorSpec,
    assemble_loop_operator,
    spectral_flow,
)
from crlab.problems import (
    GridSpec,
    Truncation,
    build_contact_fiber_cylinder,
    build_plane,
    build_trivial_cylinder,
)

DELTA = 1.0
GRID = GridSpec(96, 32)


def diag_spec(*vals):
    return LoopOperatorSpec(dim=len(vals), coeff=np.diag(vals))


def test_criterion_01_decay_cylinder_index():
    t0 = time.perf_counter()
    rep = index_of(build_trivial_cylinder((DELTA, DELTA)), GRID)
    dt = time.perf_counter() - t0
    assert rep.index == -2
    assert rep.gap_ratio >= 1e3
    assert dt < 10.0
    print(f"PASS criterion 1: decay-weight cylinder index {rep.index} (= 2 - 2 * ends), "
          f"gap_ratio {rep.gap_ratio:.3g}, {dt:.2f}s")


def test_criterion_02_augmented_cylinder():
    t0 = time.perf_counter()
    rep = index_of(build_trivial_cylinder((DELTA, DELTA), (2, 2)), GRID)
    dt = time.perf_counter() - t0
    assert rep.index == 2
    assert rep.dim_coker == 0
    assert dt < 10.0
    print(f"PASS criterion 2: augmented index {rep.index}, coker {rep.dim_coker}, {dt:.2f}s")


def test_criterion_03_mixed_weight_invertibility():
    mins = []
    for s_max in (10.0, 12.0, 16.0):
        p = build_trivial_cylinder((-DELTA, DELTA), truncation=Truncation(s_max, 6.0))
        rep = index_of(p, GridSpec(int(8 * s_max), 32))
        assert rep.index == 0
        mins.append(rep.min_singular_value)
    assert all(m > 0.05 for m in mins)
    assert (max(mins) - min(mins)) < 0.10 * max(mins)
    print(f"PASS criterion 3: mixed-weight index 0, min singular values "
          f"{[round(m, 4) for m in mins]} stable within 10%")


def test_criterion_04_wall_crossing():
    ind_mixed = index_of(build_trivial_cylinder((-DELTA, DELTA)), GRID).index
    ind_decay = index_of(build_trivial_cylinder((DELTA, DELTA)), GRID).index
    lam = assemble_loop_operator(LoopOperatorSpec(dim=2), 64).eigenvalues()
    window = int(np.count_nonzero(np.abs(lam) < DELTA))
    assert ind_mixed - ind_decay == 2 == window
    print(f"PASS criterion 4: {ind_mixed} - ({ind_decay}) = 2 = i(-delta, delta) = {window}")


def test_criterion_05_plane_cases():
    rep_g = index_of(build_plane(-DELTA), GRID)
    assert rep_g.index == 2 and rep_g.dim_ker == 2
    # kernel numerically spanned by the conjugated constants
    op = assemble(build_plane(-DELTA), GRID)
    pieces = kernel_vectors(op, numerical_index(op).threshold)
    s = np.linspace(0.0, 12.0, GRID.s_nodes)
    const = np.exp(-DELTA * s)
    const /= np.linalg.norm(const)
    worst_span = 0.0
    worst_residual = 0.0
    for block, V in pieces:
        assert block.k == 0
        for j in range(V.shape[1]):
            v = V[:, j]
            worst_span = max(worst_span, float(np.linalg.norm(v - (const @ v) * const)))
            worst_residual = max(worst_residual, float(
                np.linalg.norm(block.matrix @ v) / numerical_index(op).sigma_max))
    assert worst_span < 1e-6
    assert worst_residual < 1e-6
    rep_d = index_of(build_plane(DELTA), GRID)
    assert rep_d.index == 0
    rep_a = index_of(build_plane(DELTA, 2), GRID)
    assert rep_a.index == 2
    print(f"PASS criterion 5: plane indices (growth {rep_g.index}, ker {rep_g.dim_ker}, "
          f"span residual {worst_span:.1e}), decay {rep_d.index}, augmented {rep_a.index}")


def test_criterion_06_contact_isomorphism():
    S = diag_spec(1.0, 1.0)
    p = build_contact_fiber_cylinder(S, S)
    mins = []
    for grid in (GridSpec(96, 32), GridSpec(192, 64), GridSpec(384, 64)):
        rep = index_of(p, grid)
        assert rep.index == 0 and rep.dim_ker == 0
        assert rep.min_singular_value > 0.0
        mins.append(rep.min_singular_value)
    assert abs(mins[-1] - mins[-2]) < 0.10 * mins[-1]
    print(f"PASS criterion 6: contact isomorphism, min singular values {[round(m, 4) for m in mins]}")


def test_criterion_07_spectral_flow_contract(rng):
    cases = [(2, -1.5, GridSpec(96, 32)), (2, 0.0, GridSpec(96, 32)),
             (2, 1.5, GridSpec(96, 32)), (4, -1.0, GridSpec(96, 16)),
             (4, 1.0, GridSpec(96, 16))]
    lines = []
    for dim, offset, grid in cases:
        t0 = time.perf_counter()

        def offset_endpoint(shift):
            while True:
                S = random_nondegenerate_symmetric(rng, dim, margin=0.05) + shift * np.eye(dim)
                lam = mode_oracle_eigenvalues(S, kmax=6)
                if np.abs(lam).min() >= 0.2:
                    return S

        S0 = offset_endpoint(offset)
        S1 = offset_endpoint(-offset)
        p = build_contact_fiber_cylinder(LoopOperatorSpec(dim=dim, coeff=S0),
                                         LoopOperatorSpec(dim=dim, coeff=S1))
        rep = index_of(p, grid)

        # the fixed convention: traverse the interpolation path from the
        # positive end to the negative end
        def convention_path(u, p=p, dim=dim):
            s_phys = p.truncation.s_max * (1.0 - 2.0 * u)
            return LoopOperatorSpec(dim=dim, coeff=p.coefficient(s_phys))

        flow = spectral_flow(convention_path)
        dt = time.perf_counter() - t0
        assert rep.index == -flow
        assert dt < 30.0
        lines.append(f"dim {dim}: index {rep.index} == -flow {-flow} ({dt:.1f}s)")
    print("PASS criterion 7: " + "; ".join(lines))


def test_criterion_08_gluing_additivity():
    trunc = Truncation(12.0, 3.0)
    taus = (6.0, 8.0, 10.0, 12.0)
    pairs = [
        # isomorphism pair: empty kernels, plateau check only
        ("iso", 0.5,
         build_contact_fiber_cylinder(diag_spec(1.0, 1.0), diag_spec(1.0, 1.0),
                                      weights=(0.5, 0.5), truncation=trunc),
         build_contact_fiber_cylinder(diag_spec(1.0, 1.0), diag_spec(1.0, 1.0),
                                      weights=(-0.5, 0.5), truncation=trunc), None),
        ("dim2 flow", 0.5,
         build_contact_fiber_cylinder(diag_spec(-2.0, -2.0), diag_spec(1.0, 1.0),
                                      weights=(1.0, 0.5), truncation=trunc),
         build_contact_fiber_cylinder(diag_spec(1.0, 1.0), diag_spec(3.0, 3.0),
                                      weights=(-0.5, 1.5), truncation=trunc), None),
        ("dim4 flow", 0.5,
         build_contact_fiber_cylinder(diag_spec(-1.0, -1.0, -1.0, -1.0),
                                      diag_spec(1.0, 1.0, 1.0, 1.0),
                                      weights=(0.5, 0.5), truncation=trunc),
         build_contact_fiber_cylinder(diag_spec(1.0, 1.0, 1.0, 1.0),
                                      diag_spec(2.0, 2.0, 2.0, 2.0),
                                      weights=(-0.5, 1.0), truncation=trunc),
         GridSpec(96, 16)),
    ]
    for name, delta_shared, pu, pw, comp_grid in pairs:
        rep = verify_additivity(pu, pw, taus, grid=comp_grid)
        assert all(r.decisive for r in rep.rows)
        assert all(r.ind_glued == r.ind_u + r.ind_w for r in rep.rows)
        # stability constant plateaus within 10% over tau in {10, 12}
        s10, s12 = rep.rows[-2].stability, rep.rows[-1].stability
        assert abs(s12 - s10) < 0.10 * max(s12, s10)
        # kernel-transplant residuals decay within factor 3 of e^{-delta rho}
        r0 = rep.rows[0]
        if r0.max_residual > 0:
            for r in rep.rows[1:]:
                predicted = r0.max_residual * np.exp(-delta_shared * (r.tau - r0.tau))
                assert predicted / 3.0 <= r.max_residual <= 3.0 * predicted
        print(f"PASS criterion 8 [{name}]: "
              + ", ".join(f"tau {r.tau:g}: {r.ind_u}+{r.ind_w}={r.ind_glued}"
                          for r in rep.rows)
              + f"; stability ({s10:.3f}, {s12:.3f})")


def test_criterion_09_reduced_shift_nontransversality():
    rep_reduced = index_of(build_trivial_cylinder((DELTA, DELTA), (1, 2)), GRID)
    rep_full = index_of(build_trivial_cylinder((DELTA, DELTA), (2, 2)), GRID)
    assert rep_reduced.index == 1
    assert rep_full.index == 2
    print(f"PASS criterion 9: reduced-space index {rep_reduced.index} vs full {rep_full.index}")


def test_criterion_10_codimension_ladder(rng):
    t0 = time.perf_counter()
    degenerate = {"one_bubble": one_bubble_pair(), "two_level_split": broken_pair(),
                  "multi_end_split": multi_end_split_pair(),
                  "multi_multi_split": double_multi_split_pair()}
    canonical = {case: codimension(g, smoothing(g)) for case, g in degenerate.items()}
    assert canonical == {"one_bubble": 1, "two_level_split": 1,
                         "multi_end_split": 1, "multi_multi_split": 2}
    for case in CANONICAL_CASES:
        for deg, smooth, want in randomized_budget_variants(case, rng, 100):
            assert codimension(deg, smooth) == want
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"PASS criterion 10: codimensions {tuple(canonical.values())}, "
          f"500 randomized variants, {dt:.2f}s")


def test_criterion_11a_sweep_jumps_match_windows(rng):
    trunc = Truncation(8.0, 3.0)
    checked = 0
    for _ in range(20):
        S = random_nondegenerate_symmetric(rng, 2, scale=1.5)
        lam = np.abs(mode_oracle_eigenvalues(S, kmax=4))
        u = np.unique(np.round(np.sort(lam), 9))
        d1 = 0.5 * u[0]
        d2 = 0.5 * (u[0] + u[1])
        spec = LoopOperatorSpec(dim=2, coeff=S)
        signs = rng.choice([-1.0, 1.0], size=2)
        p = build_contact_fiber_cylinder(spec, spec, truncation=trunc,
                                         weights=(signs[0] * d1, signs[1] * d1))
        grid = GridSpec(max(required_s_nodes(p), int(np.ceil(8.0 * d2 / 0.25))),
                        16)
        rep = delta_sweep(p, [d1, d2], grid)
        assert not any(r.skipped for r in rep.rows)
        (lo, hi, jump, crossed) = rep.jumps[0]
        assert jump == crossed
        checked += 1
    print(f"PASS criterion 11a: {checked} randomized sweeps, jumps == crossed multiplicities")


def test_criterion_11b_duality(rng):
    checked = 0
    for _ in range(10):
        dm = float(rng.uniform(0.3, 2.9)) * float(rng.choice([-1.0, 1.0]))
        dp = float(rng.uniform(0.3, 2.9)) * float(rng.choice([-1.0, 1.0]))
        p = build_trivial_cylinder((dm, dp))
        res = adjoint_check(p, GridSpec(required_s_nodes(p), 32))
        assert res["weight_duality"]
        assert res["transpose_antisymmetric"]
        assert res["kernel_cokernel_swap"]
        checked += 1
    print(f"PASS criterion 11b: {checked} randomized weight configurations, "
          "index(problem) == -index(adjoint)")
