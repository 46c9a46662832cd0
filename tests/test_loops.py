"""Loop operator assembly, spectra, and spectral flow."""

import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    NEAR_COLLISION_ENDPOINTS,
    mode_oracle_eigenvalues,
    oracle_min_abs_eigenvalue,
    random_symmetric,
)

from crlab import problems
from crlab.exceptions import (
    CoefficientError,
    DegenerateEndError,
    ResolutionError,
)
from crlab.loops import (
    DiscreteLoopOperator,
    LoopOperatorSpec,
    _eigenvalues,
    assemble_loop_operator,
    is_nondegenerate,
    linear_path,
    spectral_flow,
    spectrum,
    standard_j,
)

TWO_PI = 2.0 * np.pi


def low_eigs(rep, band):
    return rep.values()[np.abs(rep.values()) < band]


def test_standard_j_block_form():
    J = standard_j(4)
    assert np.allclose(J @ J, -np.eye(4))
    assert np.allclose(J.T, -J)
    e1 = np.eye(4)[0]
    assert np.allclose(J @ e1, np.eye(4)[2])


def test_assembly_is_symmetric_for_loop_coefficients():
    def S(t):
        c, s = np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)
        return np.array([[0.3 + c, 0.2 * s], [0.2 * s, -0.1 + 0.5 * c]])

    op = assemble_loop_operator(LoopOperatorSpec(dim=2, coeff=S), 64)
    assert np.abs(op.matrix - op.matrix.T).max() <= 1e-12


def test_nonsymmetric_coefficient_rejected():
    with pytest.raises(CoefficientError):
        LoopOperatorSpec(dim=2, coeff=np.array([[0.0, 1.0], [0.0, 0.0]]))

    def bad(t):
        return np.array([[0.0, 1.0], [0.0, 0.0]])

    with pytest.raises(CoefficientError):
        assemble_loop_operator(LoopOperatorSpec(dim=2, coeff=bad), 32)


def test_resolution_too_small_rejected():
    with pytest.raises(ResolutionError):
        assemble_loop_operator(LoopOperatorSpec(dim=2), 4)


def test_zero_coefficient_gives_two_pi_lattice():
    rep = spectrum(assemble_loop_operator(LoopOperatorSpec(dim=2), 64))
    # every eigenvalue 2 pi k in the safe band, multiplicity two, near round-off
    for v, m, reliable in rep.eigenvalues:
        if abs(v) < 0.25 * np.pi * 64:
            k = round(v / TWO_PI)
            assert abs(v - TWO_PI * k) < 1e-8
            assert m == 2
            assert reliable
    assert sum(m for _, m, _ in rep.eigenvalues) == rep.raw.size


def test_diag_shift_spectrum_matches_oracle():
    a = 1.0
    S = np.diag([a, a])
    rep = spectrum(assemble_loop_operator(LoopOperatorSpec(dim=2, coeff=S), 64))
    got = low_eigs(rep, 30.0)
    want = mode_oracle_eigenvalues(S)
    want = want[np.abs(want) < 30.0]
    assert got.size == want.size
    assert np.abs(got - want).max() < 1e-8


def test_zero_coefficient_is_degenerate():
    flag, margin = is_nondegenerate(LoopOperatorSpec(dim=2))
    assert not flag
    assert margin < 1e-10


def test_random_constant_coefficients_match_oracle(rng):
    for dim in (2, 4):
        for _ in range(3):
            S = random_symmetric(rng, dim, scale=0.5)
            rep = spectrum(assemble_loop_operator(LoopOperatorSpec(dim=dim, coeff=S), 64))
            got = low_eigs(rep, 20.0)
            want = mode_oracle_eigenvalues(S)
            want = want[np.abs(want) < 20.0]
            assert np.abs(got - want).max() < 1e-8
            # ||S|| < 1 keeps the operator nondegenerate: oracle agrees
            assert oracle_min_abs_eigenvalue(S) > 0
            flag, margin = is_nondegenerate(LoopOperatorSpec(dim=dim, coeff=S))
            assert flag
            assert abs(margin - oracle_min_abs_eigenvalue(S)) < 1e-8


def test_nondegeneracy_margins():
    flag, margin = is_nondegenerate(LoopOperatorSpec(dim=2, coeff=np.diag([1.0, 1.0])))
    assert flag and abs(margin - 1.0) < 1e-8
    flag, margin = is_nondegenerate(
        LoopOperatorSpec(dim=2, coeff=np.diag([TWO_PI, TWO_PI])))
    assert not flag
    assert margin < 1e-7


def test_spectral_flow_constant_path_is_zero():
    spec = LoopOperatorSpec(dim=2, coeff=np.diag([1.0, 1.0]))
    assert spectral_flow(lambda s: spec) == 0


def test_spectral_flow_double_crossing():
    eps = 0.1
    path = linear_path(LoopOperatorSpec(dim=2, coeff=np.diag([-1 + eps, -1 + eps])),
                       LoopOperatorSpec(dim=2, coeff=np.diag([1 + eps, 1 + eps])))
    # both eigenvalues of the k = 0 block cross zero upward near s = 1/2
    assert spectral_flow(path) == 2


def test_spectral_flow_degenerate_endpoint_rejected():
    path = linear_path(LoopOperatorSpec(dim=2), LoopOperatorSpec(dim=2, coeff=np.diag([1.0, 1.0])))
    with pytest.raises(DegenerateEndError):
        spectral_flow(path)


@pytest.mark.parametrize("c, lo, hi, want", [
    (0.0, -1.0, 1.0, 2),                # the kernel of J0 d/dt
    (0.0, 1.0, TWO_PI - 1.0, 0),        # the gap above it
    (1.0, -0.5, 0.5, 0),                # S = I shifts the k = 0 pair to 1
    (1.0, -1.1, 1.1, 2),                # and the window takes it in
    (1.0, -0.5, 1.0 + 1e-6, 2),         # an edge 1e-6 past the pair
    (1.0, 1.0 - 1e-6, 1.5, 2),          # an edge 1e-6 short of it
])
def test_window_count_is_the_flow_across_the_window(c, lo, hi, want):
    # the eigenvalues strictly inside (lo, hi), as reproduce-all and criterion
    # 4 count them, are the flow of A - s from s = hi down to s = lo
    # (A - s is the loop operator of S - s I), edges near an eigenvalue included
    S = c * np.eye(2)
    lam = _eigenvalues(LoopOperatorSpec(dim=2, coeff=S))
    assert int(np.count_nonzero((lam > lo) & (lam < hi))) == want
    path = linear_path(LoopOperatorSpec(dim=2, coeff=S - hi * np.eye(2)),
                       LoopOperatorSpec(dim=2, coeff=S - lo * np.eye(2)))
    assert spectral_flow(path) == want


def _symmetric_matrices(dim):
    # entries in [-6, 6] on a 0.1 grid; the upper triangle is mirrored
    upper = np.triu_indices(dim)

    def mirror(vals):
        S = np.zeros((dim, dim))
        S[upper] = np.array(vals) / 10.0
        return (S + np.triu(S, 1).T).tolist()

    n = len(upper[0])
    return st.lists(st.integers(-60, 60), min_size=n, max_size=n).map(mirror)


ENDPOINT_PAIRS = st.sampled_from([2, 4]).flatmap(
    lambda dim: st.tuples(_symmetric_matrices(dim), _symmetric_matrices(dim)))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(pair=ENDPOINT_PAIRS)
@example(pair=NEAR_COLLISION_ENDPOINTS)
def test_spectral_flow_matches_mode_oracle(pair):
    S0, S1 = (np.array(S) for S in pair)
    assume(oracle_min_abs_eigenvalue(S0) >= 0.2 and oracle_min_abs_eigenvalue(S1) >= 0.2)
    dim = S0.shape[0]
    path = linear_path(LoopOperatorSpec(dim=dim, coeff=S0), LoopOperatorSpec(dim=dim, coeff=S1))
    lam0, lam1 = (mode_oracle_eigenvalues(S, kmax=24) for S in (S0, S1))
    want = int(np.count_nonzero(lam0 < 0)) - int(np.count_nonzero(lam1 < 0))
    assert spectral_flow(path) == want


def test_each_loop_operator_is_solved_once(monkeypatch):
    import crlab.loops as loops
    import crlab.problems as problems
    calls = []
    real = loops.assemble_loop_operator

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(loops, "assemble_loop_operator", counting)
    S = LoopOperatorSpec(dim=2, coeff=np.diag([1.0, 1.0]))
    path = linear_path(S, LoopOperatorSpec(dim=2, coeff=np.diag([1.2, 1.2])))
    assert spectral_flow(path) == 0
    assert len(calls) == 2            # the two endpoints, no refinement
    calls.clear()
    problems.EndSpec("positive", S, 0.5).validate_weight("contact_fiber")
    assert len(calls) == 1
    assert S.sup_norm() == np.linalg.norm(np.diag([1.0, 1.0]), 2)


def test_fourier_and_fd_methods_agree_on_low_spectrum():
    def S(t):
        c = np.cos(2 * np.pi * t)
        return np.array([[0.5 + 0.3 * c, 0.1], [0.1, -0.2 + 0.3 * c]])

    spec = LoopOperatorSpec(dim=2, coeff=S)
    n = 32 // 4        # the lowest eigenvalues of the base resolution
    errs = []
    for res in (32, 64):
        rf = spectrum(assemble_loop_operator(spec, res, "fourier"))
        rd = spectrum(assemble_loop_operator(spec, res, "finite_difference"))
        a = rf.values()
        b = rd.values(reliable_only=True)
        a = np.sort(a[np.argsort(np.abs(a))[:n]])
        b = np.sort(b[np.argsort(np.abs(b))[:n]])
        errs.append(np.abs(a - b).max())
    # second-order convergence of the finite-difference cross-check
    assert errs[1] < errs[0] / 2.5
    assert errs[1] < 0.1


def test_spectrum_report_serialization():
    rep = spectrum(assemble_loop_operator(LoopOperatorSpec(dim=2), 32))
    d = rep.to_json()
    assert d["dim"] == 2 and d["method"] == "fourier"
    assert all(set(e) == {"value", "multiplicity", "reliable"} for e in d["eigenvalues"])


def test_band_edge_flagged_unreliable():
    rep = spectrum(assemble_loop_operator(LoopOperatorSpec(dim=2), 32))
    band = 0.5 * np.pi * rep.t_resolution
    flags = [(abs(v) <= band) == r for v, m, r in rep.eigenvalues]
    assert all(flags)
    assert any(not r for _, _, r in rep.eigenvalues)


def test_spec_json_roundtrip():
    spec = LoopOperatorSpec(dim=4, coeff=np.diag([1.0, 2.0, 1.0, 2.0]))
    back = LoopOperatorSpec.from_json(spec.to_json())
    assert back.dim == 4
    assert np.allclose(back.constant_matrix(), spec.constant_matrix())
    # off-diagonal entries of any size survive, through JSON text, bit for bit
    for S in (np.diag([1.0, 2.0]), np.array([[1.0, 1e-9], [1e-9, 2.0]]),
              np.array([[0.1, 1e-300], [1e-300, 1.0 / 3.0]])):
        d = LoopOperatorSpec(dim=2, coeff=S).to_json()
        assert d["coeff"]["kind"] == ("diag" if S[0, 1] == 0.0 else "constant")
        back = LoopOperatorSpec.from_json(json.loads(json.dumps(d)))
        assert back.constant_matrix().tobytes() == S.tobytes()


def test_spec_from_json_refuses_keys_it_does_not_read():
    with pytest.raises(CoefficientError, match="'extra'"):
        LoopOperatorSpec.from_json({"dim": 2, "extra": 1})
    with pytest.raises(CoefficientError, match="period must be 1"):
        LoopOperatorSpec.from_json({"dim": 2, "period": 2.0})
    with pytest.raises(CoefficientError, match="'value'"):
        LoopOperatorSpec.from_json({"dim": 2, "coeff": {"kind": "zero", "value": 1.0}})
    assert not LoopOperatorSpec.from_json({"dim": 2, "period": 1}).constant_matrix().any()


@pytest.mark.parametrize("coeff, stray", [
    ({"kind": "zero", "values": [5.0, 5.0]}, "values"),
    ({"kind": "zero", "matrix": [[5.0, 0.0], [0.0, 5.0]]}, "matrix"),
    ({"kind": "diag", "values": [1.0, 2.0], "matrix": [[5.0, 0.0], [0.0, 5.0]]}, "matrix"),
    ({"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 2.0]], "values": [5.0, 5.0]}, "values"),
], ids=["zero_values", "zero_matrix", "diag_matrix", "constant_values"])
def test_coefficient_kind_refuses_the_keys_of_other_kinds(coeff, stray):
    with pytest.raises(CoefficientError, match=f"'{coeff['kind']}' coefficient has unknown "
                                               f"key\\(s\\) '{stray}'"):
        LoopOperatorSpec.from_json({"dim": 2, "coeff": coeff})
    own = {k: v for k, v in coeff.items() if k != stray}
    assert LoopOperatorSpec.from_json({"dim": 2, "coeff": own}).to_json()["coeff"] == (
        own if own["kind"] != "constant" else {"kind": "diag", "values": [1.0, 2.0]})


RESOLUTIONS = st.one_of(st.just(8), st.integers(5, 40).map(lambda n: 2 * n),
                        st.integers(4, 40).map(lambda n: 2 * n + 1))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(S=st.sampled_from([2, 4, 6]).flatmap(_symmetric_matrices), res=RESOLUTIONS,
       method=st.sampled_from(["fourier", "finite_difference"]))
def test_mode_eigenvalues_match_the_dense_matrix(S, res, method):
    S = np.array(S)
    op = assemble_loop_operator(LoopOperatorSpec(dim=S.shape[0], coeff=S), res, method)
    assert op.modes is not None and "matrix" not in vars(op)
    got = op.eigenvalues()
    want = np.linalg.eigvalsh(op.matrix)
    scale = 1.0 + float(np.abs(want).max())
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * scale
    # the sign of an eigenvalue at zero is round-off; count where 0 is separated
    if np.abs(want).min() > 1e-12 * scale:
        assert np.count_nonzero(got < 0) == np.count_nonzero(want < 0)
    # the reliability flags read each value's mode; the dense route reads each
    # eigenvector's FFT energy
    dense = DiscreteLoopOperator(spec=op.spec, t_resolution=op.t_resolution, method=method)
    by_modes, by_matrix = spectrum(op).eigenvalues, spectrum(dense).eigenvalues
    assert [(m, r) for _, m, r in by_modes] == [(m, r) for _, m, r in by_matrix]


def _recorded_operators(monkeypatch):
    """Every operator the loop solves assemble from now on, in order."""
    import crlab.loops as loops
    ops = []
    real = loops.assemble_loop_operator

    def recording(*args, **kwargs):
        ops.append(real(*args, **kwargs))
        return ops[-1]

    monkeypatch.setattr(loops, "assemble_loop_operator", recording)
    return ops


def _solve_every_way(spec0, spec1):
    _eigenvalues(spec0)
    assert is_nondegenerate(spec0)[0]
    spectral_flow(lambda s: spec0 if s < 0.5 else spec1)
    problems.EndSpec("positive", spec0, 0.5).validate_weight("contact_fiber")


def test_constant_fourier_solves_read_mode_blocks_only(monkeypatch):
    ops = _recorded_operators(monkeypatch)
    S0, S1 = (np.array(S) for S in NEAR_COLLISION_ENDPOINTS)
    _solve_every_way(LoopOperatorSpec(dim=4, coeff=S0), LoopOperatorSpec(dim=4, coeff=S1))
    assert len(ops) == 5
    assert all(op.modes is not None and "matrix" not in vars(op) for op in ops)


def test_t_dependent_operators_are_dense(monkeypatch):
    def S(t):
        c = np.cos(2 * np.pi * t)
        return np.array([[0.5 + 0.3 * c, 0.1], [0.1, 1.0 + 0.3 * c]])

    ops = _recorded_operators(monkeypatch)
    spec = LoopOperatorSpec(dim=2, coeff=S)
    _solve_every_way(spec, spec)
    assert len(ops) == 5
    assert all(op.modes is None and "matrix" in vars(op) for op in ops)
