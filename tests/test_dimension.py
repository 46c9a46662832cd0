"""Configuration-graph dimension arithmetic and the codimension ladder."""

import numpy as np
import pytest

from crlab.dimension import (
    CANONICAL_CASES,
    Component,
    ConfigurationGraph,
    OrbitLabel,
    aut_minus_moduli,
    codimension,
    component_dim,
    configuration_dim,
    one_bubble_pair,
    broken_pair,
    multi_end_bubble_pair,
    multi_end_split_pair,
    double_multi_split_pair,
    randomized_budget_variants,
    single_cylinder,
    smoothing,
    splice_consistency,
    splice_trivial,
    target_symmetry_count,
    unparameterized_dim,
)
from crlab.exceptions import GraphError


def test_component_dim_values():
    x = OrbitLabel("x")
    c = Component((x,), (OrbitLabel("y"),), ind_L2=0, domain_symmetry_dim=2)
    assert component_dim(c) == 2
    t = Component((x,), (x,), ind_L2=0, trivial=True, domain_symmetry_dim=2)
    assert component_dim(t, reduced_shifts=True) == 1
    plane = Component((), (x,), ind_L2=3, domain_symmetry_dim=4)
    assert component_dim(plane) == 5
    with pytest.raises(GraphError):
        component_dim(c, reduced_shifts=True)


def test_component_validation():
    x = OrbitLabel("x")
    with pytest.raises(GraphError):
        Component((), (), 0)
    with pytest.raises(GraphError):
        Component((x,), (OrbitLabel("y"),), 0, trivial=True)
    with pytest.raises(GraphError):
        Component((x,), (x,), 1, trivial=True)
    with pytest.raises(GraphError):
        OrbitLabel("x", action=-1.0)


def test_seam_validation():
    x, y = OrbitLabel("x"), OrbitLabel("y")
    a = Component((y,), (x,), 0, domain_symmetry_dim=2)
    b = Component((x,), (y,), 0, domain_symmetry_dim=2)
    ConfigurationGraph((a, b), ((0, 0, 1, 0),), levels=1)
    with pytest.raises(GraphError):
        # orbit mismatch at the seam
        bad = Component((y,), (y,), 0, domain_symmetry_dim=2)
        ConfigurationGraph((a, bad), ((0, 0, 1, 0),), levels=1)
    with pytest.raises(GraphError):
        # closed loop in the bubble tree
        ConfigurationGraph((a, b), ((0, 0, 1, 0), (1, 0, 0, 0)), levels=1)


def test_configuration_dim_examples():
    g = single_cylinder(5)
    assert configuration_dim(g) == 7
    pair = one_bubble_pair(ind_bubble=2, ind_w=1)
    assert configuration_dim(pair) == (2 + 2) + (2 + 1) - 1
    two = broken_pair(0, 0)
    assert configuration_dim(two) == 3


def test_seam_consistency_with_gluing():
    # two-component graph: one more parameterized dimension than the glued one
    for a, b in ((0, 0), (2, -1), (3, 4)):
        pair = broken_pair(a, b)
        glued = smoothing(pair)
        assert configuration_dim(pair) == configuration_dim(glued) + 1


def test_unparameterized_single_cylinder():
    g = single_cylinder(3)
    # (2 + d) - 2 symmetries - 1 target translation
    assert unparameterized_dim(g) == 2


def test_target_symmetry_counting_rule():
    pair = one_bubble_pair()
    assert pair.levels == 2
    assert target_symmetry_count(pair) == 2
    spliced = splice_trivial(one_bubble_pair(), 0)
    assert spliced.levels == 3
    assert target_symmetry_count(spliced) == 3


def test_one_bubble_difference_is_one():
    pair = one_bubble_pair(0, 0)
    assert unparameterized_dim(smoothing(pair)) - unparameterized_dim(pair) == 1


def test_two_level_split_difference_is_one():
    assert unparameterized_dim(single_cylinder(0)) - unparameterized_dim(broken_pair(0, 0)) == 1


def test_codimension_ladder():
    def codim(pair):
        return codimension(pair, smoothing(pair))

    assert codim(one_bubble_pair()) == 1
    assert codim(broken_pair()) == 1
    assert codim(multi_end_bubble_pair(4)) == 1
    assert codim(multi_end_split_pair(3)) == 1
    assert codim(double_multi_split_pair(3, 3)) == 2
    # the multi-end statements hold for more ends too
    assert codim(multi_end_split_pair(5)) == 1
    assert codim(double_multi_split_pair(4, 5)) == 2


def test_codimension_antisymmetric():
    a, b = broken_pair(1, 2), single_cylinder(3)
    assert codimension(a, b) == -codimension(b, a)


def test_codimension_preconditions():
    with pytest.raises(GraphError):
        codimension(broken_pair(1, 0), single_cylinder(0))   # budget mismatch
    with pytest.raises(GraphError):
        codimension(multi_end_split_pair(4), single_cylinder(0))   # different outer ends


def test_randomized_budget_variants():
    rng = np.random.default_rng(7)
    for case in CANONICAL_CASES:
        for deg, smooth, want in randomized_budget_variants(case, rng, 25):
            assert codimension(deg, smooth) == want


def test_splice_keeps_parameterized_dim_and_surfaces_unparameterized_shift():
    res = splice_consistency(one_bubble_pair(), 0)
    assert res["delta_parameterized"] == 0
    # the reduced-space rule does not balance the symmetry counting: the
    # discrepancy is surfaced, not absorbed
    assert res["delta_unparameterized"] == -2
    assert res["consistent"] is False
    spliced = res["spliced"]
    t = spliced.components[-1]
    assert t.trivial
    assert spliced.seam_adjacent(len(spliced.components) - 1)


def test_aut_minus_moduli_presets():
    assert aut_minus_moduli(1) == 4    # plane: translations + rotation + scaling
    assert aut_minus_moduli(2) == 2    # cylinder
    assert aut_minus_moduli(3) == 0
    assert aut_minus_moduli(4) == -2   # moving markers absorb moduli


def test_graph_json_roundtrip():
    g = multi_end_split_pair(4, ind_u=2, ind_w=-1)
    d = g.to_json()
    back = ConfigurationGraph.from_json(d)
    assert back.to_json() == d
    assert unparameterized_dim(back) == unparameterized_dim(g)


def test_outer_ends_and_budget():
    pair = broken_pair(2, 3)
    assert pair.total_ind() == 5
    outs = pair.outer_ends()
    assert ("neg", "x-", 1.0) in outs and ("pos", "x+", 1.0) in outs
    assert len(outs) == 2


def _comp(neg, pos, ind, sym, level=0, trivial=False):
    """A component's JSON form, every orbit at action 1."""
    return {"neg": [{"id": i, "action": 1.0} for i in neg],
            "pos": [{"id": i, "action": 1.0} for i in pos],
            "ind_L2": ind, "trivial": trivial, "domain_symmetry_dim": sym,
            "target_level": level}


def _graph(components, seams=(), levels=1):
    return {"components": list(components), "seams": [list(s) for s in seams],
            "levels": levels}


# each degeneration's smooth family, written out: (pair factory, unmatched
# negative ends, unmatched positive ends, symmetry preset)
SMOOTHINGS = {
    "one_bubble": (one_bubble_pair, ["x-"], ["x+"], 2),
    "two_level_split": (broken_pair, ["x-"], ["x+"], 2),
    "multi_end_bubble_4": (lambda a, b: multi_end_bubble_pair(4, a, b),
                           ["y-0"], ["y+0", "y+1"], 0),
    "multi_end_bubble_5": (lambda a, b: multi_end_bubble_pair(5, a, b),
                           ["y-0"], ["y+0", "y+1", "y+2"], -2),
    "multi_end_split_3": (lambda a, b: multi_end_split_pair(3, a, b),
                          ["z-", "y-0"], ["y+0"], 0),
    "multi_end_split_4": (lambda a, b: multi_end_split_pair(4, a, b),
                          ["z-", "y-0"], ["y+0", "y+1"], -2),
    "multi_end_split_5": (lambda a, b: multi_end_split_pair(5, a, b),
                          ["z-", "y-0"], ["y+0", "y+1", "y+2"], -4),
    "multi_multi_split_3_3": (lambda a, b: double_multi_split_pair(3, 3, a, b),
                              ["u-0", "u-1"], ["w+0", "w+1"], -2),
    "multi_multi_split_3_5": (lambda a, b: double_multi_split_pair(3, 5, a, b),
                              ["u-0", "u-1"], ["w+0", "w+1", "w+2", "w+3"], -6),
    "multi_multi_split_4_4": (lambda a, b: double_multi_split_pair(4, 4, a, b),
                              ["u-0", "u-1", "u-2"], ["w+0", "w+1", "w+2"], -6),
    "multi_multi_split_5_3": (lambda a, b: double_multi_split_pair(5, 3, a, b),
                              ["u-0", "u-1", "u-2", "u-3"], ["w+0", "w+1"], -6),
}


@pytest.mark.parametrize("budgets", [(0, 0), (1, -2), (-4, 3)])
@pytest.mark.parametrize("case", list(SMOOTHINGS))
def test_smoothing_is_the_hand_written_smooth_family(case, budgets):
    pair, neg, pos, sym = SMOOTHINGS[case]
    smooth = smoothing(pair(*budgets))
    assert smooth.to_json() == _graph([_comp(neg, pos, sum(budgets), sym)])
    assert codimension(pair(*budgets), smooth) == (2 if case.startswith("multi_multi") else 1)


# splice_trivial(pair(1, -2), 0) of every canonical case, written out
SPLICED = {
    "one_bubble": _graph([_comp([], ["x"], 1, 3, 1),
                          _comp(["x-", "x"], ["x+"], -2, 0, 0),
                          _comp(["x"], ["x"], 0, 1, 2, trivial=True)],
                         [(0, 0, 2, 0), (2, 0, 1, 1)], 3),
    "two_level_split": _graph([_comp(["x-"], ["x"], 1, 1, 1),
                               _comp(["x"], ["x+"], -2, 2, 0),
                               _comp(["x"], ["x"], 0, 1, 2, trivial=True)],
                              [(0, 0, 2, 0), (2, 0, 1, 0)], 3),
    "multi_end_bubble": _graph([_comp([], ["x"], 1, 3, 1),
                                _comp(["y-0", "x"], ["y+0", "y+1"], -2, -2, 0),
                                _comp(["x"], ["x"], 0, 1, 2, trivial=True)],
                               [(0, 0, 2, 0), (2, 0, 1, 1)], 3),
    "multi_end_split": _graph([_comp(["z-"], ["x"], 1, 1, 1),
                               _comp(["x", "y-0"], ["y+0"], -2, 0, 0),
                               _comp(["x"], ["x"], 0, 1, 2, trivial=True)],
                              [(0, 0, 2, 0), (2, 0, 1, 0)], 3),
    "multi_multi_split": _graph([_comp(["u-0", "u-1"], ["x"], 1, 0, 1),
                                 _comp(["x"], ["w+0", "w+1"], -2, 0, 0),
                                 _comp(["x"], ["x"], 0, 0, 2, trivial=True)],
                                [(0, 0, 2, 0), (2, 0, 1, 0)], 3),
}


@pytest.mark.parametrize("case", list(CANONICAL_CASES))
def test_splice_trivial_of_canonical_pairs(case):
    pair, _ = CANONICAL_CASES[case]
    assert splice_trivial(pair(1, -2), 0).to_json() == SPLICED[case]


def test_graph_from_json_refuses_unknown_keys():
    d = broken_pair(1, 1).to_json()
    # a misspelt target level must not read as level 0
    d["components"][0]["targetlevel"] = d["components"][0].pop("target_level")
    with pytest.raises(GraphError, match="'targetlevel'"):
        ConfigurationGraph.from_json(d)
    d = broken_pair(1, 1).to_json()
    d["level"] = 2
    with pytest.raises(GraphError, match="'level'"):
        ConfigurationGraph.from_json(d)
    d = broken_pair(1, 1).to_json()
    d["components"][1]["pos"][0]["period"] = 2.0
    with pytest.raises(GraphError, match="'period'"):
        ConfigurationGraph.from_json(d)
