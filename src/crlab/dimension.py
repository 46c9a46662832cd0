"""Virtual-dimension and codimension bookkeeping for broken configurations.

A configuration graph holds map components (each with its end lists, its
contact-fiber index contribution, and an explicit domain-symmetry dimension),
seam identifications between ends, and the count of target levels.  The
parameterized dimension of a component is 2 + ind_L2, reduced to 1 + ind_L2
for a trivial component over an orbit when the restricted parameter space
identifies its two asymptotic angular shifts; each seam subtracts one
matching condition.  Unparameterized dimensions subtract the domain
symmetries and one target translation per map component on each target
level.

The domain-symmetry inputs are explicit because no general formula is
available; the canonical graphs below are built with the convention

    preset(k ends) = 6 - 2k   (automorphisms minus marked-point moduli),

giving 4 for a plane, 2 for a cylinder and 0 for three ends, less one
rotation per seam incident to at least one component with at most two ends
(the seam's angular matching either identifies two rotations or pins one
against a rigid partner).  Only the degenerate side of each canonical case
is written down: its smooth family, ``smoothing(degenerate)``, is the one
component on one level with the same unmatched ends and total ind_L2.
These presets reproduce the codimension-one statements for single-bubble
and two-level splittings and codimension two for the splitting of multi-end
maps into multi-end pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import GraphError, refuse_unknown_keys


@dataclass(frozen=True)
class OrbitLabel:
    """A closed-orbit label with its action; spectral data rides along as notes."""

    id: str
    action: float = 1.0

    def __post_init__(self):
        if not self.action > 0:
            raise GraphError(f"orbit action must be positive, got {self.action}")

    @staticmethod
    def from_json(d):
        refuse_unknown_keys(d, ("id", "action"), GraphError, "orbit")
        return OrbitLabel(d["id"], float(d.get("action", 1.0)))


@dataclass(frozen=True)
class Component:
    neg_ends: tuple
    pos_ends: tuple
    ind_L2: int = 0
    trivial: bool = False
    domain_symmetry_dim: int = None
    target_level: int = 0

    def __post_init__(self):
        object.__setattr__(self, "neg_ends", tuple(self.neg_ends))
        object.__setattr__(self, "pos_ends", tuple(self.pos_ends))
        if len(self.neg_ends) + len(self.pos_ends) < 1:
            raise GraphError("a component needs at least one end")
        if self.trivial:
            if len(self.neg_ends) != 1 or len(self.pos_ends) != 1:
                raise GraphError("a trivial component has exactly one end on each side")
            if self.neg_ends[0].id != self.pos_ends[0].id:
                raise GraphError("a trivial component sits over a single orbit")
            if self.ind_L2 != 0:
                raise GraphError("a trivial component has ind_L2 = 0")


def aut_minus_moduli(n_ends):
    """Domain-symmetry preset: automorphism dimension minus marked-point moduli."""
    return 6 - 2 * n_ends


@dataclass(frozen=True)
class ConfigurationGraph:
    """Components plus seam identifications; the seam graph must be a forest."""

    components: tuple
    seams: tuple = ()
    levels: int = 1

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "seams", tuple(tuple(s) for s in self.seams))
        used = set()
        edges = []
        for (ci, pi, cj, nj) in self.seams:
            try:
                a = self.components[ci].pos_ends[pi]
                b = self.components[cj].neg_ends[nj]
            except IndexError as exc:
                raise GraphError(f"seam ({ci},{pi},{cj},{nj}) out of range") from exc
            if a.id != b.id or abs(a.action - b.action) > 1e-12:
                raise GraphError(
                    f"seam orbits differ: {a.id}@{a.action} vs {b.id}@{b.action}")
            for key in (("p", ci, pi), ("n", cj, nj)):
                if key in used:
                    raise GraphError(f"end {key} used by two seams")
                used.add(key)
            edges.append((ci, cj))
        # forest check: no closed loop in the bubble tree
        parent = list(range(len(self.components)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in edges:
            ra, rb = find(a), find(b)
            if ra == rb:
                raise GraphError("seam graph contains a closed loop")
            parent[ra] = rb
        for c in self.components:
            if not 0 <= c.target_level < self.levels:
                raise GraphError(f"target level {c.target_level} outside 0..{self.levels - 1}")

    def unmatched_ends(self):
        """(neg, pos) tuples of the orbit labels on no seam, in component order."""
        seamed_pos = {(ci, pi) for (ci, pi, cj, nj) in self.seams}
        seamed_neg = {(cj, nj) for (ci, pi, cj, nj) in self.seams}
        neg = tuple(o for i, c in enumerate(self.components)
                    for j, o in enumerate(c.neg_ends) if (i, j) not in seamed_neg)
        pos = tuple(o for i, c in enumerate(self.components)
                    for j, o in enumerate(c.pos_ends) if (i, j) not in seamed_pos)
        return neg, pos

    def outer_ends(self):
        """Multiset of unmatched (side, orbit id, action) triples."""
        neg, pos = self.unmatched_ends()
        return sorted([("neg", o.id, round(o.action, 12)) for o in neg]
                      + [("pos", o.id, round(o.action, 12)) for o in pos])

    def total_ind(self):
        return sum(c.ind_L2 for c in self.components)

    def seam_adjacent(self, idx):
        return any(ci == idx or cj == idx for (ci, pi, cj, nj) in self.seams)

    def to_json(self):
        return {
            "components": [
                {"neg": [{"id": o.id, "action": o.action} for o in c.neg_ends],
                 "pos": [{"id": o.id, "action": o.action} for o in c.pos_ends],
                 "ind_L2": c.ind_L2, "trivial": c.trivial,
                 "domain_symmetry_dim": c.domain_symmetry_dim,
                 "target_level": c.target_level}
                for c in self.components],
            "seams": [list(s) for s in self.seams],
            "levels": self.levels,
        }

    @staticmethod
    def from_json(d):
        refuse_unknown_keys(d, ("components", "seams", "levels"), GraphError, "graph")
        comps = []
        for c in d["components"]:
            refuse_unknown_keys(c, ("neg", "pos", "ind_L2", "trivial", "domain_symmetry_dim",
                                    "target_level"), GraphError, "component")
            comps.append(Component(
                neg_ends=tuple(OrbitLabel.from_json(o) for o in c["neg"]),
                pos_ends=tuple(OrbitLabel.from_json(o) for o in c["pos"]),
                ind_L2=int(c.get("ind_L2", 0)),
                trivial=bool(c.get("trivial", False)),
                domain_symmetry_dim=c.get("domain_symmetry_dim"),
                target_level=int(c.get("target_level", 0))))
        return ConfigurationGraph(components=tuple(comps),
                                  seams=tuple(tuple(s) for s in d.get("seams", [])),
                                  levels=int(d.get("levels", 1)))


def component_dim(c, reduced_shifts=False):
    """Parameterized dimension 2 + ind_L2, or 1 + ind_L2 under the reduced
    parameter space of a trivial component."""
    if reduced_shifts and not c.trivial:
        raise GraphError("the reduced parameter space applies to trivial components only")
    return (1 if reduced_shifts else 2) + c.ind_L2


def configuration_dim(g):
    """Sum of component dimensions minus one matching condition per seam.

    Trivial components adjacent to a seam are counted in their reduced
    parameter space (dimension 1 + ind_L2).
    """
    total = 0
    for i, c in enumerate(g.components):
        total += component_dim(c, reduced_shifts=c.trivial and g.seam_adjacent(i))
    return total - len(g.seams)


def target_symmetry_count(g):
    """One translation per map component on each target level: levels are
    counted as many times as they carry components, and every component sits
    on one of the graph's levels."""
    return len(g.components)


def unparameterized_dim(g):
    """configuration_dim minus domain symmetries minus target translations."""
    for c in g.components:
        if c.domain_symmetry_dim is None:
            raise GraphError("component missing domain_symmetry_dim")
    return (configuration_dim(g)
            - sum(c.domain_symmetry_dim for c in g.components)
            - target_symmetry_count(g))


def codimension(degenerate, smooth):
    """unparameterized_dim(smooth) - unparameterized_dim(degenerate).

    Both graphs must share their outer ends and their total ind_L2 budget
    (index additivity across the degeneration).
    """
    if degenerate.outer_ends() != smooth.outer_ends():
        raise GraphError("graphs do not share outer ends")
    if degenerate.total_ind() != smooth.total_ind():
        raise GraphError(
            f"ind_L2 budgets differ: {degenerate.total_ind()} vs {smooth.total_ind()}")
    return unparameterized_dim(smooth) - unparameterized_dim(degenerate)


# ---------------------------------------------------------------------------
# canonical graphs
# ---------------------------------------------------------------------------

def _with_presets(parts, seams, levels):
    """Build a graph from (neg, pos, ind_L2, trivial, target_level) parts.

    Each component gets aut_minus_moduli of its end count, less one rotation
    per seam on which it is the first incident component with at most two
    ends (those carry an S^1 domain symmetry), so the configuration total
    matches the angular-matching count.
    """
    n_ends = [len(neg) + len(pos) for neg, pos, *_ in parts]
    syms = [aut_minus_moduli(n) for n in n_ends]
    for (ci, _, cj, _) in seams:
        pinned = next((i for i in (ci, cj) if n_ends[i] <= 2), None)
        if pinned is not None:
            syms[pinned] -= 1
    comps = tuple(Component(neg_ends=neg, pos_ends=pos, ind_L2=ind, trivial=trivial,
                            domain_symmetry_dim=sym, target_level=level)
                  for (neg, pos, ind, trivial, level), sym in zip(parts, syms))
    return ConfigurationGraph(components=comps, seams=seams, levels=levels)


def _two_levels(upper, lower, ind_upper, ind_lower, slot=0):
    """``upper`` (level 1) glued by its first positive end to the negative end
    ``slot`` of ``lower`` (level 0); each is a (neg, pos) pair of end tuples."""
    return _with_presets(((*upper, ind_upper, False, 1), (*lower, ind_lower, False, 0)),
                         ((0, 0, 1, slot),), levels=2)


def smoothing(degenerate):
    """The smooth family of a degeneration: one component on one level with
    the degenerate graph's unmatched ends, in component order, and its total
    ind_L2 (index additivity across the degeneration)."""
    neg, pos = degenerate.unmatched_ends()
    return _with_presets(((neg, pos, degenerate.total_ind(), False, 0),), (), levels=1)


def single_cylinder(ind=0, x_minus="x-", x_plus="x+"):
    return _with_presets((((OrbitLabel(x_minus),), (OrbitLabel(x_plus),), ind, False, 0),),
                         (), levels=1)


def one_bubble_pair(ind_bubble=0, ind_w=0):
    """One bubble: a plane glued to a three-ended component, two target levels."""
    x = OrbitLabel("x")
    return _two_levels(((), (x,)), ((OrbitLabel("x-"), x), (OrbitLabel("x+"),)),
                       ind_bubble, ind_w, slot=1)


def broken_pair(ind_u=0, ind_w=0):
    """Two-level splitting into two cylinders sharing the middle orbit."""
    x = OrbitLabel("x")
    return _two_levels(((OrbitLabel("x-"),), (x,)), ((x,), (OrbitLabel("x+"),)),
                       ind_u, ind_w)


def multi_end_bubble_pair(m=4, ind_bubble=0, ind_w=0):
    """A plane bubbling off a multi-end component (m >= 4 ends in total)."""
    if m < 4:
        raise GraphError("the glued family must keep at least three ends")
    x = OrbitLabel("x")
    pos = tuple(OrbitLabel(f"y+{i}") for i in range(m - 2))
    return _two_levels(((), (x,)), ((OrbitLabel("y-0"), x), pos), ind_bubble, ind_w, slot=1)


def multi_end_split_pair(m=3, ind_u=0, ind_w=0):
    """Splitting off a two-ended connecting map from a multi-end family."""
    if m < 3:
        raise GraphError("need a multi-end family (m >= 3)")
    x = OrbitLabel("x")
    pos = tuple(OrbitLabel(f"y+{i}") for i in range(m - 2))
    return _two_levels(((OrbitLabel("z-"),), (x,)), ((x, OrbitLabel("y-0")), pos),
                       ind_u, ind_w)


def double_multi_split_pair(m1=3, m2=3, ind_u=0, ind_w=0):
    """Two-level splitting with both components multi-ended (>= 3 ends each)."""
    if m1 < 3 or m2 < 3:
        raise GraphError("both components must be multi-ended")
    x = OrbitLabel("x")
    neg_u = tuple(OrbitLabel(f"u-{i}") for i in range(m1 - 1))
    pos_w = tuple(OrbitLabel(f"w+{i}") for i in range(m2 - 1))
    return _two_levels((neg_u, (x,)), ((x,), pos_w), ind_u, ind_w)


# ---------------------------------------------------------------------------
# trivial-component splicing
# ---------------------------------------------------------------------------

def splice_trivial(graph, seam_index):
    """Insert a trivial component over the orbit of an existing seam.

    The two replacement seams route through the new component, which is
    placed alone on a new target level; its domain symmetries follow the
    presets with seam pinning recomputed for the whole graph.
    """
    (ci, pi, cj, nj) = graph.seams[seam_index]
    orbit = graph.components[ci].pos_ends[pi]
    parts = [(c.neg_ends, c.pos_ends, c.ind_L2, c.trivial, c.target_level)
             for c in graph.components]
    parts.append(((orbit,), (orbit,), 0, True, graph.levels))
    t_idx = len(parts) - 1
    seams = tuple(s for i, s in enumerate(graph.seams) if i != seam_index)
    seams += ((ci, pi, t_idx, 0), (t_idx, 0, cj, nj))
    return _with_presets(parts, seams, graph.levels + 1)


def splice_consistency(graph, seam_index):
    """Effect of splicing a trivial component into a seam on the dimensions.

    Returns a dict with the parameterized and unparameterized changes and a
    ``consistent`` flag for the unparameterized one.  A nonzero change is
    surfaced, not absorbed: under the adopted symmetry presets the insertion
    costs one domain symmetry and one target translation, so the flag records
    the unresolved tension between the reduced-parameter-space rule and the
    symmetry counting.
    """
    spliced = splice_trivial(graph, seam_index)
    d_param = configuration_dim(spliced) - configuration_dim(graph)
    d_unparam = unparameterized_dim(spliced) - unparameterized_dim(graph)
    return {
        "delta_parameterized": d_param,
        "delta_unparameterized": d_unparam,
        "consistent": d_unparam == 0,
        "spliced": spliced,
    }


# case -> (degenerate graph of the budgets (a, b), expected codimension); the
# lambdas look the factories up as module globals, so wrappers installed
# there see every call
CANONICAL_CASES = {
    "one_bubble": (lambda a, b: one_bubble_pair(ind_bubble=a, ind_w=b), 1),
    "two_level_split": (lambda a, b: broken_pair(ind_u=a, ind_w=b), 1),
    "multi_end_bubble": (lambda a, b: multi_end_bubble_pair(4, ind_bubble=a, ind_w=b), 1),
    "multi_end_split": (lambda a, b: multi_end_split_pair(3, ind_u=a, ind_w=b), 1),
    "multi_multi_split": (lambda a, b: double_multi_split_pair(3, 3, ind_u=a, ind_w=b), 2),
}


def randomized_budget_variants(case, rng, count=100):
    """(degenerate, smoothing, expected_codim) triples with random ind_L2 budgets."""
    pair, codim = CANONICAL_CASES[case]
    for _ in range(count):
        a = int(rng.integers(-4, 5))
        b = int(rng.integers(-4, 5))
        deg = pair(a, b)
        yield deg, smoothing(deg), codim
