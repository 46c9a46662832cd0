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
available; the canonical factories below use the convention

    preset(k ends) = 6 - 2k   (automorphisms minus marked-point moduli),

giving 4 for a plane, 2 for a cylinder and 0 for three ends, and deduct one
rotation per seam incident to at least one rotation-carrying component (the
seam's angular matching either identifies two rotations or pins one against
a rigid partner).  These presets reproduce the codimension-one statements
for single-bubble and two-level splittings and codimension two for the
splitting of multi-end maps into multi-end pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .exceptions import GraphError


@dataclass(frozen=True)
class OrbitLabel:
    """A closed-orbit label with its action; spectral data rides along as notes."""

    id: str
    action: float = 1.0

    def __post_init__(self):
        if not self.action > 0:
            raise GraphError(f"orbit action must be positive, got {self.action}")


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

    @property
    def n_ends(self):
        return len(self.neg_ends) + len(self.pos_ends)

    @property
    def has_rotation(self):
        # cylinders, planes and trivial components carry an S^1 domain symmetry
        return self.n_ends <= 2


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

    def outer_ends(self):
        """Multiset of unmatched (side, orbit id, action) triples."""
        seamed_pos = {(ci, pi) for (ci, pi, cj, nj) in self.seams}
        seamed_neg = {(cj, nj) for (ci, pi, cj, nj) in self.seams}
        out = []
        for i, c in enumerate(self.components):
            for j, o in enumerate(c.neg_ends):
                if (i, j) not in seamed_neg:
                    out.append(("neg", o.id, round(o.action, 12)))
            for j, o in enumerate(c.pos_ends):
                if (i, j) not in seamed_pos:
                    out.append(("pos", o.id, round(o.action, 12)))
        return sorted(out)

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
        comps = []
        for c in d["components"]:
            comps.append(Component(
                neg_ends=tuple(OrbitLabel(o["id"], float(o.get("action", 1.0)))
                               for o in c["neg"]),
                pos_ends=tuple(OrbitLabel(o["id"], float(o.get("action", 1.0)))
                               for o in c["pos"]),
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

def _pin_rotations(symmetries, components, seams):
    """Deduct one rotation per seam incident to a rotation-carrying component.

    The deduction lands on an incident carrier (preferring the first one met)
    so the configuration total matches the angular-matching count.
    """
    out = list(symmetries)
    for (ci, pi, cj, nj) in seams:
        for idx in (ci, cj):
            if components[idx].has_rotation:
                out[idx] -= 1
                break
    return out


def _mk(neg, pos, ind, trivial=False, level=0):
    return Component(neg_ends=neg, pos_ends=pos, ind_L2=ind, trivial=trivial,
                     target_level=level)


def _with_presets(components, seams, levels):
    syms = [aut_minus_moduli(c.n_ends) for c in components]
    syms = _pin_rotations(syms, components, seams)
    comps = tuple(replace(c, domain_symmetry_dim=s) for c, s in zip(components, syms))
    return ConfigurationGraph(components=comps, seams=seams, levels=levels)


def single_cylinder(ind=0, x_minus="x-", x_plus="x+"):
    c = _mk((OrbitLabel(x_minus),), (OrbitLabel(x_plus),), ind)
    return _with_presets((c,), (), levels=1)


def one_bubble_pair(ind_bubble=0, ind_w=0):
    """One bubble: a plane glued to a three-ended component, two target levels."""
    x = OrbitLabel("x")
    bubble = _mk((), (x,), ind_bubble, level=1)
    w = _mk((OrbitLabel("x-"), x), (OrbitLabel("x+"),), ind_w, level=0)
    return _with_presets((bubble, w), ((0, 0, 1, 1),), levels=2)


def one_bubble_glued(ind=0):
    return single_cylinder(ind)


def broken_pair(ind_u=0, ind_w=0):
    """Two-level splitting into two cylinders sharing the middle orbit."""
    x = OrbitLabel("x")
    u = _mk((OrbitLabel("x-"),), (x,), ind_u, level=1)
    w = _mk((x,), (OrbitLabel("x+"),), ind_w, level=0)
    return _with_presets((u, w), ((0, 0, 1, 0),), levels=2)


def broken_glued(ind=0):
    return single_cylinder(ind)


def multi_end_bubble_pair(m=4, ind_bubble=0, ind_w=0):
    """A plane bubbling off a multi-end component (m >= 4 ends in total)."""
    if m < 4:
        raise GraphError("the glued family must keep at least three ends")
    x = OrbitLabel("x")
    bubble = _mk((), (x,), ind_bubble, level=1)
    neg = (OrbitLabel("y-0"), x)
    pos = tuple(OrbitLabel(f"y+{i}") for i in range(m - 2))
    w = _mk(neg, pos, ind_w, level=0)
    return _with_presets((bubble, w), ((0, 0, 1, 1),), levels=2)


def multi_end_bubble_glued(m=4, ind=0):
    neg = (OrbitLabel("y-0"),)
    pos = tuple(OrbitLabel(f"y+{i}") for i in range(m - 2))
    return _with_presets((_mk(neg, pos, ind),), (), levels=1)


def multi_end_split_pair(m=3, ind_u=0, ind_w=0):
    """Splitting off a two-ended connecting map from a multi-end family."""
    if m < 3:
        raise GraphError("need a multi-end family (m >= 3)")
    x = OrbitLabel("x")
    u = _mk((OrbitLabel("z-"),), (x,), ind_u, level=1)
    neg = (x, OrbitLabel("y-0"))
    pos = tuple(OrbitLabel(f"y+{i}") for i in range(m - 2))
    w = _mk(neg, pos, ind_w, level=0)
    return _with_presets((u, w), ((0, 0, 1, 0),), levels=2)


def multi_end_split_glued(m=3, ind=0):
    neg = (OrbitLabel("z-"), OrbitLabel("y-0"))
    pos = tuple(OrbitLabel(f"y+{i}") for i in range(m - 2))
    return _with_presets((_mk(neg, pos, ind),), (), levels=1)


def double_multi_split_pair(m1=3, m2=3, ind_u=0, ind_w=0):
    """Two-level splitting with both components multi-ended (>= 3 ends each)."""
    if m1 < 3 or m2 < 3:
        raise GraphError("both components must be multi-ended")
    x = OrbitLabel("x")
    neg_u = tuple(OrbitLabel(f"u-{i}") for i in range(m1 - 1))
    u = _mk(neg_u, (x,), ind_u, level=1)
    pos_w = tuple(OrbitLabel(f"w+{i}") for i in range(m2 - 1))
    w = _mk((x,), pos_w, ind_w, level=0)
    return _with_presets((u, w), ((0, 0, 1, 0),), levels=2)


def double_multi_split_glued(m1=3, m2=3, ind=0):
    neg = tuple(OrbitLabel(f"u-{i}") for i in range(m1 - 1))
    pos = tuple(OrbitLabel(f"w+{i}") for i in range(m2 - 1))
    return _with_presets((_mk(neg, pos, ind),), (), levels=1)


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
    t = _mk((orbit,), (orbit,), 0, trivial=True, level=graph.levels)
    comps = graph.components + (t,)
    t_idx = len(comps) - 1
    seams = tuple(s for i, s in enumerate(graph.seams) if i != seam_index)
    seams += ((ci, pi, t_idx, 0), (t_idx, 0, cj, nj))
    return _with_presets(comps, seams, graph.levels + 1)


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


CANONICAL_CASES = {
    "one_bubble": (lambda a, b: one_bubble_pair(ind_bubble=a, ind_w=b),
               lambda a, b: one_bubble_glued(ind=a + b), 1),
    "two_level_split": (lambda a, b: broken_pair(ind_u=a, ind_w=b),
               lambda a, b: broken_glued(ind=a + b), 1),
    "multi_end_bubble": (lambda a, b: multi_end_bubble_pair(4, ind_bubble=a, ind_w=b),
                      lambda a, b: multi_end_bubble_glued(4, ind=a + b), 1),
    "multi_end_split": (lambda a, b: multi_end_split_pair(3, ind_u=a, ind_w=b),
                     lambda a, b: multi_end_split_glued(3, ind=a + b), 1),
    "multi_multi_split": (lambda a, b: double_multi_split_pair(3, 3, ind_u=a, ind_w=b),
               lambda a, b: double_multi_split_glued(3, 3, ind=a + b), 2),
}


def randomized_budget_variants(case, rng, count=100):
    """(degenerate, smooth, expected_codim) triples with random ind_L2 budgets."""
    pair, glued, codim = CANONICAL_CASES[case]
    for _ in range(count):
        a = int(rng.integers(-4, 5))
        b = int(rng.integers(-4, 5))
        yield pair(a, b), glued(a, b), codim
