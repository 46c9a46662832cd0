"""Cauchy-Riemann-type problems on truncated cylinders and capped planes.

A :class:`CRProblem` describes the operator d/ds + J d/dt + B(s, t) together
with its cylindrical-end data: the asymptotic loop operator, the exponential
weight, and the number of augmentation (asymptotic-shift) directions at each
end.  Builders below produce the standard problems: the trivial-map operator
on the complex-line fiber, the contact-fiber operator interpolating two
asymptotic coefficient matrices, and the one-ended plane problem whose disk
cap is realized as a boundary condition.

Every problem rule lives in ``CRProblem.__post_init__``: the domain's ends,
complex-line ends that are i d/dt, contact ends of one dimension and without
shifts, constant ends under the builders' coefficient, and each end's
Fredholm weight.  The builders are presets over that one constructor, and
``problem_from_json`` is the inverse of ``CRProblem.to_json``, so ``glue``,
``with_weights`` and JSON input are held to the same rules.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import profiles
from .exceptions import (
    CoefficientError,
    DegenerateEndError,
    FredholmWeightError,
    refuse_unknown_keys,
)
from .loops import LoopOperatorSpec, _eigenvalues, is_nondegenerate

FIRST_TRIVIAL_EIGENVALUE = 2.0 * np.pi   # first positive eigenvalue of i d/dt


@dataclass(frozen=True)
class EndSpec:
    """One cylindrical end: its sign, asymptotic operator, weight, and shifts.

    Positive ``weight`` demands decay e^{-weight |s|}; negative permits growth
    up to e^{|weight| |s|}.  ``shift_dims`` counts augmentation directions at
    this end: 2 for both shift parameters, 1 for the reduced case where the
    angular shift is identified with the partner end's, 0 for none.
    """

    sign: str
    asymptotic: LoopOperatorSpec
    weight: float
    shift_dims: int = 0

    def __post_init__(self):
        if self.sign not in ("negative", "positive"):
            raise ValueError(f"end sign must be 'negative' or 'positive', got {self.sign!r}")
        if self.shift_dims not in (0, 1, 2):
            raise ValueError(f"shift_dims must be 0, 1 or 2, got {self.shift_dims}")

    def validate_weight(self, fiber):
        """Fredholm criterion: the weight must avoid the asymptotic spectrum.

        For the complex-line fiber the asymptotic operator is i d/dt, whose
        spectrum is 2 pi Z, so the weight magnitude must lie strictly inside
        (0, 2 pi).  A contact-fiber end needs its weight-shifted asymptotic
        operator nondegenerate (weight 0 included when the end itself is
        nondegenerate: index computations there may use the unweighted norm).
        """
        if fiber == "complex_line":
            if not 0.0 < abs(self.weight) < FIRST_TRIVIAL_EIGENVALUE:
                raise FredholmWeightError(
                    f"|weight| = {abs(self.weight)} outside (0, 2*pi) on a complex-line end")
            return
        lam = _eigenvalues(self.asymptotic)
        tol = self.asymptotic.degeneracy_tol()
        margin = float(np.abs(lam).min())
        if not margin > tol:
            raise DegenerateEndError(
                f"contact-fiber end has degenerate asymptotic operator (margin {margin:.2e})")
        shift = -self.weight if self.sign == "negative" else self.weight
        shifted_margin = float(np.abs(lam - shift).min())
        if shifted_margin <= tol:
            raise FredholmWeightError(
                f"weight {self.weight} hits the asymptotic spectrum "
                f"(shifted margin {shifted_margin:.2e})")

    def to_json(self):
        return {"sign": self.sign, "weight": self.weight, "shift_dims": self.shift_dims,
                "asymptotic": self.asymptotic.to_json()}

    @staticmethod
    def from_json(d):
        refuse_unknown_keys(d, ("sign", "weight", "shift_dims", "asymptotic"), ValueError, "end")
        return EndSpec(sign=d["sign"], asymptotic=LoopOperatorSpec.from_json(d["asymptotic"]),
                       weight=float(d["weight"]), shift_dims=int(d.get("shift_dims", 0)))


@dataclass(frozen=True)
class Truncation:
    """Computational box |s| <= s_max with the neck marker n_prime < s_max."""

    s_max: float = 12.0
    n_prime: float = 6.0

    def __post_init__(self):
        if not self.n_prime + 1.0 < self.s_max:
            raise ValueError(f"need n_prime + 1 < s_max, got {self.n_prime}, {self.s_max}")

    def to_json(self):
        return {"s_max": self.s_max, "n_prime": self.n_prime}

    @staticmethod
    def from_json(d):
        refuse_unknown_keys(d, ("s_max", "n_prime"), ValueError, "truncation")
        return Truncation(s_max=float(d["s_max"]), n_prime=float(d["n_prime"]))


@dataclass(frozen=True)
class GridSpec:
    """Requested resolution: s_nodes collocation nodes, t_nodes circle nodes."""

    s_nodes: int = 96
    t_nodes: int = 32

    def __post_init__(self):
        if self.s_nodes < 16:
            raise ValueError(f"s_nodes must be >= 16, got {self.s_nodes}")
        if self.t_nodes < 8 or self.t_nodes % 2 != 0:
            raise ValueError(f"t_nodes must be even and >= 8, got {self.t_nodes}")

    def to_json(self):
        return {"s_nodes": self.s_nodes, "t_nodes": self.t_nodes}

    @staticmethod
    def from_json(d):
        refuse_unknown_keys(d, ("s_nodes", "t_nodes"), ValueError, "grid")
        return GridSpec(s_nodes=int(d["s_nodes"]), t_nodes=int(d["t_nodes"]))


def default_grid_for(truncation):
    """Default resolution policy: 8 s-nodes per unit length, 32 t-nodes."""
    return GridSpec(s_nodes=max(16, int(round(8 * truncation.s_max))), t_nodes=32)


@dataclass(frozen=True)
class CRProblem:
    """A Cauchy-Riemann-type operator on a cylinder or a capped plane.

    ``coeff_s`` maps s to the fiber coefficient matrix B(s) for problems whose
    coefficient is constant in t (the common case, enabling the decoupled
    per-mode assembly); ``coeff_st`` maps (s, t) to B(s, t) otherwise.  With
    neither set, B is the builders' coefficient (``coefficient``).  At
    |s| = s_max the coefficient must agree with each end's asymptotic matrix
    to within e^{-(s_max - n')} (``check_end_decay``).
    """

    domain_kind: str
    ends: tuple
    fiber: str
    truncation: Truncation = Truncation()
    coeff_s: object = None
    coeff_st: object = None
    label: str = ""
    profile_override: object = None   # profile with w and wprime, set by glue

    def __post_init__(self):
        if self.domain_kind not in ("cylinder", "plane"):
            raise ValueError(f"domain_kind must be 'cylinder' or 'plane', got {self.domain_kind!r}")
        if self.fiber not in ("complex_line", "contact_fiber"):
            raise ValueError(f"unknown fiber {self.fiber!r}")
        ends = tuple(self.ends)
        object.__setattr__(self, "ends", ends)
        if self.domain_kind == "cylinder":
            if len(ends) != 2 or {e.sign for e in ends} != {"negative", "positive"}:
                raise ValueError("a cylinder needs one negative and one positive end")
        else:
            if len(ends) != 1 or ends[0].sign != "positive":
                raise ValueError("a plane needs exactly one positive end")
            if self.fiber != "complex_line":
                raise ValueError("a plane needs the complex-line fiber")
        if self.fiber == "complex_line":
            for e in ends:
                a = e.asymptotic
                if a.dim != 2 or not a.is_constant or np.any(a.constant_matrix()):
                    raise CoefficientError(
                        f"{e.sign} end: a complex-line end's asymptotic operator is i d/dt "
                        "(dim 2, zero coefficient)")
        else:
            if any(e.shift_dims for e in ends):
                raise ValueError("augmentation shifts live on the complex-line part only")
            if len({e.asymptotic.dim for e in ends}) != 1:
                raise CoefficientError("asymptotic dimensions differ")
            if self.coeff_s is None and self.coeff_st is None and not all(
                    e.asymptotic.is_constant for e in ends):
                raise CoefficientError(
                    "t-dependent asymptotics require an explicit coeff_st problem")
        for e in ends:
            e.validate_weight(self.fiber)
        sd = sorted(e.shift_dims for e in ends)
        if len(ends) == 2 and sd == [1, 1]:
            raise ValueError("shift_dims (1,1) is not a supported augmentation pattern")

    # -- convenience accessors -------------------------------------------------

    @property
    def negative_end(self):
        for e in self.ends:
            if e.sign == "negative":
                return e
        return None

    @property
    def positive_end(self):
        for e in self.ends:
            if e.sign == "positive":
                return e
        raise AssertionError("no positive end")

    @property
    def fiber_dim(self):
        return 2 if self.fiber == "complex_line" else self.ends[0].asymptotic.dim

    @property
    def s_lo(self):
        return -self.truncation.s_max if self.domain_kind == "cylinder" else 0.0

    @property
    def augmentation_dims(self):
        return sum(e.shift_dims for e in self.ends)

    @property
    def reduced_shifts(self):
        """True for the reduced parameter space with the angular shifts identified."""
        return sorted(e.shift_dims for e in self.ends) == [1, 2]

    def weights(self):
        """(delta_minus, delta_plus) signed weights; delta_minus is None for planes."""
        neg = self.negative_end
        return (None if neg is None else neg.weight, self.positive_end.weight)

    def weight_profile(self):
        """The weight profile: ``profile_override`` when set, else the two-ended
        erf profile of the end weights (a plane's with equal slopes, -delta_plus
        at the missing negative end)."""
        if self.profile_override is not None:
            return self.profile_override
        dm, dp = self.weights()
        return profiles.WeightProfile(-dp if dm is None else dm, dp)

    def coefficient(self, s, t=None):
        """Evaluate B at s (t-independent problems) or at (s, t).

        Without ``coeff_s`` or ``coeff_st``, B is the builders' coefficient:
        zero on the complex-line fiber, and on the contact fiber the
        componentwise quintic-smoothstep ramp from the negative end's matrix
        to the positive end's across |s| <= n', constant outside it.
        """
        if self.coeff_st is not None:
            if t is None:
                raise CoefficientError("problem coefficient depends on t")
            return np.asarray(self.coeff_st(s, t), dtype=float)
        if self.coeff_s is not None:
            return np.asarray(self.coeff_s(s), dtype=float)
        if self.fiber == "complex_line":
            return np.zeros((2, 2))
        S0 = self.negative_end.asymptotic.constant_matrix()
        S1 = self.positive_end.asymptotic.constant_matrix()
        npr = self.truncation.n_prime
        u = profiles.smoothstep((np.asarray(s) + npr) / (2.0 * npr))
        return np.asarray(S0 + u * (S1 - S0), dtype=float)

    @property
    def t_dependent(self):
        return self.coeff_st is not None or any(
            not e.asymptotic.is_constant for e in self.ends)

    def check_end_decay(self):
        """Coefficient at |s| = s_max must match the end data to e^{-(s_max - n_prime)}."""
        if self.t_dependent:
            return
        tol = np.exp(-(self.truncation.s_max - self.truncation.n_prime))
        for e in self.ends:
            s_end = self.truncation.s_max if e.sign == "positive" else -self.truncation.s_max
            B = self.coefficient(s_end)
            gap = float(np.abs(B - e.asymptotic.constant_matrix()).max())
            if gap >= tol:
                raise CoefficientError(
                    f"coefficient at s = {s_end} differs from the end data by {gap:.2e} "
                    f">= e^(-(s_max - n_prime)) = {tol:.2e}")

    def to_json(self):
        """JSON form of a builder-producible problem; ``problem_from_json``
        rebuilds it.  Only the builders' coefficient has a JSON form: a
        problem that sets ``coeff_s`` or ``coeff_st``, or has a glued weight
        profile, raises CoefficientError."""
        if (self.coeff_s is not None or self.coeff_st is not None
                or self.profile_override is not None):
            raise CoefficientError(
                f"problem {self.label!r} has its own coefficient or a glued "
                "weight profile, which JSON cannot express")
        return {
            "domain_kind": self.domain_kind,
            "ends": [e.to_json() for e in self.ends],
            "fiber": self.fiber,
            "truncation": self.truncation.to_json(),
            "label": self.label,
        }


def build_trivial_cylinder(weights, shift_dims=(0, 0), truncation=None, label=""):
    """The operator of the trivial connecting map on the complex-line fiber.

    ``weights = (delta_minus, delta_plus)`` are the signed end weights, each
    with magnitude in (0, 2 pi); ``shift_dims = (sd_minus, sd_plus)`` installs
    the finite-dimensional augmentation.  The pattern (2, 1) or (1, 2) builds
    the reduced problem with the two angular shifts identified (3 parameters).
    """
    truncation = truncation or Truncation()
    dm, dp = weights
    sdm, sdp = shift_dims
    asym = LoopOperatorSpec(dim=2)
    ends = (EndSpec("negative", asym, float(dm), sdm),
            EndSpec("positive", asym, float(dp), sdp))
    return CRProblem(domain_kind="cylinder", ends=ends, fiber="complex_line",
                     truncation=truncation, coeff_s=None, label=label)


def build_contact_fiber_cylinder(asym_minus, asym_plus, truncation=None,
                                 weights=(0.0, 0.0), label=""):
    """Contact-fiber operator d/ds + J0 d/dt + B(s) interpolating two ends.

    B is the problem's default coefficient (``CRProblem.coefficient``): the
    componentwise quintic-smoothstep ramp from the negative end's matrix to
    the positive end's across |s| <= n', constant outside it.  ``CRProblem``
    checks the ends.  The ``is_nondegenerate`` pre-check repeats
    ``EndSpec.validate_weight``'s degeneracy test, at two extra loop solves;
    it stays until the benchmark describes the loop layer by what it
    computes, since ``perfbench/selftest.py`` requires its span on the
    workloads that build contact problems (ROADMAP item 1).
    """
    truncation = truncation or Truncation()
    for spec, tag in ((asym_minus, "negative"), (asym_plus, "positive")):
        ok, margin = is_nondegenerate(spec)
        if not ok:
            raise DegenerateEndError(f"{tag} end degenerate (margin {margin:.2e})")
    dm, dp = weights
    ends = (EndSpec("negative", asym_minus, float(dm), 0),
            EndSpec("positive", asym_plus, float(dp), 0))
    return CRProblem(domain_kind="cylinder", ends=ends, fiber="contact_fiber",
                     truncation=truncation, label=label)


def build_plane(weight, shift_dims=0, truncation=None, label=""):
    """One-ended plane problem; the disk cap becomes a boundary condition.

    The domain is [0, s_max] x S^1 with the single positive end at s_max.  At
    s = 0 the Fourier modes of the boundary trace that do not extend
    holomorphically over the filled unit disk are constrained to zero.
    """
    truncation = truncation or Truncation()
    asym = LoopOperatorSpec(dim=2)
    ends = (EndSpec("positive", asym, float(weight), int(shift_dims)),)
    return CRProblem(domain_kind="plane", ends=ends, fiber="complex_line",
                     truncation=truncation, coeff_s=None, label=label)


def problem_from_json(d):
    """The inverse of ``CRProblem.to_json``: unknown keys are refused, the
    ends are read negative first, and ``CRProblem`` checks every rule."""
    refuse_unknown_keys(d, ("domain_kind", "ends", "fiber", "truncation", "label"),
                        ValueError, "problem")
    ends = sorted((EndSpec.from_json(e) for e in d["ends"]), key=lambda e: e.sign)
    return CRProblem(d["domain_kind"], ends, d["fiber"], Truncation.from_json(d["truncation"]),
                     label=d.get("label", ""))


def with_weights(problem, weights):
    """Copy of the problem with new signed end weights (sweep helper)."""
    dm, dp = weights
    new_ends = []
    for e in problem.ends:
        wv = dp if e.sign == "positive" else dm
        new_ends.append(replace(e, weight=float(wv)))
    return replace(problem, ends=tuple(new_ends))
