"""The benchmark's workloads: their inputs, the timed pass, and its checks.

Each workload has these parts, split by which process runs them and whether
they are timed:

- ``prepare(seed)`` runs in the benchmark process and returns the JSON
  inputs of a worker.  It imports numpy at most, never crlab.
- ``setup(inputs, workdir)`` runs in the worker after the imports and builds
  the state the pass needs.  It belongs to ``setup_s``.
- ``run(state)`` is the timed pass.  It reaches crlab only through
  ``sys.modules`` at call time, so a tracer installed after ``setup`` sees
  every call.
- ``observe(state, raw)`` turns the pass's results into the JSON-able
  outputs that are verified, and ``checks(outputs, expected)`` compares
  them with the reference the benchmark keeps.  ``identity(outputs)`` is
  the part a traced and an untraced pass must agree on.  None is timed.

Why each workload exists is recorded in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_REFERENCE = os.path.join(HERE, "golden", "reproduce_all.csv")


def _mod(name):
    """A crlab module, looked up at call time.

    ``crlab.assemble`` is the re-exported function, not the module, so the
    modules are reached through ``sys.modules``.
    """
    return sys.modules["crlab." + name]


# ---------------------------------------------------------------------------
# golden: the product command and its 21-row table
# ---------------------------------------------------------------------------

class Golden:
    name = "golden"

    @staticmethod
    def prepare(seed):
        # the golden table has no free inputs; the seed changes nothing
        with open(GOLDEN_REFERENCE, encoding="utf-8", newline="") as fh:
            return {"reference_csv": fh.read()}

    @staticmethod
    def setup(inputs, workdir):
        return {"out": tempfile.mkdtemp(dir=workdir)}

    @staticmethod
    def run(state):
        return _mod("cli").main(["reproduce-all", "--out", state["out"]])

    @staticmethod
    def observe(state, raw):
        path = os.path.join(state["out"], "reproduce_all", "reproduce_all.csv")
        try:
            with open(path, encoding="utf-8", newline="") as fh:
                text = fh.read()
        except OSError:
            text = ""
        return {"exit_code": raw, "csv": text,
                "csv_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}

    @staticmethod
    def checks(outputs, expected):
        ref = expected["reference_csv"]
        got_rows = outputs["csv"].split("\n")
        out = [("exit_code", outputs["exit_code"] == 0),
               ("bytes", outputs["csv"] == ref)]
        for i, row in enumerate(ref.rstrip("\n").split("\n")[1:], start=1):
            name = row.split(",", 1)[0]
            out.append((f"row:{name}", i < len(got_rows) and got_rows[i] == row))
        return out

    @staticmethod
    def identity(outputs):
        """What traced and untraced passes must agree on."""
        return {"exit_code": outputs["exit_code"], "csv_sha256": outputs["csv_sha256"]}


# ---------------------------------------------------------------------------
# contact_ladder: acceptance criterion 6 taken whole
# ---------------------------------------------------------------------------

CONTACT_GRIDS = ((96, 32), (192, 64), (384, 64))


class ContactLadder:
    name = "contact_ladder"

    @staticmethod
    def prepare(seed):
        # criterion 6 is one fixed problem; the seed changes nothing
        return {"coeff": [1.0, 1.0], "grids": [list(g) for g in CONTACT_GRIDS]}

    @staticmethod
    def setup(inputs, workdir):
        import numpy as np
        spec = _mod("loops").LoopOperatorSpec(dim=2, coeff=np.diag(inputs["coeff"]))
        grids = [_mod("problems").GridSpec(s, t) for s, t in inputs["grids"]]
        return {"spec": spec, "grids": grids}

    @staticmethod
    def run(state):
        spec = state["spec"]
        problem = _mod("problems").build_contact_fiber_cylinder(spec, spec)
        index_of = _mod("indexing").index_of
        return [index_of(problem, g) for g in state["grids"]]

    @staticmethod
    def observe(state, raw):
        return {"reports": [
            {"grid": r.grid_tag, "index": r.index, "dim_ker": r.dim_ker,
             "dim_coker": r.dim_coker, "decisive": r.decisive,
             "min_singular_value": r.min_singular_value} for r in raw]}

    @staticmethod
    def checks(outputs, expected):
        reps = outputs["reports"]
        out = [("grids", len(reps) == len(expected["grids"]))]
        for r in reps:
            g = r["grid"]
            out += [(f"{g}:index", r["index"] == 0),
                    (f"{g}:dim_ker", r["dim_ker"] == 0),
                    (f"{g}:dim_coker", r["dim_coker"] == 0),
                    (f"{g}:decisive", r["decisive"] is True),
                    (f"{g}:invertible", r["min_singular_value"] > 0.0)]
        mins = [r["min_singular_value"] for r in reps]
        out.append(("finest_two_within_10pct",
                    len(mins) >= 2 and abs(mins[-1] - mins[-2]) < 0.10 * mins[-1]))
        return out

    @staticmethod
    def identity(outputs):
        """What traced and untraced passes must agree on: the verified outputs
        without the singular values themselves."""
        return [{k: v for k, v in r.items() if k != "min_singular_value"}
                for r in outputs["reports"]]


# ---------------------------------------------------------------------------
# analytic: index = -spectral flow on a batch of contact-fiber problems
# ---------------------------------------------------------------------------

# criterion 7's cases: (fiber dimension, endpoint offset)
ANALYTIC_CASES = ((2, -1.5), (2, 0.0), (2, 1.5), (4, -1.0), (4, 1.0))
ANALYTIC_PROBLEMS = 15
# the spectra of the batch are drawn once, with the acceptance suite's seed
ANALYTIC_BASE_SEED = 20260810
CODIM_VARIANTS = 100
# the codimension ladder of the canonical degenerations, as the paper states it
CODIM_EXPECTED = {"one_bubble": 1, "two_level_split": 1, "multi_end_bubble": 1,
                  "multi_end_split": 1, "multi_multi_split": 2}


def standard_j(dim):
    import numpy as np
    n = dim // 2
    J = np.zeros((dim, dim))
    J[n:, :n] = np.eye(n)
    J[:n, n:] = -np.eye(n)
    return J


def mode_eigenvalues(S, kmax):
    """Eigenvalues of J0 d/dt + S for constant S over Fourier modes |k| <= kmax.

    Mode k acts as the Hermitian matrix S + 2 pi k (i J0).  This never touches
    crlab's circle-grid assembly.
    """
    import numpy as np
    J = standard_j(S.shape[0])
    return np.concatenate([np.linalg.eigvalsh(S + 2.0 * np.pi * k * (1j * J))
                           for k in range(-kmax, kmax + 1)])


def oracle_index(S_minus, S_plus, kmax=24):
    """Index of d/ds + J0 d/dt + B(s) from the mode oracle.

    On the finite mode space the spectral flow from A_+ to A_- is the drop in
    the count of negative eigenvalues, so the index is
    n_-(A_-) - n_-(A_+).  Modes beyond kmax have the same sign at both ends.
    """
    import numpy as np
    neg = [int(np.count_nonzero(mode_eigenvalues(S, kmax) < 0.0))
           for S in (S_minus, S_plus)]
    return neg[0] - neg[1]


def _endpoint(rng, dim, shift):
    """Criterion 7's endpoint generator: a random symmetric matrix, shifted,
    whose asymptotic operator keeps a spectral margin of at least 0.2."""
    import numpy as np
    while True:
        A = rng.normal(size=(dim, dim))
        S = A + A.T                      # the suite's scale 2 * (A + A^T) / 2
        if np.abs(mode_eigenvalues(S, 6)).min() < 0.05:
            continue
        S = S + shift * np.eye(dim)
        if np.abs(mode_eigenvalues(S, 6)).min() >= 0.2:
            return S


def _unitary_rotation(rng, dim):
    """A random orthogonal matrix commuting with J0 (a unitary of C^{dim/2})."""
    import numpy as np
    n = dim // 2
    Q, R = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    Q = Q * (np.diag(R) / np.abs(np.diag(R)))
    return np.block([[Q.real, -Q.imag], [Q.imag, Q.real]])


class Analytic:
    name = "analytic"

    @staticmethod
    def prepare(seed):
        """The batch for one seed, with its reference indices.

        The endpoint spectra are fixed by ANALYTIC_BASE_SEED; ``seed`` rotates
        every problem by its own unitary U, S -> U^T S U.  U commutes with J0,
        so each loop operator along the path is unitarily equivalent to the
        unrotated one: the inputs change with the seed, while the integers
        and the spectral-flow work (its bisection steps) do not.
        """
        import numpy as np
        base = np.random.default_rng(ANALYTIC_BASE_SEED)
        rot = np.random.default_rng(seed)
        problems = []
        for i in range(ANALYTIC_PROBLEMS):
            dim, offset = ANALYTIC_CASES[i % len(ANALYTIC_CASES)]
            S_minus = _endpoint(base, dim, offset)
            S_plus = _endpoint(base, dim, -offset)
            U = _unitary_rotation(rot, dim)
            S_minus, S_plus = (U.T @ S @ U for S in (S_minus, S_plus))
            S_minus, S_plus = (0.5 * (S + S.T) for S in (S_minus, S_plus))
            problems.append({"dim": dim, "S_minus": S_minus.tolist(),
                             "S_plus": S_plus.tolist(),
                             "expected_index": oracle_index(S_minus, S_plus)})
        return {"problems": problems, "seed": int(seed), "variants": CODIM_VARIANTS,
                "codim_expected": CODIM_EXPECTED}

    @staticmethod
    def setup(inputs, workdir):
        import numpy as np
        spec = _mod("loops").LoopOperatorSpec
        pairs = [(spec(dim=p["dim"], coeff=np.array(p["S_minus"])),
                  spec(dim=p["dim"], coeff=np.array(p["S_plus"])))
                 for p in inputs["problems"]]
        return {"pairs": pairs, "rng": np.random.default_rng(inputs["seed"]),
                "variants": inputs["variants"]}

    @staticmethod
    def run(state):
        build = _mod("problems").build_contact_fiber_cylinder
        analytic_index = _mod("indexing").analytic_index
        indices = [analytic_index(build(sm, sp)) for sm, sp in state["pairs"]]
        dim = _mod("dimension")
        codims = {}
        for case in dim.CANONICAL_CASES:
            codims[case] = [[dim.codimension(deg, smooth), want] for deg, smooth, want
                            in dim.randomized_budget_variants(case, state["rng"],
                                                              state["variants"])]
        return indices, codims

    @staticmethod
    def observe(state, raw):
        indices, codims = raw
        return {"indices": indices, "codims": codims}

    @staticmethod
    def checks(outputs, expected):
        want_idx = [p["expected_index"] for p in expected["problems"]]
        got_idx = outputs["indices"]
        out = [("problems", len(got_idx) == len(want_idx))]
        out += [(f"index[{i}]", g == w) for i, (g, w) in enumerate(zip(got_idx, want_idx))]
        ladder = expected["codim_expected"]
        out.append(("cases", sorted(outputs["codims"]) == sorted(ladder)))
        for case, rows in outputs["codims"].items():
            out.append((f"{case}:variants", len(rows) == expected["variants"]))
            out += [(f"{case}[{j}]", got == want == ladder.get(case))
                    for j, (got, want) in enumerate(rows)]
        return out

    @staticmethod
    def identity(outputs):
        """What traced and untraced passes must agree on: every integer."""
        return outputs


WORKLOADS = {w.name: w for w in (Golden, ContactLadder, Analytic)}
