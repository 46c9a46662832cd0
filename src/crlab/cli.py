"""Batch front-end: declarative experiment configs in, tables out.

Every experiment reads a JSON config (validated against the published JSON
Schema), writes its result files atomically into the output directory, and
reports through the exit code: 0 when every golden assertion in the
experiment passes, 2 when a rank decision was numerically indecisive, 1 on
errors or failed assertions.  All floating-point output uses 17 significant
digits, '.' decimal separators and LF line endings, so identical configs and
seeds reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import math
import os
import sys
import tempfile

import numpy as np
from jsonschema import Draft202012Validator

from . import dimension, gluing
from .assemble import assemble
from .exceptions import ConfigError, CRLabError
from .indexing import analytic_index, delta_sweep, index_of, numerical_index
from .loops import T_RESOLUTION, LoopOperatorSpec, assemble_loop_operator, spectrum
from .problems import (
    GridSpec,
    Truncation,
    build_contact_fiber_cylinder,
    build_plane,
    build_trivial_cylinder,
    problem_from_json,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INDECISIVE = 2


def fmt(x):
    """Fixed 17-significant-digit float formatting."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def write_atomic(path, text):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        # mkstemp creates 0600; give the mode open() would under the umask
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(x) for x in row))
    write_atomic(path, "\n".join(lines) + "\n")


def write_json(path, obj):
    write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


class ExperimentConfig:
    """Experiment description, checked against the schema when constructed
    (``ConfigError``); round-trips through JSON."""

    def __init__(self, name, kind, inputs=None, output_dir="out", seed=0):
        self.name = name
        self.kind = kind
        self.inputs = inputs or {}
        self.output_dir = output_dir
        self.seed = seed
        validate_config(self.to_json())
        self.seed = int(seed)       # the schema's integers include 3.0

    def to_json(self):
        return {"name": self.name, "kind": self.kind, "inputs": self.inputs,
                "output_dir": self.output_dir, "seed": self.seed}

    @staticmethod
    def from_json(d):
        validate_config(d)      # an unknown or missing key: a ConfigError, not a TypeError
        return ExperimentConfig(**d)

    def __eq__(self, other):
        return isinstance(other, ExperimentConfig) and self.to_json() == other.to_json()


def _non_finite(constant):
    # json reads NaN, Infinity and -Infinity, which the schema's numbers accept
    raise ConfigError(f"non-finite number {constant} in config")


def _finite_positive(text):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"config error: s_max must be a finite positive number, got {text!r}")
    return value


def load_schema():
    with importlib.resources.files("crlab").joinpath("experiment.schema.json").open() as fh:
        return json.load(fh)


def validate_config(d):
    validator = Draft202012Validator(load_schema())
    errors = sorted(validator.iter_errors(d), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        pointer = "/" + "/".join(str(p) for p in e.absolute_path)
        raise ConfigError(e.message, pointer)


def _grid_from_inputs(inputs, override=None):
    if override is not None:
        return override
    if "grid" in inputs:
        return GridSpec.from_json(inputs["grid"])
    return None


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def _run_spectrum(config, out, grid=None):
    spec = LoopOperatorSpec.from_json(config.inputs["spec"])
    res = int(config.inputs.get("t_resolution", T_RESOLUTION))
    method = config.inputs.get("method", "fourier")
    rep = spectrum(assemble_loop_operator(spec, res, method))
    write_json(os.path.join(out, "spectrum.json"), rep.to_json())
    rows = [(v, m, r) for v, m, r in rep.eigenvalues]
    write_csv(os.path.join(out, "spectrum.csv"),
              ("eigenvalue", "multiplicity", "reliable"), rows)
    return EXIT_OK, [f"spectrum: {len(rep.eigenvalues)} eigenvalue groups"]


def _run_index(config, out, grid=None):
    problem = problem_from_json(config.inputs["problem"])
    grid = _grid_from_inputs(config.inputs, grid)
    op = assemble(problem, grid)
    rep = numerical_index(op)
    if config.inputs.get("export_matrix"):
        op.export_matrix_market(os.path.join(out, "operator.mtx"))
    write_json(os.path.join(out, "index.json"), rep.to_json())
    write_csv(os.path.join(out, "index.csv"),
              ("grid", "dim_ker", "dim_coker", "index", "gap_ratio", "decisive"),
              [(rep.grid_tag, rep.dim_ker, rep.dim_coker, rep.index,
                rep.gap_ratio, rep.decisive)])
    lines = [f"index = {rep.index} (ker {rep.dim_ker}, coker {rep.dim_coker}, "
             f"decisive {rep.decisive})"]
    code = EXIT_OK if rep.decisive else EXIT_INDECISIVE
    if "expect_index" in config.inputs:
        want = int(config.inputs["expect_index"])
        ok = rep.index == want
        lines.append(f"expected index {want}: {'PASS' if ok else 'FAIL'}")
        if not ok:
            code = EXIT_ERROR
    ana = analytic_index(problem)
    lines.append(f"analytic index = {ana}: "
                 f"{'PASS' if ana == rep.index else 'FAIL'}")
    if ana != rep.index and code == EXIT_OK:
        code = EXIT_ERROR
    return code, lines


def _run_sweep(config, out, grid=None):
    problem = problem_from_json(config.inputs["problem"])
    grid = _grid_from_inputs(config.inputs, grid)
    rep = delta_sweep(problem, config.inputs["deltas"], grid)
    write_csv(os.path.join(out, "sweep.csv"),
              ("delta", "index", "dim_ker", "dim_coker", "status"),
              rep.to_csv_rows())
    write_csv(os.path.join(out, "jumps.csv"),
              ("delta_lo", "delta_hi", "jump", "crossed_multiplicity"),
              rep.jumps)
    bad = [j for j in rep.jumps if j[2] != j[3]]
    indecisive = any((not r.skipped) and (not r.report.decisive) for r in rep.rows)
    lines = [f"sweep: {len(rep.rows)} samples, {len(rep.jumps)} jump intervals, "
             f"{len(bad)} mismatched jumps"]
    if bad:
        return EXIT_ERROR, lines
    return (EXIT_INDECISIVE if indecisive else EXIT_OK), lines


def _run_glue(config, out, grid=None):
    pu = problem_from_json(config.inputs["problem_u"])
    pw = problem_from_json(config.inputs["problem_w"])
    taus = config.inputs["taus"]
    rep = gluing.verify_additivity(pu, pw, taus, grid)
    write_csv(os.path.join(out, "glue.csv"),
              ("tau", "ind_u", "ind_w", "ind_glued", "decisive",
               "stability_constant", "max_residual"),
              [r.to_csv_row() for r in rep.rows])
    write_json(os.path.join(out, "glue.json"), rep.to_json())
    lines = [f"additivity: {'PASS' if rep.passed else 'FAIL'} over taus {list(taus)}"]
    if not rep.passed:
        return EXIT_ERROR, lines
    if any(not r.decisive for r in rep.rows):
        return EXIT_INDECISIVE, lines
    return EXIT_OK, lines


def _run_vdim(config, out, grid=None):
    graphs = [dimension.ConfigurationGraph.from_json(g)
              for g in config.inputs.get("graphs", [])]
    rows = []
    for i, g in enumerate(graphs):
        rows.append((i, dimension.configuration_dim(g), dimension.unparameterized_dim(g)))
    write_csv(os.path.join(out, "dims.csv"), ("graph_id", "param_dim", "unparam_dim"), rows)
    code = EXIT_OK
    lines = [f"vdim: {len(graphs)} graphs"]
    pair_rows = []
    for pid, pair in enumerate(config.inputs.get("pairs", [])):
        if max(pair["degenerate"], pair["smooth"]) >= len(graphs):
            raise ConfigError(f"names a graph beyond the {len(graphs)} given",
                              f"/inputs/pairs/{pid}")
        cd = dimension.codimension(graphs[pair["degenerate"]], graphs[pair["smooth"]])
        pair_rows.append((pid, cd))
        if "expect_codim" in pair and cd != pair["expect_codim"]:
            lines.append(f"pair {pid}: codim {cd} != expected {pair['expect_codim']}")
            code = EXIT_ERROR
    rng = np.random.default_rng(config.seed)
    for case in config.inputs.get("cases", []):
        n = int(config.inputs.get("variants", 100))
        for deg, smo, want in dimension.randomized_budget_variants(case, rng, n):
            got = dimension.codimension(deg, smo)
            if got != want:
                lines.append(f"case {case}: codim {got} != {want}")
                code = EXIT_ERROR
                break
        else:
            lines.append(f"case {case}: {n} randomized variants PASS")
    if pair_rows:
        write_csv(os.path.join(out, "codims.csv"), ("pair_id", "codim"), pair_rows)
    return code, lines


def _run_reproduce_all(config, out, grid=None):
    """The golden table: every index formula and codimension claim as one row."""
    rows = []
    code = EXIT_OK

    def check(name, computed, expected):
        nonlocal code
        ok = computed == expected
        rows.append((name, fmt(computed), fmt(expected), "PASS" if ok else "FAIL"))
        if not ok:
            code = EXIT_ERROR
        return ok

    d = 1.0
    rep = index_of(build_trivial_cylinder((d, d)), grid)
    check("cylinder_decay_index", rep.index, -2)
    rep_aug = index_of(build_trivial_cylinder((d, d), (2, 2)), grid)
    check("cylinder_augmented_index", rep_aug.index, 2)
    check("cylinder_augmented_coker", rep_aug.dim_coker, 0)
    rep_mixed = index_of(build_trivial_cylinder((-d, d)), grid)
    check("mixed_weight_index", rep_mixed.index, 0)
    check("mixed_weight_invertible", rep_mixed.min_singular_value > 0.05, True)
    lam = assemble_loop_operator(LoopOperatorSpec(dim=2), T_RESOLUTION).eigenvalues()
    win = int(np.count_nonzero(np.abs(lam) < d))
    check("wall_crossing_jump", rep_mixed.index - rep.index, 2)
    check("wall_crossing_window", win, 2)
    rep_pg = index_of(build_plane(-d), grid)
    check("plane_growth_index", rep_pg.index, 2)
    check("plane_growth_kernel", rep_pg.dim_ker, 2)
    check("plane_decay_index", index_of(build_plane(d), grid).index, 0)
    check("plane_decay_aug_index", index_of(build_plane(d, 2), grid).index, 2)
    contact_iso = build_contact_fiber_cylinder(
        LoopOperatorSpec(dim=2, coeff=np.diag([1.0, 1.0])),
        LoopOperatorSpec(dim=2, coeff=np.diag([1.0, 1.0])))
    rep_iso = index_of(contact_iso, grid)
    check("contact_iso_index", rep_iso.index, 0)
    check("contact_iso_kernel", rep_iso.dim_ker, 0)
    check("contact_iso_invertible", rep_iso.min_singular_value > 0.0, True)
    rep_red = index_of(build_trivial_cylinder((d, d), (1, 2)), grid)
    check("reduced_shifts_index", rep_red.index, 1)
    check("reduced_vs_full", (rep_red.index, rep_aug.index), (1, 2))

    glue_trunc = Truncation(s_max=12.0, n_prime=3.0)
    pu = build_contact_fiber_cylinder(
        LoopOperatorSpec(dim=2, coeff=np.diag([-2.0, -2.0])),
        LoopOperatorSpec(dim=2, coeff=np.diag([1.0, 1.0])),
        weights=(1.0, 0.5), truncation=glue_trunc)
    pw = build_contact_fiber_cylinder(
        LoopOperatorSpec(dim=2, coeff=np.diag([1.0, 1.0])),
        LoopOperatorSpec(dim=2, coeff=np.diag([3.0, 3.0])),
        weights=(-0.5, 1.5), truncation=glue_trunc)
    add = gluing.verify_additivity(pu, pw, (6.0, 8.0, 10.0, 12.0))
    check("gluing_additivity", add.passed, True)

    for case in ("one_bubble", "two_level_split", "multi_end_split", "multi_multi_split"):
        pair, codim = dimension.CANONICAL_CASES[case]
        degenerate = pair(0, 0)
        check(f"{case}_codim",
              dimension.codimension(degenerate, dimension.smoothing(degenerate)), codim)

    write_csv(os.path.join(out, "reproduce_all.csv"),
              ("row", "computed", "expected", "status"), rows)
    lines = [f"{name}: {status}" for name, _, _, status in rows]
    return code, lines


# config kind -> (subcommand, runner, the override flags the subcommand reads)
EXPERIMENTS = {
    "spectrum": ("spectrum", _run_spectrum, ()),
    "index": ("index", _run_index, ("grid", "smax")),
    "sweep": ("sweep-delta", _run_sweep, ("grid", "smax")),
    "glue": ("glue", _run_glue, ("grid", "smax")),
    "vdim": ("vdim", _run_vdim, ("seed",)),
    "reproduce_all": ("reproduce-all", _run_reproduce_all, ("grid",)),
}


def run(config, grid_override=None, out_override=None):
    """Execute one experiment; returns the exit status."""
    out = os.path.join(out_override or config.output_dir, config.name)
    os.makedirs(out, exist_ok=True)
    try:
        code, lines = EXPERIMENTS[config.kind][1](config, out, grid=grid_override)
    except (CRLabError, ValueError, KeyError, MemoryError) as exc:
        write_atomic(os.path.join(out, "summary.txt"),
                     f"ERROR: {type(exc).__name__}: {exc}\n")
        return EXIT_ERROR
    status = {EXIT_OK: "OK", EXIT_INDECISIVE: "INDECISIVE", EXIT_ERROR: "FAIL"}[code]
    write_atomic(os.path.join(out, "summary.txt"),
                 "\n".join([f"experiment {config.name}: {status}"] + lines) + "\n")
    return code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # exit 2 means an indecisive rank decision, so usage errors exit 1
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def main(argv=None):
    parser = _Parser(
        prog="crlab",
        description="Fredholm-index laboratory for Cauchy-Riemann operators on cylinders")
    parser.set_defaults(grid=None, smax=None, seed=None)
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {"grid": dict(help="override grid, e.g. 96x32"),
             "smax": dict(type=_finite_positive, help="override truncation box half-length"),
             "seed": dict(type=int)}
    for kind, (cmd, _, overrides) in EXPERIMENTS.items():
        p = sub.add_parser(cmd)
        p.set_defaults(kind=kind)
        p.add_argument("--config", required=(cmd != "reproduce-all"),
                       help="experiment config JSON")
        p.add_argument("--out", default=None, help="output directory")
        for name in overrides:
            p.add_argument("--" + name, **flags[name])
    args = parser.parse_args(argv)

    grid = None
    if args.grid:
        try:
            s_nodes, t_nodes = (int(x) for x in args.grid.lower().split("x"))
            grid = GridSpec(s_nodes=s_nodes, t_nodes=t_nodes)
        except ValueError as exc:
            print(f"bad --grid value {args.grid!r}; expected SxT ({exc})", file=sys.stderr)
            return EXIT_ERROR

    try:
        if args.config:
            with open(args.config) as fh:
                raw = json.load(fh, parse_constant=_non_finite)
            config = ExperimentConfig.from_json(raw)
            if raw["kind"] != args.kind:
                print(f"config kind {raw['kind']!r} does not match subcommand",
                      file=sys.stderr)
                return EXIT_ERROR
            # --smax is only on the subcommands whose problems the schema checks
            if args.smax is not None:
                for key in ("problem", "problem_u", "problem_w"):
                    if key in config.inputs:
                        config.inputs[key]["truncation"]["s_max"] = args.smax
        else:
            config = ExperimentConfig(name="reproduce_all", kind="reproduce_all")
        if args.seed is not None:
            config.seed = args.seed
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_ERROR

    return run(config, grid_override=grid, out_override=args.out)


if __name__ == "__main__":
    sys.exit(main())
