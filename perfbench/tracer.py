"""Spans around the public functions of the crlab modules, installed from outside.

No file of crlab changes.  ``Tracer.install`` wraps every public function
defined in one of the layer modules and rebinds each global of every loaded
``crlab`` module that holds the same function object, so a call through
``crlab.indexing.assemble`` or ``crlab.gluing.kernel_vectors`` is seen as
well as one through ``crlab.assemble.assemble``.

Spans nest strictly (one thread), so a span's self time is its duration minus
the durations of its direct children.  Spans are aggregated per name in
memory as they close: calls, total seconds, self seconds.  Counters are read
at the same boundaries from the arguments and results; the time spent
computing them is charged to no span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("cli", "problems", "loops", "assemble", "indexing", "gluing", "dimension")

# the problem builders and with_weights form one span
SPAN_NAMES = {f"problems.{f}": "problems.build" for f in (
    "build_trivial_cylinder", "build_contact_fiber_cylinder", "build_plane",
    "with_weights")}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def svd_flop(shape, complex_):
    """Dense values-only SVD cost of one block (Householder bidiagonalization,
    4 m n^2 - 4 n^3 / 3 real flops for m >= n), times 4 for complex entries.
    Computed from the shape, not measured."""
    m, n = max(shape), min(shape)
    return (4.0 * m * n * n - 4.0 * n ** 3 / 3.0) * (4.0 if complex_ else 1.0)


class Tracer:
    def __init__(self):
        self.stats = {}            # span name -> [calls, total_s, self_s]
        self.counts = Counter()
        self._stack = []           # open spans: [name, start, child_s]
        self._active = Counter()   # span name -> how many are open
        self._patched = []         # (module, attribute, original)

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        self._active[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self, call=True):
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        self._active[name] -= 1
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += call
        st[1] += dur
        st[2] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def _untimed(self, start):
        """Charge the time since ``start`` to no span."""
        if self._stack:
            self._stack[-1][2] += time.perf_counter() - start

    def _wrap(self, name, fn, hook):
        if inspect.isgeneratorfunction(fn):
            # the body runs on each next(), so each resumption is one span;
            # the consumer's work between items is not inside it
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                self.stats.setdefault(name, [0, 0.0, 0.0])[0] += 1
                while True:
                    self._enter(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._exit(call=False)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if hook is not None:
                start = time.perf_counter()
                hook(args, kwargs, result)
                self._untimed(start)
            return result
        return wrapper

    # -- counters read at the layer boundaries -------------------------------

    def _on_assemble(self, args, kwargs, op):
        import numpy as np
        nbytes = 0
        for b in op.blocks:
            nbytes += b.matrix.nbytes
            self.counts["assemble.entries"] += b.matrix.size
            self.counts["assemble.nnz"] += int(np.count_nonzero(b.matrix))
        self.counts["assemble.blocks"] += len(op.blocks)
        self.counts["assemble.max_op_bytes"] = max(self.counts["assemble.max_op_bytes"],
                                                   nbytes)

    def _on_numerical_index(self, args, kwargs, report):
        import numpy as np
        op = _arg(args, kwargs, 0, "op")
        self.counts["indexing.numerical_index.blocks"] += len(op.blocks)
        self.counts["indexing.svd_flop"] += sum(
            svd_flop(b.matrix.shape, np.iscomplexobj(b.matrix)) for b in op.blocks)
        self.counts["indexing.decisive"] += bool(report.decisive)

    def _on_kernel_vectors(self, args, kwargs, result):
        self.counts["assemble.kernel_vectors.blocks"] += len(_arg(args, kwargs, 0, "op").blocks)

    def _on_stability_constant(self, args, kwargs, result):
        self.counts["gluing.stability_constant.blocks"] += len(
            _arg(args, kwargs, 0, "glued_op").blocks)

    def _on_write_atomic(self, args, kwargs, result):
        self.counts["cli.write_atomic.bytes"] += len(
            _arg(args, kwargs, 1, "text").encode("utf-8"))

    def _on_assemble_loop_operator(self, args, kwargs, result):
        if self._active["loops.spectral_flow"]:
            self.counts["loops.spectral_flow.evals"] += 1

    # -- installation --------------------------------------------------------

    def install(self):
        hooks = {
            "assemble.assemble": self._on_assemble,
            "indexing.numerical_index": self._on_numerical_index,
            "assemble.kernel_vectors": self._on_kernel_vectors,
            "gluing.stability_constant": self._on_stability_constant,
            "cli.write_atomic": self._on_write_atomic,
            "loops.assemble_loop_operator": self._on_assemble_loop_operator,
        }
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module("crlab." + layer)
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                full = f"{layer}.{attr}"
                wrapped[id(obj)] = (obj, self._wrap(SPAN_NAMES.get(full, full), obj,
                                                    hooks.get(full)))
        # crlab/__init__ re-exports functions, and the modules import each
        # other's functions by name: rebind every global holding an original
        for modname, mod in list(sys.modules.items()):
            if modname != "crlab" and not modname.startswith("crlab."):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def table(self):
        """{span name: {"calls", "total_s", "self_s"}}."""
        return {name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.stats.items())}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(table, counts):
    """The per-layer metrics of one traced pass, by BENCHMARK.json name.

    A span that never ran reads 0, and so does a ratio whose base is 0.
    """
    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0)

    m = {}
    for name in ("indexing.numerical_index", "gluing.stability_constant",
                 "assemble.assemble", "assemble.fd_operators", "assemble.kernel_vectors",
                 "loops.spectral_flow", "loops.assemble_loop_operator",
                 "loops.is_nondegenerate", "problems.build", "dimension.codimension"):
        m[name + ".calls"] = calls(name)
        m[name + ".self_s"] = self_s(name)
    for name in ("indexing.index_of", "indexing.analytic_index", "gluing.glue",
                 "gluing.component_kernel", "gluing.approximate_kernel",
                 "gluing.transplant_residuals", "gluing.verify_additivity",
                 "loops.spectrum", "dimension.randomized_budget_variants", "cli.run"):
        m[name + ".self_s"] = self_s(name)

    gflop = counts.get("indexing.svd_flop", 0.0) / 1e9
    m["indexing.svd_gflop_dense"] = gflop
    m["indexing.svd_gflops_achieved"] = _ratio(gflop, self_s("indexing.numerical_index"))
    m["indexing.decisive_ratio"] = _ratio(counts.get("indexing.decisive", 0),
                                          calls("indexing.numerical_index"))
    decomposed = (counts.get("indexing.numerical_index.blocks", 0)
                  + counts.get("assemble.kernel_vectors.blocks", 0)
                  + counts.get("gluing.stability_constant.blocks", 0))
    m["indexing.decompositions_per_block"] = _ratio(decomposed,
                                                    counts.get("assemble.blocks", 0))
    m["assemble.blocks"] = counts.get("assemble.blocks", 0)
    m["assemble.dense_mb"] = counts.get("assemble.max_op_bytes", 0) / 1e6
    m["assemble.nnz_fraction"] = _ratio(counts.get("assemble.nnz", 0),
                                        counts.get("assemble.entries", 0))
    m["loops.spectral_flow.evals_per_call"] = _ratio(
        counts.get("loops.spectral_flow.evals", 0), calls("loops.spectral_flow"))
    m["cli.write_atomic.calls"] = calls("cli.write_atomic")
    m["cli.write_atomic.bytes"] = counts.get("cli.write_atomic.bytes", 0)
    return m
