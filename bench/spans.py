"""Per-layer spans recorded from outside the program.

`Tracer.install()` replaces chosen functions and methods of the hopfva
modules with timing wrappers, at every name the package looks them up by
(a function imported into another module is patched there too), and
`uninstall()` puts the originals back.  Spans nest on a stack: a span's self
time is its duration minus the time of the wrapped spans it encloses, and
each layer's self time is the sum over its spans.  Arithmetic in
`fractions.Fraction` and in unwrapped helpers counts towards the self time
of the layer that called it.  Aggregates stay in memory until `report()`.
"""

from __future__ import annotations

import importlib
import sys
import time
import types

LAYERS = ("scalars", "linalg", "hopf", "vertexalg", "action", "schurweyl", "cli")

# layer -> names to wrap ("Class.method" for methods)
TARGETS = {
    "cli": ("main", "load", "run"),
    "scalars": ("cyclotomic", "Cyclotomic.inverse", "Cyclotomic.coeffs_at",
                "Cyclotomic.__add__", "Cyclotomic.__sub__", "Cyclotomic.__mul__",
                "Cyclotomic.__truediv__", "Cyclotomic.__eq__"),
    "linalg": ("_rref_rows", "_minimal_polynomial", "split_commutative_algebra", "solve",
               "Matrix.apply", "Matrix.__mul__", "Matrix.kron", "Matrix.kernel",
               "Matrix.rank", "Matrix.rref", "Matrix.det", "Matrix.__add__",
               "Matrix.__sub__", "Matrix.scale", "Matrix.transpose",
               "Subspace.from_vectors", "Subspace.intersect", "Subspace.coordinates_of"),
    "hopf": ("FinHopfAlgebra.__init__", "verify_hopf_axioms", "is_cocommutative",
             "dual_hopf", "group_likes", "recognize_group_algebra", "augmentation_ideal",
             "is_bialgebra_ideal", "is_hopf_ideal", "quotient_hopf", "group_algebra",
             "sweedler"),
    "vertexalg": ("CommDiffVA.__init__", "pi2_kernel", "pin_injectivity_check", "z2_kernel",
                  "_kernel_of_columns", "_impose_order", "_derivative_chains",
                  "verify_comm_va_axioms", "flip_skew_check", "poly_from_text"),
    "action": ("HopfAction.from_generator_images", "HopfAction.act_basis_on_poly",
               "HopfAction.rho", "verify_module_algebra", "check_D_commute",
               "verify_module_vertex_algebra", "fixed_subspace", "action_annihilator",
               "maximal_hopf_ideal_in", "is_inner_faithful", "inner_faithful_quotient",
               "tensor_power_faithfulness", "check_thm_kernel_bialgebra_ideal",
               "check_thm_group_algebra"),
    "schurweyl": ("FinGroupRep.__init__", "FinGroupRep.from_hopf_action",
                  "FinGroupRep.fixed_points", "CharacterTable.__init__",
                  "isotypic_projector", "decompose", "multiplicity_space",
                  "check_commutant", "cyclic_reachability", "distinguish_isotypes",
                  "_mode_matrix"),
}


def _count_columns(counts, args, result):
    columns = args[0]
    counts["vertexalg.columns"] += len(columns)
    counts["vertexalg.column_entries"] += sum(len(c) for c in columns)


def _count_cells(counts, args, result):
    counts["linalg.kernel.cells"] += len(args[0]) * args[1]


def _count_kron(counts, args, result):
    counts["linalg.kron.cells"] += result.rows * result.cols


def _count_idempotents(counts, args, result):
    counts["linalg.idempotents"] += len(result)


COUNTERS = {
    ("vertexalg", "_kernel_of_columns"): _count_columns,
    ("linalg", "_rref_rows"): _count_cells,
    ("linalg", "Matrix.kron"): _count_kron,
    ("linalg", "split_commutative_algebra"): _count_idempotents,
}


class Tracer:
    def __init__(self):
        self.stats = {}       # (layer, name) -> [calls, total_s, self_s]
        self.counts = {name: 0 for name in ("vertexalg.columns", "vertexalg.column_entries",
                                            "linalg.kernel.cells", "linalg.kron.cells",
                                            "linalg.idempotents")}
        self._stack = []      # one [child_s] cell per open span
        self._patches = []    # (namespace, attribute, original)

    def _wrap(self, layer, name, fn):
        key = (layer, name)
        self.stats[key] = [0, 0.0, 0.0]
        stat = self.stats[key]
        stack = self._stack
        counter = COUNTERS.get(key)
        counts = self.counts
        clock = time.perf_counter

        def span(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - cell[0]
                if stack:
                    stack[-1][0] += dt
            if counter is not None:
                counter(counts, args, result)
            return result

        span.__wrapped__ = fn
        return span

    def _patch(self, namespace, attr, value):
        original = namespace.__dict__[attr] if isinstance(namespace, type) \
            else getattr(namespace, attr)
        self._patches.append((namespace, attr, original))
        setattr(namespace, attr, value)

    def install(self):
        modules = {layer: importlib.import_module(f"hopfva.{layer}") for layer in LAYERS}
        package = [m for n, m in sys.modules.items()
                   if (n == "hopfva" or n.startswith("hopfva.")) and isinstance(m, types.ModuleType)]
        for layer, names in TARGETS.items():
            mod = modules[layer]
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        self._patch(cls, meth, classmethod(self._wrap(layer, name, raw.__func__)))
                        continue
                    wrapped = self._wrap(layer, name, raw)
                    # aliases such as __rmul__ = __mul__ share the span
                    for attr, value in list(cls.__dict__.items()):
                        if value is raw:
                            self._patch(cls, attr, wrapped)
                    continue
                original = getattr(mod, name)
                wrapped = self._wrap(layer, name, original)
                for m in package:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, wrapped)

    def uninstall(self):
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def _total(self, layer, name):
        return self.stats[(layer, name)][1]

    def _calls(self, layer, name):
        return self.stats[(layer, name)][0]

    def layer_self(self, layer):
        return sum(s[2] for (lay, _), s in self.stats.items() if lay == layer)

    def metrics(self):
        """The per-layer metrics named in BENCHMARK.json (without overhead)."""
        minpoly = self._calls("linalg", "_minimal_polynomial")
        idem = self.counts["linalg.idempotents"]
        out = {
            "vertexalg.self_s": (self.layer_self("vertexalg"), "s"),
            "vertexalg.columns": (self.counts["vertexalg.columns"], "count"),
            "vertexalg.column_entries": (self.counts["vertexalg.column_entries"], "count"),
            "linalg.kernel_s": (self._total("linalg", "_rref_rows"), "s"),
            "linalg.kernel.calls": (self._calls("linalg", "_rref_rows"), "count"),
            "linalg.kernel.cells": (self.counts["linalg.kernel.cells"], "count"),
            "action.self_s": (self.layer_self("action"), "s"),
            "action.apply.calls": (self._calls("action", "HopfAction.act_basis_on_poly"), "count"),
            "linalg.apply_s": (self._total("linalg", "Matrix.apply"), "s"),
            "linalg.apply.calls": (self._calls("linalg", "Matrix.apply"), "count"),
            "linalg.matmul_s": (self._total("linalg", "Matrix.__mul__"), "s"),
            "linalg.matmul.calls": (self._calls("linalg", "Matrix.__mul__"), "count"),
            "schurweyl.self_s": (self.layer_self("schurweyl"), "s"),
            "schurweyl.commutant_s": (self._total("schurweyl", "check_commutant"), "s"),
            "linalg.kron_s": (self._total("linalg", "Matrix.kron"), "s"),
            "linalg.kron.cells": (self.counts["linalg.kron.cells"], "count"),
            "action.build_s": (self._total("action", "HopfAction.from_generator_images"), "s"),
            "linalg.split_s": (self._total("linalg", "split_commutative_algebra"), "s"),
            "linalg.minpoly.calls": (minpoly, "count"),
            "linalg.minpoly_per_idempotent": (minpoly / idem if idem else 0.0, "ratio"),
            "scalars.cyclotomic_s": (self.layer_self("scalars"), "s"),
            "scalars.cyclotomic.calls": (sum(s[0] for (lay, _), s in self.stats.items()
                                             if lay == "scalars"), "count"),
            "hopf.self_s": (self.layer_self("hopf"), "s"),
            "hopf.verify_axioms_s": (self._total("hopf", "verify_hopf_axioms"), "s"),
            "hopf.verify_axioms.calls": (self._calls("hopf", "verify_hopf_axioms"), "count"),
            "cli.self_s": (self.layer_self("cli"), "s"),
            "linalg.self_s": (self.layer_self("linalg"), "s"),
        }
        return out

    def report(self):
        """Every (layer, function) aggregate, for the trace file."""
        return {
            "spans": [{"layer": lay, "function": name, "calls": s[0],
                       "total_s": s[1], "self_s": s[2]}
                      for (lay, name), s in sorted(self.stats.items()) if s[0]],
            "counts": dict(self.counts),
        }
