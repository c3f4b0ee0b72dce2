"""Per-layer spans for the traced run, installed from outside the package.

Each listed public function of a quivsheaf module is replaced, in every
module namespace that binds it, by a wrapper that records a span.  A
span's self time is its duration minus the time covered by the spans it
encloses, so the self times of all spans add up to the traced time spent
inside the package.  Counters are taken from the wrapped calls' arguments
and results.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function) -> span group.  Groups named here feed the per-layer
# metrics; the others keep their self time out of their callers' groups.
SPANS = {
    ("cli", "main"): "cli.self",
    ("io", "load_quiver"): "io.load",
    ("io", "load_presheaf"): "io.load",
    ("io", "load_representation"): "io.load",
    ("io", "dumps_canonical"): "io.dump",
    ("io", "axiom_report_to_json"): "io.dump",
    ("io", "verdict_to_json"): "io.dump",
    ("io", "presheaf_to_json"): "io.dump",
    ("io", "validation_report_to_json"): "io.dump",
    ("io", "matrix_to_json"): "io.dump",
    ("quiver", "validate"): "quiver.validate",
    ("quiver", "morphisms_into"): "quiver.paths",
    ("quiver", "morphism_table"): "quiver.paths",
    ("quiver", "hom"): "quiver.paths",
    ("quiver", "slice_objects"): "quiver.paths",
    ("quiver", "connected_components"): "quiver.other",
    ("sieves", "enumerate_sieves"): "sieves.enumerate",
    ("sieves", "covering_sieves"): "sieves.enumerate",
    ("sieves", "audit_axioms"): "sieves.audit",
    ("sheaf", "is_sheaf"): "sheaf.self",
    ("sheaf", "is_sheaf_for_sieve"): "sheaf.self",
    ("sheaf", "section_map"): "sheaf.self",
    ("sheaf", "is_discrete_sheaf_criterion"): "sheaf.self",
    ("presheaf", "eval_presheaf"): "presheaf.eval",
    ("presheaf", "nat_trans_space"): "presheaf.nat_trans",
    ("presheaf", "dualize"): "presheaf.other",
    ("functors", "check_adjunction"): "functors.adjunction",
    ("functors", "left_adjoint_component"): "functors.adjunction",
    ("functors", "left_adjoint_literal"): "functors.literal",
    ("functors", "monodromy_report"): "functors.monodromy",
    ("functors", "transport"): "functors.monodromy",
    ("linalg.matrix", "rref"): "linalg.rref",
    ("linalg.matrix", "rank"): "linalg.rref",
    ("linalg.matrix", "kernel_basis"): "linalg.rref",
    ("linalg.matrix", "solve"): "linalg.rref",
    ("linalg.matrix", "inverse"): "linalg.rref",
    ("linalg.matrix", "is_isomorphism"): "linalg.rref",
    ("linalg.matrix", "inverse_map"): "linalg.rref",
    ("linalg.matrix", "transpose_map"): "linalg.other",
    ("linalg.matrix", "Matrix.__matmul__"): "linalg.matmul",
    ("linalg.diagram", "limit"): "linalg.diagram",
    ("linalg.diagram", "colimit"): "linalg.diagram",
}

TIMES = (
    "linalg.rref",
    "linalg.matmul",
    "linalg.diagram",
    "sieves.enumerate",
    "sieves.audit",
    "sheaf.self",
    "presheaf.eval",
    "presheaf.nat_trans",
    "functors.adjunction",
    "functors.literal",
    "functors.monodromy",
    "quiver.validate",
    "quiver.paths",
    "io.load",
    "io.dump",
    "cli.self",
)


def _count_rref(counts, args, result):
    m = args[0]
    counts["linalg.rref_calls"] += 1
    counts["linalg.rref_cells"] += m.rows * m.cols


def _count_sieves(counts, args, result):
    counts["sieves.enumerated"] += len(result)


def _count_unknowns(counts, args, result):
    F, G = args[0], args[1]
    counts["presheaf.nat_trans_unknowns"] += sum(F.dim(v) * G.dim(v) for v in F.quiver.vertices)


def _counter(name):
    def count(counts, args, result):
        counts[name] += 1

    return count


COUNTERS = {
    ("linalg.matrix", "rref"): _count_rref,
    ("linalg.matrix", "Matrix.__matmul__"): _counter("linalg.matmul_calls"),
    ("sieves", "enumerate_sieves"): _count_sieves,
    ("sieves", "covering_sieves"): _count_sieves,
    ("sheaf", "is_sheaf_for_sieve"): _counter("sheaf.sieve_checks"),
    ("presheaf", "eval_presheaf"): _counter("presheaf.eval_calls"),
    ("presheaf", "nat_trans_space"): _count_unknowns,
}

COUNTS = (
    "linalg.rref_calls",
    "linalg.rref_cells",
    "linalg.matmul_calls",
    "sieves.enumerated",
    "sheaf.sieve_checks",
    "presheaf.eval_calls",
    "presheaf.nat_trans_unknowns",
)


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._open = []  # per open span: time covered by its children

    def reset(self):
        self.self_s.clear()
        self.counts.clear()

    def wrap(self, fn, group, counter):
        open_spans = self._open
        self_s = self.self_s
        counts = self.counts

        @functools.wraps(fn)
        def span(*args, **kwargs):
            covered = [0.0]
            open_spans.append(covered)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                open_spans.pop()
                self_s[group] += duration - covered[0]
                if open_spans:
                    open_spans[-1][0] += duration
            if counter is not None:
                counter(counts, args, result)
            return result

        return span

    def install(self, package):
        """Wrap every function in SPANS wherever the package binds it."""
        modules = [m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")]
        replaced = {}
        for (modname, qualname), group in SPANS.items():
            module = sys.modules[f"{package}.{modname}"]
            owner = module
            attr = qualname
            if "." in qualname:
                cls, attr = qualname.split(".")
                owner = getattr(module, cls)
            original = getattr(owner, attr)
            wrapped = self.wrap(original, group, COUNTERS.get((modname, qualname)))
            setattr(owner, attr, wrapped)
            replaced[id(original)] = (original, wrapped)
        for module in modules:
            for name, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, name, hit[1])

    def metrics(self, commands, bytes_in, bytes_out) -> dict:
        """Per-command means of every per-layer metric."""
        out = {}
        for name in COUNTS:
            out[name] = {"value": self.counts[name] / commands, "unit": "count"}
        out["io.bytes_in"] = {"value": bytes_in / commands, "unit": "B"}
        out["io.bytes_out"] = {"value": bytes_out / commands, "unit": "B"}
        for group in TIMES:
            out[f"{group}_s"] = {"value": self.self_s[group] / commands, "unit": "s"}
        return out
