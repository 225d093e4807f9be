"""Per-layer spans and counters, recorded from outside the program.

`Tracer.install` rebinds the public functions of each `schroeder` module
to wrappers, in every module that holds a name for them (so calls from
one module into another, and within a module through its globals, are
seen), and wraps the `Jet` and `Scalar` operators.  A span records its
inclusive time under its own name and its self time (duration minus the
time of the spans it directly contains) under its layer.  Scalar
operators are counted, not timed: they are too small and too many.

The program itself is unchanged; this only replaces attributes in the
process that runs the traced pass.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

#: Every per-layer metric, with its unit; `snapshot` reports all of them.
METRICS = {
    "engine.analyze_s": "s",
    "engine.solve_s": "s",
    "engine.solve_power_s": "s",
    "engine.verify_s": "s",
    "engine.detect_resonance_s": "s",
    "engine.self_s": "s",
    "engine.terms_out": "count",
    "maps.compose_s": "s",
    "maps.compose_calls": "count",
    "maps.map_compose_s": "s",
    "maps.map_compose_calls": "count",
    "maps.matrix_apply_s": "s",
    "maps.self_s": "s",
    "series.jet_add_calls": "count",
    "series.jet_mul_calls": "count",
    "series.jet_build_calls": "count",
    "series.self_s": "s",
    "scalars.mul_calls": "count",
    "scalars.add_calls": "count",
    "scalars.inv_calls": "count",
    "scalars.max_bits": "bits",
    "linalg.kernel_basis_s": "s",
    "linalg.kernel_basis_calls": "count",
    "linalg.vectors_rank_s": "s",
    "linalg.rank_s": "s",
    "linalg.inverse_s": "s",
    "linalg.incremental_jordanize_s": "s",
    "linalg.transition_to_jordan_s": "s",
    "linalg.self_s": "s",
    "compop.truncation_degree_s": "s",
    "compop.truncation_degree_calls": "count",
    "compop.products": "count",
    "compop.build_s": "s",
    "compop.degree_max": "count",
    "compop.basis_size_max": "count",
    "compop.op_nonzeros": "count",
    "compop.self_s": "s",
    "documents.parse_s": "s",
    "documents.emit_s": "s",
    "documents.bytes_out": "bytes",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.requests": "count",
}


class Tracer:
    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.depth: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxes: Dict[str, int] = defaultdict(int)
        self.stack: List[List[float]] = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Wrap `fn` in a span called `name` ("layer.function")."""
        layer = name.split(".", 1)[0]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            self.depth[name] += 1
            self.stack.append([0.0])
            t = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t
                children = self.stack.pop()[0]
                self.depth[name] -= 1
                if not self.depth[name]:
                    self.inclusive[name] += dt
                self.self_time[layer] += dt - children
                if self.stack:
                    self.stack[-1][0] += dt
            if after is not None:
                after(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args):
            self.counts[name] += 1
            return fn(*args)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import sys

        from schroeder import cli, compop, documents, engine, linalg, maps, scalars, series

        def solution_sizes(sol) -> None:
            comps = sol.components.components
            self.counts["engine.terms_out"] += sum(len(c.coeffs) for c in comps)
            bits = max(
                (max(x.numerator.bit_length(), x.denominator.bit_length())
                 for c in comps for s in c.coeffs.values() for x in (s.re, s.im)),
                default=0,
            )
            self.maxes["scalars.max_bits"] = max(self.maxes["scalars.max_bits"], bits)

        def operator_sizes(op) -> None:
            self.maxes["compop.degree_max"] = max(self.maxes["compop.degree_max"], op.degree)
            self.maxes["compop.basis_size_max"] = max(self.maxes["compop.basis_size_max"], op.size)
            self.counts["compop.op_nonzeros"] += sum(
                1 for row in op.matrix.entries for x in row if not x.is_zero()
            )

        def products(out) -> None:
            self.counts["compop.products"] += len(out)

        def emitted(text) -> None:
            self.counts["documents.bytes_out"] += len(text.encode())

        spans = {
            engine.analyze: ("engine.analyze", None),
            engine.solve: ("engine.solve", solution_sizes),
            engine.solve_power: ("engine.solve_power", solution_sizes),
            engine.verify: ("engine.verify", None),
            engine.detect_resonance: ("engine.detect_resonance", None),
            engine.truncated_operator: ("engine.truncated_operator", None),
            engine.component_rank: ("engine.component_rank", None),
            maps.compose: ("maps.compose", None),
            maps.map_compose: ("maps.map_compose", None),
            maps.matrix_apply: ("maps.matrix_apply", None),
            maps.matrix_map: ("maps.matrix_map", None),
            maps.monomial_power: ("maps.monomial_power", None),
            maps.conjugate_map: ("maps.conjugate_map", None),
            series.jet_mul: ("series.jet_mul", None),
            series.enumerate_monomials: ("series.enumerate_monomials", None),
            series.monomials_of_degree: ("series.monomials_of_degree", None),
            linalg.kernel_basis: ("linalg.kernel_basis", None),
            linalg.vectors_rank: ("linalg.vectors_rank", None),
            linalg.rank: ("linalg.rank", None),
            linalg.inverse: ("linalg.inverse", None),
            linalg.incremental_jordanize: ("linalg.incremental_jordanize", None),
            linalg.transition_to_jordan_triangular: ("linalg.transition_to_jordan", None),
            linalg.jordan_chains_triangular: ("linalg.jordan_chains_triangular", None),
            linalg.mat_mul: ("linalg.mat_mul", None),
            linalg.mat_pow: ("linalg.mat_pow", None),
            compop.truncation_degree: ("compop.truncation_degree", None),
            compop.eigenvalue_products: ("compop.eigenvalue_products", products),
            compop.build: ("compop.build", operator_sizes),
            compop.jet_vector: ("compop.jet_vector", None),
            compop.vector_jet: ("compop.vector_jet", None),
            documents.load: ("documents.parse", None),
            documents.parse_map_document: ("documents.parse", None),
            documents.parse_solution_document: ("documents.parse", None),
            documents.dump: ("documents.emit", emitted),
            documents.analysis_json: ("documents.emit", None),
            documents.solution_json: ("documents.emit", None),
            documents.verify_json: ("documents.emit", None),
            documents.operator_json: ("documents.emit", None),
            cli.main: ("cli.main", None),
        }
        counted = {scalars.scalar_inv: "scalars.inv_calls"}
        replace = {id(fn): self.span(name, fn, after) for fn, (name, after) in spans.items()}
        replace.update({id(fn): self.counter(name, fn) for fn, name in counted.items()})
        modules = [m for k, m in sys.modules.items() if k == "schroeder" or k.startswith("schroeder.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in replace:
                    setattr(module, attr, replace[id(value)])

        # Methods and operators, wrapped on their classes.
        jet, scalar, matrix = series.Jet, scalars.Scalar, linalg.ExactMatrix
        build = jet.__dict__["build"].__func__
        jet.build = staticmethod(self.span("series.jet_build", build))
        for attr in ("__add__", "__neg__", "scale", "truncate", "homogeneous_slice", "terms"):
            jet_name = "series.jet_add" if attr == "__add__" else f"series.jet_{attr.strip('_')}"
            setattr(jet, attr, self.span(jet_name, getattr(jet, attr)))
        matrix.shift = self.span("linalg.shift", matrix.shift)
        scalar.__mul__ = self.counter("scalars.mul_calls", scalar.__mul__)
        scalar.__add__ = self.counter("scalars.add_calls", scalar.__add__)
        scalar.__sub__ = self.counter("scalars.add_calls", scalar.__sub__)

    # -- results ----------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Every metric of `METRICS` for the work since the last reset."""
        out: Dict[str, float] = {}
        for metric in METRICS:
            layer, what = metric.split(".", 1)
            if what == "self_s":
                value = self.self_time.get(layer, 0.0)
            elif what.endswith("_calls") and layer != "scalars":
                value = self.calls.get(f"{layer}.{what[:-6]}", 0)
            elif what.endswith("_s"):
                value = self.inclusive.get(f"{layer}.{what[:-2]}", 0.0)
            elif metric in self.maxes:
                value = self.maxes[metric]
            else:
                value = self.counts.get(metric, 0)
            out[metric] = value
        out["cli.requests"] = self.calls.get("cli.main", 0)
        out["trace.spans"] = sum(self.calls.values())
        return out
