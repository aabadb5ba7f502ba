"""Span tracer installed into a benchmark child process.

`install()` wraps the public functions at each cliffsys module boundary
from outside the package: every module attribute and class attribute
that holds the original function is replaced, so names imported with
`from .forms import tau` are traced as well.  Spans are aggregated in
memory by call path (calls, inclusive and self seconds) together with
work counters, and `dump()` writes them to a side file as JSON.  Nothing
is printed.
"""

from __future__ import annotations

import json
import sys
import types
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # frames: [path, seconds spent in child spans]
        self.spans: dict[str, list] = {}  # path -> [calls, total_s, self_s]
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, count=None):
        """fn traced as span `name`; count(args, result) runs after the span
        closes, so counting is charged to the caller, not to the layer."""
        stack, spans = self.stack, self.spans
        records: dict = {}  # parent path -> (path, record)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            key = parent[0] if parent else None
            entry = records.get(key)
            if entry is None:
                path = key + "/" + name if key else name
                entry = records[key] = (path, spans.setdefault(path, [0, 0.0, 0.0]))
            frame = [entry[0], 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                rec = entry[1]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if count is not None:
                count(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str, **extra) -> None:
        spans = [
            {"path": p, "calls": c, "total_s": t, "self_s": s}
            for p, (c, t, s) in sorted(self.spans.items())
        ]
        with open(path, "w") as fh:
            json.dump({"spans": spans, "counts": dict(self.counts), **extra}, fh)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cliffsys" or name.startswith("cliffsys."))]


def _replace(orig, new) -> None:
    """Point every cliffsys module or class attribute holding `orig` at `new`."""
    for mod in _package_modules():
        for owner in [mod] + [v for v in vars(mod).values()
                              if isinstance(v, type) and v.__module__ == mod.__name__]:
            for attr, value in list(vars(owner).items()):
                if value is orig:
                    setattr(owner, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap the module boundaries of an imported cliffsys."""
    from cliffsys import (acceptance, algebras, cli, clifford, evencliff, exactmat,
                          forms, kernel, liealg, spheres)

    counts = tracer.counts

    def wrap_attr(module, attr, name, count=None):
        """Trace module.attr; a name the package no longer has is skipped."""
        orig = vars(module).get(attr)
        if callable(orig):
            _replace(orig, tracer.wrap(name, orig, count))

    # kernel: the seam between the algorithms and the accumulation loops.
    def pairs_square(args, out):
        n = len(args[-1])
        counts["kernel.square.pairs"] += n * (n - 1) // 2

    def pairs_product(args, out):
        counts["kernel.product.pairs"] += len(args[-2]) * len(args[-1])

    def keys(args, out):
        counts["kernel.accum.keys"] += len(out)

    def perm_action(args, out):
        terms = args[0]
        counts["kernel.perm_action.letters"] += len(terms) * (terms[0][0].bit_count() if terms else 0)
        counts["kernel.perm_action.terms_out"] += len(out)

    square = tracer.wrap("kernel.square", lambda f, *a: f(*a), pairs_square)
    product = tracer.wrap("kernel.product", lambda f, *a: f(*a), pairs_product)
    items = tracer.wrap("kernel.accum", lambda f: f(), keys)
    compiled = getattr(kernel, "_compiled", lambda: False)()

    def overflow_guard(call):
        def guarded(*args):
            try:
                return call(*args)
            except OverflowError:
                counts["kernel.overflow_retries"] += 1
                raise
        return guarded

    class TracedAccumulator:
        __slots__ = ("_acc",)

        def __init__(self, acc):
            self._acc = acc

        def add_square(self, ta):
            return square(guard(self._acc.add_square), ta)

        def add_product(self, ta, tb):
            return product(guard(self._acc.add_product), ta, tb)

        def items(self):
            return items(guard(self._acc.items))

    def guard(call):
        return overflow_guard(call) if compiled else call

    new_accumulator = getattr(kernel, "new_accumulator", None)
    if new_accumulator is not None:
        kernel.new_accumulator = lambda ints: TracedAccumulator(new_accumulator(ints))
    if compiled:
        kernel._impl = types.SimpleNamespace(**{
            attr: overflow_guard(v) if callable(v) and not isinstance(v, type) else v
            for attr, v in vars(kernel._impl).items()
        })
    wrap_attr(kernel, "wedge_terms", "kernel.product",
              lambda a, out: (pairs_product(a[:2], out), keys(a, out)))
    wrap_attr(kernel, "square_terms", "kernel.square",
              lambda a, out: (pairs_square(a[:1], out), keys(a, out)))
    wrap_attr(kernel, "signed_perm_action", "kernel.perm_action", perm_action)

    # forms
    def kform(args, out):
        terms = args[3] if len(args) > 3 else None
        counts["forms.kform.terms"] += len(terms) if terms else 0

    wrap_attr(forms.KForm, "__init__", "forms.kform", kform)
    wrap_attr(forms, "_pfaffian_terms", "forms.pfaffian")
    wrap_attr(forms, "tau", "forms.tau")
    wrap_attr(forms, "lie_action", "forms.lie_action")
    wrap_attr(forms, "form_to_json", "forms.to_json")
    wrap_attr(forms, "form_from_json", "forms.from_json")
    wrap_attr(forms, "form_to_text", "forms.to_text")
    wrap_attr(forms, "canonical_form", "forms.canonical")
    wrap_attr(forms, "psi_matrix", "forms.psi_matrix")
    wrap_attr(forms, "kaehler_form", "forms.kaehler")

    # liealg: rows go through the echelon by insert (from the span and the
    # stabilizer systems) or by a membership test (MatrixSpan.contains).
    def inserted(args, out):
        counts["liealg.echelon.rows"] += 1
        counts["liealg.echelon.pivots"] += out

    def tested(args, out):
        counts["liealg.echelon.rows"] += 1

    wrap_attr(liealg._SparseEchelon, "insert", "liealg.echelon", inserted)
    wrap_attr(liealg.MatrixSpan, "contains", "liealg.span", tested)
    for attr in ("__init__", "bracket_closed"):
        wrap_attr(liealg.MatrixSpan, attr, "liealg.span")
    wrap_attr(liealg, "commutant_dim", "liealg.commutant")
    wrap_attr(liealg, "normalizer_dim", "liealg.normalizer")
    wrap_attr(liealg, "triple_span_decomposition", "liealg.decomposition")

    # exactmat
    wrap_attr(exactmat.SignedPermMatrix, "mul", "exactmat.mul")
    wrap_attr(exactmat.SignedPermMatrix, "apply_vector", "exactmat.apply_vector")
    wrap_attr(exactmat.RationalMatrix, "apply_vector", "exactmat.apply_vector")
    wrap_attr(exactmat, "matrix_to_json", "exactmat.to_json")
    wrap_attr(exactmat, "matrix_from_json", "exactmat.from_json")

    # clifford, evencliff, spheres, algebras, acceptance
    for attr in ("build", "tilde", "verify", "to_representation", "system_to_json",
                 "system_from_json", "classify_essential"):
        wrap_attr(clifford, attr, "clifford." + attr.replace("system_", ""))
    for attr in ("build_e10", "psi_d", "tau4_psi_d", "classify", "involution_span_obstruction"):
        wrap_attr(evencliff, attr, "evencliff." + attr)

    def points(args, out):
        counts["spheres.verify.points"] += len(args[1])

    wrap_attr(spheres, "verify_pointwise", "spheres.verify", points)
    wrap_attr(spheres, "max_vector_fields", "spheres.fields")
    wrap_attr(spheres, "random_unit_points", "spheres.points")
    wrap_attr(spheres, "hurwitz_radon", "spheres.hurwitz_radon")
    wrap_attr(algebras, "algebra_table", "algebras.table")
    wrap_attr(algebras.AlgebraTable, "text_grid", "algebras.text_grid")
    wrap_attr(algebras, "left_mult", "algebras.mult")
    wrap_attr(algebras, "right_mult", "algebras.mult")
    wrap_attr(acceptance, "run_all", "acceptance.run_all")

    # cli: serialisation and output
    def emitted(args, out):
        counts["cli.output_bytes"] += len(args[1])  # the output is ASCII

    wrap_attr(cli, "_json", "cli.encode")
    wrap_attr(cli, "_emit", "cli.write", emitted)
