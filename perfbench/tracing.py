"""Per-layer tracing from outside the program.

:class:`Tracer` replaces every binding of every public ``exactspan``
function, in every ``exactspan`` module namespace, with a wrapper that
records a span (name, parent span, start, end, detail).  Modules import
functions by name (``from .core import reduced_form``), so each importing
module holds its own binding and all of them are patched.  Two hot
methods are counted without spans: ``Field.scalar`` (every boxed scalar)
and ``Frame.__post_init__`` (every frame validation).  Spans stay in
memory; :func:`layer_metrics` reduces them when the traced pass ends.
"""

from __future__ import annotations

import sys
import types
from collections import Counter, defaultdict
from time import perf_counter_ns
from typing import Dict, List

PACKAGE = "exactspan"
ENTRIES = (
    "lemma.verify_basic_lemma",
    "lemma.trace_induction",
    "lemma.steinitz_extend",
    "spans.change_of_basis",
    "spans.basis_from_generators",
)
PARSE = {"textio.parse_matrix_file", "textio.parse_matrix_text", "textio.parse_certificate_file",
         "textio.parse_certificate_text"}
RENDER = {"textio.render_certificate", "textio.render_trace", "textio.render_sequence", "textio.render_field"}
BRUTEFORCE = {"oracle.enum_span", "oracle.member_bruteforce", "oracle.rank_bruteforce",
              "oracle.maximality_bruteforce"}


def _detail(name: str, args, result):
    """Per-span detail: field class and cell count of an elimination, text
    length of a parse or render."""
    if name == "core.reduced_form":
        m = args[0]
        p = m.field.modulus
        return ("q" if p is None else "gf2" if p == 2 else "gfp", m.rows * m.cols)
    if name.startswith("textio.parse_") and name.endswith("_text"):
        return len(args[0].encode())
    if name in RENDER and isinstance(result, str):
        return len(result.encode())
    return None


class Tracer:
    """Context manager: patches on entry, restores every binding on exit."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    def __enter__(self) -> "Tracer":
        modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        wrappers: Dict[int, object] = {}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__.startswith(PACKAGE)):
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self._span_wrapper(obj)
                    self._patch(mod, name, wrappers[id(obj)])
        field_mod = sys.modules[PACKAGE + ".field"]
        spans_mod = sys.modules[PACKAGE + ".spans"]
        self._patch(field_mod.Field, "scalar", self._count_wrapper(field_mod.Field.scalar, "field.scalar"))
        self._patch(spans_mod.Frame, "__post_init__",
                    self._count_wrapper(spans_mod.Frame.__post_init__, "spans.frame_checks"))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def _patch(self, owner, name: str, new) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def _count_wrapper(self, fn, key: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, fn):
        name = fn.__module__.rsplit(".", 1)[-1] + "." + fn.__name__
        spans, stack, clock = self.spans, self._stack, perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, parent, t0, t1, _detail(name, args, result))

        return traced


def layer_metrics(tracer: Tracer, n_ops: int) -> Dict[str, float]:
    """Reduce the spans of one traced pass of ``n_ops`` operations to the
    per-layer metrics; counts are per operation, entry metrics per call."""
    spans = tracer.spans
    child = [0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    incl_ns: Counter = Counter()
    for i, (name, parent, t0, t1, _) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += t1 - t0 - child[i]
        incl_ns[name] += t1 - t0

    def ancestors(i):
        i = spans[i][1]
        while i >= 0:
            yield spans[i][0]
            i = spans[i][1]

    def outermost(i, group):
        return spans[i][0] in group and not any(a in group for a in ancestors(i))

    rf_cells = 0
    rf_self: Dict[str, int] = defaultdict(int)
    elims: Counter = Counter()
    parse_ns = parse_bytes = render_ns = render_bytes = brute_ns = 0
    for i, (name, parent, t0, t1, detail) in enumerate(spans):
        if name == "core.reduced_form":
            tag, cells = detail
            rf_cells += cells
            rf_self[tag] += t1 - t0 - child[i]
            for entry in set(ancestors(i)) & set(ENTRIES):
                elims[entry] += 1
        elif name in PARSE:
            parse_bytes += detail or 0
            if outermost(i, PARSE):
                parse_ns += t1 - t0
        elif name in RENDER:
            if outermost(i, RENDER):
                render_ns += t1 - t0
                render_bytes += detail or 0
        elif name in BRUTEFORCE and outermost(i, BRUTEFORCE):
            brute_ns += t1 - t0

    ms = 1e-6
    per_op = 1 / n_ops

    def per_call(key, total):
        return total / calls[key] if calls[key] else 0.0

    out = {
        "field.scalar_calls": tracer.counts["field.scalar"] * per_op,
        "core.reduced_form.calls": calls["core.reduced_form"] * per_op,
        "core.reduced_form.cells": rf_cells * per_op,
        "core.reduced_form.self_ms": self_ns["core.reduced_form"] * ms * per_op,
        "core.reduced_form.gf2.self_ms": rf_self["gf2"] * ms * per_op,
        "core.reduced_form.gfp.self_ms": rf_self["gfp"] * ms * per_op,
        "core.reduced_form.q.self_ms": rf_self["q"] * ms * per_op,
        "core.solve_many.calls": calls["core.solve_many"] * per_op,
        "core.kernel_basis.calls": calls["core.kernel_basis"] * per_op,
        "core.mat_product.self_ms": self_ns["core.mat_product"] * ms * per_op,
        "spans.span_of.calls": calls["spans.span_of"] * per_op,
        "spans.span_of.self_ms": self_ns["spans.span_of"] * ms * per_op,
        "spans.member.calls": calls["spans.member"] * per_op,
        "spans.frame_checks": tracer.counts["spans.frame_checks"] * per_op,
    }
    for entry in ENTRIES:
        out[entry + ".eliminations"] = per_call(entry, elims[entry])
        out[entry + ".ms"] = per_call(entry, incl_ns[entry] * ms)
    out["lemma.check_certificate.ms"] = per_call("lemma.check_certificate", incl_ns["lemma.check_certificate"] * ms)
    out["textio.parse.ms"] = parse_ns * ms * per_op
    out["textio.parse.bytes"] = parse_bytes * per_op
    out["textio.render.ms"] = render_ns * ms * per_op
    out["textio.render.bytes"] = render_bytes * per_op
    # argparse lives in cli.build_parser and cli.main: the cli layer's own time
    out["cli.main.self_ms"] = sum(v for k, v in self_ns.items() if k.startswith("cli.")) * ms * per_op
    out["oracle.bruteforce.ms"] = brute_ns * ms * per_op
    return out
