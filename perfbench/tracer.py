"""Tracing for the hlvir benchmark, installed from outside the package.

The tracer replaces public functions and methods of hlvir with wrappers,
wherever their names were imported (``apply_B`` lives in both ``vertex``
and ``virasoro``; ``hl_q`` in four modules).  Two kinds of record:

* spans at the ``vertex``, ``structure``, ``virasoro`` and ``cli``
  boundaries: ``[name, start, end, parent, op_id, agg_inside]``, where
  ``parent`` is the index of the enclosing span (-1 at top level) and
  ``agg_inside`` is the time spent in aggregated calls directly inside it;
* aggregated counts and self time for ``tring`` and ``exactnum`` methods,
  which run millions of times and would be too many to keep as spans.

Spans stay in memory and are written once, by ``write``, at exit.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

SPAN_LAYERS = ("vertex", "structure", "virasoro", "cli")
AGG_LAYERS = ("tring", "exactnum")

# (module, attribute, metric name or None when only timed).  "Class.attr"
# patches a method, and every alias of it in the class (``__radd__``).
TARGETS = (
    ("hlvir.exactnum", "RatFunc.__mul__", "exactnum.ratfunc_mul"),
    ("hlvir.exactnum", "RatFunc.__add__", "exactnum.ratfunc_add"),
    ("hlvir.exactnum", "RatFunc.__sub__", None),
    ("hlvir.exactnum", "RatFunc.__rsub__", None),
    ("hlvir.exactnum", "RatFunc.__neg__", None),
    ("hlvir.exactnum", "RatFunc.__truediv__", None),
    ("hlvir.exactnum", "RatFunc.__rtruediv__", None),
    ("hlvir.exactnum", "RatFunc.__pow__", None),
    ("hlvir.exactnum", "UniPoly.__mul__", "exactnum.unipoly_mul"),
    ("hlvir.exactnum", "UniPoly.__add__", None),
    ("hlvir.exactnum", "UniPoly.__sub__", None),
    ("hlvir.exactnum", "UniPoly.__neg__", None),
    ("hlvir.exactnum", "UniPoly.__divmod__", None),
    ("hlvir.exactnum", "UniPoly.divexact", None),
    ("hlvir.exactnum", "UniPoly.gcd", None),
    ("hlvir.exactnum", "UniPoly.xgcd", None),
    ("hlvir.exactnum", "Cyclotomic.__mul__", "exactnum.cyclotomic_mul"),
    ("hlvir.exactnum", "Cyclotomic.__add__", "exactnum.cyclotomic_add"),
    ("hlvir.exactnum", "Cyclotomic.inverse", "exactnum.cyclotomic_inverse"),
    ("hlvir.exactnum", "Cyclotomic.__sub__", None),
    ("hlvir.exactnum", "Cyclotomic.__rsub__", None),
    ("hlvir.exactnum", "Cyclotomic.__neg__", None),
    ("hlvir.exactnum", "Cyclotomic.__truediv__", None),
    ("hlvir.exactnum", "Cyclotomic.__rtruediv__", None),
    ("hlvir.exactnum", "Cyclotomic.__pow__", None),
    ("hlvir.exactnum", "specialize_at_root", None),
    ("hlvir.exactnum", "specialize_at_rational", None),
    ("hlvir.tring", "TPoly.__mul__", "tring.tpoly_mul"),
    ("hlvir.tring", "TPoly.__add__", "tring.tpoly_add"),
    ("hlvir.tring", "TPoly.scale", "tring.tpoly_scale"),
    ("hlvir.tring", "TPoly.diff", "tring.tpoly_diff"),
    ("hlvir.tring", "apply", "tring.apply"),
    ("hlvir.tring", "TPoly.__sub__", None),
    ("hlvir.tring", "TPoly.__neg__", None),
    ("hlvir.tring", "TPoly.mul_var", None),
    ("hlvir.tring", "commutator_apply", None),
    ("hlvir.tring", "inner_product", None),
    ("hlvir.vertex", "one_row", "vertex.one_row"),
    ("hlvir.vertex", "apply_B", "vertex.apply_B"),
    ("hlvir.vertex", "hl_q", "vertex.hl_q"),
    ("hlvir.vertex", "perp_t", None),
    ("hlvir.vertex", "QCombination.evaluate", None),
    ("hlvir.structure", "straighten", "structure.straighten"),
    ("hlvir.structure", "c_coeff", "structure.c_coeff"),
    ("hlvir.structure", "multiply_p", "structure.multiply_p"),
    ("hlvir.structure", "p_expand", None),
    ("hlvir.structure", "mn_expand", None),
    ("hlvir.virasoro", "verify_case", "virasoro.verify_case"),
    ("hlvir.virasoro", "build_operator", "virasoro.build_operator"),
    ("hlvir.virasoro", "rhs_T1_1", None),
    ("hlvir.virasoro", "rhs_T1_2", None),
    ("hlvir.virasoro", "rhs_T3_3", None),
    ("hlvir.virasoro", "rhs_TA3", None),
    ("hlvir.virasoro", "rhs_TA4", None),
    ("hlvir.virasoro", "rhs_Vm", None),
    ("hlvir.cli", "main", "cli.main"),
)

# tring results whose term counts add up to ``tring.terms_out``
TERM_COUNTED = frozenset({"tring.tpoly_mul", "tring.tpoly_add",
                          "tring.tpoly_scale", "tring.tpoly_diff",
                          "tring.apply"})


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.self_s = {layer: 0.0 for layer in AGG_LAYERS}
        self.exactnum_busy_s = 0.0
        self.terms_out = 0
        self.op_id = -1
        self._current = -1      # index of the innermost open span
        self._agg_open: list[list] = []   # [time in nested calls] per open call
        self._exact_depth = 0
        self._undo: list = []

    # -- wrappers

    def _span_wrapper(self, fn, name):
        tracer, spans, clock = self, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            parent = tracer._current
            rec = [name, clock(), 0.0, parent, tracer.op_id, 0.0]
            tracer._current = len(spans)
            spans.append(rec)
            saved, tracer._agg_open = tracer._agg_open, []
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                tracer._current = parent
                tracer._agg_open = saved
                tracer.counts[name] += 1
        return traced

    def _agg_wrapper(self, fn, name, layer):
        tracer, spans, clock = self, self.spans, time.perf_counter
        counts, self_s = self.counts, self.self_s
        exact = layer == "exactnum"
        terms = name in TERM_COUNTED

        def traced(*args, **kwargs):
            frame = [0.0]
            tracer._agg_open.append(frame)
            if exact:
                tracer._exact_depth += 1
            t0 = clock()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                dur = clock() - t0
                opened = tracer._agg_open
                opened.pop()
                self_s[layer] += dur - frame[0]
                if opened:
                    opened[-1][0] += dur
                elif tracer._current >= 0:
                    spans[tracer._current][5] += dur
                if exact:
                    tracer._exact_depth -= 1
                    if not tracer._exact_depth:
                        tracer.exactnum_busy_s += dur
                counts[name] += 1
                if terms and out is not None:
                    tracer.terms_out += len(out.terms)
        return traced

    # -- installation

    def install(self) -> None:
        for module_name, attr, metric in TARGETS:
            module = sys.modules[module_name]
            layer = module_name.split(".")[-1]
            name = metric or f"{layer}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                wrapper = self._wrap(orig, name, layer)
                for alias, value in list(cls.__dict__.items()):
                    if value is orig:
                        self._undo.append((cls, alias, value))
                        setattr(cls, alias, wrapper)
            else:
                orig = getattr(module, attr)
                wrapper = self._wrap(orig, name, layer)
                for mod_name, mod in list(sys.modules.items()):
                    if not (mod_name == "hlvir" or mod_name.startswith("hlvir.")):
                        continue
                    for alias, value in list(vars(mod).items()):
                        if value is orig:
                            self._undo.append((mod, alias, value))
                            setattr(mod, alias, wrapper)

    def _wrap(self, fn, name, layer):
        if layer in SPAN_LAYERS:
            return self._span_wrapper(fn, name)
        return self._agg_wrapper(fn, name, layer)

    def uninstall(self) -> None:
        for owner, alias, value in reversed(self._undo):
            setattr(owner, alias, value)
        self._undo.clear()

    # -- output

    def write(self, path: str, extra: dict) -> None:
        record = {"counts": dict(self.counts), "agg_self_s": dict(self.self_s),
                  "exactnum_busy_s": self.exactnum_busy_s,
                  "terms_out": self.terms_out, "spans": self.spans, **extra}
        with open(path, "w") as fh:
            json.dump(record, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# reading spans back


def span_self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part its child spans
    and the aggregated calls directly inside it cover."""
    own = [end - start - agg for _, start, end, _, _, agg in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_self_times(spans) -> dict[str, float]:
    out: dict[str, float] = {}
    for span, own in zip(spans, span_self_times(spans)):
        layer = span[0].split(".")[0]
        out[layer] = out.get(layer, 0.0) + own
    return out


def hl_q_hits(spans) -> tuple[int, int]:
    """(hl_q calls that never entered apply_B directly, all hl_q calls)."""
    entered = {parent for name, _, _, parent, _, _ in spans
               if name == "vertex.apply_B" and parent >= 0}
    calls = [i for i, span in enumerate(spans) if span[0] == "vertex.hl_q"]
    return sum(1 for i in calls if i not in entered), len(calls)
