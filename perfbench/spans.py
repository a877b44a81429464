"""In-process tracing of borderlab's public functions, from outside the package.

``Tracer.install()`` replaces selected functions and methods with wrappers
that record one span per call (name, start, end, parent span, job id) or,
for the hot dunders, only bump counters.  Because many names are bound by
``from ... import``, every wrapper is installed in each ``borderlab.*``
module namespace that holds the original object, and method wrappers go on
the class.  ``Tracer.uninstall()`` restores the originals.

Spans are kept in memory and written out once, at the end of the run.  A
span's self time is its duration minus the time covered by its direct
child spans.  ``sparse_rank`` pulls its columns from a generator owned by
the caller, so the time spent inside that generator is recorded as *lent*
time: it is taken off the ``sparse_rank`` span and given back to its parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import Counter, defaultdict

perf_counter = time.perf_counter

# (module, attribute path, span name).  The span name doubles as the layer
# metric name (``<span>_s`` is the summed self time of its spans).
SPANNED = [
    ("borderlab.cli", "main", "cli.main"),
    ("borderlab.cli", "_write_json", "jsonio.encode"),
    ("borderlab.cli", "_write_text", "jsonio.encode"),
    ("borderlab.cli", "_load_json", "jsonio.decode"),
    ("borderlab.degeneration", "certify_lower_bound", "degeneration.certify_self"),
    ("borderlab.degeneration", "recheck_certificate", "degeneration.recheck_self"),
    ("borderlab.degeneration", "build_pyramid", "degeneration.build_pyramid"),
    ("borderlab.degeneration", "build_planted_tensor", "degeneration.build_planted"),
    ("borderlab.degeneration", "jacobian_dominance_rank", "degeneration.jacobian_self"),
    ("borderlab.tensors", "recognize_unit_tensor", "tensors.recognize_unit"),
    ("borderlab.tensors", "limit_at_zero", "tensors.limit_at_zero"),
    ("borderlab.tensors", "act", "tensors.act"),
    ("borderlab.tensors", "act_series", "tensors.act_series"),
    ("borderlab.linalg", "sparse_rank", "linalg.sparse_rank"),
    ("borderlab.linalg", "mat_inv", "linalg.mat_inv"),
    ("borderlab.loopgroup", "smith_form", "loopgroup.smith_form"),
    ("borderlab.loopgroup", "cartan_decompose", "loopgroup.cartan_self"),
    ("borderlab.loopgroup", "verify_cartan", "loopgroup.verify_cartan"),
    ("borderlab.series", "LaurentSeries.inverse", "series.unit_inverse"),
    ("borderlab.series", "SeriesMatrix.inverse", "series.matrix_inverse"),
    ("borderlab.series", "SeriesMatrix.__matmul__", "series.matmul"),
    ("borderlab.fields", "random_prime", "fields.random_prime"),
    ("borderlab.witness", "specialize", "witness.specialize"),
    ("borderlab.witness", "build_witness", "witness.build_self"),
    ("borderlab.bounds", "scan_table", "bounds.scan_table"),
]
# every jsonio ``*_to_obj`` / ``*_from_obj`` function is spanned as well, as
# jsonio.encode / jsonio.decode
CALL_COUNTERS = {
    "degeneration.build_planted": "degeneration.attempts",
    "loopgroup.smith_form": "loopgroup.smith_calls",
    "fields.random_prime": "fields.primes_drawn",
}

# Per-layer time metrics reported by the traced run: span name + "_s".
SPAN_METRICS = sorted({name for _, _, name in SPANNED if name != "cli.main"})


class Tracer:
    """Span recorder and counters for one traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id, lent seconds]
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self.t0 = perf_counter()

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else None, self.job, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)

        return wrapper

    def _counted(self, counter, fn):
        """Count the calls of ``fn`` without a span."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- wrappers that also record sizes ---------------------------------------

    def _wrap(self, name, fn):
        """The span wrapper for ``name``, with its counters where it has any."""
        if name == "linalg.sparse_rank":
            return self._sparse_rank(fn)
        wrapped = self._span_wrapper(name, fn)
        counts = self.counts
        if name == "degeneration.jacobian_self":

            @functools.wraps(fn)
            def jacobian(t_tilde, pattern, *args, **kwargs):
                counts["degeneration.pyramid_rows"] += len(pattern.positions)
                return wrapped(t_tilde, pattern, *args, **kwargs)

            return jacobian
        if fn.__name__ == "_write_text":

            @functools.wraps(fn)
            def write_text(path, text):
                counts["jsonio.bytes_out"] += len(text.encode("utf-8"))
                return wrapped(path, text)

            return write_text
        counter = CALL_COUNTERS.get(name)
        return wrapped if counter is None else self._counted(counter, wrapped)

    def _sparse_rank(self, fn):
        """Span ``sparse_rank``; the time its column generator runs is lent to the caller."""
        tracer, counts = self, self.counts

        @functools.wraps(fn)
        def sparse_rank(field, columns, *args, **kwargs):
            rec = tracer._open("linalg.sparse_rank")
            pulled = 0

            def pull():
                nonlocal pulled
                it = iter(columns)
                while True:
                    t = perf_counter()
                    try:
                        col = next(it)
                    except StopIteration:
                        return
                    finally:
                        rec[5] += perf_counter() - t
                    pulled += 1
                    yield col

            try:
                rank = fn(field, pull(), *args, **kwargs)
            finally:
                tracer._close(rec)
            counts["linalg.sparse_rank_cols"] += pulled
            counts["linalg.sparse_rank_rank"] += rank
            return rank

        return sparse_rank

    def _hot_dunders(self, series, tensors):
        """Count-only wrappers for the hot methods (their time stays with the caller)."""
        counts = self.counts
        mul, add = series.LaurentSeries.__mul__, series.LaurentSeries.__add__
        support = tensors.Tensor.support

        @functools.wraps(mul)
        def counted_mul(a, b):
            counts["series.mul_calls"] += 1
            counts["series.coeff_mults"] += len(a.coeffs) * len(getattr(b, "coeffs", ()))
            return mul(a, b)

        @functools.wraps(support)
        def counted_support(t):
            # dense slots scanned: all of them when the scan completes, else
            # up to and including the last position handed out
            nnz, last, done = 0, None, False
            try:
                for item in support(t):
                    nnz += 1
                    last = item[0]
                    yield item
                done = True
            finally:
                scanned = math.prod(t.dims) if done else 0
                if not done and last is not None:
                    scanned = 1
                    for p, n in zip(last, t.dims):
                        scanned = (scanned - 1) * n + p
                counts["tensors.support_nnz"] += nnz
                counts["tensors.support_slots"] += scanned

        return [
            (series.LaurentSeries, "__mul__", counted_mul),
            (series.LaurentSeries, "__add__", self._counted("series.add_calls", add)),
            (tensors.Tensor, "support", counted_support),
        ]

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every target in every borderlab namespace that binds it."""
        replace = {}  # id(original) -> (original, wrapper)
        for modname, attr, name in SPANNED:
            owner = importlib.import_module(modname)
            if "." in attr:  # a method: wrap it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(name, cls.__dict__[meth]))
            else:
                orig = getattr(owner, attr)
                replace[id(orig)] = (orig, self._wrap(name, orig))
        jsonio = importlib.import_module("borderlab.jsonio")
        for attr, value in vars(jsonio).items():
            if getattr(value, "__module__", None) != jsonio.__name__:
                continue
            if attr.endswith("_to_obj"):
                replace[id(value)] = (value, self._span_wrapper("jsonio.encode", value))
            elif attr.endswith("_from_obj"):
                replace[id(value)] = (value, self._span_wrapper("jsonio.decode", value))
        bounds = importlib.import_module("borderlab.bounds")
        orig = bounds.dimension_upper_bound
        replace[id(orig)] = (orig, self._counted("bounds.dim_bound_calls", orig))
        for modname, mod in list(sys.modules.items()):
            if modname == "borderlab" or modname.startswith("borderlab."):
                for attr, value in list(vars(mod).items()):
                    hit = replace.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patch(mod, attr, hit[1])
        series = importlib.import_module("borderlab.series")
        tensors = importlib.import_module("borderlab.tensors")
        for owner, attr, wrapper in self._hot_dunders(series, tensors):
            self._patch(owner, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self):
        """Self time per span: duration minus direct children's time and lent time."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, job, lent in self.spans:
            if parent is not None:
                covered[parent] += (end - start) - lent
        return [(end - start) - covered[i] - lent for i, (_, start, end, _, _, lent) in enumerate(self.spans)]

    def layer_totals(self):
        """Summed self time per span name."""
        totals = defaultdict(float)
        for (name, *_), own in zip(self.spans, self.self_times()):
            totals[name] += own
        return totals

    def write(self, handle, offset=0):
        """Write every span as one JSON line; ids start at ``offset``.

        Times are seconds since the tracer was made.  Returns the span count.
        """
        for i, (name, start, end, parent, job, lent) in enumerate(self.spans):
            row = {
                "id": offset + i,
                "name": name,
                "start": start - self.t0,
                "end": end - self.t0,
                "parent": None if parent is None else offset + parent,
                "job": job,
            }
            if lent:
                row["lent"] = lent
            handle.write(json.dumps(row) + "\n")
        return len(self.spans)
