"""Spans around ecometab's public functions, for the traced run only.

``Tracer.installed()`` wraps each function named in ``TRACED`` and rebinds
the wrapper under every name that any ``ecometab`` module bound to the
original: ``cli``, ``metabolism`` and ``stats`` import most names with
``from ... import``, so wrapping the defining module alone would miss, for
example, the text renderer's calls to ``cli.p_value_t``. ``FiscalRecord.item``
runs ~49 times per ledger row, so it is counted on the class, not spanned.
Leaving the context restores every original binding.

A span is ``[name, start_ns, end_ns, parent_index, op]``; spans stay in
memory until the run ends.
"""

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# (layer, function) pairs; the layer is the ecometab module that defines it.
TRACED = (
    ("ledger", "parse_ledger"),
    ("ledger", "extract_series"),
    ("ledger", "validate_ledger"),
    ("stats", "t_critical"),
    ("stats", "p_value_t"),
    ("stats", "betainc"),
    ("stats", "ols_fit"),
    ("stats", "descriptives"),
    ("metabolism", "trend_fit"),
    ("metabolism", "allometric_fit"),
    ("metabolism", "metabolism_index"),
    ("metabolism", "arithmetic_growth"),
    ("metabolism", "crossover_years"),
    ("metabolism", "mean_cost_profile"),
    ("cli", "main"),
    ("cli", "run_report"),
    ("cli", "report_to_json"),
    ("cli", "render_report_text"),
    ("cli", "report_to_csv"),
)
ITEM_COUNTER = "ledger.FiscalRecord.item"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {ITEM_COUNTER: 0}
        self.op = 0
        self._stack = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "ecometab" or name.startswith("ecometab.")]
        saved = []
        try:
            for layer, name in TRACED:
                original = getattr(importlib.import_module(f"ecometab.{layer}"), name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            saved.append((module, attr, value))
                            setattr(module, attr, wrapper)
            record = importlib.import_module("ecometab.ledger").FiscalRecord
            saved.append((record, "item", record.__dict__["item"]))
            record.item = self._count(ITEM_COUNTER, record.item)
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)


def merge(spans, child_spans, op):
    """Append spans recorded in a child process, re-indexing their parents."""
    offset = len(spans)
    for name, start, end, parent, _ in child_spans:
        spans.append([name, start, end, parent + offset if parent >= 0 else -1, op])


def totals(spans):
    """Per span name: calls, inclusive ns and self ns.

    Self time is a span's duration minus the time its child spans cover;
    children of one span never overlap, because each op runs on one thread.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    result = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        calls, inclusive, own = result.get(name, (0, 0, 0))
        result[name] = (calls + 1, inclusive + end - start,
                        own + end - start - child_ns[index])
    return result
