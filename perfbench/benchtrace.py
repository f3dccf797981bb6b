"""Operation accounting and layer spans, wrapped around fockforge from outside.

Nothing in the package is edited: the benchmark rebinds module attributes
(and two methods) to wrappers and restores them afterwards.  Every binding
of a function, the defining module's and each re-import's, is replaced, so
calls through ``from .x import f`` are caught as well.
"""

from __future__ import annotations

import functools
import sys
import time
import warnings

# Index of each field in a span record.
NAME, START, END, PARENT, OP, DIM = range(6)


class Tracer:
    """Spans kept in memory as [name, start, end, parent, op, dim] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._op: int | None = None
        self.op_name: str | None = None

    def begin(self, name: str, dim: int | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op, dim])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, name: str, fn_name: str) -> int:
        idx = self.begin(name)
        self.spans[idx][OP] = idx
        self._op, self.op_name = idx, fn_name
        return idx

    def end_op(self, idx: int):
        self.end(idx)
        self._op, self.op_name = None, None


def spanned(tracer: Tracer, name, fn):
    """Wrap fn in a span; ``name`` is a string or maps the call's args to (name, dim)."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        label, dim = name(args) if callable(name) else (name, None)
        idx = tracer.begin(label, dim)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)

    return wrapped


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s[END])
            if end > start:
                covered += end - start
                reach = end
        out.append(s[END] - s[START] - covered)
    return out


class Patches:
    """Module and class attributes replaced by wrappers, restorable in one call."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def everywhere(self, fn, new, skip: tuple[str, ...] = ()):
        """Rebind every fockforge module attribute that is ``fn``."""
        count = 0
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("fockforge") or mod_name in skip:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.replace(module, attr, new)
                    count += 1
        if count == 0:
            raise RuntimeError(f"no binding of {fn.__qualname__} found to wrap")

    def restore(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


class Operations:
    """Times every public check or protocol call and decides whether it failed.

    A call fails if it raises, returns a report with ``passed`` false, or
    emits a CutoffWarning.  Warnings are re-issued after the call so that
    the command-line layer still sees them.  Protocol outputs are copied
    after the clock stops, for the benchmark's own correctness checks.
    """

    def __init__(self, tracer: Tracer, cutoff_warning: type):
        self.tracer = tracer
        self.cutoff_warning = cutoff_warning
        self.records: list[dict] = []

    def wrap(self, layer: str, fn):
        tracer = self.tracer

        @functools.wraps(fn)
        def op(*args, **kwargs):
            record = {"name": fn.__name__, "seconds": None, "failed": True, "output": None}
            self.records.append(record)
            span = tracer.begin_op(layer, fn.__name__) if tracer.active else None
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", self.cutoff_warning)
                    t0 = time.perf_counter()
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        record["seconds"] = time.perf_counter() - t0
            finally:
                if span is not None:
                    tracer.end_op(span)
            report = getattr(result, "report", result)
            warned = any(issubclass(w.category, self.cutoff_warning) for w in caught)
            record["failed"] = warned or not report.passed
            record["output"] = _output_copy(result)
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return result

        return op


def _output_copy(result):
    output = getattr(result, "output", None)
    return None if output is None else output.amplitudes.copy()
