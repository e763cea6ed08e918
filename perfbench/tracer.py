"""Span recorder wrapped around the public functions of each varconn layer.

Tracing lives entirely in the benchmark: the program's source is never
edited. Installing rebinds every module-level name that refers to a traced
function, in the defining module and in every module that imported it by
name (``from .spectral import evaluate_spectra``), so internal calls are
seen too. Uninstalling puts the original objects back, and
:func:`namespace_faults` proves that it did.
"""

import functools
import importlib
import os
import sys
from time import perf_counter_ns

import numpy as np

PACKAGE = "varconn"

#: Layer (module) -> public functions that get a span.
TARGETS = {
    "cli": ("main",),
    "var_model": ("validate", "simulate", "estimate", "select_order"),
    "spectral": ("evaluate_spectra", "partialize"),
    "measures": ("coherence", "pdc_family", "ipdc", "dtf_family", "idtf"),
    "infotheory": ("mir_ipdc", "mir_idtf", "mir_coherence"),
    "oracles": (
        "run_verification",
        "partialized_process_coherence",
        "partialized_innovation_coherence",
        "transfer_function_deviation",
        "orthogonality_residual",
    ),
    "fileio": (
        "canonical_json",
        "build_result_document",
        "save_result",
        "save_timeseries",
        "load_timeseries",
        "load_model",
        "save_model",
    ),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns)

_MARK = "__perfbench_span__"
_SAVERS = ("fileio.save_result", "fileio.save_model", "fileio.save_timeseries")


def originals() -> dict:
    """Span name -> the function object its defining module holds now.

    A name the program no longer defines is left out, so its metrics read 0.
    """
    found = {}
    for layer, fns in TARGETS.items():
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for fn in fns:
            if callable(getattr(module, fn, None)):
                found[f"{layer}.{fn}"] = getattr(module, fn)
    return found


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def namespace_faults(targets: dict) -> list:
    """Describe every span wrapper left in the package and every moved target.

    ``targets`` is what :func:`originals` returned before the pass. A
    wrapper bound anywhere in a varconn module, or a defining module that no
    longer holds its original function, is a fault. An empty list means the
    pass ran, or now runs, on the original objects.
    """
    faults = [
        f"{module.__name__}.{attr} is a span wrapper"
        for module in _package_modules()
        for attr, value in vars(module).items()
        if hasattr(value, _MARK)
    ]
    for name, fn in targets.items():
        layer, attr = name.split(".")
        if getattr(sys.modules[f"{PACKAGE}.{layer}"], attr, None) is not fn:
            faults.append(f"{PACKAGE}.{name} no longer holds the original function")
    return faults


class Recorder:
    """Spans kept in memory as [name, start_ns, end_ns, parent, request].

    ``request`` is the index of the CLI command the span belongs to; the
    caller sets it before each command. Counters hold computed sizes taken
    at the same boundaries.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = -1
        self.counters = {"spectral.array_bytes": 0, "fileio.bytes_written": 0}
        self._installed = []

    def install(self, targets: dict) -> None:
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in targets.items()}
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._installed):
            setattr(module, attr, value)
        self._installed.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.request]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            self._count(name, result)
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    def _count(self, name, result) -> None:
        if name == "spectral.evaluate_spectra":
            arrays = [v for v in vars(result).values() if isinstance(v, np.ndarray)]
            self.counters["spectral.array_bytes"] += sum(a.nbytes for a in arrays)
        elif name in _SAVERS:
            self.counters["fileio.bytes_written"] += os.path.getsize(result)


def summarize(spans: list) -> dict:
    """Span name -> {"calls", "self_s"}; self time excludes child spans."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
    for index, (name, start, end, _, _) in enumerate(spans):
        entry = totals[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start - child_ns[index]) / 1e9
    return totals
