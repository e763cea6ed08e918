"""Wall time per stage of a command, kept only while ``--trace`` is on.

``stage(name)`` adds the wall time of its ``with`` block, and one call, to
the stage of that name; ``timed`` does so for each item an iterator makes,
and ``add`` for a time measured elsewhere. With tracing off there is no
table, and a stage costs one check of it. ``tracing`` keeps the table for
one command, and then writes one JSON line per stage to stderr, in the
order the stages were first met.
"""

import contextlib
import json
import sys
import time

_table = None  # while tracing: stage name -> [nanoseconds, calls]
_OFF = contextlib.nullcontext()
_END = object()


class _Clock:
    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter_ns()

    def __exit__(self, *exc):
        add(self.name, time.perf_counter_ns() - self.start)


def stage(name: str):
    return _OFF if _table is None else _Clock(name)


def add(name: str, ns: int) -> None:
    if _table is not None:
        entry = _table.setdefault(name, [0, 0])
        entry[0] += ns
        entry[1] += 1


def timed(name: str, items):
    return items if _table is None else _timed(name, iter(items))


def _timed(name: str, items):
    while True:
        with stage(name):
            item = next(items, _END)
        if item is _END:
            return
        yield item


@contextlib.contextmanager
def tracing(on: bool):
    global _table
    if not on:
        yield
        return
    _table = {}
    try:
        yield
    finally:
        table, _table = _table, None
        for name, (ns, calls) in table.items():
            print(json.dumps({"stage": name, "ms": round(ns / 1e6, 3), "calls": calls}), file=sys.stderr)
