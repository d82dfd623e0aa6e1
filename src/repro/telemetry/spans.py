"""Nested wall-clock spans over ``perf_counter_ns``.

A span brackets a region of work::

    with tel.span("cnf.filter", mode="siso"):
        ...

Finished spans are stored as plain dicts (JSON-able, picklable) with
timestamps relative to the owning collector's epoch, a nesting depth
maintained per thread, and the recording pid/tid — exactly the fields
the Chrome trace-event exporter needs.  Spans measure wall time, so
they are *excluded* from the deterministic telemetry snapshot; they
exist for the trace view and the summary tables.

Each record also carries an ``id`` (unique within the recorder) and
the ``parent`` id of the enclosing span on the same thread (``None``
for a root).  The ids come from a per-thread *open-span stack*, so the
call tree is recorded exactly — ``repro.obs`` rebuilds it without
interval or depth inference, and rejects records that lack the links.
"""

from __future__ import annotations

import itertools
import os
import threading

from repro.telemetry.timing import now_ns


class NullSpan:
    """The zero-cost span: a reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


#: The singleton every no-op ``span()`` call returns (no allocation).
NULL_SPAN = NullSpan()


class SpanRecorder:
    """Accumulates finished span records with per-thread open-span stacks."""

    def __init__(self, epoch_ns):
        self.epoch_ns = int(epoch_ns)
        self.records = []
        self._tls = threading.local()
        self._ids = itertools.count()

    def _stack(self):
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def start(self, name, labels):
        """An unopened :class:`ActiveSpan` (enter it with ``with``)."""
        return ActiveSpan(self, name, labels)


class ActiveSpan:
    """One live span; records itself into the recorder on exit."""

    __slots__ = ("_recorder", "name", "labels", "_start_ns", "_depth",
                 "_id", "_parent")

    def __init__(self, recorder, name, labels):
        self._recorder = recorder
        self.name = str(name)
        self.labels = labels

    def __enter__(self):
        recorder = self._recorder
        stack = recorder._stack()
        self._id = next(recorder._ids)
        self._parent = stack[-1] if stack else None
        self._depth = len(stack)
        stack.append(self._id)
        self._start_ns = now_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        end_ns = now_ns()
        stack = self._recorder._stack()
        # Pop back to this span even if an inner span leaked (an
        # exception can unwind through a span that never exited).
        while stack and stack[-1] != self._id:
            stack.pop()
        if stack:
            stack.pop()
        self._recorder.records.append({
            "name": self.name,
            "labels": dict(self.labels),
            "ts_ns": self._start_ns - self._recorder.epoch_ns,
            "dur_ns": end_ns - self._start_ns,
            "depth": self._depth,
            "id": self._id,
            "parent": self._parent,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
        })
        return False
