"""Structured wall-time spans (tracing v2).

A span is one timed phase of a run -- "diagnose.offline_train",
"diagnose.failure_run" -- and spans nest: entering a span while another
is open records it as a child, so one diagnosis produces a tree whose
root wall time decomposes into the phases the paper's workflow names
(Figure 1: offline training, the failure run, deployment, pruning runs,
post-processing).

v2 makes spans *structured*: every span carries a stable
``(trace_id, span_id, parent_id)`` triple and a status, and timestamps
come from the owning registry's injectable clock (:mod:`.clock`). Pool
workers set their tracer's ``trace_id``, ``remote_parent`` and
``scope`` from the telemetry spec :mod:`repro.parallel` ships with each
task, and the coordinator :meth:`SpanTracer.attach`-es the trees they
send home under its dispatching span -- a parallel diagnosis yields one
coherent trace tree, not per-worker snapshots.

Identifiers are deterministic, never random: a tracer numbers its
spans ``s1, s2, ...`` in creation order, and a worker-side tracer
prefixes them with a scope derived from the task's *work key* (e.g.
``b1.w104.s1``) -- the same identity quarantine uses -- so IDs are
reproducible across reruns regardless of which OS process executed the
task.

Spans deliberately measure *wall time only*. Everything countable
(dependences, invalids, stalls) lives in the metric registry; the span
tree answers "where did the time go", the metrics answer "what
happened".
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_ORPHANED = "orphaned"   # worker died while the span was open


@dataclass
class Span:
    """One timed phase; ``duration`` is filled when the span closes."""

    name: str
    attrs: dict = field(default_factory=dict)
    span_id: str = ""
    parent_id: Optional[str] = None
    trace_id: str = ""
    start: float = 0.0
    duration: float = 0.0
    status: str = STATUS_OK
    children: list = field(default_factory=list)

    def to_dict(self):
        out = {"name": self.name, "id": self.span_id,
               "start_s": self.start, "duration_s": self.duration}
        if self.parent_id is not None:
            out["parent"] = self.parent_id
        if self.trace_id:
            out["trace_id"] = self.trace_id
        if self.status != STATUS_OK:
            out["status"] = self.status
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    @classmethod
    def from_dict(cls, d):
        return cls(name=d["name"], attrs=dict(d.get("attrs", {})),
                   span_id=d.get("id", ""), parent_id=d.get("parent"),
                   trace_id=d.get("trace_id", ""),
                   start=float(d.get("start_s", 0.0)),
                   duration=float(d.get("duration_s", 0.0)),
                   status=d.get("status", STATUS_OK),
                   children=[cls.from_dict(c)
                             for c in d.get("children", ())])

    def walk(self, depth=0):
        """Yield (depth, span) over the subtree, pre-order."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)


class SpanTracer:
    """Collects a forest of spans via a context-manager API.

    ``clock`` supplies timestamps (``time.perf_counter`` by default; a
    :class:`~repro.telemetry.clock.TickClock` makes them deterministic).
    """

    def __init__(self, clock=None, trace_id="t0", scope="",
                 remote_parent=None):
        self.clock = clock or time.perf_counter
        self.trace_id = trace_id
        self.scope = scope
        self.remote_parent = remote_parent  # parent span_id across processes
        self.roots = []
        self._stack = []
        self._seq = 0
        self._batch_seq = 0

    def next_batch_scope(self):
        """A fresh ``bN.`` prefix for one fan-out batch's worker scopes.

        Worker span ids are scoped ``b<batch>.w<key>.s<n>``: the batch
        counter keeps ids unique when different batches reuse the same
        work keys (collection seeds, thread ids, grid points), and the
        counter advances in dispatch order, so ids are stable across
        reruns.
        """
        self._batch_seq += 1
        return f"b{self._batch_seq}."

    def _next_id(self):
        self._seq += 1
        return f"{self.scope}s{self._seq}"

    @contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        span = Span(name=name, attrs=attrs, span_id=self._next_id(),
                    parent_id=(parent.span_id if parent is not None
                               else self.remote_parent),
                    trace_id=self.trace_id)
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        span.start = self.clock()
        try:
            yield span
        except BaseException:
            span.status = STATUS_ERROR
            raise
        finally:
            span.duration = self.clock() - span.start
            self._stack.pop()

    def open_span(self):
        """The innermost open span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    def orphan(self, name, **attrs):
        """Record an already-dead span: a task lost for good.

        The span is born closed with status ``orphaned`` and zero
        duration, parented under the innermost open span, so a trace
        tree never dangles when a task is quarantined or its worker
        dies -- the lost work is flagged exactly where it was
        dispatched.
        """
        parent = self._stack[-1] if self._stack else None
        span = Span(name=name, attrs=attrs, span_id=self._next_id(),
                    parent_id=(parent.span_id if parent is not None
                               else self.remote_parent),
                    trace_id=self.trace_id, start=self.clock(),
                    duration=0.0, status=STATUS_ORPHANED)
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        return span

    def attach(self, span_dicts):
        """Stitch foreign span trees (worker snapshots) into this trace.

        Each dict (a :meth:`Span.to_dict`) becomes a child of the
        innermost open span, or a new root when no span is open -- the
        coordinator calls this inside its dispatching span, so worker
        spans land exactly where the work was fanned out.
        """
        adopted = []
        parent = self.open_span()
        for d in span_dicts:
            span = Span.from_dict(d)
            if parent is not None:
                span.parent_id = parent.span_id
                parent.children.append(span)
            else:
                self.roots.append(span)
            adopted.append(span)
        return adopted

    def reset(self):
        self.roots = []
        self._stack = []
        self._seq = 0
        self._batch_seq = 0


class _NullSpanScope:
    """Reusable no-op context manager; what a disabled registry hands out."""

    __slots__ = ()

    def __enter__(self):
        return NULL_SPAN

    def __exit__(self, *exc):
        return False


NULL_SPAN = Span(name="null")
NULL_SPAN_SCOPE = _NullSpanScope()
