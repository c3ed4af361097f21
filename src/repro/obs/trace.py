"""Trace contexts and the per-process span recorder.

Everything here is deliberately boring: ids are random hex strings,
spans are epoch-stamped (``time.time()`` — every process in this stack
runs on one machine, so wall-clock timestamps from different processes
line up on one timeline), and the recorder is a bounded ring buffer so
a runaway query can never grow memory without bound.

The *wire* form of a span is a plain dict (see :meth:`Span.to_dict`) —
that is what crosses multiprocessing pipes inside
``SynthesisResult.extra["trace"]``, and what the exporters consume.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional

#: Default ring-buffer capacity per :class:`Tracer` (spans, not bytes).
DEFAULT_CAPACITY = 4096


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    """A fresh 8-hex-char span id (unique within one trace)."""
    return os.urandom(4).hex()


@dataclass(frozen=True)
class TraceContext:
    """The portable part of a trace: its id plus the remote parent span.

    Minted once per job at the system edge and handed down unchanged —
    each process seeds its local :class:`Tracer` with it, so spans
    recorded three hops apart still form one tree.
    """

    trace_id: str
    parent_span_id: Optional[str] = None

    def child(self, parent_span_id: str) -> "TraceContext":
        """The context a downstream process should record under."""
        return TraceContext(self.trace_id, parent_span_id)

    def to_json_dict(self) -> Dict[str, object]:
        """The wire form carried inside ``WireRequest`` JSON."""
        return {
            "trace_id": self.trace_id,
            "parent_span_id": self.parent_span_id,
        }

    @classmethod
    def from_json_dict(cls, data: object) -> Optional["TraceContext"]:
        """Parse the wire form; tolerates ``None``/malformed (→ None)."""
        if not isinstance(data, dict):
            return None
        trace_id = data.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            return None
        parent = data.get("parent_span_id")
        return cls(trace_id, parent if isinstance(parent, str) else None)

    @classmethod
    def mint(cls) -> "TraceContext":
        """A brand-new root context (no parent span yet)."""
        return cls(new_trace_id())


class Span:
    """One timed unit of work.  Mutable until :meth:`Tracer.finish`."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_s",
        "end_s",
        "process",
        "args",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        start_s: float,
        process: str,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.process = process
        self.args = args or {}

    @property
    def duration_s(self) -> float:
        end = self.end_s if self.end_s is not None else time.time()
        return max(0.0, end - self.start_s)

    def to_dict(self) -> Dict[str, object]:
        """The wire/export form (what crosses process boundaries)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s if self.end_s is not None else self.start_s,
            "process": self.process,
            "args": dict(self.args),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Span(%r, %s, %.6fs)" % (self.name, self.span_id, self.duration_s)


class Tracer:
    """Lock-free span recorder for one process (ring-buffered).

    All methods run on whatever thread does the work; the stack used
    for implicit parenting assumes the strictly nested call pattern the
    engine actually has (a level span inside the job span).
    """

    __slots__ = ("trace_id", "process", "capacity", "dropped", "_spans", "_stack")

    def __init__(
        self,
        trace_id: str,
        process: str = "main",
        parent_span_id: Optional[str] = None,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.trace_id = trace_id
        self.process = process
        self.capacity = max(1, int(capacity))
        self.dropped = 0
        self._spans: List[Span] = []
        #: Implicit-parent stack, seeded with the remote parent so the
        #: first local span hangs off the upstream process's span.
        self._stack: List[str] = [parent_span_id] if parent_span_id else []

    def __len__(self) -> int:
        return len(self._spans)

    # -- recording -----------------------------------------------------
    def start(
        self, name: str, parent_id: Optional[str] = None, **args: object
    ) -> Span:
        """Open a span (implicit parent = innermost open span)."""
        if parent_id is None and self._stack:
            parent_id = self._stack[-1]
        span = Span(
            name,
            self.trace_id,
            new_span_id(),
            parent_id,
            time.time(),
            self.process,
            args or None,
        )
        self._stack.append(span.span_id)
        self._record(span)
        return span

    def finish(self, span: Span, **args: object) -> Span:
        """Close a span (merging any late args, e.g. counts)."""
        span.end_s = time.time()
        if args:
            span.args.update(args)
        # Pop from the implicit-parent stack; tolerate out-of-order
        # finishes by removing the *last* matching entry.
        for index in range(len(self._stack) - 1, -1, -1):
            if self._stack[index] == span.span_id:
                del self._stack[index]
                break
        return span

    @contextmanager
    def span(self, name: str, **args: object):
        """``with tracer.span("staging"):`` convenience wrapper."""
        span = self.start(name, **args)
        try:
            yield span
        finally:
            self.finish(span)

    def _record(self, span: Span) -> None:
        if len(self._spans) >= self.capacity:
            self._spans.pop(0)
            self.dropped += 1
        self._spans.append(span)

    # -- harvesting ----------------------------------------------------
    def drain(self) -> List[Dict[str, object]]:
        """Return every recorded span (wire form) and clear the buffer."""
        out = self.snapshot()
        self._spans = []
        return out

    def snapshot(self) -> List[Dict[str, object]]:
        """Wire-form view of the buffer without clearing it."""
        return [span.to_dict() for span in self._spans]
