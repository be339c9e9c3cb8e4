"""Span tracer for the performance suite, applied from outside the program.

The tracer never edits ``repro``: it replaces the names that callers look
up (a module global, a class attribute, or an attribute of one object)
with a wrapper that opens a span, calls the original and closes the span.
:meth:`Tracer.restore` puts every original back and asserts that the
looked-up object *is* the original again, the same identity contract as
``repro.analysis.sanitize.assert_unpatched``.

Spans live on a per-context stack (a :mod:`contextvars` variable), so the
serving dispatcher and worker threads each nest their own spans.  A span's
self time is its duration minus the time its direct children cover; self
times of one thread therefore add up to the wall time its root spans
cover.  Spans are kept in memory and written once, as Chrome trace-event
JSON (open the file in ``chrome://tracing`` or https://ui.perfetto.dev).
"""

from __future__ import annotations

import contextvars
import inspect
import itertools
import json
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

#: The tracer's clock.  ``PredictionHandle`` stamps arrivals and
#: completions with ``time.monotonic``, so serving spans share its base.
clock = time.monotonic

_STACK: "contextvars.ContextVar[tuple]" = contextvars.ContextVar(
    "perf_suite_span_stack", default=())


class Span:
    """One timed call: name, interval, parent, thread and free-form args."""

    __slots__ = ("name", "start", "end", "parent", "tid", "group", "level",
                 "child", "args")

    def __init__(self, name: str, parent: Optional["Span"], group: int,
                 level: Optional[int]) -> None:
        self.name = name
        self.parent = parent
        self.group = group
        self.level = level
        self.tid = threading.get_ident()
        self.child = 0.0
        self.args: Dict[str, Any] = {}
        self.start = clock()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


#: ``name`` given to :meth:`Tracer.wrap`: a fixed span name, or a function
#: of the call's ``(args, kwargs)`` returning one (``None`` = no span).
SpanName = Union[str, Callable[[tuple, dict], Optional[str]]]


class Tracer:
    """Records spans and owns every wrapper it installs."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: (owner, attribute, original as found, owner held it itself)
        self._patches: List[tuple] = []
        self._groups = itertools.count(1)
        #: Epoch index stamped on every span's args while training runs.
        self.epoch = 0

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    @staticmethod
    def current() -> Optional[Span]:
        stack = _STACK.get()
        return stack[-1] if stack else None

    def open(self, name: str, level: Optional[int] = None,
             group: Optional[int] = None) -> tuple:
        stack = _STACK.get()
        parent = stack[-1] if stack else None
        if parent is not None:
            group = parent.group if group is None else group
            level = parent.level if level is None else level
        elif group is None:
            group = next(self._groups)
        span = Span(name, parent, group, level)
        return span, _STACK.set(stack + (span,))

    def close(self, span: Span, token) -> None:
        span.end = clock()
        _STACK.reset(token)
        if span.parent is not None:
            span.parent.child += span.duration
        span.args.setdefault("epoch", self.epoch)
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, level: Optional[int] = None,
             group: Optional[int] = None) -> Iterator[Span]:
        span, token = self.open(name, level, group)
        try:
            yield span
        finally:
            self.close(span, token)

    # ------------------------------------------------------------------
    # Wrapping the program's names
    # ------------------------------------------------------------------
    def patch(self, owner: Any, attr: str,
              make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``make(original)``.

        ``owner`` is a module, a class or an instance.  For a class the
        raw attribute is kept, so a class method stays one; for an
        instance the replacement shadows the class attribute and is
        deleted again on restore.
        """
        raw = inspect.getattr_static(owner, attr)
        own = isinstance(owner, (type, types.ModuleType)) \
            or attr in vars(owner)
        if isinstance(owner, type) and isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        elif isinstance(owner, (type, types.ModuleType)):
            new = make(raw)
        else:
            new = make(getattr(owner, attr))
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw, own))

    def wrap(self, owner: Any, attr: str, name: SpanName, *,
             level: Optional[int] = None,
             group: Optional[Callable[[tuple], Optional[int]]] = None,
             before: Optional[Callable[[Span, tuple], None]] = None,
             on_result: Optional[Callable[[Span, tuple, Any], None]] = None,
             ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``before(span, args)`` runs just before the original call and
        ``on_result(span, args, result)`` just after it, to record counts
        on the span; ``group(args)`` picks the id of a root span (spans
        of one request or batch share it).
        """
        tracer = self

        def make(original: Callable) -> Callable:
            def traced(*args, **kwargs):
                label = name if isinstance(name, str) else name(args, kwargs)
                if label is None:
                    return original(*args, **kwargs)
                span, token = tracer.open(
                    label, level, group(args) if group is not None else None)
                try:
                    if before is not None:
                        before(span, args)
                    result = original(*args, **kwargs)
                finally:
                    tracer.close(span, token)
                if on_result is not None:
                    on_result(span, args, result)
                return result
            traced.__wrapped__ = original
            return traced

        self.patch(owner, attr, make)

    def restore(self) -> None:
        """Put every original back, newest first, and check identity."""
        while self._patches:
            owner, attr, raw, own = self._patches.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
            if inspect.getattr_static(owner, attr) is not raw \
                    or (not own and attr in vars(owner)):
                raise AssertionError(
                    f"{owner!r}.{attr} is not the original after restore")

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name."""
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.self_time
        return dict(out)

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span.name] += 1
        return dict(out)

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (complete ``X`` events)."""
        if not self.spans:
            return {"traceEvents": []}
        t0 = min(span.start for span in self.spans)
        tids: Dict[int, int] = {}
        events = []
        for span in sorted(self.spans, key=lambda s: s.start):
            args = {key: value for key, value in span.args.items()
                    if isinstance(value, (int, float, str))}
            args["id"] = span.group
            args["self_us"] = round(span.self_time * 1e6, 3)
            events.append({
                "name": span.name, "cat": span.name.split(".")[0],
                "ph": "X", "pid": 0,
                "tid": tids.setdefault(span.tid, len(tids)),
                "ts": round((span.start - t0) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "args": args})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)
