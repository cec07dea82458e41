"""Span recorder, function wrappers, and self-time arithmetic.

The traced run times calls into each layer's public functions *from the
benchmark's own files*: :func:`patch` replaces a function (in its defining
module and in every ``repro.*`` module that bound it with ``from ... import``)
or a method (on its class) with a wrapper that records one span per call.
Spans stay in memory, one list per thread, until :meth:`SpanRecorder.dump`.

A span is ``(id, name, start_ns, end_ns, parent, conn, seq, counters)``:
``parent`` is the id of the enclosing span on the same thread (``-1`` for a
root), ``(conn, seq)`` identify the request it belongs to (the client's TCP
port and the ordinal of the message on that connection -- both sides of the
wire can derive them from the socket they are handed), and ``counters`` is
an optional ``{name: number}`` dict filled by an ``after`` hook.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

#: Name of the pseudo-span that covers an ``after`` hook, so hook time is
#: accounted as tracing overhead instead of inflating the parent layer.
HOOK_SPAN = "trace.hook"

_now = time.perf_counter_ns


class Span(NamedTuple):
    id: int
    name: str
    start: int
    end: int
    parent: int
    conn: int
    seq: int
    counters: Optional[Dict[str, float]]

    @property
    def duration(self) -> int:
        return self.end - self.start


class _ThreadState:
    __slots__ = ("rows", "stack", "conn", "seq")

    def __init__(self) -> None:
        # Row layout: [name, start, end, parent_index, conn, seq, counters]
        self.rows: List[list] = []
        self.stack: List[int] = []
        self.conn = 0
        self.seq = 0


class SpanRecorder:
    """Collects spans per thread without locking on the hot path."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._mutex = threading.Lock()

    def state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._mutex:
                self._states.append(state)
        return state

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        before: Optional[Callable[[_ThreadState, tuple], Any]] = None,
        after: Optional[Callable[[Any, tuple, Any], Optional[Dict[str, float]]]] = None,
    ) -> Callable[..., Any]:
        """A wrapper around ``fn`` recording one span named ``name`` per
        call.  ``before(state, args)`` runs ahead of the span (it may set
        the thread's ``conn``/``seq``) and returns a token;
        ``after(result, args, token)`` runs once the span has ended, inside
        its own :data:`HOOK_SPAN`, and its return value becomes the span's
        counters."""
        get_state = self.state

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = get_state()
            token = before(state, args) if before is not None else None
            rows, stack = state.rows, state.stack
            parent = stack[-1] if stack else -1
            row = [name, 0, 0, parent, state.conn, state.seq, None]
            stack.append(len(rows))
            rows.append(row)
            row[1] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = _now()
                stack.pop()
            if after is not None:
                hook = [HOOK_SPAN, row[2], 0, parent, state.conn, state.seq, None]
                rows.append(hook)
                try:
                    row[6] = after(result, args, token)
                finally:
                    hook[2] = _now()
            return result

        return wrapper

    def spans(self) -> List[Span]:
        """Every recorded span, with thread-local indexes made global ids."""
        out: List[Span] = []
        with self._mutex:
            states = list(self._states)
        for state in states:
            base = len(out)
            for index, row in enumerate(list(state.rows)):
                name, start, end, parent, conn, seq, counters = row
                out.append(
                    Span(
                        base + index,
                        name,
                        start,
                        end,
                        base + parent if parent >= 0 else -1,
                        conn,
                        seq,
                        counters,
                    )
                )
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSONL (one array per span)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans():
                handle.write(json.dumps(list(span), separators=(",", ":")))
                handle.write("\n")


def load_spans(path: str) -> List[Span]:
    with open(path, "r", encoding="utf-8") as handle:
        return [Span(*json.loads(line)) for line in handle if line.strip()]


# -- self time ---------------------------------------------------------------


def _covered(intervals: List[Tuple[int, int]]) -> int:
    """Total length of the union of ``intervals``."""
    total = 0
    reach: Optional[int] = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """``{span id: self time}``: a span's duration minus the part of its
    interval that its child spans cover (children are clipped to the
    parent and overlapping children are counted once)."""
    spans = list(spans)
    children: Dict[int, List[Tuple[int, int]]] = {}
    by_id = {span.id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is None:
            continue
        start, end = max(span.start, parent.start), min(span.end, parent.end)
        if end > start:
            children.setdefault(parent.id, []).append((start, end))
    return {
        span.id: span.duration - _covered(children.get(span.id, []))
        for span in spans
    }


# -- patching -----------------------------------------------------------------


class Patches:
    """The set of replaced attributes; :meth:`restore` puts every original
    back, in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self._undo)


def resolve(module_name: str, qualname: str) -> Tuple[Any, str]:
    """``(owner, attribute)`` for ``module.func`` or ``module.Class.method``."""
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def patch(
    patches: Patches,
    module_name: str,
    qualname: str,
    make_wrapper: Callable[[Callable[..., Any]], Callable[..., Any]],
    package: str = "repro",
) -> None:
    """Replace ``module_name.qualname`` with ``make_wrapper(original)``.

    Module-level functions are also replaced in every loaded module of
    ``package`` that holds the same function object under any name (the
    ``from x import f`` bindings); methods are looked up on their class at
    call time, so patching the class reaches every caller."""
    owner, attr = resolve(module_name, qualname)
    original = owner.__dict__[attr]
    if isinstance(original, (staticmethod, classmethod)):
        raise TypeError(f"{module_name}.{qualname}: static/class methods are not supported")
    wrapper = make_wrapper(original)
    patches.set(owner, attr, wrapper)
    if owner is not sys.modules[module_name]:
        return
    prefix = package + "."
    for name, module in list(sys.modules.items()):
        if module is None or module is owner:
            continue
        if name != package and not name.startswith(prefix):
            continue
        for bound_name, value in list(vars(module).items()):
            if value is original:
                patches.set(module, bound_name, wrapper)
