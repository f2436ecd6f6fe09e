"""Per-thread self-time accounting for functions wrapped from outside.

The benchmark never edits the program: it replaces a layer's public
function with a timing wrapper at every place the function is bound
(the defining module and every module that imported it by name), runs
the workload, and puts the originals back.

A layer's *self* time is the time spent inside its wrapped function
minus the time spent inside wrapped functions it called.  Each thread
keeps its own call stack, so two serve worker threads never charge
each other's children.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict


class _ThreadState:
    __slots__ = ("stack", "table", "active")

    def __init__(self) -> None:
        self.stack: list[float] = []  # child seconds, one slot per open call
        self.table: dict = _new_table()
        self.active = False


def _new_table() -> dict:
    return {"self": defaultdict(float), "calls": defaultdict(int), "counts": defaultdict(int)}


def merge_tables(tables) -> dict:
    """Sum several ``{"self", "calls", "counts"}`` tables into one."""
    out = _new_table()
    for table in tables:
        for kind in ("self", "calls", "counts"):
            for name, value in table[kind].items():
                out[kind][name] += value
    return out


class SelfTimer:
    """Collects self time and call counts per layer name.

    Tracing is off until a thread calls :meth:`activate` (or enters
    :meth:`collect`); an inactive wrapper only forwards the call.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def activate(self, on: bool = True) -> None:
        """Turn tracing on or off for the calling thread."""
        self._state().active = on

    def collect(self):
        """Context manager: trace the calling thread into a fresh table.

        Yields the table; nested wrappers on this thread charge it until
        the block ends, then the thread's previous table and activity
        are restored.
        """
        return _Collect(self)

    def wrap(self, name: str, fn, counter=None):
        """A wrapper of ``fn`` that charges its self time to ``name``.

        ``counter(args, kwargs, result)`` optionally returns
        ``{count_name: amount}`` added to the table on each traced call.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            if not state.active:
                return fn(*args, **kwargs)
            with _Span(self, name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    state.table["counts"][key] += amount
            return result

        return wrapper

    def span(self, name: str):
        """Context manager charging a block like a wrapped call."""
        return _Span(self, name)

    def table(self) -> dict:
        """Every thread's default table, summed (collect() tables excluded)."""
        with self._lock:
            states = list(self._states)
        return merge_tables(state.table for state in states)


class _Collect:
    def __init__(self, timer: SelfTimer) -> None:
        self.timer = timer
        self.table = _new_table()

    def __enter__(self) -> dict:
        state = self.timer._state()
        self._saved = (state.table, state.active, state.stack)
        state.table, state.active, state.stack = self.table, True, []
        return self.table

    def __exit__(self, *exc) -> None:
        state = self.timer._state()
        state.table, state.active, state.stack = self._saved


class _Span:
    def __init__(self, timer: SelfTimer, name: str) -> None:
        self.timer = timer
        self.name = name

    def __enter__(self):
        state = self.timer._state()
        self._on = state.active
        if self._on:
            state.stack.append(0.0)
            self._start = self.timer.clock()
        return self

    def __exit__(self, *exc) -> None:
        if not self._on:
            return
        state = self.timer._state()
        elapsed = self.timer.clock() - self._start
        child = state.stack.pop()
        state.table["self"][self.name] += elapsed - child
        state.table["calls"][self.name] += 1
        if state.stack:
            state.stack[-1] += elapsed


class Patcher:
    """Replaces named attributes and restores them, in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
