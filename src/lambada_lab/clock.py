"""Deterministic virtual clock and cooperative task scheduler.

All simulated activity runs as generator-based tasks on a single event loop.
Time is a 64-bit integer count of virtual microseconds.  Events scheduled for
the same instant fire in insertion order, so two runs with identical inputs
produce identical traces.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable

US_PER_MS = 1_000
US_PER_S = 1_000_000


def s_to_us(seconds: float) -> int:
    return round(seconds * US_PER_S)


def us_to_s(us: int) -> float:
    return us / US_PER_S


class Sleep:
    """Yield from a task to suspend it for `duration_us` virtual microseconds."""

    __slots__ = ("duration_us",)

    def __init__(self, duration_us: int):
        if duration_us < 0:
            raise ValueError("cannot sleep for negative time")
        self.duration_us = int(duration_us)


class Future:
    """One-shot result container tasks can wait on by yielding it."""

    __slots__ = ("_done", "_result", "_error", "_callbacks")

    def __init__(self):
        self._done = False
        self._result = None
        self._error: BaseException | None = None
        self._callbacks: list[Callable[[Future], None]] = []

    @property
    def done(self) -> bool:
        return self._done

    def result(self) -> Any:
        if not self._done:
            raise RuntimeError("future is not done")
        if self._error is not None:
            raise self._error
        return self._result

    def set_result(self, value: Any = None) -> None:
        if self._done:
            raise RuntimeError("future already resolved")
        self._done = True
        self._result = value
        self._fire()

    def set_error(self, exc: BaseException) -> None:
        if self._done:
            raise RuntimeError("future already resolved")
        self._done = True
        self._error = exc
        self._fire()

    def add_callback(self, fn: Callable[[Future], None]) -> None:
        if self._done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


class Task(Future):
    """A running generator; also a Future resolving to its return value."""

    __slots__ = ("gen", "name")

    def __init__(self, gen: Generator, name: str = ""):
        super().__init__()
        self.gen = gen
        self.name = name


class AllOf:
    """Yield from a task to wait until every given future is done."""

    __slots__ = ("futures",)

    def __init__(self, futures: Iterable[Future]):
        self.futures = list(futures)


class SimLoop:
    """Single-threaded deterministic event loop owning the virtual clock."""

    def __init__(self):
        self.now: int = 0
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = 0

    def call_at(self, when_us: int, fn: Callable[[], None]) -> None:
        if when_us < self.now:
            raise ValueError("cannot schedule an event in the past")
        heapq.heappush(self._heap, (int(when_us), self._seq, fn))
        self._seq += 1

    def call_later(self, delay_us: int, fn: Callable[[], None]) -> None:
        self.call_at(self.now + int(delay_us), fn)

    def spawn(self, gen: Generator, name: str = "") -> Task:
        task = Task(gen, name=name)
        self.call_at(self.now, lambda: self._step(task, None, None))
        return task

    def _step(self, task: Task, value: Any, exc: BaseException | None) -> None:
        if task.done:
            return
        try:
            if exc is not None:
                yielded = task.gen.throw(exc)
            else:
                yielded = task.gen.send(value)
        except StopIteration as stop:
            task.set_result(stop.value)
            return
        except Exception as err:
            task.set_error(err)
            return
        self._dispatch(task, yielded)

    def _dispatch(self, task: Task, yielded: Any) -> None:
        if isinstance(yielded, Sleep):
            self.call_later(yielded.duration_us, lambda: self._step(task, None, None))
        elif isinstance(yielded, Future):
            yielded.add_callback(lambda fut: self._resume_from(task, fut))
        elif isinstance(yielded, AllOf):
            self._wait_all(task, yielded.futures)
        else:
            self._step(task, None, TypeError(f"task yielded unsupported value: {yielded!r}"))

    def _resume_from(self, task: Task, fut: Future) -> None:
        try:
            value = fut.result()
        except Exception as err:
            exc = err
            self.call_at(self.now, lambda: self._step(task, None, exc))
            return
        self.call_at(self.now, lambda: self._step(task, value, None))

    def _wait_all(self, task: Task, futures: list[Future]) -> None:
        pending = [f for f in futures if not f.done]
        if not pending:
            self._finish_all(task, futures)
            return
        remaining = [len(pending)]

        def on_done(_fut: Future) -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                self._finish_all(task, futures)

        for fut in pending:
            fut.add_callback(on_done)

    def _finish_all(self, task: Task, futures: list[Future]) -> None:
        def resume() -> None:
            try:
                results = [f.result() for f in futures]
            except Exception as err:
                self._step(task, None, err)
                return
            self._step(task, results, None)

        self.call_at(self.now, resume)

    def run(self) -> None:
        """Drain the event queue, advancing virtual time."""
        while self._heap:
            when, _seq, fn = heapq.heappop(self._heap)
            self.now = when
            fn()

    def run_task(self, gen: Generator, name: str = "") -> Any:
        """Spawn a task, drive the loop until idle, and return its result."""
        task = self.spawn(gen, name=name)
        self.run()
        if not task.done:
            raise RuntimeError(f"task {task.name or gen!r} never completed (deadlock?)")
        return task.result()
