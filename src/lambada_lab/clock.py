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


class Sleep:
    """Yield from a task to suspend it for `duration_us` virtual microseconds."""

    __slots__ = ("duration_us",)

    def __init__(self, duration_us: int):
        if duration_us < 0:
            raise ValueError("cannot sleep for negative time")
        self.duration_us = int(duration_us)


class Future:
    """One-shot result container tasks can wait on by yielding it."""

    __slots__ = ("_done", "_result", "_error", "_observed", "_callbacks")

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
            self._observed = True
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
        self._observed = False  # until result() raises it
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
    """A running generator; also a Future resolving to its return value.

    A task is its own event: the loop calls it to take one step.  It has at
    most one wake-up pending, so the value or error to resume it with is
    kept on the task until that step takes it.
    """

    __slots__ = ("gen", "name", "loop", "_send", "_throw")

    def __init__(self, gen: Generator, name: str = ""):
        super().__init__()
        self.gen = gen
        self.name = name
        self.loop: SimLoop | None = None  # set by SimLoop.start
        self._send: Any = None
        self._throw: BaseException | None = None

    def __call__(self) -> None:
        """Resume the generator once and schedule what it yields."""
        if self._done:
            return
        value, exc = self._send, self._throw
        self._send = self._throw = None
        try:
            if exc is not None:
                yielded = self.gen.throw(exc)
            else:
                yielded = self.gen.send(value)
        except StopIteration as stop:
            self.set_result(stop.value)
            return
        except Exception as err:
            self.set_error(err)
            self.loop._failed.append(self)
            return
        if isinstance(yielded, Sleep):
            loop = self.loop
            loop.call_at(loop.now + yielded.duration_us, self)
        elif isinstance(yielded, Future):
            yielded.add_callback(self._wake)
        else:
            self._throw = TypeError(f"task yielded unsupported value: {yielded!r}")
            self()

    def _wake(self, fut: Future) -> None:
        """Resume with `fut`'s outcome at the current instant, after the events
        already queued for it.  `result()` marks an error observed."""
        try:
            self._send = fut.result()
        except Exception as err:
            self._throw = err
        loop = self.loop
        loop.call_at(loop.now, self)


class AllOf(Future):
    """A future over several: resolves to their results in list order once all
    are done, or fails with the first error in list order."""

    __slots__ = ("futures", "_remaining")

    def __init__(self, futures: Iterable[Future]):
        super().__init__()
        self.futures = list(futures)
        self._remaining = len(self.futures) + 1  # + 1 until all are registered
        for fut in self.futures:
            fut.add_callback(self._member_done)
        self._member_done(self)

    def _member_done(self, _fut: Future) -> None:
        self._remaining -= 1
        if self._remaining:
            return
        error = next((f._error for f in self.futures if f._error is not None), None)
        if error is None:
            self.set_result([f._result for f in self.futures])
        else:
            self.set_error(error)

    def result(self) -> Any:
        if self._error is not None:
            # whoever sees the first error has seen its siblings' too
            for fut in self.futures:
                if fut._error is not None:
                    fut._observed = True
        return super().result()


class SimLoop:
    """Single-threaded deterministic event loop owning the virtual clock."""

    def __init__(self):
        self.now: int = 0
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = 0
        self._failed: list[Task] = []  # tasks that ended with an error

    def call_at(self, when_us: int, fn: Callable[[], None]) -> None:
        if when_us < self.now:
            raise ValueError("cannot schedule an event in the past")
        heapq.heappush(self._heap, (int(when_us), self._seq, fn))
        self._seq += 1

    def start(self, task: Task) -> Task:
        """Schedule `task`'s first step at the current time."""
        task.loop = self
        self.call_at(self.now, task)
        return task

    def spawn(self, gen: Generator, name: str = "") -> Task:
        return self.start(Task(gen, name=name))

    def run(self) -> None:
        """Drain the event queue, advancing virtual time."""
        heap, heappop = self._heap, heapq.heappop
        while heap:
            when, _seq, fn = heappop(heap)
            self.now = when
            fn()

    def run_task(self, gen: Generator, name: str = "") -> Any:
        """Spawn a task, drive the loop until idle, and return its result.

        Raises the task's own error if it failed.  Otherwise an error that
        ended some other task and that nobody has seen (no `result()` raised
        it) is raised, chained, as a `RuntimeError` naming that task.
        """
        task = self.spawn(gen, name=name)
        self.run()
        failed, self._failed = self._failed, []
        if task.done and task._error is not None:
            return task.result()  # raises the task's own error
        lost = next((t for t in failed if not t._observed), None)
        cause = None if lost is None else lost._error
        if not task.done:
            raise RuntimeError(f"task {task.name or gen!r} never completed") from cause
        if lost is not None:
            raise RuntimeError(f"task {lost.name or lost.gen!r} failed unawaited") from cause
        return task.result()
