"""Single-threaded event scheduler with a virtual and a realtime driver.

All controller and simulator code runs against this loop.  In virtual mode
the clock jumps from event to event, which makes large experiments fast and
bit-reproducible.  In realtime mode the same queue is driven by wall-clock
sleeps plus a selector, so real TCP sockets can be serviced from the loop
thread.  Timestamps are integer microseconds from the loop epoch.
"""

import heapq
import itertools
import os
import selectors
import time
from collections import deque


class Handle:
    """A scheduled callback that can be cancelled before it runs.  A
    cancelled handle stays queued and is dropped when it reaches the
    front."""

    __slots__ = ("when_us", "_fn", "_args", "cancelled")

    def __init__(self, when_us, fn, args):
        self.when_us = when_us
        self._fn = fn
        self._args = args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True
        self._fn = None
        self._args = None


class Future:
    """Minimal completion token for loop callbacks.  It never blocks: a
    thread outside the loop waits on its own primitive instead."""

    def __init__(self):
        self._done = False
        self._result = None
        self._exc = None
        self._callbacks = []

    def done(self):
        return self._done

    def set_result(self, value):
        if self._done:
            raise RuntimeError("future already resolved")
        self._done = True
        self._result = value
        self._run_callbacks()

    def set_exception(self, exc):
        if self._done:
            raise RuntimeError("future already resolved")
        self._done = True
        self._exc = exc
        self._run_callbacks()

    def add_done_callback(self, fn):
        if self._done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def result(self):
        if not self._done:
            raise RuntimeError("future not resolved yet")
        if self._exc is not None:
            raise self._exc
        return self._result

    def exception(self):
        return self._exc

    def _run_callbacks(self):
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


class EventLoop:
    """Priority queue of timed callbacks with two interchangeable drivers.

    Queue entries are (when_us, seq, handle) tuples, so the heap orders
    them with C tuple comparisons; seq breaks ties in scheduling order,
    which runs callbacks due at the same instant first in, first out.
    """

    def __init__(self, realtime=False):
        self.realtime = realtime
        self._heap = []
        self._seq = itertools.count()
        self._now_us = 0
        self._stopped = False
        if realtime:
            self._t0 = time.monotonic_ns()
            self._selector = selectors.DefaultSelector()
            self._readers = {}
            self._writers = {}
            self._pending_external = deque()
            self._waker_r, self._waker_w = os.pipe()
            os.set_blocking(self._waker_r, False)
            self._selector.register(self._waker_r, selectors.EVENT_READ, None)

    # -- clock -----------------------------------------------------------

    def now_us(self):
        if self.realtime:
            return (time.monotonic_ns() - self._t0) // 1000
        return self._now_us

    # -- scheduling ------------------------------------------------------

    def call_at(self, when_us, fn, *args):
        when_us = int(when_us)
        handle = Handle(when_us, fn, args)
        heapq.heappush(self._heap, (when_us, next(self._seq), handle))
        return handle

    def call_later(self, delay_us, fn, *args):
        return self.call_at(self.now_us() + int(delay_us), fn, *args)

    def call_soon(self, fn, *args):
        return self.call_at(self.now_us(), fn, *args)

    def call_threadsafe(self, fn, *args):
        """Schedule from a foreign thread and wake the realtime driver."""
        if not self.realtime:
            raise RuntimeError("call_threadsafe requires a realtime loop")
        self._pending_external.append((fn, args))
        os.write(self._waker_w, b"\0")

    # -- virtual driver ----------------------------------------------------

    def _run_due(self, limit_us):
        """Run the next live event due by limit_us, for either driver, moving
        the virtual clock to it; False when there is none."""
        heap = self._heap
        while heap and heap[0][0] <= limit_us:
            handle = heapq.heappop(heap)[2]
            if not handle.cancelled:
                self._now_us = max(self._now_us, handle.when_us)
                handle._fn(*handle._args)
                return True
        return False

    def run_until_idle(self, max_events=None):
        """Execute every queued event, jumping the clock forward."""
        if self.realtime:
            raise RuntimeError("run_until_idle requires a virtual loop")
        count = 0
        while self._run_due(float("inf")):
            count += 1
            if max_events is not None and count >= max_events:
                raise RuntimeError("event budget exhausted")
        return count

    def run_for(self, duration_us):
        """Execute events due within the window, then land on its end."""
        if self.realtime:
            raise RuntimeError("run_for requires a virtual loop")
        end = self._now_us + int(duration_us)
        while self._run_due(end):
            pass
        self._now_us = end

    def run_until(self, predicate, timeout_us=None):
        """Step events until predicate() holds.  Returns its final value."""
        if self.realtime:
            raise RuntimeError("run_until requires a virtual loop")
        deadline = None if timeout_us is None else self._now_us + timeout_us
        limit = float("inf") if deadline is None else deadline
        while not predicate():
            if not self._run_due(limit):
                if deadline is not None:
                    self._now_us = deadline
                break
        return predicate()

    # -- realtime driver -------------------------------------------------

    def add_reader(self, fd, fn, *args):
        self._readers[fd] = (fn, args)
        self._reregister(fd)

    def remove_reader(self, fd):
        self._readers.pop(fd, None)
        self._reregister(fd)

    def add_writer(self, fd, fn, *args):
        self._writers[fd] = (fn, args)
        self._reregister(fd)

    def remove_writer(self, fd):
        self._writers.pop(fd, None)
        self._reregister(fd)

    def _reregister(self, fd):
        events = 0
        if fd in self._readers:
            events |= selectors.EVENT_READ
        if fd in self._writers:
            events |= selectors.EVENT_WRITE
        try:
            self._selector.unregister(fd)
        except KeyError:
            pass
        if events:
            self._selector.register(fd, events, None)

    def run_forever(self):
        if not self.realtime:
            raise RuntimeError("run_forever requires a realtime loop")
        while not self._stopped:
            self._run_once()

    def stop(self):
        self._stopped = True
        if self.realtime:
            os.write(self._waker_w, b"\0")

    def close(self):
        if self.realtime:
            self._selector.close()
            os.close(self._waker_r)
            os.close(self._waker_w)

    def _run_once(self):
        while self._pending_external:
            fn, args = self._pending_external.popleft()
            self.call_soon(fn, *args)
        # Wait at most 1 s, also with nothing queued: a timer far off would
        # overflow select's timeout.
        timeout = 1.0
        now = self.now_us()
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        if self._heap:
            timeout = min(timeout, max(0, self._heap[0][0] - now) / 1e6)
        events = self._selector.select(timeout)
        for key, mask in events:
            if key.fd == self._waker_r:
                try:
                    os.read(self._waker_r, 4096)
                except BlockingIOError:
                    pass
                continue
            if mask & selectors.EVENT_READ and key.fd in self._readers:
                fn, args = self._readers[key.fd]
                fn(*args)
            if mask & selectors.EVENT_WRITE and key.fd in self._writers:
                fn, args = self._writers[key.fd]
                fn(*args)
        now = self.now_us()
        while self._run_due(now):
            pass
