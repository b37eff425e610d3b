"""Scheduler semantics on the virtual clock, plus the realtime driver."""

import fcntl
import os
import queue
import random
import socket
import threading
import time

import pytest
from hypothesis import given, strategies as st

from ofprobe.eventloop import FD_SETSIZE, EventLoop, Future
from ofprobe.report import percentile
from ofprobe import transport


def test_virtual_clock_jumps_to_event_times():
    loop = EventLoop()
    seen = []
    loop.call_later(500, lambda: seen.append(loop.now_us()))
    loop.call_later(100, lambda: seen.append(loop.now_us()))
    loop.run_until_idle()
    assert seen == [100, 500]
    assert loop.now_us() == 500


def test_same_instant_callbacks_run_in_schedule_order():
    loop = EventLoop()
    seen = []
    for i in range(5):
        loop.call_at(42, seen.append, i)
    loop.run_until_idle()
    assert seen == [0, 1, 2, 3, 4]


@given(st.lists(st.tuples(st.integers(0, 5), st.sampled_from(
    ["at", "later", "soon"]), st.booleans()), max_size=60))
def test_equal_times_run_first_in_first_out(plan):
    # few distinct due times, so most events tie with others
    loop = EventLoop()
    loop.run_for(2)
    seen, expected = [], []
    for i, (when, how, cancel) in enumerate(plan):
        if how == "at":
            handle = loop.call_at(when, seen.append, i)
        elif how == "later":
            handle = loop.call_later(when, seen.append, i)
        else:
            handle = loop.call_soon(seen.append, i)
        if cancel:
            handle.cancel()
        else:
            expected.append((handle.when_us, i))
    loop.run_until_idle()
    assert seen == [i for _when, i in sorted(expected)]


def test_cancel_prevents_execution():
    loop = EventLoop()
    seen = []
    handle = loop.call_later(10, seen.append, "no")
    loop.call_later(20, seen.append, "yes")
    handle.cancel()
    loop.run_until_idle()
    assert seen == ["yes"]


def test_run_for_lands_on_window_end():
    loop = EventLoop()
    seen = []
    loop.call_later(100, seen.append, "in")
    loop.call_later(5000, seen.append, "out")
    loop.run_for(1000)
    assert seen == ["in"]
    assert loop.now_us() == 1000
    loop.run_until_idle()
    assert seen == ["in", "out"]


def test_run_until_stops_at_predicate():
    loop = EventLoop()
    box = []
    for i in range(10):
        loop.call_later(100 * (i + 1), box.append, i)
    hit = loop.run_until(lambda: len(box) >= 3)
    assert hit
    assert box == [0, 1, 2]


def test_run_until_timeout_advances_clock():
    loop = EventLoop()
    hit = loop.run_until(lambda: False, timeout_us=2500)
    assert not hit
    assert loop.now_us() == 2500


def test_event_budget_guards_runaway():
    loop = EventLoop()

    def rearm():
        loop.call_soon(rearm)

    loop.call_soon(rearm)
    with pytest.raises(RuntimeError):
        loop.run_until_idle(max_events=100)


def test_nested_scheduling_keeps_clock_monotonic():
    loop = EventLoop()
    stamps = []

    def outer():
        stamps.append(loop.now_us())
        loop.call_later(50, inner)

    def inner():
        stamps.append(loop.now_us())

    loop.call_later(100, outer)
    loop.run_until_idle()
    assert stamps == [100, 150]


def test_future_callbacks_and_results():
    fut = Future()
    seen = []
    fut.add_done_callback(lambda f: seen.append(f.result()))
    fut.set_result(99)
    assert seen == [99]
    # late registration fires immediately
    fut.add_done_callback(lambda f: seen.append("late"))
    assert seen == [99, "late"]
    with pytest.raises(RuntimeError):
        fut.set_result(1)


def test_future_exception_propagates():
    fut = Future()
    fut.set_exception(ValueError("boom"))
    assert isinstance(fut.exception(), ValueError)
    with pytest.raises(ValueError):
        fut.result()


def test_unresolved_future_result_raises_at_once():
    fut = Future()
    with pytest.raises(RuntimeError):
        fut.result()
    assert not fut.done()


# -- virtual transport -----------------------------------------------------


def test_virtual_pair_delivers_with_delay():
    loop = EventLoop()
    a, b = transport.virtual_pair(loop, lambda: 1000)
    got = []
    b.set_receiver(lambda data: got.append((loop.now_us(), bytes(data))))
    a.send(b"hi")
    loop.run_until_idle()
    assert got == [(1000, b"hi")]


def test_same_instant_sends_coalesce_into_one_segment():
    loop = EventLoop()
    a, b = transport.virtual_pair(loop, lambda: 700)
    got = []
    b.set_receiver(lambda data: got.append(bytes(data)))
    a.send(b"one")
    a.send(b"two")
    loop.run_until_idle()
    assert got == [b"onetwo"]


def test_fifo_arrival_never_reorders():
    # A fast second segment must queue behind a slow first one.
    loop = EventLoop()
    delays = iter([5000, 100])
    a, b = transport.virtual_pair(loop, lambda: next(delays))
    got = []
    b.set_receiver(lambda data: got.append((loop.now_us(), bytes(data))))
    a.send(b"slow")
    loop.run_for(1)  # flush the first segment before queueing the next
    a.send(b"fast")
    loop.run_until_idle()
    assert got == [(5000, b"slow"), (5000, b"fast")]


def test_close_reaches_the_peer_after_segments_in_flight():
    loop = EventLoop()
    a, b = transport.virtual_pair(loop, lambda: 5000)
    got = []
    b.set_receiver(lambda data: got.append((loop.now_us(), bytes(data))))
    a.send(b"first")
    loop.run_for(1000)  # in flight until 5000
    a.send(b"unsent")
    a.close()
    a.close()
    loop.run_until_idle()
    assert got == [(5000, b"first"), (5000, b"")]


def test_closed_endpoint_rejects_and_stays_silent():
    loop = EventLoop()
    a, b = transport.virtual_pair(loop, lambda: 10)
    got = []
    b.set_receiver(got.append)
    a.send(b"x")
    b.close()
    loop.run_until_idle()
    assert got == []
    with pytest.raises(transport.TransportClosed):
        b.send(b"y")


# -- realtime driver ---------------------------------------------------------


def test_realtime_loop_runs_timers_and_threadsafe_calls():
    loop = EventLoop(realtime=True)
    fired = queue.Queue()
    loop.call_threadsafe(loop.call_later, 1000, fired.put, "timer")
    runner = threading.Thread(target=loop.run_forever, daemon=True)
    runner.start()
    assert fired.get(timeout=5) == "timer"
    loop.stop()
    runner.join(timeout=5)
    assert not runner.is_alive()
    loop.close()


def run_realtime_until(loop, when_us):
    loop.call_at(when_us, loop.stop)
    try:
        loop.run_forever()
    finally:
        loop.close()


def test_realtime_timers_due_together_run_first_in_first_out():
    loop = EventLoop(realtime=True)
    seen = []
    due = loop.now_us() + 20_000
    handles = [loop.call_at(due + i % 2, seen.append, i) for i in range(8)]
    handles[0].cancel()  # at the head of the queue while the loop waits
    handles[5].cancel()
    run_realtime_until(loop, due + 2)
    assert seen == [2, 4, 6, 1, 3, 7]


def test_realtime_timer_cancelled_by_a_timer_due_with_it_never_runs():
    loop = EventLoop(realtime=True)
    seen = []
    due = loop.now_us() + 20_000
    loop.call_at(due, lambda: victim.cancel())
    victim = loop.call_at(due, seen.append, "cancelled")
    loop.call_at(due, seen.append, "kept")
    run_realtime_until(loop, due + 1)
    assert seen == ["kept"]


def test_realtime_tcp_round_trip():
    loop = EventLoop(realtime=True)
    got = queue.Queue()
    conns = []

    def on_accept(conn, addr):
        conns.append(conn)
        conn.set_receiver(lambda data: conn.send(data.upper()))

    listener = transport.TcpListener(loop, "127.0.0.1", 0, on_accept)
    runner = threading.Thread(target=loop.run_forever, daemon=True)
    runner.start()

    def client():
        conn = transport.connect_tcp(loop, "127.0.0.1", listener.port)
        conns.append(conn)
        conn.set_receiver(lambda data: got.put(bytes(data)))
        conn.send(b"abc")

    loop.call_threadsafe(client)
    assert got.get(timeout=5) == b"ABC"
    loop.stop()
    runner.join(timeout=5)
    for conn in conns:
        conn.close()
    listener.close()
    loop.close()


def test_tcp_end_of_stream_reaches_the_receiver_once():
    loop = EventLoop(realtime=True)
    got = []
    hung_up = queue.Queue()
    conns = []

    def on_accept(conn, addr):
        conns.append(conn)

        def receive(data):
            got.append(bytes(data))
            if not data:
                hung_up.put(conn.closed)

        conn.set_receiver(receive)

    listener = transport.TcpListener(loop, "127.0.0.1", 0, on_accept)
    runner = threading.Thread(target=loop.run_forever, daemon=True)
    runner.start()
    with socket.create_connection(("127.0.0.1", listener.port)) as peer:
        peer.sendall(b"abc")
    assert hung_up.get(timeout=5) is True  # closed before it is told
    loop.stop()
    runner.join(timeout=5)
    assert got == [b"abc", b""]
    listener.close()
    loop.close()


class _FailingSend:
    """A connected socket whose writes fail as after a reset."""

    def __init__(self, sock):
        self._sock = sock

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def send(self, data):
        raise ConnectionResetError("reset by peer")


def test_failed_write_reaches_the_receiver_from_the_loop():
    loop = EventLoop(realtime=True)
    with socket.create_server(("127.0.0.1", 0)) as server, \
            socket.create_connection(server.getsockname()) as sock, \
            server.accept()[0]:
        conn = transport.TcpConnection(loop, _FailingSend(sock))
        got = []
        conn.set_receiver(got.append)
        conn.send(b"x")
        conn.send(b"y")
        assert got == [] and not conn.closed  # never inside the writer's call
        loop.call_soon(loop.stop)
        loop.run_forever()
        assert got == [b""] and conn.closed
    loop.close()


def _drain(sock):
    """Everything a nonblocking socket can read now."""
    out = bytearray()
    while True:
        try:
            data = sock.recv(1 << 16)
        except BlockingIOError:
            return bytes(out)
        if not data:
            return bytes(out)
        out += data


def test_backlog_past_the_cap_hangs_up_on_a_peer_that_never_reads(
        monkeypatch):
    monkeypatch.setattr(transport, "MAX_BACKLOG", 256 << 10)
    loop = EventLoop(realtime=True)
    with socket.create_server(("127.0.0.1", 0)) as server:
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        sock.connect(server.getsockname())
        with server.accept()[0] as peer:
            conn = transport.TcpConnection(loop, sock)
            got = []
            conn.set_receiver(got.append)
            for _ in range(64):  # 4 MiB: past the kernel's buffers and the cap
                conn.send(bytes(64 << 10))
                if conn.backlog_overflows:
                    break
            conn.send(b"y" * 100)  # fits under the cap, but after a gap
            assert conn.backlog_overflows == 1
            assert got == [] and not conn.closed  # never inside a send
            # the peer reads at last: nothing after the gap may reach it
            peer.setblocking(False)
            received = _drain(peer)
            loop.call_later(50_000, loop.stop)
            loop.run_forever()
            assert got == [b""] and conn.closed and sock.fileno() == -1
            peer.settimeout(5)
            while data := peer.recv(1 << 16):
                received += data
            assert b"y" not in received
    loop.close()


def test_realtime_clock_tracks_wall_time():
    loop = EventLoop(realtime=True)
    t0 = loop.now_us()
    time.sleep(0.02)
    assert loop.now_us() - t0 >= 15_000
    loop.close()


def test_a_far_off_timer_does_not_end_the_realtime_loop():
    """Each realtime wait is capped at 1 s, so a timer 10**30 us away never
    reaches select as a timeout past the platform's time_t."""
    loop = EventLoop(realtime=True)
    loop.call_later(10 ** 30, lambda: None)
    stopper = threading.Timer(0.001, loop.stop)
    loop.call_soon(stopper.start)  # the far timer is then the only one left
    try:
        loop.run_forever()
    finally:
        stopper.join()
        loop.close()


def _chained_timer_lateness_p99(rng):
    """p99 lateness of a chain of 400 realtime timers, each due 50-3,000 us
    after the previous one fired."""
    loop = EventLoop(realtime=True)
    lateness = []

    def schedule():
        due = loop.now_us() + rng.randint(50, 3000)
        loop.call_at(due, fire, due)

    def fire(due):
        lateness.append(loop.now_us() - due)
        if len(lateness) < 400:
            schedule()
        else:
            loop.stop()

    schedule()
    try:
        loop.run_forever()
    finally:
        loop.close()
    return percentile(lateness, 99)


def test_realtime_timers_fire_within_half_a_millisecond():
    """epoll and poll round each wait up to a whole millisecond, which made
    the p99 lateness about 1.1 ms in every chain; select(2) waits to the
    microsecond.  Another tenant of a shared host can still hold the loop
    off for milliseconds a few times in one chain, so the quietest of up to
    three chains is held to the bound."""
    rng = random.Random(1)
    p99s = [_chained_timer_lateness_p99(rng)]
    while p99s[-1] > 500 and len(p99s) < 3:
        p99s.append(_chained_timer_lateness_p99(rng))
    assert min(p99s) <= 500, p99s


def _past_select_limit(fd):
    """A duplicate of fd numbered FD_SETSIZE or higher; it never replaces a
    descriptor already open."""
    return fcntl.fcntl(fd, fcntl.F_DUPFD, FD_SETSIZE)


def test_a_descriptor_past_select_limit_is_refused_and_the_loop_runs_on():
    loop = EventLoop(realtime=True)
    r, w = os.pipe()
    high = _past_select_limit(r)
    try:
        with pytest.raises(ValueError):
            loop.add_reader(high, lambda: None)
        with pytest.raises(ValueError):
            loop.add_writer(high, lambda: None)
        fired = []
        loop.call_later(1000, fired.append, "timer")
        loop.call_later(2000, loop.stop)
        loop.run_forever()
        assert fired == ["timer"]
    finally:
        for fd in (r, w, high):
            os.close(fd)
        loop.close()


class _AcceptsPastSelectLimit:
    """A listening socket whose accepted sockets are numbered past
    FD_SETSIZE, as on a host with many descriptors open."""

    def __init__(self, sock):
        self._sock = sock
        self.accepted = []

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def accept(self):
        sock, addr = self._sock.accept()
        with sock:
            high = socket.socket(fileno=_past_select_limit(sock.fileno()))
        self.accepted.append(high)
        return high, addr


def test_listener_closes_and_counts_a_connection_past_select_limit(caplog):
    loop = EventLoop(realtime=True)
    handed_on = []
    listener = transport.TcpListener(
        loop, "127.0.0.1", 0, lambda conn, addr: handed_on.append(conn))
    listener._sock = wrapped = _AcceptsPastSelectLimit(listener._sock)
    fired = []
    try:
        with socket.create_connection(("127.0.0.1", listener.port)) as peer:
            loop.call_later(20_000, fired.append, "timer")
            loop.call_later(30_000, loop.stop)
            loop.run_forever()
            peer.settimeout(5)
            assert peer.recv(1) == b""  # the controller hung up
        assert listener.refused == 1 and handed_on == []
        assert [s.fileno() for s in wrapped.accepted] == [-1]
        assert fired == ["timer"]
        assert "refused switch connection" in caplog.text
    finally:
        listener.close()
        loop.close()
