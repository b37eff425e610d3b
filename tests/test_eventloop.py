"""Scheduler semantics on the virtual clock, plus the realtime driver."""

import socket
import threading
import time

import pytest
from hypothesis import given, strategies as st

from ofprobe.eventloop import EventLoop, Future
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
    fut.add_done_callback(lambda f: seen.append(f.result(0)))
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
        fut.result(0)


def test_future_result_timeout():
    with pytest.raises(TimeoutError):
        Future().result(timeout=0.01)


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
    fut = Future()
    loop.call_threadsafe(loop.call_later, 1000, fut.set_result, "timer")
    runner = threading.Thread(target=loop.run_forever, daemon=True)
    runner.start()
    assert fut.result(timeout=5) == "timer"
    loop.stop()
    runner.join(timeout=5)
    assert not runner.is_alive()
    loop.close()


def test_realtime_tcp_round_trip():
    loop = EventLoop(realtime=True)
    got = Future()
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
        conn.set_receiver(lambda data: got.set_result(bytes(data)))
        conn.send(b"abc")

    loop.call_threadsafe(client)
    assert got.result(timeout=5) == b"ABC"
    loop.stop()
    runner.join(timeout=5)
    for conn in conns:
        conn.close()
    listener.close()
    loop.close()


def test_tcp_end_of_stream_reaches_the_receiver_once():
    loop = EventLoop(realtime=True)
    got = []
    hung_up = Future()
    conns = []

    def on_accept(conn, addr):
        conns.append(conn)

        def receive(data):
            got.append(bytes(data))
            if not data:
                hung_up.set_result(conn.closed)

        conn.set_receiver(receive)

    listener = transport.TcpListener(loop, "127.0.0.1", 0, on_accept)
    runner = threading.Thread(target=loop.run_forever, daemon=True)
    runner.start()
    with socket.create_connection(("127.0.0.1", listener.port)) as peer:
        peer.sendall(b"abc")
    assert hung_up.result(timeout=5) is True  # closed before it is told
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


def test_realtime_clock_tracks_wall_time():
    loop = EventLoop(realtime=True)
    t0 = loop.now_us()
    time.sleep(0.02)
    assert loop.now_us() - t0 >= 15_000
    loop.close()
