"""Byte transports the control channel runs over.

Two implementations share one shape: send(data), close(), and a receiver
callback installed with set_receiver().  The peer hanging up reaches the
receiver as one empty segment, b"".  The virtual pair moves bytes
through the event loop with a sampled one-way delay and FIFO arrival, so a
later segment can never overtake an earlier one.  The TCP flavor services
nonblocking sockets from the loop's selector.
"""

import logging
import socket

log = logging.getLogger(__name__)

# Bytes a TCP connection buffers for a peer that is not reading; above the
# 97 MiB of PacketOuts of the largest task, 65,535 full-size Echo Requests.
MAX_BACKLOG = 128 << 20


class TransportClosed(Exception):
    pass


class _VirtualEndpoint:
    """One side of an in-process duplex pipe.

    Bytes written while one loop callback runs are coalesced into a single
    segment, mimicking how a kernel batches small writes into one TCP
    segment.  Delivery happens in one receiver call per segment.
    """

    def __init__(self, loop, delay_fn):
        self._loop = loop
        self._delay_fn = delay_fn
        self._peer = None
        self._receiver = None
        self._pending = None
        self._last_arrival = 0
        self.closed = False

    def set_receiver(self, fn):
        self._receiver = fn

    def send(self, data):
        if self.closed:
            raise TransportClosed("virtual endpoint is closed")
        if self._pending is None:
            self._pending = bytearray()
            self._loop.call_soon(self._flush)
        self._pending += data

    def _flush(self):
        if self.closed or not self._pending:
            self._pending = None
            return
        segment = bytes(self._pending)
        self._pending = None
        arrival = max(self._last_arrival,
                      self._loop.now_us() + self._delay_fn())
        self._last_arrival = arrival
        self._loop.call_at(arrival, self._peer._deliver, segment)

    def _deliver(self, segment):
        if not self.closed and self._receiver is not None:
            self._receiver(segment)

    def close(self):
        """Drop unsent bytes and hang up: the peer's receiver gets b"" after
        every segment already in flight."""
        if self.closed:
            return
        self.closed = True
        self._pending = None
        self._loop.call_at(max(self._last_arrival, self._loop.now_us()),
                           self._peer._deliver, b"")


def virtual_pair(loop, delay_fn):
    """Create two connected endpoints.  delay_fn returns the microseconds
    each segment takes, in either direction."""
    a = _VirtualEndpoint(loop, delay_fn)
    b = _VirtualEndpoint(loop, delay_fn)
    a._peer = b
    b._peer = a
    return a, b


class TcpConnection:
    """Nonblocking socket adapter driven by a realtime loop.

    Writes that the kernel cannot take immediately are buffered and flushed
    in order when the socket becomes writable again.  A write that would
    take the buffer past MAX_BACKLOG is counted in backlog_overflows and
    closes the connection the way a failed write does.
    """

    def __init__(self, loop, sock):
        self._loop = loop
        self._sock = sock
        self._sock.setblocking(False)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._receiver = None
        self._backlog = bytearray()
        self.backlog_overflows = 0
        self.closed = False
        loop.add_reader(sock.fileno(), self._on_readable)

    def set_receiver(self, fn):
        self._receiver = fn

    def send(self, data):
        if self.closed:
            raise TransportClosed("socket is closed")
        if self._backlog:
            if len(self._backlog) + len(data) > MAX_BACKLOG:
                # the peer stopped reading: hang up from the loop.  Later
                # writes that fit queue behind the gap and are discarded.
                self.backlog_overflows += 1
                self._loop.call_soon(self._lost)
            else:
                self._backlog += data
            return
        try:
            sent = self._sock.send(data)
        except BlockingIOError:
            sent = 0
        except OSError:
            # tell the receiver from the loop, not from inside a write
            self._loop.call_soon(self._lost)
            return
        if sent < len(data):
            self._backlog += data[sent:]
            self._loop.add_writer(self._sock.fileno(), self._on_writable)

    def _on_writable(self):
        try:
            sent = self._sock.send(self._backlog)
        except BlockingIOError:
            return
        except OSError:
            self._lost()
            return
        del self._backlog[:sent]
        if not self._backlog:
            self._loop.remove_writer(self._sock.fileno())

    def _on_readable(self):
        try:
            data = self._sock.recv(65536)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._lost()
        elif self._receiver is not None:
            self._receiver(data)

    def _lost(self):
        """End of stream or a socket error: close, then hand the receiver
        the empty segment that says the peer is gone."""
        if not self.closed:
            self.close()
            if self._receiver is not None:
                self._receiver(b"")

    def close(self):
        if self.closed:
            return
        self.closed = True
        fd = self._sock.fileno()
        if fd >= 0:
            self._loop.remove_reader(fd)
            self._loop.remove_writer(fd)
        try:
            self._sock.close()
        except OSError:
            pass


class TcpListener:
    """Accepts switch connections and wraps each in a TcpConnection."""

    def __init__(self, loop, host, port, on_accept):
        self._loop = loop
        self._on_accept = on_accept
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(16)
        self._sock.setblocking(False)
        self.port = self._sock.getsockname()[1]
        loop.add_reader(self._sock.fileno(), self._accept)

    def _accept(self):
        try:
            sock, addr = self._sock.accept()
        except (BlockingIOError, OSError):
            return
        log.info("switch connection from %s:%d", *addr)
        self._on_accept(TcpConnection(self._loop, sock), addr)

    def close(self):
        self._loop.remove_reader(self._sock.fileno())
        self._sock.close()


def connect_tcp(loop, host, port, timeout=5.0):
    """Outbound blocking connect, then hand the socket to the loop."""
    sock = socket.create_connection((host, port), timeout=timeout)
    return TcpConnection(loop, sock)
