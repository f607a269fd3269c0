"""SocketTransport against a scripted fake socket (no kernel involved).

Each fake ``sendmsg`` takes what its script says -- a byte count, all
of what it is offered, or an exception -- and each ``recv`` returns its
scripted chunk, so the send queue, the close and abort paths and the
read loop are driven byte by byte and deterministically.
"""

import selectors
import socket

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.drivers.sockets import SocketTransport
from repro.core.errors import DriverError
from repro.tls.record import (
    CONTENT_APPLICATION_DATA,
    RecordReassembler,
    encode_plaintext_record,
)

#: a sendmsg script step that takes everything it is offered
ALL = None


class FakeSocket:
    """Scripted stand-in for a non-blocking TCP socket."""

    family = socket.AF_INET

    def __init__(self, accepts=(), reads=()):
        #: one step per sendmsg: a byte count, ALL or an exception
        self.accepts = list(accepts)
        #: one step per recv: a chunk, b"" (EOF) or an exception;
        #: BlockingIOError once the script is spent
        self.reads = list(reads)
        self.written = bytearray()
        self.gathers = 0
        self.options = []
        self.shut = False
        self.closed = False

    def getsockname(self):
        return ("127.0.0.1", 40000)

    def setblocking(self, flag):
        pass

    def setsockopt(self, *args):
        self.options.append(args)

    def fileno(self):
        return -1 if self.closed else 7

    def sendmsg(self, buffers):
        step = self.accepts.pop(0) if self.accepts else ALL
        if isinstance(step, BaseException):
            raise step
        self.gathers += 1
        data = b"".join(bytes(buffer) for buffer in buffers)
        taken = len(data) if step is ALL else min(step, len(data))
        self.written += data[:taken]
        return taken

    def send(self, data):
        return self.sendmsg([data])

    def recv(self, size):
        step = self.reads.pop(0) if self.reads else BlockingIOError()
        if isinstance(step, BaseException):
            raise step
        assert len(step) <= size
        return step

    def shutdown(self, how):
        self.shut = True

    def close(self):
        self.closed = True


class FakeDriver:
    """The three hooks a transport calls on its driver."""

    def __init__(self):
        self.transports = []

    def _register(self, transport):
        self.transports.append(transport)

    def _unregister(self, transport, registry=None):
        if transport in self.transports:
            self.transports.remove(transport)

    def _update_interest(self, transport):
        pass


def make_transport(**script):
    driver = FakeDriver()
    sock = FakeSocket(**script)
    return SocketTransport(driver, sock, remote=None), sock, driver


def writable(transport):
    transport._handle_events(selectors.EVENT_WRITE)


def test_sendmsg_accepting_odd_byte_counts():
    transport, sock, _ = make_transport(accepts=[33, 1, 0, 7, ALL])
    spaces = []
    transport.set_callbacks(on_send_space=spaces.append)
    records = [bytes([n]) * size for n, size in enumerate((100, 50, 25))]
    transport.send(records[0])
    assert bytes(sock.written) == records[0][:33]
    assert transport.unsent_bytes() == 67
    transport.send(records[1])
    assert len(sock.written) == 34
    assert transport.unsent_bytes() == 116
    transport.send(records[2])          # the kernel takes nothing
    assert len(sock.written) == 34
    assert transport.send_space() == SocketTransport.SEND_BUFFER_CAP - 141
    writable(transport)                 # 7 bytes: a short gather waits
    assert len(sock.written) == 41 and spaces == []
    writable(transport)
    assert bytes(sock.written) == b"".join(records)
    assert transport.unsent_bytes() == 0
    assert spaces == [transport]


def test_blocking_io_error_in_the_middle_of_the_queue():
    transport, sock, _ = make_transport(
        accepts=[BlockingIOError()] * 4 + [150, BlockingIOError(), ALL])
    records = [bytes([n]) * 100 for n in range(4)]
    for record in records:
        transport.send(record)          # every gather blocks
    assert sock.written == b"" and transport.unsent_bytes() == 400
    writable(transport)                 # 150 bytes, into the 2nd record
    assert bytes(sock.written) == b"".join(records)[:150]
    assert transport.unsent_bytes() == 250
    writable(transport)                 # blocked again: nothing moves
    assert len(sock.written) == 150 and transport.unsent_bytes() == 250
    writable(transport)                 # everything else, in one gather
    assert bytes(sock.written) == b"".join(records)
    assert transport.unsent_bytes() == 0
    assert not transport._wants_write()


def test_close_with_queued_data_tears_down_after_the_queue_drains():
    transport, sock, driver = make_transport(
        accepts=[BlockingIOError(), 60, ALL])
    transport.send(b"x" * 100)
    transport.close()
    assert transport.is_open() and not sock.closed
    assert transport in driver.transports
    assert transport.send_space() == 0
    writable(transport)                 # 60 of 100: still draining
    assert not sock.closed and transport.unsent_bytes() == 40
    writable(transport)
    assert bytes(sock.written) == b"x" * 100
    assert sock.shut and sock.closed and not transport.is_open()
    assert transport not in driver.transports


def test_send_after_close_raises_while_the_queue_drains():
    """The FIN follows the queue, so nothing may join the queue once
    close() was called -- as on the simulated transport."""
    transport, sock, _ = make_transport(accepts=[BlockingIOError(), ALL])
    transport.send(b"before")
    transport.close()
    with pytest.raises(DriverError):
        transport.send(b"after")
    writable(transport)
    assert bytes(sock.written) == b"before"
    assert sock.closed


def test_abort_drops_the_queue():
    transport, sock, driver = make_transport(accepts=[BlockingIOError()])
    transport.send(b"q" * 500)
    transport.abort()
    assert transport.unsent_bytes() == 0
    assert not transport.is_open() and sock.closed and not sock.shut
    assert (socket.SOL_SOCKET, socket.SO_LINGER) in \
        [option[:2] for option in sock.options]
    assert transport not in driver.transports
    assert sock.written == b""
    with pytest.raises(DriverError):
        transport.send(b"more")


def test_eof_in_the_middle_of_a_record():
    """The half record reaches the engine before the close does, and
    stays pending in its reassembler."""
    record = encode_plaintext_record(CONTENT_APPLICATION_DATA, b"r" * 300)
    transport, sock, driver = make_transport(reads=[record[:120], b""])
    reassembler = RecordReassembler()
    seen = []
    transport.set_callbacks(
        on_data=lambda t: seen.append(("data", reassembler.feed(t.recv()))),
        on_close=lambda t: seen.append(("close", t.is_open())))
    transport._handle_events(selectors.EVENT_READ)
    assert seen == [("data", []), ("close", False)]
    assert reassembler.pending_bytes == 120
    assert sock.closed and transport not in driver.transports


def test_a_read_is_what_arrived_up_to_a_bound_and_stops_at_a_pause():
    """Chunks are gathered into one read until ``EAGAIN`` or until the
    read holds ``_RECV_CHUNK`` bytes; a pause leaves the rest in the
    kernel until the engine resumes."""
    chunks = [b"a" * 10, b"b" * 20, b"c" * 24, b"d" * 5]
    transport, sock, _ = make_transport(reads=list(chunks))
    transport._RECV_CHUNK = 25
    got = []

    def on_data(t):
        got.append(t.recv())
        if len(got) == 1:
            t.pause_reading()

    transport.set_callbacks(on_data=on_data)
    transport._handle_events(selectors.EVENT_READ)
    assert got == [chunks[0] + chunks[1]]
    assert sock.reads == chunks[2:]     # left in the kernel
    transport.resume_reading()
    transport._handle_events(selectors.EVENT_READ)
    assert got == [chunks[0] + chunks[1], chunks[2] + chunks[3]]


def test_recv_of_part_of_what_was_read():
    transport, _, _ = make_transport(reads=[b"hello ", b"world"])
    transport._handle_events(selectors.EVENT_READ)     # nobody reads
    assert transport.readable_bytes() == 11
    assert transport.recv(4) == b"hell"
    assert transport.readable_bytes() == 7
    assert transport.recv() == b"o world"
    assert transport.readable_bytes() == 0 and transport.recv() == b""


steps = st.one_of(st.integers(0, 300), st.just(ALL),
                  st.builds(BlockingIOError))


@settings(max_examples=200, deadline=None)
@given(sends=st.lists(st.binary(min_size=1, max_size=200), min_size=1,
                      max_size=12),
       accepts=st.lists(steps, max_size=40),
       flushes=st.lists(st.booleans(), max_size=12))
def test_every_byte_is_written_once_and_in_order(sends, accepts, flushes):
    transport, sock, _ = make_transport(accepts=accepts)
    cap = SocketTransport.SEND_BUFFER_CAP
    sent = bytearray()

    def check():
        assert bytes(sock.written) == bytes(sent[:len(sock.written)])
        unsent = len(sent) - len(sock.written)
        assert transport.unsent_bytes() == unsent
        assert transport.send_space() == max(cap - unsent, 0)

    for index, data in enumerate(sends):
        transport.send(data)
        sent += data
        check()
        if index < len(flushes) and flushes[index]:
            writable(transport)
            check()
    sock.accepts = []                   # the kernel now takes everything
    writable(transport)
    check()
    assert bytes(sock.written) == bytes(sent)
