"""An open-loop HTTP/1.1 load client: one thread, a few keep-alive connections.

Requests are sent on a fixed schedule whether or not earlier ones have
been answered.  Each connection carries one request at a time; a request
that falls due while every connection is busy waits in a FIFO, and that
wait counts in its latency, which is timed from the moment the request
was due.  How late the client itself sent each request is recorded, so
an over-rated schedule shows up instead of hiding in the latencies.
"""

from __future__ import annotations

import collections
import selectors
import socket
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

#: A response slower than this fails the request and ends the run.
RESPONSE_TIMEOUT_S = 10.0


@dataclass
class Record:
    due: float
    body: bytes
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    response: bytes = b""
    error: str = ""

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


class _Conn:
    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=RESPONSE_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()
        self.record: Optional[Record] = None

    def take_response(self) -> Optional[tuple]:
        """(status, body) once a whole response is buffered, else None."""
        head_end = self.buf.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        head = bytes(self.buf[:head_end]).decode("latin-1").split("\r\n")
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        end = head_end + 4 + length
        if len(self.buf) < end:
            return None
        body = bytes(self.buf[head_end + 4 : end])
        del self.buf[:end]
        return int(head[0].split(" ", 2)[1]), body


def post(path: str, host: str, body: bytes) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
        "Content-Type: application/json\r\nConnection: keep-alive\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body


def run(
    host: str,
    port: int,
    connections: int,
    path: str,
    schedule: Sequence[tuple],
) -> List[Record]:
    """Send ``schedule`` (``(due_offset_s, body)`` pairs, sorted) and
    return one :class:`Record` per request, in schedule order."""
    conns = [_Conn(host, port) for _ in range(connections)]
    selector = selectors.DefaultSelector()
    for conn in conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    idle = collections.deque(conns)
    waiting: collections.deque = collections.deque()
    clock = time.perf_counter
    start = clock() + 0.005
    records = [Record(due=start + offset, body=post(path, host, body)) for offset, body in schedule]
    next_due = 0
    finished = 0
    try:
        while finished < len(records):
            now = clock()
            while next_due < len(records) and records[next_due].due <= now:
                waiting.append(records[next_due])
                next_due += 1
            while waiting and idle:
                conn = idle.popleft()
                record = waiting.popleft()
                record.sent = clock()
                conn.sock.sendall(record.body)
                conn.record = record
            timeout = None
            if next_due < len(records):
                timeout = max(0.0, records[next_due].due - clock())
            busy = [c for c in conns if c.record is not None]
            if not busy:
                if timeout:
                    time.sleep(timeout)
                continue
            if busy and clock() - min(c.record.sent for c in busy) > RESPONSE_TIMEOUT_S:
                raise TimeoutError("no response within the timeout")
            limit = RESPONSE_TIMEOUT_S if timeout is None else min(timeout, RESPONSE_TIMEOUT_S)
            for key, _ in selector.select(limit):
                conn = key.data
                chunk = conn.sock.recv(1 << 16)
                if not chunk:
                    raise ConnectionError("server closed a keep-alive connection")
                conn.buf += chunk
                got = conn.take_response()
                if got is not None and conn.record is not None:
                    conn.record.done = clock()
                    conn.record.status, conn.record.response = got
                    conn.record = None
                    finished += 1
                    idle.append(conn)
    except (OSError, TimeoutError) as exc:
        for record in records:
            if not record.done:
                record.error = f"{type(exc).__name__}: {exc}"
    finally:
        selector.close()
        for conn in conns:
            conn.sock.close()
    return records
