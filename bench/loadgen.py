"""Open- and closed-loop NDJSON load generator for ``repro serve``.

One process, two threads, two TCP connections.  The calling thread is
the sender: it walks a seeded arrival schedule with plain
``time.sleep``, which keeps the median lateness near 0.1 ms on a 2-vCPU
VM.  A reader thread pairs each response line with its request.  Every request is timed from the moment
it was *due*, not from when it went out, so a stalled server or a late
generator shows up as latency instead of silently thinning the load.

Pairing: the wire echoes no request id, only ``topology`` and
``source``, so a workload sends one shape per topology and a response
pairs with the oldest pending request of the same key on its
connection.  A keyless line (an ``ok: false`` refusal raised before the
query was parsed, or a line that is not JSON) fails the oldest pending
request on that connection.
"""

from __future__ import annotations

import json
import math
import random
import selectors
import socket
import sys
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

Key = Tuple[str, Tuple[int, ...]]

#: GIL switch interval while a phase runs: bounds how long the reader
#: thread can hold the interpreter while the sender is due to wake.
SWITCH_INTERVAL_S = 0.0005


def poisson_offsets(rate: float, duration_s: float,
                    rng: random.Random) -> List[float]:
    """Arrival offsets (seconds from phase start) of a Poisson process."""
    out: List[float] = []
    t = rng.expovariate(rate)
    while t < duration_s:
        out.append(t)
        t += rng.expovariate(rate)
    return out


def percentile(values: Sequence[float], q: float) -> float:
    """*q*-th percentile with linear interpolation (numpy's default)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def response_key(response) -> Optional[Key]:
    """``(topology, source)`` of a response line, or ``None`` if keyless."""
    if not isinstance(response, dict):
        return None
    topology, source = response.get("topology"), response.get("source")
    if not isinstance(topology, str) or not isinstance(source, list):
        return None
    return topology, tuple(source)


class Pending:
    """Requests in flight on one connection, paired by key, FIFO."""

    def __init__(self) -> None:
        self._by_key: Dict[Key, Deque[int]] = {}
        self._order: "OrderedDict[int, Key]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._order)

    def add(self, index: int, key: Key) -> None:
        self._by_key.setdefault(key, deque()).append(index)
        self._order[index] = key

    def pair(self, response) -> Optional[int]:
        """Index of the request *response* answers, or ``None`` when a
        keyed response matches nothing pending (or nothing is pending)."""
        key = response_key(response)
        if key is not None:
            queue = self._by_key.get(key)
            if not queue:
                return None
            index = queue.popleft()
            del self._order[index]
            return index
        if not self._order:
            return None
        index, key = self._order.popitem(last=False)
        self._by_key[key].remove(index)
        return index

    def drain(self) -> List[int]:
        """Remove and return every pending index, oldest first."""
        out = list(self._order)
        self._order.clear()
        self._by_key.clear()
        return out


@dataclass
class Phase:
    """Per-request record of one load phase (absolute monotonic times).

    Only the first ``len(sent)`` requests of the input went out.  An
    unanswered request has ``recv`` NaN and ``ok`` False.  ``windows``
    holds the index of the first request of each window between pauses
    (plus the end), ``pauses`` what each pause returned.
    """

    start: float
    duration_s: float
    due: List[float]
    sent: List[float]
    recv: List[float]
    ok: List[bool]
    responses: List[Optional[dict]]
    inflight_max: int = 0
    cpu_s: float = 0.0
    unsolicited: int = 0
    windows: List[int] = field(default_factory=list)
    pauses: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.sent)

    @property
    def failed(self) -> int:
        return sum(1 for ok in self.ok if not ok)

    def answered(self) -> List[int]:
        return [i for i, ok in enumerate(self.ok) if ok]

    def latency_ms(self, index: int) -> float:
        return (self.recv[index] - self.due[index]) * 1e3

    def late_ms(self) -> List[float]:
        return [(s - d) * 1e3 for s, d in zip(self.sent, self.due)]

    def window_answers(self) -> List[List[int]]:
        """Answered request indices of each window between two pauses."""
        return [[i for i in range(lo, hi) if self.ok[i]]
                for lo, hi in zip(self.windows, self.windows[1:])]


@dataclass
class _Conn:
    sock: socket.socket
    pending: Pending = field(default_factory=Pending)
    lock: threading.Lock = field(default_factory=threading.Lock)
    buf: bytes = b""


class _Run:
    """Connections, reader thread and per-request bookkeeping of a phase."""

    def __init__(self, address: Tuple[str, int], keys: Sequence[Key],
                 payloads: Sequence[bytes], connections: int,
                 window: Optional[int]) -> None:
        if len(keys) != len(payloads):
            raise ValueError("keys and payloads differ in length")
        self.keys, self.payloads = keys, payloads
        n = len(keys)
        self.due = [math.nan] * n
        self.sent = [math.nan] * n
        self.recv = [math.nan] * n
        self.ok = [False] * n
        self.responses: List[Optional[dict]] = [None] * n
        self.count_sent = 0
        self.count_done = 0
        self.inflight_max = 0
        self.unsolicited = 0
        self.slots = None if window is None else threading.Semaphore(window)
        self._stop = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True,
                                        name="loadgen-reader")
        self.conns: List[_Conn] = []
        try:
            for _ in range(connections):
                sock = socket.create_connection(address, timeout=30.0)
                self.conns.append(_Conn(sock))
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.settimeout(None)
        except OSError:
            self.close()
            raise

    def start(self) -> None:
        self._reader.start()

    def send(self, index: int, due: float) -> None:
        conn = self.conns[index % len(self.conns)]
        with conn.lock:  # register first: the answer may beat sendall
            conn.pending.add(index, self.keys[index])
        self.due[index] = due
        self.sent[index] = time.monotonic()
        self.count_sent = index + 1
        inflight = self.count_sent - self.count_done
        if inflight > self.inflight_max:
            self.inflight_max = inflight
        conn.sock.sendall(self.payloads[index])

    def _finish(self, index: int, now: float, response) -> None:
        self.recv[index] = now
        self.responses[index] = response
        self.ok[index] = (isinstance(response, dict)
                          and response.get("ok") is True)
        self.count_done += 1
        if self.slots is not None:
            self.slots.release()

    def _fail(self, index: int) -> None:
        self.count_done += 1
        if self.slots is not None:
            self.slots.release()

    def _read(self) -> None:
        sel = selectors.DefaultSelector()
        for conn in self.conns:
            sel.register(conn.sock, selectors.EVENT_READ, conn)
        try:
            while sel.get_map() and not self._stop.is_set():
                for sk, _ in sel.select(timeout=0.05):
                    conn = sk.data
                    try:
                        data = conn.sock.recv(1 << 16)
                    except OSError:
                        data = b""
                    now = time.monotonic()
                    if not data:  # server closed: everything pending fails
                        sel.unregister(conn.sock)
                        with conn.lock:
                            lost = conn.pending.drain()
                        for index in lost:
                            self._fail(index)
                        continue
                    *lines, conn.buf = (conn.buf + data).split(b"\n")
                    for line in lines:
                        self._handle_line(conn, line, now)
        finally:
            sel.close()

    def _handle_line(self, conn: _Conn, line: bytes, now: float) -> None:
        if not line.strip():
            return
        try:
            response = json.loads(line)
        except ValueError:
            response = None
        with conn.lock:
            index = conn.pending.pair(response)
        if index is None:
            self.unsolicited += 1
        else:
            self._finish(index, now, response)

    def wait_done(self, grace_s: float) -> None:
        """Wait until every sent request is answered or *grace_s* has
        passed since the last send; the rest count as unanswered."""
        deadline = time.monotonic() + grace_s
        while self.count_done < self.count_sent:
            if time.monotonic() >= deadline:
                break
            time.sleep(0.002)

    def close(self) -> None:
        self._stop.set()
        if self._reader.is_alive():
            self._reader.join(timeout=10.0)
        for conn in self.conns:
            try:
                conn.sock.close()
            except OSError:
                pass

    def phase(self, start: float, duration_s: float, cpu_s: float,
              windows: List[int], pauses: list) -> Phase:
        n = self.count_sent
        return Phase(start=start, duration_s=duration_s,
                     due=self.due[:n], sent=self.sent[:n],
                     recv=self.recv[:n], ok=self.ok[:n],
                     responses=self.responses[:n],
                     inflight_max=self.inflight_max, cpu_s=cpu_s,
                     unsolicited=self.unsolicited, windows=windows,
                     pauses=pauses)


def _run_phase(address, keys, payloads, connections, window, grace_s,
               pause, drive) -> Phase:
    """Run *drive* over a fresh :class:`_Run`.  ``drive(run, start,
    take_pause)`` sends the requests and calls ``take_pause()`` between
    windows; each pause waits for the requests in flight, then records
    ``pause()`` and the index of the next request to go out."""
    run = _Run(address, keys, payloads, connections, window)
    windows, pauses = [], []

    def take_pause() -> None:
        run.wait_done(grace_s)
        windows.append(run.count_sent)
        pauses.append(pause() if pause is not None else None)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    try:
        run.start()
        cpu0 = time.process_time()
        start = time.monotonic() + 0.05  # let the reader settle first
        duration = drive(run, start, take_pause)
        take_pause()
        cpu = time.process_time() - cpu0
    finally:
        sys.setswitchinterval(switch)
        run.close()  # client connections close before any server stop
    return run.phase(start, duration, cpu, windows, pauses)


def open_loop(address: Tuple[str, int], keys: Sequence[Key],
              payloads: Sequence[bytes], offsets: Sequence[float], *,
              connections: int = 2, grace_s: float = 5.0,
              pause_every_s: float = math.inf, pause=None) -> Phase:
    """Send request *i* at ``start + offsets[i]`` whatever the server does.

    Requests alternate between *connections*; the phase ends when all are
    answered or *grace_s* after the last send.  At the start, at every
    *pause_every_s* seconds of schedule and at the end, the sender waits
    for the requests in flight and calls *pause*; the schedule resumes
    where it stopped, so a pause adds no latency to any request.
    """
    if len(offsets) != len(keys):
        raise ValueError("one offset per request")

    def drive(run: _Run, start: float, take_pause) -> float:
        shift, boundary = 0.0, 0.0
        for i, offset in enumerate(offsets):
            while offset >= boundary:
                at = start + shift + boundary
                delay = at - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                take_pause()
                shift += max(0.0, time.monotonic() - at)
                boundary += pause_every_s
            due = start + shift + offset
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            run.send(i, due)
        return time.monotonic() - start - shift

    return _run_phase(address, keys, payloads, connections, None, grace_s,
                      pause, drive)


def closed_loop(address: Tuple[str, int], keys: Sequence[Key],
                payloads: Sequence[bytes], duration_s: float, *,
                window: int = 64, connections: int = 2,
                grace_s: float = 5.0, pause_every_s: float = math.inf,
                pause=None) -> Phase:
    """Keep *window* requests in flight for *duration_s* seconds.

    A request is due when its slot frees up, so latencies here are pure
    service-plus-queue times; the phase measures capacity.  At the start,
    after every *pause_every_s* seconds of sending and at the end, the
    loop lets the requests in flight finish and calls *pause*; pauses do
    not count towards *duration_s*.  Raises if the request list runs out
    before the duration does.
    """
    def drive(run: _Run, start: float, take_pause) -> float:
        delay = start - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        take_pause()
        step = min(pause_every_s, duration_s)
        i = 0
        for k in range(max(1, math.ceil(duration_s / step - 1e-9))):
            if k:
                take_pause()
            end = time.monotonic() + min(step, duration_s - k * step)
            while True:
                now = time.monotonic()
                if now >= end or not run.slots.acquire(timeout=end - now):
                    break
                if i == len(keys):
                    raise ValueError(f"closed loop ran out of requests "
                                     f"after {len(keys)}; pass a longer "
                                     f"list")
                run.send(i, time.monotonic())
                i += 1
        return duration_s

    return _run_phase(address, keys, payloads, connections, window,
                      grace_s, pause, drive)
