"""Q1 — the queue hand-off between two module threads of control.

POLYLITH moves every message between module threads by an asynchronous
queue hand-off, so a request/reply exchange between two in-process
modules is two of them: the requester's ``put`` wakes the server's
parked read, and the reply's ``put`` wakes the requester's.  Measured
here is that round trip through two :class:`MessageQueue` objects — a
read with the module's stop flag, as ``MH.read`` makes it — against the
same ping-pong through two bare :class:`queue.SimpleQueue` objects, on
the same host, in the same run.

Expected shape: ``MessageQueue``'s round trip is at most 1.3x the bare
one.  A message store behind a Python ``threading.Condition`` read
1.76-1.84x (14-19 against 9-11 us on 2 CPUs, CPython 3.11): the waker's
``notify`` and the woken read's re-acquire are Python code on both
sides of each hop.  A store that hands the message over inside the C
``get`` pays only the seal-state lock on the put and the stop-flag
test on the read: 1.21-1.28x on the same machine.

Run standalone to print both round trips and the ratio::

    PYTHONPATH=src:. python benchmarks/bench_q1_queue_handoff.py
"""

from __future__ import annotations

import queue
import statistics
import sys
import threading
import time
from functools import partial
from typing import Callable, List, Tuple

from repro.bus.message import Message
from repro.bus.queues import MessageQueue

from benchmarks.conftest import median_ratio, report

#: Round trips per timed run: long enough that a run is milliseconds,
#: short enough that fifteen rounds of best-of-five take a few seconds.
TRIPS = 200

#: The shape gate: MessageQueue's round trip over the bare store's.
LIMIT = 1.3

_END = Message(values=[-1])


class _PingPong:
    """A requester (the caller) and an echo thread over two queues.

    ``put`` and ``get`` are the two queues' arms as a module would use
    them; the echo thread reads a request and writes it back until it
    reads ``_END``.
    """

    def __init__(
        self,
        make: Callable[[], Tuple[Callable[[Message], None], Callable[[], Message]]],
    ):
        self.request_put, self.request_get = make()
        self.reply_put, self.reply_get = make()
        self.thread = threading.Thread(target=self._echo, daemon=True)
        self.thread.start()

    def _echo(self) -> None:
        get, put = self.request_get, self.reply_put
        while True:
            message = get()
            put(message)
            if message is _END:
                return

    def run(self, trips: int = TRIPS) -> None:
        put, get = self.request_put, self.reply_get
        message = Message(values=[7])
        for _ in range(trips):
            put(message)
            get()

    def close(self) -> None:
        self.request_put(_END)
        self.reply_get()
        self.thread.join(timeout=5)


def _message_queue():
    q = MessageQueue("q1")
    stop = threading.Event()
    return q.put, partial(q.get, None, stop)


def _simple_queue():
    q: "queue.SimpleQueue[Message]" = queue.SimpleQueue()
    return q.put, q.get


def _round_trip_us(pair: _PingPong, runs: int = 15) -> float:
    """Median over ``runs`` of one run's mean round trip, in us."""
    times: List[float] = []
    for _ in range(runs):
        start = time.perf_counter()
        pair.run()
        times.append((time.perf_counter() - start) / TRIPS * 1e6)
    return statistics.median(times)


def measure() -> Tuple[float, float, float]:
    """``(ratio, message_queue_us, simple_queue_us)`` on this host."""
    mq, sq = _PingPong(_message_queue), _PingPong(_simple_queue)
    try:
        mq.run(), sq.run()  # warm-up
        ratio = median_ratio(mq.run, sq.run)
        return ratio, _round_trip_us(mq), _round_trip_us(sq)
    finally:
        mq.close()
        sq.close()


def test_handoff_shape():
    """The comparative claim, asserted on one host's interleaved runs."""
    ratio, mq_us, sq_us = measure()
    report(
        "Q1",
        "an asynchronous queue hand-off between module threads of control; "
        f"MessageQueue's round trip within {LIMIT}x a bare SimpleQueue's",
        f"MessageQueue {mq_us:.1f} us, SimpleQueue {sq_us:.1f} us, "
        f"ratio {ratio:.2f}",
    )
    assert ratio <= LIMIT, f"hand-off ratio {ratio:.2f} over {LIMIT}"


def main(argv: List[str]) -> None:
    ratio, mq_us, sq_us = measure()
    print(
        f"round trip: MessageQueue {mq_us:.1f} us, SimpleQueue {sq_us:.1f} us; "
        f"ratio (median of 15 rounds, best of 5) {ratio:.2f} (limit {LIMIT})"
    )


if __name__ == "__main__":
    main(sys.argv[1:])
