"""Tests for messages and queues (repro.bus.message, repro.bus.queues)."""

import sys
import threading
import time

import pytest

from repro.bus.message import Message
from repro.bus.queues import MessageQueue
from repro.errors import MachineCompatibilityError, TransportError
from repro.runtime import telemetry


class TestMessage:
    def test_wire_roundtrip(self):
        message = Message(values=[1, 2.5, "x"], fmt="lFs",
                          source_instance="a", source_interface="out")
        wire = message.to_wire(None)
        back = Message.from_wire(wire, None)
        assert back.values == [1, 2.5, "x"]
        assert back.source_instance == "a"
        assert back.source_interface == "out"
        assert back.seq == message.seq

    def test_untyped_message(self):
        message = Message(values=[{"k": [1]}])
        back = Message.from_wire(message.to_wire(None), None)
        assert back.values == [{"k": [1]}]

    def test_validated(self):
        from repro.errors import FormatError

        with pytest.raises(FormatError):
            Message(values=["x"], fmt="l").validated()

    def test_seq_increments(self):
        assert Message(values=[]).seq < Message(values=[]).seq

    def test_seq_is_unique_across_threads(self):
        """8 threads x 10 000 messages, with frequent thread switches: no
        seq is handed out twice, and each thread's increase."""
        per_thread = [[] for _ in range(8)]
        start = threading.Barrier(len(per_thread))

        def build(seqs):
            start.wait()
            for _ in range(10_000):
                seqs.append(Message(values=[]).seq)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=build, args=(seqs,)) for seqs in per_thread
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        every = [seq for seqs in per_thread for seq in seqs]
        assert len(every) == len(set(every)) == 80_000
        for seqs in per_thread:
            assert seqs == sorted(seqs)

    def test_transferred_same_machine_is_identity(self, sparc):
        message = Message(values=[1])
        assert message.transferred(sparc, sparc) is message
        assert message.transferred(None, sparc) is message

    def test_transferred_cross_machine_translates(self, sparc, vax):
        message = Message(values=[12345], fmt="l")
        moved = message.transferred(sparc, vax)
        assert moved.values == [12345]
        assert moved is not message

    def test_transferred_rejects_unrepresentable(self, sparc, vax):
        message = Message(values=[2**40], fmt="l")
        with pytest.raises(MachineCompatibilityError):
            message.transferred(sparc, vax)

    def test_malformed_wire(self):
        with pytest.raises(Exception):
            Message.from_wire(b"\x01\x02", None)


def msg(value):
    return Message(values=[value])


class TestMessageQueue:
    def test_fifo(self):
        queue = MessageQueue("q")
        for i in range(3):
            queue.put(msg(i))
        assert [queue.get(timeout=1).values[0] for _ in range(3)] == [0, 1, 2]

    def test_len_and_peek(self):
        queue = MessageQueue("q")
        assert len(queue) == 0
        queue.put(msg(1))
        assert queue.peek_count() == 1

    def test_get_timeout(self):
        queue = MessageQueue("q")
        with pytest.raises(TransportError, match="timed out"):
            queue.get(timeout=0.05)

    def test_get_interrupted_by_stop(self):
        # A stop sets the flag and wakes the queue (what a module's
        # request_stop does): the blocked reader sees it immediately, no
        # timeout needed at all.
        queue = MessageQueue("q")
        stop = threading.Event()

        def request_stop():
            stop.set()
            queue.wake()

        timer = threading.Timer(0.05, request_stop)
        timer.start()
        start = time.monotonic()
        with pytest.raises(TransportError, match="stop"):
            queue.get(timeout=None, stop_event=stop)
        timer.cancel()
        assert time.monotonic() - start < 2.0

    def test_plain_event_stop_checked_at_deadline(self):
        # A plain Event cannot interrupt the wait, but stop still wins
        # over the timeout report once the reader wakes.
        queue = MessageQueue("q")
        stop = threading.Event()
        stop.set()
        with pytest.raises(TransportError, match="stop"):
            queue.get(timeout=0.01, stop_event=stop)

    def test_close_wakes_blocked_reader(self):
        queue = MessageQueue("q")
        outcome = []

        def consumer():
            try:
                queue.get(timeout=None)
            except TransportError as exc:
                outcome.append(str(exc))

        thread = threading.Thread(target=consumer)
        thread.start()
        time.sleep(0.05)
        queue.seal()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert outcome and "closed" in outcome[0]

    def test_timeout_honoured_under_notify_storm(self):
        # Regression: the historical implementation charged a full 50 ms
        # poll slice per wakeup (`waited += slice_`), so spurious wakeups
        # made timeouts fire far too early (and quiet queues up to 50 ms
        # late).  With monotonic deadlines the timeout must land within
        # ~10% regardless of how often the reader is woken.
        queue = MessageQueue("q")
        timeout = 0.25
        storm_stop = threading.Event()
        wakes = []
        errors = []

        def storm():
            # Spurious wakeups: wake without ever enqueuing a message.
            try:
                while not storm_stop.is_set():
                    queue.wake()
                    wakes.append(1)
                    time.sleep(0.002)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        thread = threading.Thread(target=storm)
        thread.start()
        try:
            start = time.monotonic()
            with pytest.raises(TransportError, match="timed out"):
                queue.get(timeout=timeout)
            elapsed = time.monotonic() - start
        finally:
            storm_stop.set()
            thread.join(timeout=5)
        assert not errors, f"the storm thread died: {errors[0]!r}"
        assert len(wakes) >= 10, "no storm reached the reader"
        assert elapsed >= timeout * 0.9, f"timeout fired early: {elapsed:.3f}s"
        assert elapsed <= timeout * 1.5 + 0.1, f"timeout fired late: {elapsed:.3f}s"
        # Every wake token the read did not swallow is counted off.
        assert len(queue) == 0
        assert queue.snapshot() == []

    def test_blocking_get_wakes_on_put(self):
        queue = MessageQueue("q")
        result = []

        def consumer():
            result.append(queue.get(timeout=5).values[0])

        assert queue.readers == 0
        thread = threading.Thread(target=consumer)
        thread.start()
        deadline = time.monotonic() + 5
        while queue.readers != 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert queue.readers == 1  # parked in the read
        queue.put(msg("wake"))
        thread.join(timeout=5)
        assert result == ["wake"]
        assert queue.readers == 0

    def test_snapshot_nondestructive(self):
        queue = MessageQueue("q")
        queue.put(msg(1))
        snapshot = queue.snapshot()
        assert len(snapshot) == 1
        assert len(queue) == 1

    def test_drain_destructive(self):
        queue = MessageQueue("q")
        queue.put(msg(1))
        queue.put(msg(2))
        drained = queue.drain()
        assert [m.values[0] for m in drained] == [1, 2]
        assert len(queue) == 0

    def test_put_many_appends(self):
        queue = MessageQueue("q")
        queue.put(msg(1))
        queue.put_many([msg(2), msg(3)])
        assert [queue.get(timeout=1).values[0] for _ in range(3)] == [1, 2, 3]

    def test_prepend_puts_older_first(self):
        # The cq semantics: copied (older) messages are consumed before
        # freshly delivered ones.
        queue = MessageQueue("q")
        queue.put(msg("new1"))
        queue.prepend([msg("old1"), msg("old2")])
        order = [queue.get(timeout=1).values[0] for _ in range(3)]
        assert order == ["old1", "old2", "new1"]

    def test_closed_queue_rejects_put(self):
        queue = MessageQueue("q")
        queue.seal()
        with pytest.raises(TransportError, match="closed"):
            queue.put(msg(1))

    @pytest.mark.parametrize("recording", [False, True], ids=["plain", "recorded"])
    def test_seal_takes_everything_and_forwards_every_later_put(self, recording):
        if recording:
            telemetry.enable(capacity=1 << 10)
        queue = MessageQueue("q")
        queue.put(msg(1))
        queue.put(msg(2))
        forwarded = []

        def forward(messages):
            assert not queue._lock.locked()  # handed on after the lock
            forwarded.extend(m.values[0] for m in messages)

        assert [m.values[0] for m in queue.seal(forward)] == [1, 2]
        queue.put(msg(3))
        queue.put_many([msg(4), msg(5)])
        queue.put_directed(msg(6))
        assert forwarded == [3, 4, 5, 6]
        assert len(queue) == 0
        queue.unseal()
        queue.put(msg(7))
        assert forwarded == [3, 4, 5, 6]
        assert queue.get(timeout=1).values == [7]

    def test_concurrent_puts_wakes_and_moves_lose_nothing(self):
        # Producers (put and put_many), a waker and an inspector that
        # takes everything out and puts it back (snapshot, an empty
        # prepend) race one reader, with a short switch interval: every
        # message arrives once, each producer's in order, and every wake
        # token left in the store is counted.
        queue = MessageQueue("q")
        producers, per_producer = 4, 400
        done = threading.Event()
        errors = []

        def guarded(fn):
            def run():
                try:
                    fn()
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)
            return run

        def produce(p):
            values = [p * 10_000 + i for i in range(per_producer)]
            for i in range(0, per_producer, 8):
                queue.put(msg(values[i]))
                queue.put_many([msg(v) for v in values[i + 1 : i + 8]])

        def disturb():
            # Yields between rounds, so wake tokens cannot pile up faster
            # than the reader swallows them.
            while not done.is_set():
                queue.wake()
                queue.snapshot()
                queue.prepend([])
                len(queue)
                time.sleep(0)

        threads = [
            threading.Thread(target=guarded(lambda p=p: produce(p)))
            for p in range(producers)
        ] + [threading.Thread(target=guarded(disturb))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            got = [
                queue.get(timeout=10).values[0]
                for _ in range(producers * per_producer)
            ]
        finally:
            done.set()
            sys.setswitchinterval(interval)
            for thread in threads:
                thread.join(timeout=10)
        assert not errors, errors
        assert not any(thread.is_alive() for thread in threads)
        for p in range(producers):
            mine = [v for v in got if v // 10_000 == p]
            assert mine == [p * 10_000 + i for i in range(per_producer)]
        assert len(queue) == 0 and queue.snapshot() == []
        assert queue._tokens == queue._store.qsize()
