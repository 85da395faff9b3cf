"""Tests for messages and queues (repro.bus.message, repro.bus.queues)."""

import threading
import time

import pytest

from repro.bus.message import Message
from repro.bus.queues import MessageQueue
from repro.errors import MachineCompatibilityError, TransportError
from repro.runtime.events import InterruptibleEvent


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
        # An interruptible stop event (what every module's mh uses) wakes
        # the blocked reader immediately — no timeout needed at all.
        queue = MessageQueue("q")
        stop = InterruptibleEvent()
        timer = threading.Timer(0.05, stop.set)
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
        queue.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert outcome and "closed" in outcome[0]

    def test_timeout_honoured_under_notify_storm(self):
        # Regression: the historical implementation charged a full 50 ms
        # poll slice per wakeup (`waited += slice_`), so spurious wakeups
        # made timeouts fire far too early (and quiet queues up to 50 ms
        # late).  With monotonic deadlines the timeout must land within
        # ~10% regardless of how often the condition is poked.
        queue = MessageQueue("q")
        timeout = 0.25
        storm_stop = threading.Event()

        def storm():
            # Spurious wakeups: notify without ever enqueuing a message.
            while not storm_stop.is_set():
                with queue._not_empty:
                    queue._not_empty.notify_all()
                time.sleep(0.002)

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
        assert elapsed >= timeout * 0.9, f"timeout fired early: {elapsed:.3f}s"
        assert elapsed <= timeout * 1.5 + 0.1, f"timeout fired late: {elapsed:.3f}s"

    def test_blocking_get_wakes_on_put(self):
        queue = MessageQueue("q")
        result = []

        def consumer():
            result.append(queue.get(timeout=5).values[0])

        thread = threading.Thread(target=consumer)
        thread.start()
        queue.put(msg("wake"))
        thread.join(timeout=5)
        assert result == ["wake"]

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
        queue.close()
        with pytest.raises(TransportError, match="closed"):
            queue.put(msg(1))
