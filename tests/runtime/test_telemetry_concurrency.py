"""Counter aggregation stays exact under concurrency.

The enabled-mode redesign keeps one logical counter in up to three
physical places at once: per-thread shard cells (``telemetry.count``),
in-queue delivery cells (``RecordingMessageQueue``), and remote flight
recorders in worker processes whose absolute totals flow back through a
bus-side aggregation source.  These tests pin the merge contract down:

- increments from any number of racing threads sum exactly (each thread
  owns its shard; the merge is a read-time sum);
- a ``worker:``-placed module's deliveries — counted *inside the worker
  process* — land in the same ``bus.delivered{queue}`` counter as
  bus-side shard increments, with no lost and no double counts;
- repeated reads are idempotent, because every source reports absolute
  totals rather than consuming deltas;
- the shards of exited threads fold into one retired total, so a
  recorder that outlives many short threads keeps one shard per live
  thread;
- spans and events appended by racing threads land in the ring once:
  drains ship each record exactly once, and a small ring keeps the
  newest ``capacity`` records.
"""

from __future__ import annotations

import threading

import pytest

from repro.bus.bus import SoftwareBus
from repro.bus.interfaces import InterfaceDecl, Role
from repro.bus.message import Message
from repro.bus.spec import BindingSpec, ModuleSpec
from repro.runtime import telemetry

from tests.conftest import wait_until

COLLECTOR_SOURCE = '''
def main():
    got = 0
    mh.statics["got"] = 0
    mh.init()
    while mh.running:
        mh.read1("inp")
        got = got + 1
        mh.statics["got"] = got
'''

FEEDER_SOURCE = '''
def main():
    mh.sleep(0.01)
'''


@pytest.fixture
def recorder():
    rec = telemetry.enable(capacity=4096)
    yield rec
    telemetry.disable()


class TestThreadShardedCounters:
    THREADS = 8
    PER_THREAD = 5000

    def test_racing_increments_sum_exactly(self, recorder):
        """N threads hammering one (name, key) lose nothing: each thread
        increments its own shard cell, so there is no read-modify-write
        window to race on."""
        start = threading.Barrier(self.THREADS)

        def hammer():
            start.wait()
            for _ in range(self.PER_THREAD):
                telemetry.count("app.ticks", key="shared")

        workers = [threading.Thread(target=hammer) for _ in range(self.THREADS)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert (
            recorder.counter("app.ticks", key="shared")
            == self.THREADS * self.PER_THREAD
        )

    def test_reads_concurrent_with_writes_never_overshoot(self, recorder):
        """Merging while writers run returns a momentary total that is
        monotone and never exceeds what was actually written."""
        done = threading.Event()
        observed = []

        def reader():
            while not done.is_set():
                observed.append(recorder.counter("app.ticks", key="live"))

        def writer():
            for _ in range(self.PER_THREAD):
                telemetry.count("app.ticks", key="live")

        rt = threading.Thread(target=reader)
        writers = [threading.Thread(target=writer) for _ in range(4)]
        rt.start()
        for w in writers:
            w.start()
        for w in writers:
            w.join()
        done.set()
        rt.join()
        total = 4 * self.PER_THREAD
        assert recorder.counter("app.ticks", key="live") == total
        assert all(value <= total for value in observed)
        assert observed == sorted(observed), "merged counter went backwards"

    def test_repeated_reads_are_idempotent(self, recorder):
        telemetry.count("app.once", n=3)
        telemetry.gauge_max("app.depth", 7.0)
        first = (recorder.counters(), recorder.gauges())
        second = (recorder.counters(), recorder.gauges())
        assert first == second
        assert recorder.counter_total("app.once") == 3


class TestRetiredShards:
    THREADS = 50

    def test_exited_threads_fold_into_one_retired_total(self, recorder):
        """Clone threads and host request threads come and go: their
        counts survive them, their shards do not."""
        workers = [
            threading.Thread(target=telemetry.count, args=("app.short",))
            for _ in range(self.THREADS)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert recorder.counter("app.short") == self.THREADS
        assert recorder.snapshot()["telemetry"]["counter_shards"] < 5
        # Folding is exact: a second read neither loses nor re-adds.
        assert recorder.counter("app.short") == self.THREADS

    def test_exited_threads_keep_their_gauge_peaks(self, recorder):
        def peak(value):
            telemetry.gauge_max("app.depth", value)

        workers = [threading.Thread(target=peak, args=(v,)) for v in (3, 9, 4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert recorder.gauges()[("app.depth", None)] == 9


class TestRacingRing:
    WRITERS = 4
    PER_WRITER = 2000

    def _write(self, writer: int, start: threading.Barrier) -> None:
        start.wait()
        for seq in range(self.PER_WRITER):
            with telemetry.span("app.op", writer=writer, seq=seq):
                pass
            telemetry.event("app.tick", writer=writer, seq=seq)

    def _race(self, reader) -> list:
        """Run the writers against ``reader`` (called in a loop on two
        threads until the writers finish); returns what readers raised."""
        start = threading.Barrier(self.WRITERS)
        done = threading.Event()
        errors = []

        def read():
            while not done.is_set():
                try:
                    reader()
                except Exception as exc:  # pragma: no cover - the failure
                    errors.append(exc)

        readers = [threading.Thread(target=read) for _ in range(2)]
        writers = [
            threading.Thread(target=self._write, args=(w, start))
            for w in range(self.WRITERS)
        ]
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join()
        done.set()
        for t in readers:
            t.join()
        return errors

    @staticmethod
    def _key(record):
        return (record["type"], record["attrs"]["writer"], record["attrs"]["seq"])

    def test_drains_ship_every_record_exactly_once(self):
        recorder = telemetry.enable(capacity=1 << 16)
        try:
            shipped = []
            lock = threading.Lock()

            def drain():
                records = recorder.drain_records()
                recorder.events()
                with lock:
                    shipped.extend(records)

            errors = self._race(drain)
            shipped.extend(recorder.drain_records())
        finally:
            telemetry.disable()
        assert errors == []
        keys = [self._key(r) for r in shipped]
        assert len(keys) == len(set(keys)), "a record shipped twice"
        assert set(keys) == {
            (kind, w, seq)
            for kind in ("span", "event")
            for w in range(self.WRITERS)
            for seq in range(self.PER_WRITER)
        }
        assert recorder.drain_records() == []

    def test_small_ring_keeps_the_newest_records(self):
        capacity = 64
        recorder = telemetry.enable(capacity=capacity)
        try:
            errors = self._race(recorder.events)
            records = recorder.events()
        finally:
            telemetry.disable()
        assert errors == []
        assert len(records) == capacity
        # The ring is FIFO across writers: what a writer has left in it
        # is the tail of what it wrote, in full.
        written = [
            (seq, is_event)
            for seq in range(self.PER_WRITER)
            for is_event in (False, True)
        ]
        for w in range(self.WRITERS):
            kept = sorted(
                (r["attrs"]["seq"], r["type"] == "event")
                for r in records
                if r["attrs"]["writer"] == w
            )
            assert kept == written[len(written) - len(kept):], w


@pytest.mark.multiproc
class TestRemoteWorkerAggregation:
    MESSAGES = 40
    THREADS = 4
    PER_THREAD = 250

    def test_worker_deliveries_and_thread_counts_share_one_counter(self):
        """The ``bus.delivered{collector.inp}`` counter is fed from two
        processes at once — the worker's in-queue cells (flushed back via
        the remote snapshot source) and bus-side thread shards — and the
        merged total is exactly the sum of both."""
        telemetry.enable(capacity=4096)
        bus = SoftwareBus(sleep_scale=0.0, workers=1)
        try:
            recorder = telemetry.recorder
            bus.add_module(
                ModuleSpec(
                    name="collector",
                    inline_source=COLLECTOR_SOURCE,
                    interfaces=[
                        InterfaceDecl(name="inp", role=Role.USE, pattern="l")
                    ],
                ),
                instance="collector",
                placement="worker:0",
            )
            bus.add_module(
                ModuleSpec(
                    name="feeder",
                    inline_source=FEEDER_SOURCE,
                    interfaces=[
                        InterfaceDecl(name="out", role=Role.DEFINE, pattern="l")
                    ],
                ),
                instance="feeder",
            )
            bus.add_binding(BindingSpec("feeder", "out", "collector", "inp"))
            bus.start_module("collector")

            for value in range(self.MESSAGES):
                bus.route(
                    "feeder",
                    "out",
                    Message(
                        values=[value],
                        fmt="l",
                        source_instance="feeder",
                        source_interface="out",
                    ).validated(),
                )
            # The collector consuming every message fences the remote
            # counts: a message is counted (in-queue, in the worker) at
            # put time, strictly before the module can read it.
            wait_until(
                lambda: bus.statics_of("collector").get("got") == self.MESSAGES,
                timeout=60.0,
            )

            def hammer():
                for _ in range(self.PER_THREAD):
                    telemetry.count("bus.delivered", key="collector.inp")

            workers = [
                threading.Thread(target=hammer) for _ in range(self.THREADS)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join()

            expected = self.MESSAGES + self.THREADS * self.PER_THREAD
            assert (
                recorder.counter("bus.delivered", key="collector.inp") == expected
            )
            # Idempotent: the remote source re-reads absolute totals, so a
            # second merge neither consumes nor double-adds them.
            assert (
                recorder.counter("bus.delivered", key="collector.inp") == expected
            )
            # The route side saw every send exactly once too.
            assert recorder.counter("bus.routed", key="feeder.out") == self.MESSAGES
        finally:
            bus.shutdown()
            telemetry.disable()
