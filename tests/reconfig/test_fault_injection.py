"""Chaos suite: every injection site, every fault mode, one transaction.

The matrix drives the kvstore app through a shard move (alpha -> beta)
while a :class:`FaultPlan` arms exactly one site, and checks the
transactional contract from the outside:

- a transient fault at a retryable stage is retried to completion;
- a persistent fault aborts with :class:`ReconfigurationAborted` naming
  the stage, and the rollback leaves the bus topology *byte-identical*
  to the pre-replace snapshot;
- after every abort the old module still serves traffic, with the state
  it had when the fault hit (the in-flight request was served exactly
  once, never lost, never duplicated);
- a request over TCP is sent once: a send fault fails it, a receive
  fault (which fires before a byte is read) costs nothing.

Traffic is event-driven (the manual kvstore harness): the shard only
reaches its reconfiguration point when a test feeds it a request, so no
assertion here depends on wall-clock pacing.  A failing test dumps its
plan's schedule + firing log under ``chaos-artifacts/`` — the artifact
CI uploads, sufficient to replay the failure (see docs/fault-model.md).
"""

import json
import os
import socket
import struct
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.bus.module import ModuleState
from repro.bus.tcp import SocketChannel
from repro.bus.link import Link
from repro.errors import (
    InjectedFault,
    ReconfigTimeoutError,
    ReconfigurationAborted,
    ReconfigurationTimeout,
    TransportError,
)
from repro.reconfig.scripts import move_module
from repro.runtime import telemetry
from repro.runtime.faults import FaultPlan, fault_plan
from repro.state.encoding import decode_any, encode_any
from repro.state.machine import MACHINES

from tests.conftest import wait_until
from tests.reconfig.helpers import (
    kv_reply,
    kv_round_trip,
    kv_send,
    launch_manual_kv,
    wait_signalled,
)

pytestmark = pytest.mark.chaos

#: Fixed seed so a red CI run is replayable; override to explore.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1993"))
ARTIFACTS = Path(__file__).resolve().parents[2] / "chaos-artifacts"

#: Sites whose stage retries transient failures -> the stage they abort at.
RETRYABLE = {
    "coordinator.clone_build": "clone_build",
    "module.load": "clone_build",
    "coordinator.rebind": "rebind",
    "coordinator.start_clone": "start_clone",
}
#: Sites on the old module's divulge path: a crash fast-aborts the wait,
#: a drop silently loses the divulge and the wait deadline fires.
DIVULGE_SIDE = ("bus.stream_divulge", "mh.capture", "mh.encode")
#: Sites on the clone's restore path: any fault kills the clone, which
#: the pre-commit health check converts into an abort.
CLONE_SIDE = ("mh.decode", "mh.restore")
IN_PROCESS_SITES = tuple(RETRYABLE) + DIVULGE_SIDE + CLONE_SIDE


@pytest.fixture(autouse=True)
def flight_recorder():
    """Record every chaos transaction so a red run ships its event log.

    Installed before the bus launches (the ``kv`` fixture runs later),
    so per-message bus counters are compiled into the routing table too.
    """
    recorder = telemetry.enable(capacity=8192)
    yield recorder
    telemetry.disable()


def _dump_merged_traces(events_path: Path, trace_path: Path) -> None:
    """Extract the merged per-``rc-NNNN`` trace from an event-log dump.

    The replace under test flushes remote telemetry home in its
    ``finally``, so by the time a failure surfaces the event log already
    holds every hop's spans.  This pulls out just the recon-tagged
    records, Lamport-ordered within each transaction, so the CI artifact
    carries a ready-to-read causal tree (`stats.py --tree` accepts it
    directly) without wading through the full event ring.
    """
    by_recon: dict = {}
    with events_path.open() as fh:
        for line in fh:
            record = json.loads(line)
            recon = record.get("recon")
            if recon:
                by_recon.setdefault(recon, []).append(record)
    if not by_recon:
        return
    with trace_path.open("w") as fh:
        for recon in sorted(by_recon):
            records = by_recon[recon]
            records.sort(key=lambda r: r.get("l0") or r.get("lamport") or 0)
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


@contextmanager
def artifact_on_failure(plan: FaultPlan, name: str):
    """Dump the plan's schedule + firing log (and the telemetry event
    log plus the merged per-transaction trace, when a recorder is
    installed) if the block fails."""
    try:
        yield
    except BaseException:
        ARTIFACTS.mkdir(parents=True, exist_ok=True)
        plan.dump(str(ARTIFACTS / f"{name}.json"))
        recorder = telemetry.recorder
        if recorder is not None:
            events_path = ARTIFACTS / f"{name}.events.jsonl"
            recorder.export_jsonl(str(events_path))
            _dump_merged_traces(events_path, ARTIFACTS / f"{name}.trace.jsonl")
        raise


@pytest.fixture
def kv():
    bus = launch_manual_kv()
    yield bus
    bus.shutdown()


def replace_under_plan(kv, plan, timeout=10.0):
    """Move the shard to beta under ``plan``, feeding one request.

    The request goes in *after* the signal, so the shard serves it (its
    point precedes the read) and then captures — the canonical
    in-flight-traffic replace.  Returns ``{"report": ...}`` on commit or
    ``{"error": ...}`` on abort; the k1 reply is asserted served exactly
    once either way.
    """
    outcome = {}

    def run():
        try:
            outcome["report"] = move_module(kv, "shard", machine="beta", timeout=timeout)
        except BaseException as exc:  # noqa: BLE001 - asserted by caller
            outcome["error"] = exc

    with fault_plan(plan):
        worker = threading.Thread(target=run, name="replace-under-test")
        worker.start()
        try:
            wait_signalled(kv, "shard")
            kv_send(kv, "put", "k1", "v1")
            reply = kv_reply(kv)
        finally:
            worker.join(timeout=30)
    assert not worker.is_alive(), "replace thread wedged"
    assert reply == ("k1", "v1")
    return outcome


def assert_committed(kv, outcome):
    """The replace went through: shard on beta, state moved with it."""
    assert "error" not in outcome, f"unexpected abort: {outcome.get('error')!r}"
    report = outcome["report"]
    assert not report.aborted
    assert "commit" in report.completed
    shard = kv.get_module("shard")
    assert shard.host.name == "beta"
    assert not kv._unbound  # no clone left behind
    assert kv_round_trip(kv, "get", "k1") == ("k1", "v1")
    assert len(kv.get_module("client").queue("replies")) == 0
    return report


def assert_rolled_back(kv, before, outcome, stage):
    """The replace aborted: old module back in charge, topology intact."""
    assert "report" not in outcome, "replace committed despite persistent fault"
    error = outcome["error"]
    assert isinstance(error, ReconfigurationAborted)
    assert error.stage == stage
    assert error.rolled_back
    assert error.report is not None and error.report.aborted
    assert error.report.stage == stage
    # Byte-identical topology: same instances, placements, and bindings
    # in the same order as before the replace was attempted.
    assert kv.snapshot_configuration().describe() == before
    assert not kv._unbound  # no clone left behind
    shard = kv.get_module("shard")
    assert shard.state is ModuleState.RUNNING
    assert shard.host.name == "alpha"
    # The old module serves post-abort traffic with the pre-abort state:
    # the in-flight put survived, and no reply was duplicated.
    assert kv_round_trip(kv, "get", "k1") == ("k1", "v1")
    assert kv_round_trip(kv, "put", "k2", "v2") == ("k2", "v2")
    assert len(kv.get_module("client").queue("replies")) == 0
    return error


# ---------------------------------------------------------------------------
# The in-process matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("site", IN_PROCESS_SITES)
def test_delay_at_any_site_still_commits(kv, site):
    """A slow site is not a failed site: delays never change the outcome."""
    plan = FaultPlan(f"delay-{site}").schedule(site, "delay", delay=0.02)
    with artifact_on_failure(plan, f"delay-{site}"):
        outcome = replace_under_plan(kv, plan)
        assert plan.fired(site) == 1, "the armed site never fired"
        assert_committed(kv, outcome)


@pytest.mark.parametrize("mode", ["crash", "drop"])
@pytest.mark.parametrize("site", sorted(RETRYABLE))
def test_transient_fault_is_retried_to_completion(kv, site, mode):
    """One fault at a retryable stage costs a retry, not the transaction."""
    plan = FaultPlan(f"once-{site}-{mode}").schedule(site, mode)
    with artifact_on_failure(plan, f"once-{site}-{mode}"):
        outcome = replace_under_plan(kv, plan)
        assert plan.fired(site) == 1
        report = assert_committed(kv, outcome)
        assert report.retries >= 1


@pytest.mark.parametrize("mode", ["crash", "drop"])
@pytest.mark.parametrize("site", sorted(RETRYABLE))
def test_persistent_fault_aborts_and_rolls_back(kv, site, mode):
    """A fault outliving the retry budget aborts at its own stage."""
    before = kv.snapshot_configuration().describe()
    plan = FaultPlan(f"persistent-{site}-{mode}").schedule(site, mode, times=99)
    with artifact_on_failure(plan, f"persistent-{site}-{mode}"):
        outcome = replace_under_plan(kv, plan)
        error = assert_rolled_back(kv, before, outcome, RETRYABLE[site])
        assert isinstance(error.cause, InjectedFault)
        assert error.cause.site == site
        assert error.report.retries >= 2  # the budget was actually spent
        assert plan.fired(site) >= 3


@pytest.mark.parametrize("site", DIVULGE_SIDE)
def test_divulge_crash_fast_aborts_without_waiting(kv, site):
    """A crash on the divulge path aborts immediately, not at the deadline.

    The module records the failure as its divulge outcome
    (``divulge_failed``), which ``SoftwareBus.await_divulge`` raises as
    soon as the outcome settles — so the abort is a plain
    ReconfigurationAborted, never a timeout.
    """
    before = kv.snapshot_configuration().describe()
    plan = FaultPlan(f"divulge-crash-{site}").schedule(site, "crash")
    with artifact_on_failure(plan, f"divulge-crash-{site}"):
        outcome = replace_under_plan(kv, plan)
        error = assert_rolled_back(kv, before, outcome, "wait_point")
        assert not isinstance(error, ReconfigurationTimeout)
        assert isinstance(error.cause, InjectedFault)
        assert error.cause.site == site


@pytest.mark.parametrize("site", DIVULGE_SIDE)
def test_divulge_drop_times_out_and_rolls_back(kv, site):
    """A silently lost divulge is caught by the wait-for-point deadline.

    The packet (or its hand-off) vanishes without a trace, so the only
    defence is the explicit timeout — which must abort cleanly and
    revive the old module from the packet it still holds.
    """
    before = kv.snapshot_configuration().describe()
    plan = FaultPlan(f"divulge-drop-{site}").schedule(site, "drop")
    with artifact_on_failure(plan, f"divulge-drop-{site}"):
        outcome = replace_under_plan(kv, plan, timeout=0.8)
        error = assert_rolled_back(kv, before, outcome, "wait_point")
        assert isinstance(error, ReconfigurationTimeout)
        assert isinstance(error, ReconfigTimeoutError)  # back-compat type


@pytest.mark.parametrize("mode", ["crash", "drop"])
@pytest.mark.parametrize("site", CLONE_SIDE)
def test_clone_restore_fault_caught_by_health_check(kv, site, mode):
    """A clone that dies restoring is detected before the commit.

    Whether the packet is lost (drop at decode), a frame is lost (drop
    at restore), or the site simply raises, the clone never sets its
    restored flag — the health check aborts the transaction while the
    old module and its captured state are still recoverable.
    """
    before = kv.snapshot_configuration().describe()
    plan = FaultPlan(f"clone-{site}-{mode}").schedule(site, mode)
    with artifact_on_failure(plan, f"clone-{site}-{mode}"):
        outcome = replace_under_plan(kv, plan)
        assert plan.fired(site) == 1
        assert_rolled_back(kv, before, outcome, "health_check")


# ---------------------------------------------------------------------------
# TCP frame faults: a request is sent once
# ---------------------------------------------------------------------------


class _EchoDaemon:
    """A minimal peer speaking the wire protocol: 'rep pong' per request.

    It frames by hand, outside the ``tcp.*`` injection sites, so an armed
    site can only fire on the link's side.  ``reply_delays`` holds the
    delay before each successive reply (none once it runs out).
    """

    def __init__(self, sock: socket.socket, reply_delays=()):
        self.sock = sock
        self.reply_delays = list(reply_delays)
        self.requests_served = 0
        self.replies_sent = 0
        threading.Thread(target=self._serve, daemon=True, name="echo-daemon").start()

    def _read(self, count: int) -> bytes:
        data = self.sock.recv(count, socket.MSG_WAITALL)
        if len(data) < count:
            raise EOFError
        return data

    def _serve(self) -> None:
        try:
            while True:
                (length,) = struct.unpack(">I", self._read(4))
                frame = decode_any(self._read(length))
                if frame[0] == "req":
                    self.requests_served += 1
                    if self.reply_delays:
                        time.sleep(self.reply_delays.pop(0))
                    payload = encode_any(["rep", frame[1], "pong"])
                    self.sock.sendall(struct.pack(">I", len(payload)) + payload)
                    self.replies_sent += 1
        except (OSError, EOFError):
            return


def _make_link(sock) -> Link:
    return Link("echo", MACHINES["modern-64"], SocketChannel(sock))


@pytest.fixture
def wire():
    ours, theirs = socket.socketpair()
    yield ours, theirs
    for sock in (ours, theirs):
        try:
            sock.close()
        except OSError:
            pass


@pytest.mark.parametrize("mode", ["crash", "drop"])
def test_a_lost_request_frame_fails_its_one_attempt(wire, mode):
    """A send fault fails the request before any byte leaves: the host
    never saw it, nothing re-sends it, and the link stays usable."""
    ours, theirs = wire
    daemon = _EchoDaemon(theirs)
    link = _make_link(ours)
    plan = FaultPlan(f"tcp-send-{mode}").schedule("tcp.send_frame", mode)
    with artifact_on_failure(plan, f"tcp-send-{mode}"):
        with fault_plan(plan):
            with pytest.raises(TransportError, match="send failed"):
                link.request(["ping"], timeout=2.0)
            assert plan.fired("tcp.send_frame") == 1
            assert daemon.requests_served == 0
            assert link.request(["ping"], timeout=2.0) == "pong"
        assert plan.fired("tcp.send_frame") == 1
        assert daemon.requests_served == 1


@pytest.mark.parametrize("mode", ["crash", "drop"])
def test_a_recv_fault_loses_no_frame(wire, mode):
    """A receive fault fires before the reader reads a byte, so the
    reply still arrives and the host served the request exactly once."""
    ours, theirs = wire
    daemon = _EchoDaemon(theirs)
    plan = FaultPlan(f"tcp-recv-{mode}").schedule("tcp.recv_frame", mode)
    with artifact_on_failure(plan, f"tcp-recv-{mode}"):
        with fault_plan(plan):
            # The link's reader starts under the plan, so its first
            # receive consumes the armed fault.
            link = _make_link(ours)
            assert link.request(["ping"], timeout=2.0) == "pong"
        assert plan.fired("tcp.recv_frame") == 1
        assert daemon.requests_served == 1


def test_a_late_reply_fails_the_request_without_a_resend(wire):
    """A missed deadline raises; the host served the request once, and
    its late reply, when it comes, completes nothing."""
    ours, theirs = wire
    daemon = _EchoDaemon(theirs, reply_delays=[0.5])
    link = _make_link(ours)
    with pytest.raises(TransportError, match="no reply"):
        link.request(["ping"], timeout=0.1)
    wait_until(lambda: daemon.replies_sent == 1)
    assert daemon.requests_served == 1
    assert link.request(["ping"], timeout=2.0) == "pong"
    assert daemon.requests_served == 2
