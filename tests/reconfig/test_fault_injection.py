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
- TCP frame faults are absorbed by the link's bounded request retry.

Traffic is event-driven (the manual kvstore harness): the shard only
reaches its reconfiguration point when a test feeds it a request, so no
assertion here depends on wall-clock pacing.  A failing test dumps its
plan's schedule + firing log under ``chaos-artifacts/`` — the artifact
CI uploads, sufficient to replay the failure (see docs/fault-model.md).
"""

import json
import os
import socket
import threading
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
)
from repro.reconfig.scripts import move_module
from repro.runtime import telemetry
from repro.runtime.faults import FaultPlan, RetryPolicy, fault_plan
from repro.state.machine import MACHINES

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
    assert not kv.has_module("shard.new")
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
    assert not kv.has_module("shard.new")
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

    The failure is routed to the stream's failure callback, which wakes
    the coordinator's wait early — so the abort is a plain
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
# TCP frame faults: the link absorbs them with bounded request retry
# ---------------------------------------------------------------------------


class _EchoDaemon:
    """A minimal peer speaking the wire protocol: 'rep pong' per request.

    Idempotent by construction — like the real daemon commands on the
    retry path — so re-executed requests are observable but harmless
    (``requests_served`` counts them).
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.requests_served = 0
        threading.Thread(target=self._serve, daemon=True, name="echo-daemon").start()

    def _serve(self) -> None:
        from repro.bus.tcp import recv_frame, send_frame
        from repro.errors import TransportError

        try:
            while True:
                frame = recv_frame(self.sock)
                if frame[0] == "req":
                    self.requests_served += 1
                    send_frame(self.sock, ["rep", frame[1], "pong"])
        except (TransportError, OSError, InjectedFault):
            return


def _make_link(sock) -> Link:
    return Link(
        "echo",
        MACHINES["modern-64"],
        SocketChannel(sock),
        retry=RetryPolicy(attempts=3, backoff=0.01),
    )


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
def test_lost_request_frame_is_retried(wire, mode):
    """A request frame lost on send is re-sent with a fresh sequence."""
    ours, theirs = wire
    daemon = _EchoDaemon(theirs)
    link = _make_link(ours)
    plan = FaultPlan(f"tcp-send-{mode}").schedule("tcp.send_frame", mode)
    with artifact_on_failure(plan, f"tcp-send-{mode}"):
        with fault_plan(plan):
            assert link.request(["ping"], timeout=0.4) == "pong"
        assert plan.fired("tcp.send_frame") == 1
        # The dropped attempt never reached the daemon; only the retry did.
        assert daemon.requests_served == 1


def test_persistent_send_fault_exhausts_budget_then_surfaces(wire):
    """The link gives up after its retry budget and raises the fault —
    but stays usable once the fault clears."""
    ours, theirs = wire
    daemon = _EchoDaemon(theirs)
    link = _make_link(ours)
    plan = FaultPlan("tcp-send-persistent").schedule("tcp.send_frame", "crash", times=99)
    with artifact_on_failure(plan, "tcp-send-persistent"):
        with fault_plan(plan):
            with pytest.raises(InjectedFault):
                link.request(["ping"], timeout=0.4)
        assert plan.fired("tcp.send_frame") == 3
        assert daemon.requests_served == 0
        assert link.request(["ping"], timeout=2.0) == "pong"


def test_dropped_reply_frame_retries_at_least_once(wire):
    """A reply lost in flight forces a retry that re-executes the command.

    This is the documented at-least-once caveat of the request path: the
    daemon served the first request, its reply was dropped, and the
    retry made it serve again — which is why daemon commands on the
    retry path are idempotent.
    """
    ours, theirs = wire
    daemon = _EchoDaemon(theirs)  # its reader is already parked, pre-plan
    plan = FaultPlan("tcp-recv-drop").schedule("tcp.recv_frame", "drop")
    with artifact_on_failure(plan, "tcp-recv-drop"):
        with fault_plan(plan):
            # The link's reader starts under the plan, so *its* first
            # recv consumes the armed drop: the first reply is discarded.
            link = _make_link(ours)
            assert link.request(["ping"], timeout=0.4) == "pong"
        assert plan.fired("tcp.recv_frame") == 1
        assert daemon.requests_served == 2


def test_recv_crash_does_not_kill_the_reader(wire):
    """An injected crash in the reader loop is absorbed; the link lives."""
    ours, theirs = wire
    daemon = _EchoDaemon(theirs)
    plan = FaultPlan("tcp-recv-crash").schedule("tcp.recv_frame", "crash")
    with artifact_on_failure(plan, "tcp-recv-crash"):
        with fault_plan(plan):
            link = _make_link(ours)
            assert link.request(["ping"], timeout=2.0) == "pong"
        assert plan.fired("tcp.recv_frame") == 1
        assert daemon.requests_served == 1
