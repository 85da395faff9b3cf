"""Property tests: random fault schedules never lose or duplicate messages.

Hypothesis draws small schedules — up to three armed sites, each with a
mode, a skip count, and a persistence — and runs a replace under them
against both exemplar applications:

- the kvstore: every request sent across the (possibly aborted) replace
  gets exactly one reply, and the store reflects every put;
- the Figure-1 monitor: the displayed averages are exactly the disjoint
  window averages of the fed sensor values — no reading lost, none
  double-counted — whether the move committed or rolled back.

The random pool deliberately excludes the clone-restore sites
(``mh.decode``/``mh.restore``): rollback *revives* the old module
through the same restore path, so a schedule that aborts the transaction
before the clone consumes the armed fault would instead fire it during
revival — losing the last copy of the state, which no transaction can
recover (see docs/fault-model.md).  Those sites are covered
deterministically in test_fault_injection.py.
"""

import threading

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.errors import ReconfigurationAborted
from repro.reconfig.coordinator import ReconfigurationCoordinator
from repro.reconfig.scripts import move_module
from repro.runtime.faults import MODES, SITES, FaultPlan, fault_plan

from tests.conftest import wait_until
from tests.reconfig.helpers import (
    displayed,
    feed_sensor,
    kv_round_trip,
    launch_manual_kv,
    launch_manual_monitor,
    wait_signalled,
)
from tests.reconfig.test_fault_injection import CHAOS_SEED

pytestmark = pytest.mark.chaos

#: Clone-restore sites are revival-shared (see module docstring).
RECOVERABLE_SITES = tuple(
    s for s in SITES if not s.startswith("tcp.") and s not in ("mh.decode", "mh.restore")
)

schedules = st.lists(
    st.tuples(
        st.sampled_from(RECOVERABLE_SITES),
        st.sampled_from(MODES),
        st.integers(min_value=0, max_value=1),  # after: skip that many hits
        st.sampled_from([1, 99]),  # once (retryable) or persistent
    ),
    min_size=1,
    max_size=3,
)

PROPERTY_SETTINGS = settings(
    deadline=None,
    max_examples=8,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _plan_from(schedule) -> FaultPlan:
    plan = FaultPlan("property")
    for site, mode, after, times in schedule:
        plan.schedule(site, mode, after=after, times=times)
    return plan


def _move_in_background(bus, instance, timeout=0.8):
    """Start the move; return (thread, outcome dict)."""
    outcome = {}

    def run():
        try:
            outcome["report"] = move_module(bus, instance, machine="beta", timeout=timeout)
        except BaseException as exc:  # noqa: BLE001 - asserted by caller
            outcome["error"] = exc

    worker = threading.Thread(target=run, name="property-replace")
    worker.start()
    return worker, outcome


def _check_outcome(outcome):
    error = outcome.get("error")
    if error is not None:
        assert isinstance(error, ReconfigurationAborted)
        assert error.rolled_back
    else:
        assert not outcome["report"].aborted


@seed(CHAOS_SEED)
@PROPERTY_SETTINGS
@given(schedule=schedules)
def test_kv_requests_never_lost_or_duplicated(schedule):
    plan = _plan_from(schedule)
    bus = launch_manual_kv()
    try:
        with fault_plan(plan):
            worker, outcome = _move_in_background(bus, "shard")
            try:
                wait_signalled(bus, "shard")
                # In-flight across the replace window: served by the old
                # module before it captures, exactly once.
                in_flight = kv_round_trip(bus, "put", "a", "1")
            finally:
                worker.join(timeout=30)
        assert not worker.is_alive(), "replace thread wedged"
        assert in_flight == ("a", "1")
        _check_outcome(outcome)
        # Whatever happened, the surviving module holds every put and
        # answers every request exactly once, in order.
        assert kv_round_trip(bus, "put", "b", "2") == ("b", "2")
        assert kv_round_trip(bus, "get", "a") == ("a", "1")
        assert kv_round_trip(bus, "get", "b") == ("b", "2")
        assert len(bus.get_module("client").queue("replies")) == 0
    finally:
        bus.shutdown()


@seed(CHAOS_SEED + 2)
@PROPERTY_SETTINGS
@given(
    site=st.sampled_from(RECOVERABLE_SITES),
    mode=st.sampled_from(MODES),
)
def test_kv_workload_survives_transient_fault_mid_replace(site, mode):
    """Under-load property: one transient fault strikes mid-replace while
    the benchmark's sharded KV workload (``perf/workloads.py``) runs flat
    out.  Whether the transaction retries through it or aborts and rolls
    back, ``verify()`` must count nothing: every request answered exactly
    once with the right value, per-shard serve counts equal per-shard
    send counts, no stray replies."""
    import time

    from perf.loadgen import ClosedLoop
    from perf.workloads import REPLY_TIMEOUT_S, KvInproc

    plan = FaultPlan("property-load")
    plan.schedule(site, mode, after=0, times=1)
    workload = KvInproc(seed=CHAOS_SEED & 0xFFFF)
    try:
        workload.build()
        generator = ClosedLoop(workload.sessions)
        generator.start()
        time.sleep(0.2)  # let the sessions reach steady state
        with fault_plan(plan):
            try:
                # A dropped divulge stalls the target until the replace
                # times out and rolls back: that must come well before a
                # session gives up on its request (REPLY_TIMEOUT_S).
                ReconfigurationCoordinator(workload.bus).replace(
                    workload.target,
                    machine="beta",
                    timeout=REPLY_TIMEOUT_S / 2.5,
                    kind="move",
                )
            except ReconfigurationAborted as exc:
                assert exc.rolled_back
        time.sleep(0.2)  # traffic must keep flowing either way
        generator.finish(timeout=30.0)
        assert not generator.crashes
        assert {kind: n for kind, n in workload.verify().items() if n} == {}
        assert workload.attempted() > 0
    finally:
        workload.close()


@seed(CHAOS_SEED + 1)
@PROPERTY_SETTINGS
@given(schedule=schedules)
def test_monitor_averages_exact_across_any_schedule(schedule):
    plan = _plan_from(schedule)
    bus = launch_manual_monitor(requests=2, group_size=2)
    try:
        with fault_plan(plan):
            worker, outcome = _move_in_background(bus, "compute")
            try:
                wait_signalled(bus, "compute")
                # The first reading is consumed mid-recursion, so the
                # capture (if one happens) holds a partial sum.
                feed_sensor(bus, 1)
            finally:
                worker.join(timeout=30)
        assert not worker.is_alive(), "replace thread wedged"
        _check_outcome(outcome)
        feed_sensor(bus, 2, 3, 4)
        wait_until(lambda: len(displayed(bus)) >= 2, timeout=15)
        # Figure-1 continuity: each reading contributes to exactly one
        # average, and the partial sum survived the (possibly aborted)
        # move — (1+2)/2 then (3+4)/2, nothing lost, nothing doubled.
        assert displayed(bus) == [1.5, 3.5]
    finally:
        bus.shutdown()
