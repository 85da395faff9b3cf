"""Failure modes of replacement: what happens when the clone is bad.

The platform's failure contract: replacement is transactional.  A clone
that cannot restore is caught by the coordinator's health check *before*
the old module is removed — the transaction aborts with the clone's
crash as cause, the bus rolls back, and the application keeps running on
the old module; a reconfiguration that cannot start stays rolled back.
"""

import time

import pytest

from repro.bus.bus import SoftwareBus
from repro.bus.interfaces import InterfaceDecl, Role
from repro.bus.message import Message
from repro.bus.module import ModuleState
from repro.bus.spec import BindingSpec, ModuleSpec
from repro.errors import (
    ModuleCrashedError,
    ModuleLifecycleError,
    ReconfigurationAborted,
    TransformError,
)
from repro.reconfig.coordinator import ReconfigurationCoordinator
from repro.reconfig.scripts import upgrade_module

from tests.conftest import wait_until
from tests.reconfig.helpers import launch_monitor, wait_displayed

#: A "new version" whose instrumented frame layout differs from v1's —
#: an incompatible upgrade that the restore-time format check catches.
INCOMPATIBLE_V2 = '''\
def main():
    n = None
    extra_slot = None
    idle = float(mh.config.get('idle_interval', '2'))
    response: Ref = None
    mh.init()
    while mh.running:
        while mh.query_ifmsgs('display'):
            n = mh.read1('display')
            response = Ref(0.0)
            compute(n, n, response)
            mh.write('display', 'F', response.get())
        mh.sleep(idle)


def compute(num: int, n: int, rp: Ref):
    temper = None
    if n <= 0:
        rp.set(0.0)
        return
    compute(num, n - 1, rp)
    mh.reconfig_point('R')
    temper = mh.read1('sensor')
    rp.set(rp.get() + float(temper) / float(num))
'''

#: A "new version" that does not even declare the reconfiguration point.
POINTLESS_V2 = '''\
def main():
    while mh.running:
        mh.sleep(0.1)
'''


#: Adds what it reads; a negative value makes it crash and a zero makes
#: it return, both before it comes back to its point.
ADDER = '''\
def main():
    total = 0
    mh.init()
    while mh.running:
        mh.reconfig_point('Q')
        n = mh.read1('inp')
        if n < 0:
            total = total // 0
        if n == 0:
            return
        total = total + n
'''


@pytest.fixture
def monitor():
    bus = launch_monitor()
    yield bus
    bus.shutdown()


class TestIncompatibleUpgrade:
    def test_layout_mismatch_aborts_before_commit(self, monitor):
        wait_displayed(monitor, 2)
        before = monitor.snapshot_configuration().describe()
        # The clone starts, tries to restore main's frame with an extra
        # slot, and dies on the frame-format cross-check — which the
        # health check catches while the old module is still on the bus.
        with pytest.raises(ReconfigurationAborted) as excinfo:
            upgrade_module(monitor, "compute", INCOMPATIBLE_V2, timeout=15)
        assert excinfo.value.stage == "health_check"
        assert excinfo.value.rolled_back
        assert isinstance(excinfo.value.cause, ModuleCrashedError)
        assert "format" in str(excinfo.value.cause)
        # Rolled back: same topology, no clone left behind, and the old
        # module revived from its own captured state keeps serving.
        assert monitor.snapshot_configuration().describe() == before
        assert not monitor._unbound  # no clone left behind
        assert monitor.get_module("compute").state is ModuleState.RUNNING
        monitor.check_health()
        count = len(wait_displayed(monitor, 2))
        assert len(wait_displayed(monitor, count + 2)) >= count + 2

    def test_pointless_new_version_rejected_before_any_damage(self, monitor):
        wait_displayed(monitor, 2)
        before = monitor.snapshot_configuration().describe()
        # The spec declares point R; a source without the marker fails
        # the declared-points cross-check at clone load time.
        with pytest.raises(TransformError, match="do not match"):
            upgrade_module(monitor, "compute", POINTLESS_V2, timeout=15)
        after = monitor.snapshot_configuration().describe()
        assert before == after
        assert monitor.get_module("compute").state is ModuleState.RUNNING


class TestOldModuleAlreadyGone:
    """A replace of a module whose thread already ended does not wait out
    its deadline: the thread settled the divulge as it ended."""

    @pytest.mark.parametrize(
        "value, state, cause, withdrawn",
        [
            (-1, ModuleState.CRASHED, ModuleCrashedError, False),
            (0, ModuleState.STOPPED, ModuleLifecycleError, False),
            (-1, ModuleState.CRASHED, ModuleCrashedError, True),
        ],
        ids=["crashed", "returned", "crashed-after-a-withdrawn-signal"],
    )
    def test_replace_aborts_at_wait_point_at_once(
        self, value, state, cause, withdrawn
    ):
        bus = SoftwareBus(sleep_scale=0.0)
        try:
            bus.add_module(
                ModuleSpec(
                    name="adder",
                    inline_source=ADDER,
                    interfaces=[InterfaceDecl("inp", Role.USE, pattern="l")],
                    reconfig_points=["Q"],
                ),
                start=True,
            )
            bus.add_module(
                ModuleSpec(
                    name="feeder",
                    inline_source="def main():\n    pass\n",
                    interfaces=[InterfaceDecl("out", Role.DEFINE, pattern="l")],
                )
            )
            bus.add_binding(BindingSpec("feeder", "out", "adder", "inp"))
            module = bus.get_module("adder")
            if withdrawn:
                # A signal withdrawn while the module waits in its read
                # (a rolled-back replace) leaves no capture behind.
                queue = module.queue("inp")
                wait_until(lambda: queue.readers == 1)
                module.mh.request_reconfig()
                module.mh.abandon_divulge()
            bus.route("feeder", "out", Message(values=[value], fmt="l"))
            wait_until(lambda: module.state is state)
            before = bus.snapshot_configuration().describe()

            start = time.monotonic()
            with pytest.raises(ReconfigurationAborted) as excinfo:
                ReconfigurationCoordinator(bus).replace("adder")  # 10 s deadline
            assert time.monotonic() - start < 1.0
            assert excinfo.value.stage == "wait_point"
            assert isinstance(excinfo.value.cause, cause)
            assert bus.snapshot_configuration().describe() == before
            assert bus.get_module("adder") is module
            assert not bus._unbound  # the clone is gone
        finally:
            bus.shutdown()
