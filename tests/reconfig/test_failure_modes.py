"""Failure modes of replacement: what happens when the clone is bad.

The platform's failure contract: replacement is transactional.  A clone
that cannot restore is caught by the coordinator's health check *before*
the old module is removed — the transaction aborts with the clone's
crash as cause, the bus rolls back, and the application keeps running on
the old module; a reconfiguration that cannot start stays rolled back.
"""

import pytest

from repro.bus.module import ModuleState
from repro.errors import ModuleCrashedError, ReconfigurationAborted, TransformError
from repro.reconfig.scripts import upgrade_module

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
