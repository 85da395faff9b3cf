"""Integration: genuine multi-process distribution over TCP.

Each simulated machine is a real OS process (a machine daemon behind
``TcpTransport``); the monitor application runs entirely on daemon
``alpha`` and its compute module is replaced, moved and upgraded by the
ordinary ``ReconfigurationCoordinator`` — between daemons of different
architectures the state packet crosses a real socket.
"""

import pytest

from repro.apps.monitor import COMPUTE_NODISCARD_SOURCE, build_monitor_configuration
from repro.bus.bus import SoftwareBus
from repro.bus.module import ModuleState
from repro.bus.transport import TcpTransport
from repro.reconfig.coordinator import ReconfigurationCoordinator
from repro.reconfig.primitives import obj_cap
from repro.state.machine import MACHINES

from tests.conftest import wait_until

pytestmark = [pytest.mark.slow, pytest.mark.usefixtures("watchdog")]


@pytest.fixture
def distributed():
    config = build_monitor_configuration(
        requests=30, group_size=4, interval=0.03, discard=False
    )
    config.modules["sensor"].attributes["interval"] = "0.002"
    for inst in config.application.instances:
        inst.attributes["placement"] = "tcp:alpha"
    bus = SoftwareBus(sleep_scale=1.0)
    bus.attach_transport(
        TcpTransport(
            machines={"alpha": "sparc-like", "beta": "vax-like"}, sleep_scale=1.0
        )
    )
    bus.launch(config)
    yield bus
    bus.shutdown()


def displayed(bus):
    return bus.statics_of("display").get("displayed", [])


def expected(count):
    return [2.5 + 4 * k for k in range(count)]


class TestDistributedMove:
    def test_daemons_have_their_own_architectures(self, distributed):
        # What each daemon said about itself in its hello frame.
        profiles = {
            link.name: link.profile for link in distributed.transport("tcp").links()
        }
        assert sorted(profiles) == ["alpha", "beta"]
        for name, architecture in (("alpha", "sparc-like"), ("beta", "vax-like")):
            base = MACHINES[architecture]
            assert profiles[name].name == name
            assert profiles[name].endianness is base.endianness
            assert profiles[name].int_bits == base.int_bits
            assert profiles[name].long_bits == base.long_bits
        assert profiles["alpha"].endianness is not profiles["beta"].endianness

    def test_move_between_processes(self, distributed):
        wait_until(lambda: len(displayed(distributed)) >= 2, timeout=40)
        report = ReconfigurationCoordinator(distributed).replace(
            "compute", machine="beta", placement="tcp:beta", timeout=20, kind="move"
        )
        assert report.old_machine == "alpha"
        assert report.new_machine == "beta"
        assert report.packet_bytes > 0
        wait_until(lambda: len(displayed(distributed)) >= 30, timeout=60)
        assert displayed(distributed) == expected(30)
        moved = distributed.get_module("compute")
        assert moved.host.name == "beta"
        assert moved.placement == "tcp:beta"

    def test_clone_inherits_its_daemon(self, distributed):
        # A replace that names no placement stays on the daemon the
        # module was last moved to, not on the one it was launched on.
        coordinator = ReconfigurationCoordinator(distributed)
        wait_until(lambda: len(displayed(distributed)) >= 1, timeout=40)
        coordinator.replace("compute", placement="tcp:beta", timeout=20)
        coordinator.replace("compute", timeout=20)
        assert distributed.get_module("compute").placement == "tcp:beta"
        wait_until(lambda: len(displayed(distributed)) >= 12, timeout=60)
        values = displayed(distributed)
        assert values == expected(len(values))

    def test_module_states_queryable(self, distributed):
        wait_until(lambda: len(displayed(distributed)) >= 1, timeout=40)
        assert distributed.get_module("compute").state is ModuleState.RUNNING
        assert distributed.get_module("sensor").state is ModuleState.RUNNING

    def test_same_daemon_replacement(self, distributed):
        # Replace in place (no machine change): the rebind batch carries
        # the queues over inside one daemon; the stream stays exact.
        wait_until(lambda: len(displayed(distributed)) >= 2, timeout=40)
        report = ReconfigurationCoordinator(distributed).replace(
            "compute", timeout=20
        )
        assert report.old_machine == report.new_machine == "alpha"
        assert distributed.get_module("compute").placement == "tcp:alpha"
        wait_until(lambda: len(displayed(distributed)) >= 12, timeout=60)
        values = displayed(distributed)
        assert values == expected(len(values))

    def test_distributed_upgrade(self, distributed):
        # Swap in a compute v2 whose reply is scaled 10x — a visible
        # version change mid-stream, across processes.
        v2 = obj_cap(distributed, "compute").spec.with_attributes()
        v2.inline_source = COMPUTE_NODISCARD_SOURCE.replace(
            "mh.write('display', 'F', response.get())",
            "mh.write('display', 'F', response.get() * 10.0)",
        )
        wait_until(lambda: len(displayed(distributed)) >= 2, timeout=40)
        ReconfigurationCoordinator(distributed).replace(
            "compute",
            new_spec=v2,
            machine="beta",
            placement="tcp:beta",
            timeout=20,
            kind="upgrade",
        )
        before = len(displayed(distributed))
        wait_until(lambda: len(displayed(distributed)) >= before + 4, timeout=60)
        values = displayed(distributed)
        cut_found = any(
            all(v == 2.5 + 4 * k for k, v in enumerate(values[:c]))
            and all(
                v == (2.5 + 4 * k) * 10
                for k, v in enumerate(values[c:], start=c)
            )
            for c in range(len(values) + 1)
        )
        assert cut_found, values
