"""Additional lifecycle tests for ModuleInstance (repro.bus.module)."""

import time

import pytest

from repro.bus.bus import SoftwareBus
from repro.bus.interfaces import InterfaceDecl, Role
from repro.bus.module import ModuleState
from repro.bus.spec import ModuleSpec
from repro.errors import (
    ModuleLifecycleError,
    ReconfigTimeoutError,
    UnknownInterfaceError,
)

from tests.conftest import wait_until

POINTED = """\
def main():
    while mh.running:
        mh.reconfig_point('P')
        mh.sleep(0.005)
"""


@pytest.fixture
def bus():
    bus = SoftwareBus(sleep_scale=0.01)
    bus.add_host("local")
    yield bus
    bus.shutdown()


def pointed_spec(name="pointed"):
    return ModuleSpec(
        name=name,
        inline_source=POINTED,
        interfaces=[InterfaceDecl("inp", Role.USE, pattern="l")],
        reconfig_points=["P"],
    )


class TestLoad:
    def test_load_transforms_reconfigurable_spec(self, bus):
        module = bus.add_module(pointed_spec(), machine="local")
        assert module.transform is not None
        assert "mh.begin_reconfig_capture" in module.executable_source

    def test_load_plain_module_untransformed(self, bus):
        spec = ModuleSpec(name="plain", inline_source="def main():\n    pass\n")
        module = bus.add_module(spec, machine="local")
        assert module.transform is None

    def test_load_from_file(self, bus, tmp_path):
        path = tmp_path / "m.py"
        path.write_text("def main():\n    mh.statics['ran'] = True\n")
        spec = ModuleSpec(name="filemod", source=str(path))
        bus.add_module(spec, machine="local", start=True)
        wait_until(lambda: bus.get_module("filemod").mh.statics.get("ran"))

    def test_no_source_rejected(self, bus):
        spec = ModuleSpec(name="empty")
        with pytest.raises(ModuleLifecycleError, match="neither inline"):
            bus.add_module(spec, machine="local")

    def test_double_start_rejected(self, bus):
        bus.add_module(pointed_spec(), machine="local", start=True)
        with pytest.raises(ModuleLifecycleError):
            bus.start_module("pointed")


class TestDivulgeFlow:
    def test_objstate_move_installs_divulged_packet(self, bus):
        module = bus.add_module(pointed_spec(), machine="local", start=True)
        clone = bus.add_module(
            pointed_spec(), instance="clone", machine="local", status="clone"
        )
        packet = bus.objstate_move("pointed", "clone", timeout=10)
        assert packet.startswith(b"MHST")
        assert module.state is ModuleState.DIVULGED
        assert clone.mh.incoming_packet == packet
        assert f"objstate_move pointed -> clone ({len(packet)} bytes)" in bus.trace

    def test_objstate_move_timeout(self, bus):
        spec = ModuleSpec(
            name="pointless",
            inline_source="def main():\n    while mh.running:\n        mh.sleep(0.01)\n",
        )
        bus.add_module(spec, machine="local", start=True)
        bus.add_module(spec, instance="clone", machine="local", status="clone")
        # No point exists: the signal is never honoured.
        with pytest.raises(ReconfigTimeoutError):
            bus.objstate_move("pointless", "clone", timeout=0.3)

    def test_objstate_move_rejects_running_target(self, bus):
        bus.add_module(pointed_spec(), machine="local", start=True)
        bus.add_module(pointed_spec("pointed2"), instance="clone2", machine="local",
                       start=True)
        from repro.errors import BusError

        with pytest.raises(BusError, match="already started"):
            bus.objstate_move("pointed", "clone2", timeout=2)
        # Refused before the signal: the old module keeps running.
        assert not bus.get_module("pointed").mh.reconfig
        assert "signal reconfig pointed" not in bus.trace


#: Catches every Exception around its read, as module code may.
CATCH_ALL = """\
def main():
    while mh.running:
        try:
            mh.read1('inp')
        except Exception as exc:
            mh.statics['caught'] = repr(exc)
"""


class TestStop:
    def test_a_stopped_read_raises_module_stop_past_except_exception(self, bus):
        spec = ModuleSpec(
            name="catcher",
            inline_source=CATCH_ALL,
            interfaces=[InterfaceDecl("inp", Role.USE, pattern="l")],
        )
        module = bus.add_module(spec, machine="local", start=True)
        queue = module.queue("inp")
        wait_until(lambda: queue.readers == 1)  # parked in the read
        start = time.monotonic()
        module.stop()
        assert time.monotonic() - start < 1.0
        assert module.state is ModuleState.STOPPED
        assert "caught" not in module.mh.statics  # the handler never ran


class TestQueuesAndDescribe:
    def test_unknown_interface_queue(self, bus):
        module = bus.add_module(pointed_spec(), machine="local")
        with pytest.raises(Exception):
            module.queue("ghost")

    def test_outgoing_interface_has_no_queue(self, bus):
        spec = ModuleSpec(
            name="writer",
            inline_source="def main():\n    pass\n",
            interfaces=[InterfaceDecl("out", Role.DEFINE, pattern="l")],
        )
        module = bus.add_module(spec, machine="local")
        assert not module.has_queue("out")
        with pytest.raises(UnknownInterfaceError, match="no receive queue"):
            module.queue("out")

    def test_describe(self, bus):
        module = bus.add_module(pointed_spec(), machine="local")
        text = module.describe()
        assert "pointed" in text and "local" in text and "loaded" in text
