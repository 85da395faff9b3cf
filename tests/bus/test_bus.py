"""Tests for the software bus (repro.bus.bus, repro.bus.module)."""

import pytest

from repro.bus.bus import SoftwareBus
from repro.bus.mil import parse_mil
from repro.bus.module import ModuleState
from repro.bus.spec import BindingSpec, ModuleSpec
from repro.bus.interfaces import InterfaceDecl, Role
from repro.errors import (
    BindingError,
    BusError,
    ModuleCrashedError,
    UnknownInterfaceError,
    UnknownModuleError,
)

from tests.conftest import wait_until

PRODUCER = """\
def main():
    count = int(mh.config.get('count', '5'))
    i = 0
    while mh.running and i < count:
        mh.write('out', 'l', i)
        i = i + 1
        mh.sleep(0.001)
    mh.statics['done'] = True
    while mh.running:
        mh.sleep(0.05)
"""

CONSUMER = """\
def main():
    seen = []
    mh.statics['seen'] = seen
    while mh.running:
        value = mh.read1('inp')
        seen.append(value)
"""

CRASHER = """\
def main():
    raise ValueError('boom')
"""


def producer_spec(name="producer", count=5):
    return ModuleSpec(
        name=name,
        inline_source=PRODUCER,
        interfaces=[InterfaceDecl("out", Role.DEFINE, pattern="l")],
        attributes={"count": str(count)},
    )


def consumer_spec(name="consumer"):
    return ModuleSpec(
        name=name,
        inline_source=CONSUMER,
        interfaces=[InterfaceDecl("inp", Role.USE, pattern="l")],
    )


@pytest.fixture
def bus():
    bus = SoftwareBus(sleep_scale=0.0)
    bus.add_host("local")
    yield bus
    bus.shutdown()


class TestModuleLifecycle:
    def test_add_and_start(self, bus):
        module = bus.add_module(producer_spec(), machine="local")
        assert module.state is ModuleState.LOADED
        bus.start_module("producer")
        wait_until(lambda: bus.get_module("producer").mh.statics.get("done"))

    def test_duplicate_instance(self, bus):
        bus.add_module(producer_spec(), machine="local")
        with pytest.raises(BusError, match="already exists"):
            bus.add_module(producer_spec(), machine="local")

    def test_unknown_instance(self, bus):
        with pytest.raises(UnknownModuleError):
            bus.get_module("ghost")

    def test_missing_main_rejected(self, bus):
        spec = ModuleSpec(name="bad", inline_source="x = 1\n")
        bus.add_module(spec, machine="local")
        from repro.errors import ModuleLifecycleError

        with pytest.raises(ModuleLifecycleError, match="no main"):
            bus.start_module("bad")

    def test_crash_reported(self, bus):
        spec = ModuleSpec(name="crasher", inline_source=CRASHER)
        bus.add_module(spec, machine="local", start=True)
        wait_until(lambda: bus.get_module("crasher").state is ModuleState.CRASHED)
        with pytest.raises(ModuleCrashedError, match="boom"):
            bus.check_health()

    def test_stop_is_clean(self, bus):
        bus.add_module(producer_spec(count=10**9), machine="local", start=True)
        module = bus.get_module("producer")
        module.stop()
        assert module.state is ModuleState.STOPPED

    def test_remove_requires_unbound(self, bus):
        bus.add_module(producer_spec(), machine="local")
        bus.add_module(consumer_spec(), machine="local")
        bus.add_binding(BindingSpec("producer", "out", "consumer", "inp"))
        with pytest.raises(BindingError, match="still attached"):
            bus.remove_module("producer")

    def test_remove_after_unbind(self, bus):
        bus.add_module(producer_spec(), machine="local")
        bus.add_module(consumer_spec(), machine="local")
        binding = BindingSpec("producer", "out", "consumer", "inp")
        bus.add_binding(binding)
        bus.remove_binding(binding)
        bus.remove_module("producer")
        assert not bus.has_module("producer")


class TestRouting:
    def test_stream_delivery(self, bus):
        bus.add_module(producer_spec(count=4), machine="local")
        bus.add_module(consumer_spec(), machine="local")
        bus.add_binding(BindingSpec("producer", "out", "consumer", "inp"))
        bus.start_module("producer")
        bus.start_module("consumer")
        wait_until(
            lambda: bus.get_module("consumer").mh.statics.get("seen") == [0, 1, 2, 3]
        )

    def test_binding_direction_agnostic(self, bus):
        # The binding may be written in either endpoint order.
        bus.add_module(producer_spec(count=2), machine="local")
        bus.add_module(consumer_spec(), machine="local")
        bus.add_binding(BindingSpec("consumer", "inp", "producer", "out"))
        bus.start_module("producer")
        bus.start_module("consumer")
        wait_until(lambda: bus.get_module("consumer").mh.statics.get("seen") == [0, 1])

    def test_fanout_to_two_consumers(self, bus):
        bus.add_module(producer_spec(count=3), machine="local")
        bus.add_module(consumer_spec("consumer"), instance="c1", machine="local")
        bus.add_module(consumer_spec("consumer"), instance="c2", machine="local")
        bus.add_binding(BindingSpec("producer", "out", "c1", "inp"))
        bus.add_binding(BindingSpec("producer", "out", "c2", "inp"))
        for name in ("producer", "c1", "c2"):
            bus.start_module(name)
        for name in ("c1", "c2"):
            wait_until(
                lambda n=name: bus.get_module(n).mh.statics.get("seen") == [0, 1, 2]
            )

    def test_cross_machine_values_translated(self, sparc, vax):
        bus = SoftwareBus(sleep_scale=0.0)
        bus.add_host("big", sparc)
        bus.add_host("little", vax)
        try:
            bus.add_module(producer_spec(count=3), machine="big")
            bus.add_module(consumer_spec(), machine="little")
            bus.add_binding(BindingSpec("producer", "out", "consumer", "inp"))
            bus.start_module("producer")
            bus.start_module("consumer")
            wait_until(
                lambda: bus.get_module("consumer").mh.statics.get("seen") == [0, 1, 2]
            )
        finally:
            bus.shutdown()

    def test_incompatible_binding_rejected(self, bus):
        bus.add_module(producer_spec(), machine="local")
        bus.add_module(producer_spec("p2"), instance="p2", machine="local")
        with pytest.raises(BindingError, match="incompatible"):
            bus.add_binding(BindingSpec("producer", "out", "p2", "out"))

    def test_duplicate_binding_rejected(self, bus):
        bus.add_module(producer_spec(), machine="local")
        bus.add_module(consumer_spec(), machine="local")
        binding = BindingSpec("producer", "out", "consumer", "inp")
        bus.add_binding(binding)
        with pytest.raises(BindingError, match="already"):
            bus.add_binding(binding)

    def test_remove_unknown_binding(self, bus):
        bus.add_module(producer_spec(), machine="local")
        bus.add_module(consumer_spec(), machine="local")
        with pytest.raises(BindingError, match="no such"):
            bus.remove_binding(BindingSpec("producer", "out", "consumer", "inp"))

    def test_write_on_incoming_interface_rejected(self, bus):
        bus.add_module(consumer_spec(), machine="local")
        module = bus.get_module("consumer")
        with pytest.raises(UnknownInterfaceError, match="cannot send"):
            module.mh.write("inp", "l", 1)


class TestIntrospection:
    def setup_app(self, bus):
        bus.add_module(producer_spec(), machine="local")
        bus.add_module(consumer_spec(), machine="local")
        bus.add_binding(BindingSpec("producer", "out", "consumer", "inp"))

    def test_destinations_and_sources(self, bus):
        self.setup_app(bus)
        assert bus.destinations_of("producer", "out") == [("consumer", "inp")]
        assert bus.sources_of("consumer", "inp") == [("producer", "out")]
        assert bus.destinations_of("consumer", "inp") == []

    def test_snapshot_configuration(self, bus):
        self.setup_app(bus)
        app = bus.snapshot_configuration()
        assert [i.instance for i in app.instances] == ["consumer", "producer"]
        assert len(app.bindings) == 1

    def test_queue_transfer(self, bus):
        self.setup_app(bus)
        bus.add_module(consumer_spec("consumer"), instance="c2", machine="local")
        consumer = bus.get_module("consumer")
        from repro.bus.message import Message

        consumer.deliver("inp", Message(values=[7]))
        copied = bus.copy_queue("consumer", "inp", "c2")
        assert copied == 1
        assert bus.get_module("c2").queued_counts()["inp"] == 1
        assert consumer.queued_counts()["inp"] == 0  # cq moves, it leaves nothing
        removed = bus.remove_queue("consumer", "inp")
        assert removed == 0
        assert consumer.queued_counts()["inp"] == 0

    def test_trace_records_events(self, bus):
        self.setup_app(bus)
        assert any("add module producer" in line for line in bus.trace)
        assert any("bind" in line for line in bus.trace)


class TestLaunchFromMIL:
    def test_launch(self):
        config = parse_mil(
            "module p { define interface out pattern = {long} }\n"
            "module c { use interface inp pattern = {long} }\n"
            "application app {\n"
            "  instance p\n  instance c\n"
            '  bind "p out" "c inp"\n'
            "}\n"
        )
        config.modules["p"].inline_source = PRODUCER
        config.modules["p"].attributes["count"] = "2"
        config.modules["c"].inline_source = CONSUMER
        bus = SoftwareBus(sleep_scale=0.0)
        try:
            bus.launch(config)
            wait_until(lambda: bus.get_module("c").mh.statics.get("seen") == [0, 1])
            assert bus.application_name == "app"
        finally:
            bus.shutdown()

    def test_launch_without_application(self):
        config = parse_mil("module p { }")
        bus = SoftwareBus()
        with pytest.raises(BusError, match="no application"):
            bus.launch(config)
