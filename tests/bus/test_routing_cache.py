"""Routing-table invalidation tests for the bus fast path.

``SoftwareBus.route`` serves deliveries from a precomputed snapshot
(``bus.py::_RouteEntry``); these tests pin down the invalidation
contract: after every topology mutation — ``add_binding``,
``remove_binding``, ``add_module``, ``remove_module``, a replacement's
hand-over, and a full Figure-5 replacement — messages route to the
*new* topology and never to removed instances.
"""

import pytest

from repro.bus.bus import SoftwareBus
from repro.bus.interfaces import InterfaceDecl, Role
from repro.bus.message import Message
from repro.bus.spec import BindingSpec, ModuleSpec
from repro.errors import BindingError, UnknownModuleError
from repro.runtime import telemetry
from repro.state.machine import MACHINES

IDLE = "def main():\n    pass\n"


def sender_spec(name="sender"):
    return ModuleSpec(
        name=name,
        inline_source=IDLE,
        interfaces=[InterfaceDecl("out", Role.DEFINE, pattern="l")],
    )


def receiver_spec(name="receiver"):
    return ModuleSpec(
        name=name,
        inline_source=IDLE,
        interfaces=[InterfaceDecl("inp", Role.USE, pattern="l")],
    )


def send(bus, value=1, instance="sender"):
    bus.route(
        instance,
        "out",
        Message(values=[value], fmt="l", source_instance=instance,
                source_interface="out"),
    )


def received(bus, name):
    return [m.values[0] for m in bus.get_module(name).queue("inp").drain()]


@pytest.fixture
def bus():
    bus = SoftwareBus(sleep_scale=0.0)
    bus.add_host("local")
    bus.add_module(sender_spec(), machine="local")
    yield bus
    bus.shutdown()


class TestInvalidation:
    def test_add_binding_after_first_route(self, bus):
        # Routing before any binding exists builds (and caches) an empty
        # table; adding a binding afterwards must invalidate it.
        bus.add_module(receiver_spec(), instance="r1", machine="local")
        send(bus, 1)
        assert received(bus, "r1") == []
        bus.add_binding(BindingSpec("sender", "out", "r1", "inp"))
        send(bus, 2)
        assert received(bus, "r1") == [2]

    def test_remove_binding_stops_delivery(self, bus):
        bus.add_module(receiver_spec(), instance="r1", machine="local")
        binding = BindingSpec("sender", "out", "r1", "inp")
        bus.add_binding(binding)
        send(bus, 1)
        bus.remove_binding(binding)
        send(bus, 2)
        assert received(bus, "r1") == [1]

    def test_hand_over_receiver_keeps_routing(self, bus):
        bus.add_module(receiver_spec(), instance="r1", machine="local")
        bus.add_binding(BindingSpec("sender", "out", "r1", "inp"))
        send(bus, 1)
        old = bus.get_module("r1")
        bus.hand_over(old, bus.build_clone(receiver_spec(), "r1"))
        send(bus, 2)
        # cq moved 1 to the clone's queue, and 2 was routed to it.
        assert received(bus, "r1") == [1, 2]
        assert old.queue("inp").peek_count() == 0

    def test_hand_over_sender_moves_endpoint(self, bus):
        bus.add_module(receiver_spec(), instance="r1", machine="local")
        bus.add_binding(BindingSpec("sender", "out", "r1", "inp"))
        send(bus, 1)
        old = bus.get_module("sender")
        bus.hand_over(old, bus.build_clone(sender_spec(), "sender"))
        send(bus, 2)
        assert received(bus, "r1") == [1, 2]
        # The name routes from the clone's entry now; a name that never
        # existed still raises.
        assert bus._routing_table["sender"]["out"].sender_profile is (
            bus.get_module("sender").host
        )
        with pytest.raises(UnknownModuleError):
            send(bus, 3, instance="nobody")

    def test_removed_instance_never_receives(self, bus):
        bus.add_module(receiver_spec(), instance="old", machine="local")
        binding = BindingSpec("sender", "out", "old", "inp")
        bus.add_binding(binding)
        send(bus, 1)
        old_queue = bus.get_module("old").queue("inp")
        bus.remove_binding(binding)
        bus.remove_module("old")
        bus.add_module(receiver_spec(), instance="new", machine="local")
        bus.add_binding(BindingSpec("sender", "out", "new", "inp"))
        send(bus, 2)
        assert received(bus, "new") == [2]
        assert [m.values[0] for m in old_queue.drain()] == [1]

    def test_route_unknown_instance_raises_after_table_built(self, bus):
        bus.add_module(receiver_spec(), instance="r1", machine="local")
        bus.add_binding(BindingSpec("sender", "out", "r1", "inp"))
        send(bus, 1)  # table is now built and cached
        with pytest.raises(UnknownModuleError):
            send(bus, 2, instance="ghost")

    def test_route_to_follows_rebind(self, bus):
        for name in ("r1", "r2"):
            bus.add_module(receiver_spec(), instance=name, machine="local")
            bus.add_binding(BindingSpec("sender", "out", name, "inp"))
        message = Message(values=[9], fmt="l", source_instance="sender",
                          source_interface="out")
        bus.route_to("sender", "out", "r1", message)
        assert received(bus, "r1") == [9]
        assert received(bus, "r2") == []
        bus.remove_binding(BindingSpec("sender", "out", "r1", "inp"))
        with pytest.raises(BindingError, match="no such binding"):
            bus.route_to("sender", "out", "r1", message)
        bus.route_to("sender", "out", "r2", message)
        assert received(bus, "r2") == [9]


class TestSealedHandOver:
    """A hand-over seals the old module's queues where they live.

    ``route()`` reads its routing entry without the bus lock, so a router
    can hold an entry taken before a hand-over and put afterwards.  That
    put reaches the clone, behind what the move took from the old queue,
    instead of a queue nobody reads any more.
    """

    def _receiver(self, bus):
        bus.add_module(receiver_spec(), instance="r1", machine="local")
        bus.add_binding(BindingSpec("sender", "out", "r1", "inp"))
        send(bus, 1)
        send(bus, 2)
        # The entry a router preempted before the hand-over still holds.
        return bus.get_module("r1"), bus._routing_table["sender"]["out"]

    @staticmethod
    def _put(entry, value):
        for put in entry.puts:
            put(Message(values=[value], fmt="l", source_instance="sender",
                        source_interface="out"))

    @pytest.mark.parametrize("machine", ["local", "little"])
    def test_a_stale_put_lands_at_the_clone_behind_the_moved_prefix(
        self, bus, machine
    ):
        bus.add_host("little", MACHINES["vax-like"])
        old, stale = self._receiver(bus)
        clone = bus.build_clone(receiver_spec(), "r1", machine=machine)
        assert bus.hand_over(old, clone) == {"inp": 2}
        self._put(stale, 3)
        send(bus, 4)
        assert received(bus, "r1") == [1, 2, 3, 4]
        assert old.queue("inp").peek_count() == 0

    def test_hand_back_reopens_the_old_queue_and_forwards_the_clones(self, bus):
        old, stale_old = self._receiver(bus)
        clone = bus.build_clone(receiver_spec(), "r1")
        bus.hand_over(old, clone)
        send(bus, 3)
        stale_clone = bus._routing_table["sender"]["out"]
        assert bus.hand_back(clone, old) == {"inp": 3}
        self._put(stale_clone, 4)  # forwarded back to the old module
        self._put(stale_old, 5)  # the old queue is open again
        send(bus, 6)
        assert bus.get_module("r1") is old
        assert received(bus, "r1") == [1, 2, 3, 4, 5, 6]
        assert clone.queue("inp").peek_count() == 0

    def test_without_preserve_a_late_put_is_discarded_and_counted(self, bus):
        rec = telemetry.enable(capacity=1 << 12)
        old, stale = self._receiver(bus)
        clone = bus.build_clone(receiver_spec(), "r1")
        assert bus.hand_over(old, clone, preserve_queues=False) == {}
        self._put(stale, 3)
        send(bus, 4)
        assert received(bus, "r1") == [4]
        assert old.queue("inp").peek_count() == 0
        assert rec.counter("queue.discarded", key="r1.inp") == 3
        assert "rmq r1.inp on local (2 msgs)" in bus.trace


class TestCrossHostFanout:
    def test_encode_once_preserves_values_and_identity(self):
        bus = SoftwareBus(sleep_scale=0.0)
        bus.add_host("big", MACHINES["sparc-like"])
        bus.add_host("little", MACHINES["vax-like"])
        try:
            bus.add_module(sender_spec(), machine="big")
            bus.add_module(receiver_spec(), instance="near", machine="big")
            for name in ("far1", "far2"):
                bus.add_module(receiver_spec(), instance=name, machine="little")
            for name in ("near", "far1", "far2"):
                bus.add_binding(BindingSpec("sender", "out", name, "inp"))
            message = Message(values=[1234], fmt="l", source_instance="sender",
                              source_interface="out")
            bus.route("sender", "out", message)
            # Same-profile delivery is the identity (no re-encode)...
            near = bus.get_module("near").queue("inp").drain()
            assert near[0] is message
            # ...and the one wire form decodes correctly for every
            # distinct remote profile, sequence number included.
            for name in ("far1", "far2"):
                (got,) = bus.get_module(name).queue("inp").drain()
                assert got.values == [1234]
                assert got.seq == message.seq
                assert got is not message
        finally:
            bus.shutdown()


class TestReplacementScript:
    def test_figure5_replacement_reroutes(self):
        """An objstate_move-driven replacement routes to the clone only.

        Runs the full Figure-5 move (signal, divulge, hand-over, commit)
        on the live monitor app and asserts the displayed stream keeps
        flowing afterwards — i.e. every routing entry that mentioned the
        old compute instance was rebuilt for the clone.
        """
        from tests.reconfig.helpers import launch_monitor, wait_displayed
        from repro.reconfig.scripts import move_module

        bus = launch_monitor(requests=40, interval=0.01)
        try:
            wait_displayed(bus, 3)
            report = move_module(bus, "compute", machine="beta", timeout=15)
            assert report.kind == "move"
            before = len(wait_displayed(bus, 4))
            wait_displayed(bus, before + 3)
            assert bus.get_module("compute").host.name == "beta"
        finally:
            bus.shutdown()
