"""The binding table is an ordered set; a rebind is one table edit.

``SoftwareBus`` keeps its bindings in an insertion-ordered dict, so
membership and removal cost O(1) where the list it replaced scanned.
What the list *meant* is kept exactly, and the model test holds the bus
against a plain-list reference for it: binding order (which is delivery
order among the destinations of one endpoint), a removed-and-re-added
binding going to the end, either endpoint order naming the same link on
removal, and the errors.  The rebind tests pin the cost model: however
many commands a Figure-5 ``BindBatch`` or a ``launch()`` carries, it
rebuilds the routing table once and pushes one ``set_routes`` per
attached link; and a replacement's hand-over edits no binding at all, so
the table keeps its sequence and is published once, on every link ahead
of the queue move.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bus.bus import SoftwareBus
from repro.bus.interfaces import InterfaceDecl, Role
from repro.bus.message import Message
from repro.bus.spec import (
    ApplicationSpec,
    BindingSpec,
    Configuration,
    InstanceSpec,
    ModuleSpec,
)
from repro.bus.transport import RemoteTransport
from repro.errors import BindingError, SpecError, UnknownModuleError
from repro.reconfig.coordinator import prepare_rebind_batch
from repro.reconfig.primitives import obj_cap
from repro.state.machine import MACHINES

IDLE = "def main():\n    pass\n"

HUB = ModuleSpec(
    name="hub",
    inline_source=IDLE,
    interfaces=[
        InterfaceDecl("out", Role.DEFINE, pattern="l"),
        InterfaceDecl("srv", Role.SERVER, pattern="l", returns="l"),
    ],
)
LEAF = ModuleSpec(
    name="leaf",
    inline_source=IDLE,
    interfaces=[
        InterfaceDecl("inp", Role.USE, pattern="l"),
        InterfaceDecl("cli", Role.CLIENT, pattern="l", returns="l"),
    ],
)
LEAVES = ["m0", "m1", "m2"]
SPECS = {"hub": HUB, **{name: LEAF for name in LEAVES}}
ENDPOINTS = [("hub", "out"), ("hub", "srv")] + [
    (name, interface) for name in LEAVES for interface in ("inp", "cli")
]


def _bus():
    bus = SoftwareBus(sleep_scale=0.0)
    bus.add_module(HUB, instance="hub")
    for name in LEAVES:
        bus.add_module(LEAF, instance=name)
    return bus


class ListTable:
    """The binding table as a plain list: the reference semantics."""

    def __init__(self):
        self.bindings = []

    def add(self, binding):
        (a, a_if), (b, b_if) = binding.endpoints()
        left, right = SPECS[a].interface(a_if), SPECS[b].interface(b_if)
        if not left.compatible_with(right):
            raise BindingError(
                f"{binding.describe()}: incompatible interfaces "
                f"({left.describe()} vs {right.describe()})"
            )
        if binding in self.bindings:
            raise BindingError(f"{binding.describe()}: already bound")
        self.bindings.append(binding)

    def remove(self, binding):
        first, second = binding.endpoints()
        for existing in self.bindings:
            if existing.endpoints() in ((first, second), (second, first)):
                self.bindings.remove(existing)
                return
        raise BindingError(f"{binding.describe()}: no such binding")

    def destinations_of(self, instance, interface):
        found = []
        for binding in self.bindings:
            first, second = binding.endpoints()
            for here, there in ((first, second), (second, first)):
                if here == (instance, interface):
                    if SPECS[there[0]].interface(there[1]).direction.can_receive:
                        found.append(there)
                    break
        return found


def _outcome(action, binding):
    try:
        action(binding)
    except BindingError as exc:
        return str(exc)
    return None


LINKS = [(("hub", "out"), (name, "inp")) for name in LEAVES] + [
    ((name, "cli"), ("hub", "srv")) for name in LEAVES
]
#: Mostly bindable links in either endpoint order (so reversed deletes,
#: duplicate adds and both orientations bound at once are common), now
#: and then any endpoint pair at all (incompatible, or never bound).
edit = st.one_of(
    st.tuples(
        st.sampled_from(["add", "del"]),
        st.sampled_from(LINKS + [(b, a) for a, b in LINKS]),
    ),
    st.tuples(
        st.sampled_from(["add", "del"]),
        st.tuples(st.sampled_from(ENDPOINTS), st.sampled_from(ENDPOINTS)),
    ),
)


@given(st.lists(edit, max_size=40))
@settings(max_examples=150, deadline=None)
def test_table_matches_the_plain_list_reference(sequence):
    bus, model = _bus(), ListTable()
    try:
        for op, (left, right) in sequence:
            binding = BindingSpec(left[0], left[1], right[0], right[1])
            if op == "add":
                got = _outcome(bus.add_binding, binding)
                want = _outcome(model.add, binding)
            else:
                got = _outcome(bus.remove_binding, binding)
                want = _outcome(model.remove, binding)
            assert got == want
            assert bus.bindings() == model.bindings
            for endpoint in ENDPOINTS:
                assert bus.destinations_of(*endpoint) == model.destinations_of(*endpoint)
        assert bus.snapshot_configuration().bindings == model.bindings
    finally:
        bus.shutdown()


class _CountingLink:
    def __init__(self, name):
        self.name = name
        self.profile = MACHINES["modern-64"]
        self.sent = []  # command names of events and requests, in send order
        self.routes = []  # the host-local routes of the last set_routes

    def send_event(self, command):
        self.sent.append(command[0])
        if command[0] == "set_routes":
            self.routes = command[1]

    def request(self, command, timeout=30.0):
        self.sent.append(command[0])
        return {}  # what a host that holds nothing replies to move_queues

    def close(self):
        pass


class _CountingTransport(RemoteTransport):
    """A transport whose links run nothing; they only log what is sent."""

    name = "counting"

    def __init__(self, links=3):
        super().__init__([f"host-{i}" for i in range(links)])
        self._slots = [_CountingLink(name) for name in self._names]


MONITORS = 64


@pytest.fixture
def wide():
    """A hub broadcasting to 64 monitors, with three fake links attached."""
    bus = SoftwareBus(sleep_scale=0.0)
    transport = bus.attach_transport(_CountingTransport())
    bus.add_module(HUB, instance="hub")
    for j in range(MONITORS):
        bus.add_module(LEAF, instance=f"mon_{j:02d}")
        bus.add_binding(BindingSpec("hub", "out", f"mon_{j:02d}", "inp"))
    bus.add_module(HUB, instance="hub.new")
    yield bus, transport
    bus.shutdown()


def _send(bus):
    bus.route(
        "hub",
        "out",
        Message(values=[1], fmt="l", source_instance="hub", source_interface="out"),
    )


def _rebuilds(bus, monkeypatch):
    """The list every routing-table rebuild of ``bus`` appends to from now."""
    calls = []
    rebuild = bus._rebuild_routing

    def counted():
        calls.append(1)
        return rebuild()

    monkeypatch.setattr(bus, "_rebuild_routing", counted)
    return calls


def _sent_from_now(transport):
    for link in transport.links():
        del link.sent[:]
    return {link.name: link.sent for link in transport.links()}


class TestBatchIsOneTableEdit:
    def test_apply_publishes_routes_once_per_link(self, wide, monkeypatch):
        bus, transport = wide
        batch = prepare_rebind_batch(bus, obj_cap(bus, "hub"), "hub.new")
        assert len(batch.commands) >= 2 * MONITORS
        rebuilds = _rebuilds(bus, monkeypatch)
        sent = _sent_from_now(transport)
        batch.apply(bus)
        assert len(rebuilds) == 1
        assert sent == {link.name: ["set_routes"] for link in transport.links()}
        assert bus.destinations_of("hub.new", "out") == [
            (f"mon_{j:02d}", "inp") for j in range(MONITORS)
        ]
        assert bus.destinations_of("hub", "out") == []

    def test_hand_over_and_back_is_byte_identical(self, wide):
        bus, _ = wide
        order = bus.bindings()
        before = bus.snapshot_configuration().describe()
        old = bus.get_module("hub")
        clone = bus.build_clone(HUB, "hub", machine="beta")
        bus.hand_over(old, clone)
        assert bus.bindings() == order
        assert bus.snapshot_configuration().describe() != before  # hub on beta
        bus.hand_back(clone, old)
        assert bus.bindings() == order
        assert bus.snapshot_configuration().describe() == before
        _send(bus)  # the handed-back table routes
        assert bus.get_module("mon_63").queue("inp").peek_count() == 1

    def test_refused_hand_over_changes_nothing(self, wide):
        bus, _ = wide
        order = bus.bindings()
        before = bus.snapshot_configuration().describe()
        old = bus.get_module("hub")
        without_out = ModuleSpec(
            name="hub", inline_source=IDLE, interfaces=[HUB.interface("srv")]
        )
        clone = bus.build_clone(without_out, "hub")
        with pytest.raises(SpecError, match="has no interface 'out'"):
            bus.hand_over(old, clone)
        assert bus.get_module("hub") is old
        assert bus.bindings() == order
        assert bus.snapshot_configuration().describe() == before
        bus.discard_module(clone)
        assert not bus._unbound

    def test_hand_over_publishes_once_edits_no_binding(self, wide, monkeypatch):
        bus, transport = wide
        order = bus.bindings()
        old = bus.get_module("hub")
        clone = bus.build_clone(HUB, "hub")
        _send(bus)
        rebuilds = _rebuilds(bus, monkeypatch)
        sent = _sent_from_now(transport)
        bus.hand_over(old, clone)
        assert len(rebuilds) == 1
        assert sent == {link.name: ["set_routes"] for link in transport.links()}
        assert bus.bindings() == order
        assert bus.get_module("hub") is clone
        _send(bus)  # the hub's endpoint now routes from the clone
        assert bus.get_module("mon_63").queue("inp").peek_count() == 2

    def test_routes_reach_every_link_ahead_of_the_queue_move(self, monkeypatch):
        """A hand-over between two hosts, and the hand-back: each publishes
        once, and every link that takes a ``move_queues`` has its
        ``set_routes`` first (per-link FIFO then orders the host's route
        swap ahead of the move)."""
        bus = SoftwareBus(sleep_scale=0.0)
        transport = bus.attach_transport(_CountingTransport())
        try:
            old = bus.add_module(HUB, instance="hub", placement="counting:0")
            bus.add_module(LEAF, instance="m0")
            bus.add_binding(BindingSpec("hub", "out", "m0", "inp"))
            clone = bus.build_clone(HUB, "hub", placement="counting:1")
            rebuilds = _rebuilds(bus, monkeypatch)
            sent = _sent_from_now(transport)
            bus.hand_over(old, clone)
            assert sent == {
                "host-0": ["set_routes", "move_queues"],
                "host-1": ["set_routes"],
                "host-2": ["set_routes"],
            }
            sent = _sent_from_now(transport)
            bus.hand_back(clone, old)
            assert sent == {  # host-0 unseals the old module's queues
                "host-0": ["set_routes", "move_queues"],
                "host-1": ["set_routes", "move_queues"],
                "host-2": ["set_routes"],
            }
            assert len(rebuilds) == 2
        finally:
            bus.shutdown()

    def test_launch_publishes_routes_once_per_link(self, monkeypatch):
        bus = SoftwareBus(sleep_scale=0.0)
        transport = bus.attach_transport(_CountingTransport())
        rebuilds = _rebuilds(bus, monkeypatch)
        app = ApplicationSpec(
            name="wide",
            instances=[InstanceSpec("hub", "hub")]
            + [InstanceSpec(f"mon_{j:02d}", "leaf") for j in range(MONITORS)],
            bindings=[
                BindingSpec("hub", "out", f"mon_{j:02d}", "inp") for j in range(MONITORS)
            ],
        )
        try:
            sent = _sent_from_now(transport)
            bus.launch(Configuration(modules={"hub": HUB, "leaf": LEAF}, application=app))
            assert len(rebuilds) == 1
            assert sent == {link.name: ["set_routes"] for link in transport.links()}
            assert len(bus.destinations_of("hub", "out")) == MONITORS
        finally:
            bus.shutdown()


MON = ModuleSpec(
    name="mon",
    inline_source=IDLE,
    interfaces=[InterfaceDecl("inp", Role.USE, pattern="l")],
)


def _pushed(transport):
    """Each pushed endpoint and the host it was pushed to, from the last
    ``set_routes`` of every link."""
    return {
        (sender, interface): link.name
        for link in transport.links()
        for sender, interface, _ in link.routes
    }


class TestLocalitySwitch:
    """A route switches from the tunnel to its host only while no module
    has started under the sender's name: a running sender's tunneled
    writes may still be in flight, and a host-local write would overtake
    them.  A route already host-local stays so while it still qualifies."""

    @pytest.fixture
    def counting(self):
        bus = SoftwareBus(sleep_scale=0.0)
        transport = bus.attach_transport(_CountingTransport())
        yield bus, transport
        bus.shutdown()

    def test_a_sender_not_yet_started_is_pushed(self, counting):
        bus, transport = counting
        bus.add_module(HUB, instance="hub", placement="counting:0")
        bus.add_module(MON, instance="m0", placement="counting:0")
        bus.add_binding(BindingSpec("hub", "out", "m0", "inp"))
        assert _pushed(transport) == {("hub", "out"): "host-0"}

    def test_a_started_sender_whose_receiver_joins_its_link_is_not_pushed(
        self, counting
    ):
        bus, transport = counting
        bus.add_module(HUB, instance="hub", placement="counting:0")
        old = bus.add_module(MON, instance="m0", placement="counting:1")
        bus.add_binding(BindingSpec("hub", "out", "m0", "inp"))
        bus.start_module("hub")
        assert _pushed(transport) == {}  # tunneled: m0 is on another host
        clone = bus.build_clone(MON, "m0", placement="counting:0")
        bus.hand_over(old, clone)
        assert bus.destinations_of("hub", "out") == [("m0", "inp")]
        assert _pushed(transport) == {}  # still tunneled, though all on host-0
        bus.discard_module(old)
        bus.remove_binding(BindingSpec("hub", "out", "m0", "inp"))
        bus.add_binding(BindingSpec("hub", "out", "m0", "inp"))
        assert _pushed(transport) == {}

    def test_a_pushed_endpoint_stays_pushed_through_edits(self, counting):
        bus, transport = counting
        bus.add_module(HUB, instance="hub", placement="counting:0")
        bus.add_module(MON, instance="m0", placement="counting:0")
        bus.add_binding(BindingSpec("hub", "out", "m0", "inp"))
        bus.start_module("hub")
        bus.start_module("m0")
        bus.add_module(HUB, instance="x")
        bus.add_module(MON, instance="y")
        unrelated = BindingSpec("x", "out", "y", "inp")
        bus.add_binding(unrelated)
        bus.remove_binding(unrelated)
        assert _pushed(transport) == {("hub", "out"): "host-0"}
        old = bus.get_module("m0")
        clone = bus.build_clone(MON, "m0", placement="counting:0")
        bus.hand_over(old, clone)  # the receiver, on the same host
        (route,) = transport.links()[0].routes
        assert route == ["hub", "out", [[clone.key, "inp", "m0"]]]
        old = bus.get_module("hub")
        clone = bus.build_clone(HUB, "hub", placement="counting:0")
        bus.hand_over(old, clone)  # the sender, on the same host
        assert _pushed(transport) == {("hub", "out"): "host-0"}
        other = bus.build_clone(HUB, "hub", placement="counting:1")
        bus.hand_over(clone, other)  # away from its receiver: tunneled
        assert _pushed(transport) == {}
        bus.hand_back(other, clone)  # back, but started: stays tunneled
        assert _pushed(transport) == {}


def test_the_table_holds_entries_only_for_interfaces_that_can_send():
    """A fan-out of 66 instances, 65 of them receive-only: every instance
    has a row, and only the hub's two sending interfaces have entries."""
    bus = SoftwareBus(sleep_scale=0.0)
    try:
        bus.add_module(HUB, instance="hub")
        for j in range(MONITORS):
            bus.add_module(MON, instance=f"mon_{j:02d}")
            bus.add_binding(BindingSpec("hub", "out", f"mon_{j:02d}", "inp"))
        bus.add_module(MON, instance="echo")
        table = bus._routing_table
        assert len(table) == MONITORS + 2
        assert sum(len(row) for row in table.values()) == 2
        assert set(table["hub"]) == {"out", "srv"}
        message = Message(values=[1], fmt="l", source_instance="mon_00")
        with pytest.raises(UnknownModuleError):
            bus.route("nobody", "out", message)
        bus.route("mon_00", "inp", message)  # receive-only: a no-op
        assert bus.get_module("hub").has_queue("srv")
        assert bus.get_module("hub").queue("srv").peek_count() == 0
        with pytest.raises(BindingError, match="no such binding"):
            bus.route_to("mon_00", "inp", "hub", message)
        _send(bus)
        assert bus.get_module("mon_63").queue("inp").peek_count() == 1
    finally:
        bus.shutdown()
