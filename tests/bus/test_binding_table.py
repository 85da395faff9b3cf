"""The binding table is an ordered set; a rebind is one table edit.

``SoftwareBus`` keeps its bindings in an insertion-ordered dict, so
membership and removal cost O(1) where the list it replaced scanned.
What the list *meant* is kept exactly, and the model test holds the bus
against a plain-list reference for it: binding order (which is delivery
order among the destinations of one endpoint), a removed-and-re-added
binding going to the end, either endpoint order naming the same link on
removal, and the errors.  The rebind tests pin the cost model: however
many commands a Figure-5 ``BindBatch`` carries, applying it invalidates
routing once, i.e. one ``clear_routes`` per attached link; and a
replacement's hand-over edits no binding at all, so the table keeps its
sequence and routing is invalidated once.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bus.bus import SoftwareBus
from repro.bus.interfaces import InterfaceDecl, Role
from repro.bus.machine import Host
from repro.bus.message import Message
from repro.bus.spec import BindingSpec, ModuleSpec
from repro.bus.transport import RemoteTransport
from repro.errors import BindingError, SpecError
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
        self.events = []

    def send_event(self, command):
        self.events.append(command[0])


class _CountingTransport(RemoteTransport):
    """A transport that hosts nothing; its links only count events."""

    name = "counting"

    def __init__(self, links=3):
        super().__init__([f"host-{i}" for i in range(links)])
        self._slots = [
            (_CountingLink(name), Host(name, MACHINES["modern-64"]))
            for name in self._names
        ]


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


def _publish_routes(bus):
    """Route once, so a snapshot is published and hosts hold routes."""
    bus.route(
        "hub",
        "out",
        Message(values=[1], fmt="l", source_instance="hub", source_interface="out"),
    )


class TestBatchIsOneTableEdit:
    def test_apply_clears_routes_once_per_link(self, wide):
        bus, transport = wide
        batch = prepare_rebind_batch(bus, obj_cap(bus, "hub"), "hub.new")
        assert len(batch.commands) >= 2 * MONITORS
        _publish_routes(bus)
        for link in transport.links():
            del link.events[:]
        batch.apply(bus)
        for link in transport.links():
            assert link.events.count("clear_routes") == 1, link.name
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
        _publish_routes(bus)  # the handed-back table routes
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

    def test_hand_over_clears_routes_once_and_edits_no_binding(self, wide):
        bus, transport = wide
        order = bus.bindings()
        old = bus.get_module("hub")
        clone = bus.build_clone(HUB, "hub")
        _publish_routes(bus)
        for link in transport.links():
            del link.events[:]
        bus.hand_over(old, clone)
        for link in transport.links():
            assert link.events.count("clear_routes") == 1, link.name
        assert bus.bindings() == order
        assert bus.get_module("hub") is clone
        _publish_routes(bus)  # the hub's endpoint now routes from the clone
        assert bus.get_module("mon_63").queue("inp").peek_count() == 2
