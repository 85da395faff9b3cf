"""An in-process hand-off, end to end on a bus, failure paths included.

The old module divulges its packet and a copy of its state; the first
module in the bus process to resume from it takes the copy, and any
later one decodes the packet.  These tests hold the bus to what the
packet path did: the same abort (stage, cause, trace lines, packet
size) when the clone's machine refuses the state, the old module
revived from what it divulged, a replica whose containers are its own,
and a clone that resumes from the state as it was at the divulge, even
when a peer changes a list it sent after the divulge.
"""

import pytest

from repro.bus.bus import SoftwareBus
from repro.bus.interfaces import InterfaceDecl, Role
from repro.bus.message import Message
from repro.bus.module import ModuleState
from repro.bus.spec import BindingSpec, ModuleSpec
from repro.errors import MachineCompatibilityError, ModuleCrashedError, ReconfigurationAborted
from repro.reconfig.coordinator import ReconfigurationCoordinator
from repro.state.frames import Handoff, ProcessState
from repro.state.machine import MACHINES

from tests.conftest import wait_until

#: A long of 2**40 and up, live across the point in main's frame.
WIDE = """\
def main():
    total = 2 ** 40
    mh.init()
    while mh.running:
        mh.reconfig_point('P')
        total = total + 1
        mh.statics['total'] = total
        mh.sleep(0.005)
"""

#: A heap dict and a frame list, each published through statics by
#: whichever module runs the loop.
HOLDER = """\
def main():
    items = ['a']
    mh.heap['store'] = mh.heap.get('store', {'k': 'v'})
    mh.init()
    while mh.running:
        mh.reconfig_point('P')
        mh.statics['items'] = items
        mh.sleep(0.005)
"""

#: Keeps the list a peer sent it in main's frame, its heap and statics.
KEEPER = """\
def main():
    sent = None
    mh.init()
    while mh.running:
        mh.reconfig_point('P')
        if sent is None:
            sent = mh.read1('inp')
            mh.heap['sent'] = sent
            mh.statics['sent'] = sent
        mh.statics['seen'] = sent + []
        mh.sleep(0.005)
"""


@pytest.fixture
def bus():
    bus = SoftwareBus(sleep_scale=0.01)
    bus.add_host("alpha", MACHINES["alpha-like"])
    bus.add_host("beta", MACHINES["vax-like"])
    yield bus
    bus.shutdown()


@pytest.fixture
def packets(monkeypatch):
    """Count every packet built or parsed."""
    calls = []
    to_bytes, from_bytes = ProcessState.to_bytes, ProcessState.from_bytes.__func__

    def counted_to_bytes(self, machine=None):
        calls.append("to_bytes")
        return to_bytes(self, machine)

    def counted_from_bytes(cls, data, machine=None):
        calls.append("from_bytes")
        return from_bytes(cls, data, machine)

    monkeypatch.setattr(ProcessState, "to_bytes", counted_to_bytes)
    monkeypatch.setattr(ProcessState, "from_bytes", classmethod(counted_from_bytes))
    return calls


def start(bus, name, source, machine="alpha"):
    spec = ModuleSpec(name=name, inline_source=source, reconfig_points=["P"])
    module = bus.add_module(spec, machine=machine, start=True)
    wait_until(lambda: module.mh.statics, timeout=10)
    return module


def test_a_state_the_clone_cannot_hold_aborts_as_the_packet_did(bus, packets):
    old = start(bus, "wide", WIDE)
    mark = len(bus.trace)
    with pytest.raises(ReconfigurationAborted) as caught:
        ReconfigurationCoordinator(bus).replace("wide", machine="beta", timeout=10)
    abort = caught.value
    assert abort.stage == "health_check" and abort.rolled_back
    assert isinstance(abort.cause, ModuleCrashedError)
    assert isinstance(abort.cause.cause, MachineCompatibilityError)
    assert "32-bit native long on machine 'beta'" in str(abort.cause.cause)
    # The packet the divulge stands for: 112 bytes, as the wire counts it.
    assert abort.report.packet_bytes == 112
    assert bus.trace[mark:] == [
        "signal reconfig wide",
        "build clone wide on beta (status=clone)",
        "objstate_move wide -> wide on beta (112 bytes)",
        "hand over wide: alpha -> beta",
        "start module wide",
        "hand back wide: beta -> alpha",
        "remove module wide on beta",
        "revive wide from captured state",
        f"aborted replace of 'wide' [{abort.report.recon_id}] at stage "
        f"'health_check' (rolled_back=True, retries=0)",
    ]
    # The old module resumed from what it divulged, and counts on.
    assert bus.get_module("wide") is old
    seen = old.mh.statics["total"]
    wait_until(lambda: old.mh.statics["total"] > seen, timeout=10)
    assert old.state is ModuleState.RUNNING
    # One packet, built at the divulge.  The clone took the copy and
    # refused it; the revived old module decoded the packet.
    assert packets == ["to_bytes", "from_bytes"]


def test_a_replica_holds_containers_of_its_own(bus, packets):
    start(bus, "holder", HOLDER)
    report, name = ReconfigurationCoordinator(bus).replicate(
        "holder", "holder_2", machine="beta", timeout=10
    )
    clone, replica = bus.get_module("holder"), bus.get_module(name)
    assert report.packet_bytes > 0
    for module in (clone, replica):
        wait_until(lambda module=module: "items" in module.mh.statics, timeout=10)
    # The clone took the copy; the replica decoded the packet.
    assert packets == ["to_bytes", "from_bytes"]

    clone_items, replica_items = clone.mh.statics["items"], replica.mh.statics["items"]
    assert clone_items == replica_items == ["a"] and clone_items is not replica_items
    clone_items.append("b")
    assert replica_items == ["a"]

    clone_store, replica_store = clone.mh.heap["store"], replica.mh.heap["store"]
    assert clone_store == replica_store == {"k": "v"} and clone_store is not replica_store
    replica_store["new"] = "x"
    assert "new" not in clone_store


@pytest.mark.parametrize("machine", ["alpha", "beta"])
def test_a_clone_resumes_from_the_state_as_it_was_divulged(bus, monkeypatch, machine):
    # Peer and keeper share a machine, so the keeper holds the very list
    # the peer sent.  The peer changes it after the divulge and before
    # the clone reads the state: the clone must not see the change.
    bus.add_module(
        ModuleSpec(
            name="peer",
            inline_source="def main():\n    pass\n",
            interfaces=[InterfaceDecl("out", Role.DEFINE, pattern="a")],
        ),
        machine="alpha",
    )
    spec = ModuleSpec(
        name="keeper",
        inline_source=KEEPER,
        reconfig_points=["P"],
        interfaces=[InterfaceDecl("inp", Role.USE, pattern="a")],
    )
    keeper = bus.add_module(spec, machine="alpha", start=True)
    bus.add_binding(BindingSpec("peer", "out", "keeper", "inp"))
    sent = [1, 2]
    bus.route("peer", "out", Message(values=[sent], fmt="a", source_instance="peer",
                                     source_interface="out"))
    wait_until(lambda: "seen" in keeper.mh.statics, timeout=10)
    assert keeper.mh.statics["sent"] is sent

    read = Handoff.read

    def read_after_the_peer_wrote(self, reader):
        sent.append(3)
        return read(self, reader)

    monkeypatch.setattr(Handoff, "read", read_after_the_peer_wrote)
    ReconfigurationCoordinator(bus).replace("keeper", machine=machine, timeout=10)
    monkeypatch.undo()

    clone = bus.get_module("keeper")
    assert clone is not keeper and sent == [1, 2, 3]
    assert clone.mh.heap["sent"] == [1, 2] and clone.mh.statics["sent"] == [1, 2]
    clone.mh.statics.pop("seen")
    wait_until(lambda: "seen" in clone.mh.statics, timeout=10)
    assert clone.mh.statics["seen"] == [1, 2]
