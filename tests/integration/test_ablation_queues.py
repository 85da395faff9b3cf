"""Ablation: queue preservation (Figure 5's ``cq``/``rmq`` commands).

Without the ``cq`` copy, messages queued at the old module's interfaces
at replacement time are silently dropped.  This test makes the loss
deterministic: a reconfigurable module that never consumes its input is
replaced while five messages sit in its queue.
"""

import pytest

from repro.bus.bus import SoftwareBus
from repro.bus.interfaces import InterfaceDecl, Role
from repro.bus.message import Message
from repro.bus.spec import ModuleSpec
from repro.reconfig.coordinator import ReconfigurationCoordinator

#: A module that idles at its reconfiguration point without reading.
IDLER = """\
def main():
    while mh.running:
        mh.reconfig_point('P')
        mh.sleep(0.01)
"""


@pytest.fixture
def bus():
    bus = SoftwareBus(sleep_scale=0.0)
    bus.add_host("local")
    spec = ModuleSpec(
        name="idler",
        inline_source=IDLER,
        interfaces=[InterfaceDecl("inp", Role.USE, pattern="l")],
        reconfig_points=["P"],
    )
    bus.add_module(spec, machine="local", start=True)
    yield bus
    bus.shutdown()


def queue_five(bus):
    module = bus.get_module("idler")
    for value in range(5):
        module.deliver("inp", Message(values=[value], fmt="l"))
    assert module.queued_counts()["inp"] == 5


class TestQueuePreservation:
    def test_default_preserves_all_queued_messages(self, bus):
        queue_five(bus)
        report = ReconfigurationCoordinator(bus).replace("idler", timeout=10)
        assert report.queued_copied == {"inp": 5}
        new_module = bus.get_module("idler")
        queued = new_module.queue("inp").snapshot()
        assert [m.values[0] for m in queued] == [0, 1, 2, 3, 4]

    def test_ablation_without_cq_loses_messages(self, bus):
        queue_five(bus)
        report = ReconfigurationCoordinator(bus).replace(
            "idler", timeout=10, preserve_queues=False
        )
        new_module = bus.get_module("idler")
        assert new_module.queued_counts()["inp"] == 0  # five messages gone
        assert report.queued_copied == {}  # none of them reached the clone
        assert "rmq idler.inp on local (5 msgs)" in bus.trace

    def test_order_preserved_with_concurrent_arrivals(self, bus):
        # Messages arriving at the *clone* after rebinding sit behind the
        # copied (older) ones.
        queue_five(bus)
        coordinator = ReconfigurationCoordinator(bus)
        report = coordinator.replace("idler", timeout=10)
        assert report.queued_copied == {"inp": 5}
        module = bus.get_module("idler")
        module.deliver("inp", Message(values=[99], fmt="l"))
        values = [m.values[0] for m in module.queue("inp").snapshot()]
        assert values == [0, 1, 2, 3, 4, 99]
