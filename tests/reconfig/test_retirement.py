"""A removed module instance is freed by reference counting.

An instance sits in reference cycles with its ``mh`` (port, a host's
divulge and restore hooks, lifecycle hook, namespace ↔ ``__globals__``), so
without :meth:`ModuleInstance.retire` a replaced module — its heap and
two state packets included — lives on until the next gen-2 collection.
Every case here runs with the cyclic collector off: an instance that is
still reachable only through a cycle stays alive and fails the test.
"""

import gc
import weakref

import pytest

from repro.bus.bus import SoftwareBus
from repro.bus.interfaces import InterfaceDecl, Role
from repro.bus.machine import Host
from repro.bus.module import ModuleState, prepared_source_for
from repro.bus.spec import BindingSpec, ModuleSpec
from repro.bus.host import ModuleHost
from repro.errors import ReconfigurationAborted
from repro.reconfig.coordinator import ReconfigurationCoordinator
from repro.runtime.faults import FaultPlan, fault_plan
from repro.runtime.mh import SleepPolicy
from repro.state.machine import MACHINES

from tests.conftest import wait_until

COMPUTE = """\
def main():
    n = 0
    mh.init()
    while mh.running:
        mh.reconfig_point("P")
        n = n + 1
        mh.statics["n"] = n
        mh.heap["store"] = {f"k{i}": [n, i] for i in range(64)}
        mh.write("out", "l", n)
        mh.sleep(0.002)
"""

SINK = """\
def main():
    mh.init()
    while mh.running:
        mh.statics["last"] = mh.read1("inp")
"""


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture
def app():
    bus = SoftwareBus(sleep_scale=1.0)
    bus.add_host("alpha", MACHINES["sparc-like"])
    bus.add_host("beta", MACHINES["vax-like"])
    bus.add_module(
        ModuleSpec(
            name="compute",
            inline_source=COMPUTE,
            interfaces=[InterfaceDecl(name="out", role=Role.DEFINE, pattern="l")],
            reconfig_points=["P"],
        ),
        machine="alpha",
    )
    bus.add_module(
        ModuleSpec(
            name="sink",
            inline_source=SINK,
            interfaces=[InterfaceDecl(name="inp", role=Role.USE, pattern="l")],
        ),
        machine="alpha",
    )
    bus.add_binding(BindingSpec("compute", "out", "sink", "inp"))
    bus.start_module("sink")
    bus.start_module("compute")
    yield bus
    bus.shutdown()


def _count(bus):
    return bus.get_module("compute").mh.statics.get("n", 0)


def _wait_progress(bus, beyond):
    def check():
        bus.check_health()
        return _count(bus) > beyond

    wait_until(check, timeout=15)


def _refs(module):
    return weakref.ref(module), weakref.ref(module.mh)


class TestInProcessReplace:
    def test_committed_replace_frees_the_old_instance(self, app, collector_off):
        _wait_progress(app, 3)
        old_ref, old_mh_ref = _refs(app.get_module("compute"))
        report = ReconfigurationCoordinator(app).replace(
            "compute", machine="beta", timeout=15
        )
        assert report.completed[-1] == "commit"
        assert old_ref() is None
        assert old_mh_ref() is None
        # The clone carried the state and keeps serving.
        _wait_progress(app, _count(app) + 3)

    def test_rolled_back_clone_is_freed_and_the_original_serves(
        self, app, collector_off, monkeypatch
    ):
        _wait_progress(app, 3)
        original = app.get_module("compute")
        clones = []
        build_clone = app.build_clone

        def recording_build_clone(*args, **kwargs):
            module = build_clone(*args, **kwargs)
            clones.append(_refs(module))
            return module

        monkeypatch.setattr(app, "build_clone", recording_build_clone)
        plan = FaultPlan("start-clone-crash").schedule(
            "coordinator.start_clone", "crash", times=99
        )
        with fault_plan(plan):
            with pytest.raises(ReconfigurationAborted) as aborted:
                ReconfigurationCoordinator(app).replace(
                    "compute", machine="beta", timeout=15
                )
        assert aborted.value.stage == "start_clone"
        assert aborted.value.rolled_back
        # The abort's traceback holds the transaction's frames, and they
        # hold the state move that names the clone: drop it first.
        del aborted
        assert len(clones) == 1
        clone_ref, clone_mh_ref = clones[0]
        assert clone_ref() is None
        assert clone_mh_ref() is None
        assert app.get_module("compute") is original
        assert original.state is ModuleState.RUNNING
        _wait_progress(app, _count(app) + 3)


class TestShutdown:
    def test_shutdown_frees_every_local_instance(self, app, collector_off):
        _wait_progress(app, 3)
        refs = [_refs(app.get_module(name)) for name in ("compute", "sink")]
        app.shutdown()
        for module_ref, mh_ref in refs:
            assert module_ref() is None
            assert mh_ref() is None


class TestHostSideRemove:
    def test_remove_frees_a_hosted_instance(self, collector_off):
        core = ModuleHost(
            "unit-host",
            Host(name="unit-host", profile=MACHINES["modern-64"]),
            SleepPolicy(scale=0.0),
            lambda command: None,
        )
        spec = ModuleSpec(
            name="stage",
            inline_source=(
                "def main():\n"
                "    while mh.running:\n"
                "        mh.heap['seen'] = [mh.statics.get('n', 0)]\n"
                "        mh.sleep(0.001)\n"
            ),
            interfaces=[InterfaceDecl(name="inp", role=Role.USE, pattern="l")],
            reconfig_points=[],
        )
        try:
            core.handle(
                "add",
                [
                    "stage#1",
                    "stage",
                    spec.to_abstract(prepared_source_for(spec)),
                    "original",
                    None,
                ],
            )
            core.handle("start", ["stage#1"])
            core.handle("signal", ["stage#1"])
            module_ref, mh_ref = _refs(core.modules["stage#1"])
            core.handle("remove", ["stage#1"])
            assert "stage#1" not in core.modules
            assert module_ref() is None
            assert mh_ref() is None
        finally:
            core.stop_all()
