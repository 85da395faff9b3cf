"""Nothing compiles between the signal and the commit of a ``replace()``.

The clone of a moved module is prepared, compiled and given its
namespace by ``load()`` — a cache hit for a text the process has seen —
so the stages that run while nobody serves (rebind, start, restore,
commit) never reach the compiler.  The same move of work makes a new
version whose body raises on import fail in the pre-signal
``clone_build``, where a bad version must fail: before the application
is touched.
"""

import builtins
import traceback

import pytest

from repro.bus.bus import SoftwareBus
from repro.bus.interfaces import InterfaceDecl, Role
from repro.bus.module import ModuleState
from repro.bus.spec import BindingSpec, ModuleSpec
from repro.reconfig.coordinator import ReconfigurationCoordinator
from repro.reconfig.scripts import move_module, upgrade_module
from repro.runtime import telemetry
from repro.state.machine import MACHINES

from tests.conftest import wait_until

COMPUTE = """\
SEEN = []


def tally(n, log=[]):
    log.append(n)
    return len(log)


def main():
    n = 0
    mh.init()
    while mh.running:
        mh.reconfig_point("P")
        if mh.statics.get("crash"):
            raise ValueError("asked to crash")
        n = n + 1
        SEEN.append(n)
        mh.statics["n"] = n
        mh.statics["seen"] = len(SEEN)
        mh.statics["tallied"] = tally(n)
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
def app():
    """``compute`` counting into ``sink``, on two machine profiles."""
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


class TestNothingCompilesInTheBlackout:
    def test_replace_completes_with_the_compiler_disabled(self, app, monkeypatch):
        _wait_progress(app, 3)
        signal = app.signal_reconfig

        def signal_then_forbid(instance):
            signal(instance)

            def forbidden(*args, **kwargs):
                raise AssertionError(f"compile{args[1:2]} during a replace")

            monkeypatch.setattr(builtins, "compile", forbidden)

        monkeypatch.setattr(app, "signal_reconfig", signal_then_forbid)
        before = _count(app)
        try:
            report = move_module(app, "compute", machine="beta", timeout=15)
        finally:
            monkeypatch.undo()  # pytest itself compiles when it reports
        assert report.completed[-1] == "commit"
        _wait_progress(app, before + 3)

    def test_compiled_counter_is_flat_over_twenty_replaces(self, app):
        rec = telemetry.enable(capacity=1 << 14)
        coordinator = ReconfigurationCoordinator(app)
        _wait_progress(app, 1)
        app.add_module(
            ModuleSpec(name="probe", inline_source="def main():\n    pass  # flat\n"),
            machine="alpha",
        )
        assert rec.counter("module.compiled", key="probe") == 1  # the counter is live
        compiled = rec.counter_total("module.compiled")
        for i in range(20):
            coordinator.replace(
                "compute", machine=("beta", "alpha")[i % 2], timeout=15
            )
        assert rec.counter_total("module.compiled") == compiled
        assert rec.counter_total("reconfig.commits") == 20
        _wait_progress(app, _count(app) + 2)


class TestCloneSharesCodeOnly:
    def test_clone_gets_fresh_module_state_after_a_move(self, app):
        _wait_progress(app, 5)
        old = app.get_module("compute")
        # Read before the move: removal clears the old instance's namespace.
        old_seen = old.namespace["SEEN"]
        move_module(app, "compute", machine="beta", timeout=15)
        clone = app.get_module("compute")
        assert clone is not old
        assert clone.transform is old.transform  # one preparation, one code object
        assert clone.namespace["SEEN"] is not old_seen
        carried = clone.mh.statics["n"]
        _wait_progress(app, carried + 3)
        statics = clone.mh.statics
        # The captured state (n) moved; module-level and default-argument
        # mutables are the clone's own and started empty.
        assert statics["n"] > carried >= 5
        assert statics["seen"] < statics["n"]
        assert statics["tallied"] == statics["seen"]
        assert len(old_seen) >= 5

    def test_crash_after_a_move_names_the_module_not_the_clone(self, app):
        _wait_progress(app, 2)
        move_module(app, "compute", machine="beta", timeout=15)
        module = app.get_module("compute")
        module.mh.statics["crash"] = True
        wait_until(lambda: module.state is ModuleState.CRASHED, timeout=15)
        text = "".join(traceback.format_exception(module.crash))
        assert 'File "<module compute>"' in text
        assert "compute.new" not in text


class TestUpgradeWhoseTopLevelRaises:
    def test_rejected_before_any_signal_with_its_own_exception(self, app):
        _wait_progress(app, 2)
        old = app.get_module("compute")
        bindings = app.bindings()
        configuration = app.snapshot_configuration().describe()
        bad = "raise LookupError('import-time failure')\n" + COMPUTE
        with pytest.raises(LookupError, match="import-time failure"):
            upgrade_module(app, "compute", bad, timeout=15)
        assert old.mh.stats["signals"] == 0
        assert not old.mh.reconfig
        assert app.get_module("compute") is old
        assert not app._unbound  # no clone was built
        assert app.bindings() == bindings
        assert app.snapshot_configuration().describe() == configuration
        _wait_progress(app, _count(app) + 3)  # the old module keeps serving
