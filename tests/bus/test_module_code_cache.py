"""One code object per module text, one namespace per instance.

``ModuleInstance.load()`` compiles a module text once per process (the
transformer keeps the code object of a reconfigurable module, an
``lru_cache`` serves plain and remotely received texts) and executes it
into a namespace of the instance's own; ``start()`` only spawns the
thread.  Instances therefore share code and nothing else.
"""

import threading

import pytest

from repro.bus.bus import SoftwareBus
from repro.bus.module import (
    ModuleState,
    _compile_cached,
    _prepare_module_cached,
)
from repro.bus.spec import ModuleSpec
from repro.errors import ModuleLifecycleError
from repro.runtime import telemetry

from tests.conftest import wait_until

PLAIN = """\
# {stamp}
SHARED = []


def note(value, log=[]):
    log.append(value)
    return list(log)


def main():
    SHARED.append(mh.config["tag"])
    mh.statics["shared"] = list(SHARED)
    mh.statics["log"] = note(mh.config["tag"])
"""

POINTED = """\
# {stamp}
SHARED = []


def note(value, log=[]):
    log.append(value)
    return list(log)


def main():
    SHARED.append(mh.config["tag"])
    mh.statics["shared"] = list(SHARED)
    mh.statics["log"] = note(mh.config["tag"])
    while mh.running:
        mh.reconfig_point("P")
        mh.sleep(0.005)
"""


@pytest.fixture
def bus():
    bus = SoftwareBus(sleep_scale=0.01)
    bus.add_host("local")
    yield bus
    bus.shutdown()


def _spec(template, stamp, points=()):
    return ModuleSpec(
        name="mod",
        inline_source=template.format(stamp=stamp),
        reconfig_points=list(points),
    )


class TestCompileOncePerText:
    def test_plain_instances_share_one_compile(self, bus, compile_calls):
        spec = _spec(PLAIN, "plain-once")
        modules = [
            bus.add_module(spec, instance=f"m{i}", machine="local") for i in range(5)
        ]
        assert compile_calls.count("<module mod>") == 1
        assert len({id(m.namespace["main"].__code__) for m in modules}) == 1
        for module in modules:
            module.start()
        assert compile_calls.count("<module mod>") == 1

    def test_reconfigurable_instances_share_one_compile(self, bus, compile_calls):
        spec = _spec(POINTED, "pointed-once", points=["P"])
        before = _prepare_module_cached.cache_info()
        modules = [
            bus.add_module(spec, instance=f"m{i}", machine="local", start=True)
            for i in range(5)
        ]
        after = _prepare_module_cached.cache_info()
        assert after.misses == before.misses + 1
        assert after.hits == before.hits + 4
        # ast.parse goes through compile() too, under another filename;
        # the module text itself is compiled exactly once.
        assert compile_calls.count("<module mod>") == 1
        assert len({id(m.transform.code) for m in modules}) == 1

    def test_compiled_counter_moves_on_a_miss_only(self, bus):
        rec = telemetry.enable(capacity=256)
        plain = _spec(PLAIN, "counter-plain")
        pointed = _spec(POINTED, "counter-pointed", points=["P"])
        for i in range(3):
            bus.add_module(plain, instance=f"p{i}", machine="local")
            bus.add_module(pointed, instance=f"r{i}", machine="local")
        assert rec.counter("module.compiled", key="mod") == 2

    def test_code_caches_stay_bounded(self):
        assert _compile_cached.cache_info().maxsize <= 128
        assert _prepare_module_cached.cache_info().maxsize <= 128


class TestInstancesShareNothingElse:
    @pytest.mark.parametrize(
        "template, points", [(PLAIN, ()), (POINTED, ("P",))], ids=["plain", "pointed"]
    )
    def test_module_level_mutables_and_defaults_are_per_instance(
        self, bus, template, points
    ):
        spec = _spec(template, "isolation", points)
        for tag in ("a", "b"):
            bus.add_module(
                spec, instance=tag, machine="local", attributes={"tag": tag}, start=True
            )
        for tag in ("a", "b"):
            statics = bus.get_module(tag).mh.statics
            wait_until(lambda: "log" in statics)
            assert statics["shared"] == [tag]
            assert statics["log"] == [tag]
        a, b = (bus.get_module(tag).namespace for tag in ("a", "b"))
        assert a is not b and a["SHARED"] is not b["SHARED"]
        assert a["note"] is not b["note"]
        assert a["note"].__code__ is b["note"].__code__

    def test_top_level_runs_at_load_on_the_loading_thread(self, bus):
        source = (
            "import threading\n"
            "mh.statics['loaded_on'] = threading.current_thread().name\n"
            "def main():\n"
            "    mh.statics['ran_on'] = threading.current_thread().name\n"
        )
        module = bus.add_module(
            ModuleSpec(name="toplevel", inline_source=source), machine="local"
        )
        assert module.state is ModuleState.LOADED
        assert module.mh.statics["loaded_on"] == threading.current_thread().name
        assert "ran_on" not in module.mh.statics
        module.start()
        wait_until(lambda: "ran_on" in module.mh.statics)
        assert module.mh.statics["ran_on"] == "module-toplevel"


class TestLoadedButNeverStarted:
    def test_missing_main_is_refused_at_start(self, bus):
        module = bus.add_module(
            ModuleSpec(name="nomain", inline_source="X = 1\n"), machine="local"
        )
        assert module.namespace["X"] == 1
        with pytest.raises(ModuleLifecycleError, match="no main"):
            module.start()

    def test_revive_of_a_loaded_never_started_instance_refuses(self, bus):
        module = bus.add_module(_spec(POINTED, "revive", ["P"]), machine="local")
        assert callable(module.namespace["main"])  # load built the namespace
        with pytest.raises(ModuleLifecycleError, match="never started"):
            module.revive(b"MHST-not-even-looked-at")
        assert module.state is ModuleState.LOADED
        assert module.thread is None
