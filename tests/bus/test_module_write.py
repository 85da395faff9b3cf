"""A module's write: the port's per-interface sender and the one-pass check.

``Message.validated()`` runs the compiled plan's checks over the values
in one pass and goes through :func:`check_arity` only to word a refusal,
so its contract is ``check_arity``'s: it accepts exactly what
``check_arity(fmt, values)`` accepts, and otherwise raises the same class
with the same text.  The port resolves an interface's declared send
format on its first write; a write on an interface that cannot send is
refused on every call, and a module a :class:`ModuleHost` runs writes
through the same port.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bus.bus import SoftwareBus
from repro.bus.host import ModuleHost
from repro.bus.interfaces import InterfaceDecl, Role
from repro.bus.message import Message
from repro.bus.module import prepared_source_for
from repro.bus.spec import BindingSpec, ModuleSpec
from repro.errors import FormatError, UnknownInterfaceError
from repro.runtime.mh import SleepPolicy
from repro.state.encoding import _PLANS, check_arity
from repro.state.format import parse_format
from repro.state.machine import MACHINES, renamed

from tests.bus.test_message_carrier import any_values, spec_formats, values_for

IDLE = "def main():\n    pass\n"


@pytest.fixture(autouse=True, scope="module")
def _plans_as_found():
    # The property compiles many formats; leave the one plan cache as
    # this module found it, for the cache's own tests.
    found = dict(_PLANS)
    yield
    _PLANS.clear()
    _PLANS.update(found)


# -- validated() against check_arity ------------------------------------------

@st.composite
def formatted(draw):
    """A format and its values as the carrier's property draws them
    (nested ``[``/``(``/``{`` specs; ``None``, ``bool`` and values of
    every other kind as misfits), now and then one value short or over."""
    fmt = draw(st.lists(spec_formats(), min_size=1, max_size=4).map("".join))
    values = [draw(values_for(spec)) for spec in parse_format(fmt)]
    cut = draw(st.integers(0, 9))
    if cut == 0:
        values = values[:-1]  # one value short
    elif cut == 1:
        values.append(draw(any_values))  # one value over
    return fmt, values


def outcome(check):
    try:
        check()
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)
    return "accepted"


#: Cases the strategy reaches rarely: a value short or over, ``bool``
#: under ``i``/``l`` at the top and nested, ``None`` under every letter
#: and nested, and formats that do not parse.
EXAMPLES = [
    ("ss", ["k"]),
    ("s", ["k", "v"]),
    ("i", [True]),
    ("l", [False]),
    ("il", [1, True]),
    ("[l]", [[1, True]]),
    ("(il)", [(1,)]),
    ("{sl}", [{"k": True}]),
    ("s", [1]),
    ("(", ["x"]),
    ("q", [1]),
    *((char, [None]) for char in "bilfFsBpna"),
    *((f"[{char}]({char}{char}){{s{char}}}", [[None], (None, None), {"k": None}])
      for char in "bilfFsBpna"),
]


def with_examples(test):
    for case in EXAMPLES:
        test = example(case=case)(test)
    return test


@with_examples
@given(case=formatted())
@settings(max_examples=400, deadline=None)
def test_validated_accepts_and_refuses_as_check_arity_does(case):
    fmt, values = case
    message = Message(values, fmt, "src", "out")
    expected = outcome(lambda: check_arity(fmt, values))
    assert outcome(message.validated) == expected
    if expected == "accepted":
        assert message.validated() is message


# -- the port ------------------------------------------------------------------


def shard_spec():
    return ModuleSpec(
        name="shard",
        inline_source=IDLE,
        interfaces=[
            InterfaceDecl("requests", Role.SERVER, pattern="ssss", returns="ss"),
            InterfaceDecl("feed", Role.USE, pattern="l"),
            InterfaceDecl("out", Role.DEFINE, pattern="l"),
        ],
    )


def loader_spec():
    return ModuleSpec(
        name="loader",
        inline_source=IDLE,
        interfaces=[
            InterfaceDecl("requests", Role.CLIENT, pattern="ssss", returns="ss"),
            InterfaceDecl("inp", Role.USE, pattern="l"),
        ],
    )


@pytest.fixture
def bus():
    bus = SoftwareBus(sleep_scale=0.0)
    bus.add_module(shard_spec(), machine="alpha")
    bus.add_module(loader_spec(), machine="alpha")
    bus.add_binding(BindingSpec("loader", "requests", "shard", "requests"))
    bus.add_binding(BindingSpec("shard", "out", "loader", "inp"))
    yield bus
    bus.shutdown()


class TestPort:
    def test_a_write_on_a_use_interface_is_refused_on_every_call(self, bus):
        mh = bus.get_module("shard").mh
        for _ in range(3):
            with pytest.raises(UnknownInterfaceError) as refused:
                mh.write("feed", "l", 1)
            assert str(refused.value) == (
                "shard: interface 'feed' (use) cannot send"
            )
            with pytest.raises(UnknownInterfaceError, match="cannot send"):
                mh.write_to("feed", "loader", "l", 1)
        # A sending interface written in between changes nothing.
        mh.write("out", "l", 1)
        with pytest.raises(UnknownInterfaceError, match="cannot send"):
            mh.write("feed", "", 1)

    def test_an_empty_fmt_sends_under_the_declared_format(self, bus):
        shard, loader = bus.get_module("shard"), bus.get_module("loader")
        for _ in range(2):  # the first write resolves, the second reuses
            shard.mh.write_to("requests", "loader", "", "k", "v")
            shard.mh.write("out", "", 7)
        replies = loader.queue("requests").drain()
        assert [(m.fmt, m.values) for m in replies] == [("ss", ["k", "v"])] * 2
        assert [m.source_instance for m in replies] == ["shard", "shard"]
        fed = loader.queue("inp").drain()
        assert [(m.fmt, m.values) for m in fed] == [("l", [7])] * 2
        with pytest.raises(FormatError, match="'s' in 'ss'"):
            shard.mh.write_to("requests", "loader", "", "k", 5)
        with pytest.raises(FormatError, match="declares 1 values but 2"):
            shard.mh.write("out", "", 1, 2)

    def test_an_explicit_fmt_overrides_the_declared_one(self, bus):
        bus.get_module("shard").mh.write("out", "s", "x")
        (message,) = bus.get_module("loader").queue("inp").drain()
        assert (message.fmt, message.values) == ("s", ["x"])


class TestHostedPort:
    """A module a :class:`ModuleHost` runs writes through the same port."""

    @pytest.fixture
    def core(self):
        core = ModuleHost(
            renamed(MACHINES["sparc-like"], "unit-host"),
            SleepPolicy(scale=0.0),
            lambda command: None,
        )
        for key, spec in (("shard#1", shard_spec()), ("loader#2", loader_spec())):
            core.handle(
                "add",
                [key, spec.name, spec.to_abstract(prepared_source_for(spec)), "clone"],
            )
        core.handle(
            "set_routes",
            [
                [
                    ["shard", "requests", [["loader#2", "requests", "loader"]]],
                    ["shard", "out", [["loader#2", "inp", "loader"]]],
                ]
            ],
        )
        yield core
        core.stop_all()

    def test_a_hosted_write_resolves_refuses_and_delivers(self, core):
        shard, loader = core.modules["shard#1"], core.modules["loader#2"]
        assert shard.bus is core
        for _ in range(2):
            shard.mh.write_to("requests", "loader", "", "k", "v")
            shard.mh.write("out", "", 3)
            with pytest.raises(UnknownInterfaceError, match="cannot send"):
                shard.mh.write("feed", "l", 1)
        replies = loader.queue("requests").drain()
        assert [(m.fmt, m.values) for m in replies] == [("ss", ["k", "v"])] * 2
        fed = loader.queue("inp").drain()
        assert [(m.fmt, m.values) for m in fed] == [("l", [3])] * 2
