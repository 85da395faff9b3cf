"""Tests for the bus's machines (``SoftwareBus.hosts``): a machine is its
:class:`~repro.state.machine.MachineProfile`."""

import pytest

from repro.bus.bus import SoftwareBus
from repro.bus.spec import ModuleSpec
from repro.errors import BusError
from repro.state.machine import Endianness, catalogued


class TestHostRegistry:
    def test_add_with_profile_rebrands(self, sparc):
        bus = SoftwareBus(sleep_scale=0.0)
        host = bus.add_host("alpha", sparc)
        assert host.name == "alpha"
        assert host.endianness is sparc.endianness
        assert host.int_bits == sparc.int_bits
        assert bus.hosts["alpha"] is host
        assert sparc.name == "sparc-like"  # the catalogue is untouched

    def test_add_default_profile(self):
        host = SoftwareBus(sleep_scale=0.0).add_host("plain")
        assert host.name == "plain"
        assert host.endianness is Endianness.LITTLE

    def test_duplicate_rejected(self):
        bus = SoftwareBus(sleep_scale=0.0)
        bus.add_host("alpha")
        with pytest.raises(BusError, match="already registered"):
            bus.add_host("alpha")

    def test_ensure_autoregisters(self, sparc):
        """An unknown ``machine=`` is registered with the default profile;
        a known one is placed on as it is."""
        bus = SoftwareBus(sleep_scale=0.0)
        bus.add_host("big", sparc)
        spec = ModuleSpec(name="idle", inline_source="def main():\n    pass\n")
        auto = bus.add_module(spec, instance="a", machine="auto")
        big = bus.add_module(spec, instance="b", machine="big")
        assert auto.host is bus.hosts["auto"]
        assert auto.host.name == "auto"
        assert auto.host.endianness is Endianness.LITTLE
        assert big.host is bus.hosts["big"]
        assert big.mh.machine is big.host
        bus.shutdown()

    def test_add_catalogued(self):
        """A catalogued architecture under a machine's own name."""
        bus = SoftwareBus(sleep_scale=0.0)
        host = bus.add_host("bigbox", catalogued("sparc-like"))
        assert host.name == "bigbox"
        assert host.endianness is Endianness.BIG

    def test_add_catalogued_unknown(self):
        with pytest.raises(BusError, match="catalogue"):
            catalogued("cray-like")
