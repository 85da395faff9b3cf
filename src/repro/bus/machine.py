"""Simulated hosts.

Each host carries a :class:`~repro.state.machine.MachineProfile`; a
module instance placed on a host inherits its architecture, and every
message or state packet crossing two hosts with different profiles is
round-tripped through the canonical abstract encoding (see
:meth:`repro.bus.message.Message.transferred`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.errors import BusError
from repro.state.machine import MACHINES, Endianness, MachineProfile


def catalogued(architecture: str) -> MachineProfile:
    """The catalogue profile named ``architecture``, else a ``BusError``."""
    try:
        return MACHINES[architecture]
    except KeyError:
        raise BusError(
            f"unknown architecture {architecture!r}; catalogue: "
            f"{', '.join(sorted(MACHINES))}"
        ) from None


@dataclass
class Host:
    """A named machine modules can be placed on."""

    name: str
    profile: MachineProfile

    def describe(self) -> str:
        return f"host {self.name} ({self.profile.describe()})"


class HostRegistry:
    """The set of machines known to a software bus."""

    def __init__(self):
        self._hosts: Dict[str, Host] = {}

    def add(self, name: str, profile: Optional[MachineProfile] = None) -> Host:
        if name in self._hosts:
            raise BusError(f"host {name!r} already registered")
        if profile is None:
            profile = MachineProfile(name, Endianness.LITTLE)
        elif profile.name != name:
            # Rebrand the architecture profile with the host's name so
            # captured states record *which machine* they came from.
            profile = replace(profile, name=name)
        host = Host(name=name, profile=profile)
        self._hosts[name] = host
        return host

    def add_catalogued(self, name: str, architecture: str) -> Host:
        """Register a host with one of the catalogue architectures."""
        return self.add(name, catalogued(architecture))

    def adopt(self, host: Host) -> Host:
        """Register a pre-built host (a transport's worker slot or machine
        daemon), idempotently: placing two modules on the same slot must
        not trip the duplicate-registration guard."""
        existing = self._hosts.get(host.name)
        if existing is not None:
            return existing
        self._hosts[host.name] = host
        return host

    def get(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise BusError(f"unknown host {name!r}") from None

    def ensure(self, name: str) -> Host:
        """Get a host, auto-registering a default profile if unknown."""
        if name not in self._hosts:
            return self.add(name)
        return self._hosts[name]

    def names(self):
        return sorted(self._hosts)

    def __contains__(self, name: str) -> bool:
        return name in self._hosts

    def __len__(self) -> int:
        return len(self._hosts)
