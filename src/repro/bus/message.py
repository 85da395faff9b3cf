"""Messages carried by the software bus.

Every message crossing a (simulated) machine boundary travels in the
canonical abstract encoding: the sender's host encodes with its own
:class:`~repro.state.machine.MachineProfile`, the receiver decodes with
its own — this is POLYLITH's "data transformation needed to communicate
across heterogeneous hosts", applied to ordinary messages as well as to
process-state packets.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import EncodingError, FormatError
from repro.state.encoding import decode_values, encode_values
from repro.state.format import check_arity
from repro.state.machine import MachineProfile

_sequence = itertools.count(1)
_sequence_lock = threading.Lock()


def _next_seq() -> int:
    with _sequence_lock:
        return next(_sequence)


@dataclass
class Message:
    """One asynchronous message on a binding.

    ``fmt``/``values`` follow the interface's declared pattern; ``source``
    identifies the sending (instance, interface) endpoint for tracing and
    for the reply routing of client/server interfaces.
    """

    values: List[object]
    fmt: str = ""
    source_instance: str = ""
    source_interface: str = ""
    seq: int = field(default_factory=_next_seq)

    def validated(self) -> "Message":
        """Check values against the declared format (raises FormatError)."""
        if self.fmt:
            check_arity(self.fmt, self.values)
        return self

    # -- wire form ------------------------------------------------------------

    def to_wire(self, machine: Optional[MachineProfile]) -> bytes:
        """Canonical encoding as produced on the *sender's* machine.

        Every value must be canonically encodable: a message that only
        ever crossed same-process queues could carry arbitrary objects,
        but the moment it is routed to another process (worker pool, TCP
        daemon) it must survive the wire.  Encoder failures are rewrapped
        with the sending endpoint so the offending write is findable.
        """
        try:
            header = encode_values(
                "ssl",
                [self.source_instance, self.source_interface, self.seq],
                machine,
            )
            if self.fmt:
                body = encode_values(self.fmt, self.values, machine)
            else:
                body = encode_values(
                    "a" * len(self.values), self.values, machine
                )
        except (EncodingError, FormatError) as exc:
            # FormatError covers values whose type cannot even be
            # inferred (locks, sockets, ...) on format-less messages.
            raise EncodingError(
                f"message from {self.source_instance or '?'}."
                f"{self.source_interface or '?'} is not wire-encodable "
                f"(required for cross-process delivery): {exc}"
            ) from exc
        return header + body

    @classmethod
    def from_wire(
        cls, data: bytes, machine: Optional[MachineProfile]
    ) -> "Message":
        """Decode on the *receiver's* machine (self-describing body)."""
        values = decode_values(data, machine)
        if len(values) < 3:
            from repro.errors import DecodingError

            raise DecodingError("message wire form too short")
        source_instance, source_interface, seq = values[:3]
        return cls(
            values=list(values[3:]),
            fmt="",
            source_instance=str(source_instance),
            source_interface=str(source_interface),
            seq=int(seq),  # type: ignore[arg-type]
        )

    def transferred(
        self,
        sender: Optional[MachineProfile],
        receiver: Optional[MachineProfile],
    ) -> "Message":
        """The message as seen after crossing sender -> receiver.

        Same-machine delivery is a no-op; cross-machine delivery round-trips
        the canonical wire form, enforcing representability on both ends.
        """
        if sender is receiver or sender is None or receiver is None:
            return self
        if sender.name == receiver.name:
            return self
        return Message.from_wire(self.to_wire(sender), receiver)

