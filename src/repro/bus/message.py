"""Messages carried by the software bus.

A message that changes machine takes POLYLITH's "data transformation
needed to communicate across heterogeneous hosts": the sender's
:class:`~repro.state.machine.MachineProfile` checks what it writes and
the receiver's what it reads, exactly as for a process-state packet.
Where bytes travel — a link to another process, a host, a moved queue
— that is the canonical abstract encoding: the sender encodes under its
own profile, the receiver decodes under its own.  Between two simulated
machines inside the bus process the message is *carried* instead
(:meth:`Message.transferred`): the format plan's carriers return the
values that round trip would read back, and raise what it would raise,
without building the bytes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import call
from typing import List, Optional

from repro.errors import DecodingError, EncodingError, FormatError
from repro.state.encoding import (
    _PLANS,
    carry_values,
    check_arity,
    decode_values,
    encode_values,
    format_plan,
)
from repro.state.machine import MachineProfile


def changes_machine(
    sender: Optional[MachineProfile], receiver: Optional[MachineProfile]
) -> bool:
    """Whether a delivery from ``sender`` to ``receiver`` is translated.

    The one identity-transfer rule: a delivery between the same profile,
    between profiles of the same machine name, or with no profile on
    either side hands the message over as written.  The routing table
    (``_RouteEntry``) and :meth:`Message.transferred` both ask this.
    """
    return not (
        sender is receiver
        or sender is None
        or receiver is None
        or sender.name == receiver.name
    )


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
    #: Process-wide, increasing: ``next()`` on a count is one C call,
    #: atomic under the interpreter lock, so no lock is taken.
    seq: int = field(default_factory=itertools.count(1).__next__)

    def validated(self) -> "Message":
        """Check values against the declared format (raises FormatError).

        One pass of the compiled plan's checks over the values, no list
        built; only a refused message goes through :func:`check_arity`,
        which words the error.
        """
        fmt = self.fmt
        if fmt:
            values = self.values
            matchers = (_PLANS.get(fmt) or format_plan(fmt)).matchers
            if len(matchers) != len(values) or not all(
                map(call, matchers, values)
            ):
                check_arity(fmt, values)
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
        return cls._received(decode_values(data, machine))

    @classmethod
    def _received(cls, values: List[object]) -> "Message":
        """The message a receiver reads from its header and body values,
        however they arrived: a header that is not (str, str, int) is a
        :class:`DecodingError`."""
        if len(values) < 3:
            raise DecodingError("message wire form too short")
        source_instance, source_interface, seq, *body = values
        if (
            type(source_instance) is not str
            or type(source_interface) is not str
            or type(seq) is not int
        ):
            raise DecodingError(
                f"malformed message header {values[:3]!r}: "
                f"expected (str, str, int)"
            )
        return cls(body, "", source_instance, source_interface, seq)

    def transferred(
        self,
        sender: Optional[MachineProfile],
        receiver: Optional[MachineProfile],
    ) -> "Message":
        """The message as seen after crossing sender -> receiver.

        A delivery that does not change machine (:func:`changes_machine`)
        is a no-op.  Otherwise the message is carried, header and body as
        the wire writes them in one stream: the result, or the exception,
        is exactly that of ``Message.from_wire(self.to_wire(sender),
        receiver)`` — the sender's checks in writer order, then the
        receiver's in reader order where it can refuse what the sender
        accepted — with fresh containers, plain scalar types, and no
        bytes built.  A value the sender refuses is refused by
        :meth:`to_wire`, so the error names the endpoint as it always has.
        """
        if not changes_machine(sender, receiver):
            return self
        try:
            carried = carry_values(
                "ssl" + (self.fmt or "a" * len(self.values)),
                [self.source_instance, self.source_interface, self.seq, *self.values],
                sender,
                receiver,
            )
        except (EncodingError, FormatError):
            self.to_wire(sender)  # raises the refusal, worded as on the wire
            raise
        return Message._received(carried)
