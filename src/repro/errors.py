"""Exception hierarchy for the ``repro`` reconfiguration platform.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch platform failures without masking programming errors in
their own code.  Sub-hierarchies mirror the package layout: state encoding,
source transformation, the software bus, and the reconfiguration layer each
have their own branch.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` platform."""


# ---------------------------------------------------------------------------
# Abstract process state / encoding
# ---------------------------------------------------------------------------


class StateError(ReproError):
    """Base class for abstract-process-state errors."""


class FormatError(StateError):
    """A capture/restore format string is malformed or inconsistent."""


class EncodingError(StateError):
    """A value could not be encoded into the canonical abstract format."""


class DecodingError(StateError):
    """A canonical byte stream could not be decoded."""


class MachineCompatibilityError(StateError):
    """A value representable on the source machine does not fit the target.

    Raised, for example, when an integer captured on a 64-bit host is
    restored on a simulated 32-bit host and exceeds its native int range.
    """


class HeapError(StateError):
    """Heap capture or restoration failed."""


# ---------------------------------------------------------------------------
# Source transformation (the paper's core contribution)
# ---------------------------------------------------------------------------


class TransformError(ReproError):
    """Base class for source-transformation errors."""


class UnsupportedConstructError(TransformError):
    """The module source uses a construct outside the supported subset.

    Carries the offending source line so diagnostics point at real code.
    """

    def __init__(self, message: str, lineno: int = 0, col: int = 0):
        super().__init__(message)
        self.lineno = lineno
        self.col = col

    def __str__(self) -> str:  # pragma: no cover - formatting only
        base = super().__str__()
        if self.lineno:
            return f"line {self.lineno}: {base}"
        return base


class CallGraphError(TransformError):
    """The static call graph could not be constructed or is inconsistent."""


class ReconfigGraphError(TransformError):
    """The reconfiguration graph is invalid (e.g. unreachable point)."""


class FlattenError(TransformError):
    """Control-flow flattening failed for a function body."""


# ---------------------------------------------------------------------------
# Runtime (module participation)
# ---------------------------------------------------------------------------


class RuntimeStateError(ReproError):
    """The MH runtime was used inconsistently (e.g. restore w/o state)."""


class CaptureError(RuntimeStateError):
    """State capture failed at a reconfiguration point."""


class RestoreError(RuntimeStateError):
    """State restoration failed in a cloned module."""


# ---------------------------------------------------------------------------
# Software bus (POLYLITH substrate)
# ---------------------------------------------------------------------------


class BusError(ReproError):
    """Base class for software-bus errors."""


class MILSyntaxError(BusError):
    """The configuration specification (MIL) failed to parse."""

    def __init__(self, message: str, lineno: int = 0, col: int = 0):
        super().__init__(message)
        self.lineno = lineno
        self.col = col

    def __str__(self) -> str:  # pragma: no cover - formatting only
        base = super().__str__()
        if self.lineno:
            return f"line {self.lineno}, col {self.col}: {base}"
        return base


class SpecError(BusError):
    """A module or application specification is invalid."""


class UnknownModuleError(BusError):
    """An operation referenced a module instance the bus does not know."""


class UnknownInterfaceError(BusError):
    """An operation referenced an interface a module does not declare."""


class BindingError(BusError):
    """A binding could not be created, found, or removed."""


class TransportError(BusError):
    """The message transport failed (connection, framing, delivery)."""


class ModuleLifecycleError(BusError):
    """A module lifecycle operation was invalid for its current state."""


class ModuleCrashedError(BusError):
    """A module's thread of control terminated with an exception."""

    def __init__(self, module: str, cause: BaseException):
        super().__init__(f"module {module!r} crashed: {cause!r}")
        self.module = module
        self.cause = cause


# ---------------------------------------------------------------------------
# Reconfiguration layer
# ---------------------------------------------------------------------------


class ReconfigError(ReproError):
    """Base class for reconfiguration-layer errors."""


class ReconfigTimeoutError(ReconfigError):
    """A module did not reach a reconfiguration point within the deadline."""


class ReconfigurationAborted(ReconfigError):
    """A replacement transaction failed and was rolled back.

    Carries the stage the transaction died in, the underlying cause, and
    the partially-filled :class:`ReconfigurationReport` so callers can
    see how far the transaction got before aborting.  ``rolled_back`` is
    False only if the rollback itself failed (the cause then carries the
    rollback error as ``__context__``).

    ``args`` is ``(message, recon_id, attempts)``: the reconfiguration
    id (keys the telemetry event log) and the attempt count of the
    failing stage travel with the exception, so an abort can be
    correlated with its retry history and its trace dump without
    reaching into the report object.
    """

    def __init__(
        self,
        stage: str,
        cause: BaseException,
        report=None,
        rolled_back: bool = True,
        recon_id: str = "",
        attempts: int = 1,
    ):
        message = (
            f"reconfiguration aborted at stage {stage!r}: "
            f"{type(cause).__name__}: {cause}"
        )
        if recon_id:
            message += f" [{recon_id}, attempt {attempts}]"
        super().__init__(message, recon_id, attempts)
        self.stage = stage
        self.cause = cause
        self.report = report
        self.rolled_back = rolled_back
        self.recon_id = recon_id
        self.attempts = attempts

    def __str__(self) -> str:
        # With recon_id/attempts in args, the default multi-arg
        # Exception.__str__ would render the whole tuple.
        return str(self.args[0]) if self.args else ""


class ReconfigurationTimeout(ReconfigurationAborted, ReconfigTimeoutError):
    """The transaction aborted because a wait deadline expired.

    Inherits :class:`ReconfigTimeoutError` so callers written against
    the pre-transactional API (``except ReconfigTimeoutError``) still
    catch timeout-driven aborts.
    """


# ---------------------------------------------------------------------------
# Fault injection (testing)
# ---------------------------------------------------------------------------


class InjectedFault(ReproError):
    """A deterministic fault fired at a named injection site.

    Only ever raised while a :class:`repro.runtime.faults.FaultPlan` is
    installed — production code paths never construct one spontaneously.
    """

    def __init__(self, site: str, mode: str = "crash"):
        super().__init__(f"injected {mode} fault at site {site!r}")
        self.site = site
        self.mode = mode
