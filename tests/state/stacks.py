"""Activation-record stacks shaped like the ones real captures produce."""

from repro.state.frames import ActivationRecord, ProcessState, StackState
from repro.state.pointers import SymbolicPointer

#: The capture format of the recursive KV shard's ``descend`` frame: the
#: resume location, ``n``, then its five locals.
DESCEND_FMT = "llaaaaa"


def deep_state_stack(depth: int = 256) -> StackState:
    """The stack of a KV shard serving at the bottom of a recursion.

    Capture order: the serving ``descend`` frame (location 3, its locals
    live), ``depth - 1`` idle ``descend`` frames that all repeat one
    header (location 2, locals ``None``), then ``main``.
    """
    request = ["loader_0", "put", "k0.0001", "v1"]
    records = [
        ActivationRecord("descend", 3, DESCEND_FMT, [3, 1, request, *request])
    ]
    for n in range(2, depth + 1):
        records.append(
            ActivationRecord("descend", 2, DESCEND_FMT, [2, n] + [None] * 5)
        )
    records.append(ActivationRecord("main", 1, "l", [1]))
    return StackState(records)


def deep_state(depth: int = 256, store_size: int = 64) -> ProcessState:
    """A whole packet's state around :func:`deep_state_stack`."""
    return ProcessState(
        module="shard_0",
        stack=deep_state_stack(depth),
        statics={"serves": 12},
        heap={
            "image": {
                "roots": {"store": SymbolicPointer("heap:0", 0)},
                "segments": {
                    "heap:0": {f"k0.{i:04d}": f"v{i}" for i in range(store_size)}
                },
            },
            "files": [],
        },
        reconfig_point="Q",
        source_machine="sparc-like",
    )
