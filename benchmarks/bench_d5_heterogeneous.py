"""D5 — heterogeneous state translation (paper Sections 1.2 and 5).

Paper: the abstract state format "permits executing modules to be moved
to different architectures"; the compiler-generated (here: interpreter-
executed) translation handles all machine-specific detail.

Measured here: translating a deep process state between every pair of
double-capable simulated architectures — correctness (the abstract state
is bit-identical at the high level after any chain of hops) and
throughput of the native->canonical->native path; plus the native memory
images differing across machines, which is *why* the abstract format is
needed.
"""

import itertools

import pytest

from repro.state.format import ScalarType
from repro.state.frames import ActivationRecord, ProcessState, StackState
from repro.state.machine import MACHINES

from benchmarks.conftest import report

PAIRS = [
    (a, b)
    for a, b in itertools.product(MACHINES, repeat=2)
    if MACHINES[a].float_bits == 64 and MACHINES[b].float_bits == 64
]


def deep_state(depth: int = 64) -> ProcessState:
    stack = StackState()
    stack.push_captured(ActivationRecord("compute", 4, "lllF", [4, depth, 0, 0.5]))
    for level in range(depth - 1):
        stack.push_captured(
            ActivationRecord("compute", 3, "lllF", [3, depth, level, level / 3.0])
        )
    stack.push_captured(ActivationRecord("main", 1, "llF", [1, depth, 0.0]))
    return ProcessState(
        module="compute",
        stack=stack,
        statics={"total": 123456, "name": "bench"},
        reconfig_point="R",
    )


@pytest.mark.benchmark(group="d5-heterogeneous")
@pytest.mark.parametrize("pair", PAIRS, ids=[f"{a}->{b}" for a, b in PAIRS])
def test_d5_translate_pair(benchmark, pair):
    source, target = MACHINES[pair[0]], MACHINES[pair[1]]
    state = deep_state()

    moved = benchmark(state.translate, source, target)
    assert moved.stack == state.stack
    assert moved.statics == state.statics


def test_d5_shape():
    state = deep_state()
    # A chain of hops across every architecture leaves the state intact.
    current = state
    chain = [MACHINES[name] for name, _ in PAIRS][:4]
    for source, target in zip(chain, chain[1:]):
        current = current.translate(source, target)
    assert current.stack == state.stack

    # Native images differ; canonical bytes do not.
    big = MACHINES["sparc-like"]
    little = MACHINES["vax-like"]
    spec = ScalarType("i")
    assert big.pack_native(spec, 2026) != little.pack_native(spec, 2026)
    normalized_a = ProcessState.from_bytes(state.to_bytes(big))
    normalized_b = ProcessState.from_bytes(state.to_bytes(little))
    normalized_a.source_machine = normalized_b.source_machine = ""
    assert normalized_a.to_bytes() == normalized_b.to_bytes()

    report(
        "D5",
        "abstract state moves across architectures; raw memory copies "
        "could not (native images differ)",
        f"{len(PAIRS)} machine pairs translated exactly; native int "
        f"images differ between {big.name} and {little.name}; canonical "
        f"bytes identical",
    )
