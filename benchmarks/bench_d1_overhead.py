"""D1 — steady-state run-time overhead vs checkpointing (paper Section 4).

Paper: "Our approach does not use checkpointing ... the run-time cost is
merely that of periodically testing the flags installed for
reconfiguration.  The cost of capturing the process state is paid only
when a reconfiguration is performed, instead of at regular intervals
during execution."

Measured here, on the same accumulation workload:

- the original (unprepared) module loop,
- the prepared module loop (the flag test plus the resume-value tests
  of structured resume: the loop test reads ``_mh_r`` before ``i < n``,
  and the point's label tests it once more),
- the same loop in a clone after a restore (the replacement runs the
  same prepared code, so it pays the same),
- checkpointing at intervals 1, 100, and 1000 steps.

Expected shape: prepared-module cost is a constant factor of at most
1.5 over the original, for the module and for its clone, and
*independent of reconfiguration frequency*; checkpointing cost grows as
the interval shrinks, and at interval=1 dwarfs the flag tests.
"""

import pytest

from repro.baselines.checkpoint import CheckpointedLoop
from repro.core import prepare_module
from repro.runtime.mh import MH, ModuleStop
from repro.runtime.refs import Ref

from benchmarks.conftest import DirectPort, median_ratio, report

STEPS = 5_000
#: The clone's loop runs longer, so that its one decode and restore
#: (timed in D2 and A5) stays a small share of what is measured here.
CLONE_STEPS = 4 * STEPS

WORKLOAD = """\
def main():
    n = mh.read1('inp')
    i = 0
    acc = 0.0
    while i < n:
        mh.reconfig_point('P')
        acc = acc + float(i) * 1.0001
        i = i + 1
    mh.write('out', 'F', acc)
"""

UNPREPARED = WORKLOAD.replace("        mh.reconfig_point('P')\n", "")


def _expected(steps: int = STEPS) -> float:
    return sum(float(i) * 1.0001 for i in range(steps))


def _main(code, mh: MH, queues) -> DirectPort:
    """Run ``code``'s main under ``mh``, reading from ``queues``."""
    port = DirectPort(mh, queues)
    mh.attach_port(port)
    namespace = {"mh": mh, "Ref": Ref}
    exec(code, namespace)
    try:
        namespace["main"]()
    except ModuleStop:  # pragma: no cover
        pass
    return port


def _run_module(code, steps: int = STEPS) -> float:
    return _main(code, MH("m"), {"inp": [steps]}).out[0][1][0]


def _capture_at_first_point(code, steps: int) -> bytes:
    """Run the prepared loop with a reconfiguration already requested:
    it captures at its first arrival at P, before any step."""
    mh = MH("m")
    mh.request_reconfig()
    _main(code, mh, {"inp": [steps]})
    assert mh.divulged.is_set()
    return mh.outgoing_packet


def _run_clone(code, packet: bytes) -> float:
    """Restore a clone from ``packet`` and run the whole loop in it."""
    mh = MH("m", status="clone")
    mh.incoming_packet = packet
    return _main(code, mh, {}).out[0][1][0]


@pytest.fixture(scope="module")
def compiled():
    prepared = prepare_module(WORKLOAD, "m").source
    return {
        "original": compile(UNPREPARED, "<original>", "exec"),
        "prepared": compile(prepared, "<prepared>", "exec"),
    }


@pytest.mark.benchmark(group="d1-overhead")
def test_d1_original_module(benchmark, compiled):
    result = benchmark(_run_module, compiled["original"])
    assert result == pytest.approx(_expected())


@pytest.mark.benchmark(group="d1-overhead")
def test_d1_prepared_module_flag_tests(benchmark, compiled):
    result = benchmark(_run_module, compiled["prepared"])
    assert result == pytest.approx(_expected())


def _checkpoint_step(state):
    return {
        "i": state["i"] + 1,
        "acc": state["acc"] + float(state["i"]) * 1.0001,
    }


@pytest.mark.benchmark(group="d1-overhead")
@pytest.mark.parametrize("interval", [1, 100, 1000])
def test_d1_checkpointing(benchmark, interval):
    def run():
        loop = CheckpointedLoop(_checkpoint_step, {"i": 0, "acc": 0.0}, interval)
        loop.run(STEPS)
        return loop.state["acc"]

    result = benchmark(run)
    assert result == pytest.approx(_expected())


def test_d1_shape(compiled):
    """The comparative claim, asserted directly on wall-clock numbers."""
    import time

    def time_of(fn, *args):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            fn(*args)
            best = min(best, time.perf_counter() - start)
        return best

    packet = _capture_at_first_point(compiled["prepared"], CLONE_STEPS)
    restored = _run_clone(compiled["prepared"], packet)
    assert restored == pytest.approx(_expected(CLONE_STEPS))

    def original():
        _run_module(compiled["original"])

    def prepared():
        _run_module(compiled["prepared"])

    def original_long():
        _run_module(compiled["original"], CLONE_STEPS)

    def clone():
        _run_clone(compiled["prepared"], packet)

    prepared_factor = median_ratio(prepared, original)
    clone_factor = median_ratio(clone, original_long)
    t_original = time_of(original)
    t_prepared = time_of(prepared)

    def run_checkpoint(interval):
        loop = CheckpointedLoop(_checkpoint_step, {"i": 0, "acc": 0.0}, interval)
        loop.run(STEPS)

    t_ck1 = time_of(run_checkpoint, 1)
    t_ck1000 = time_of(run_checkpoint, 1000)

    # The flag test and the resume-value tests cost a small constant
    # factor, in the prepared module and in its clone after a restore.
    assert prepared_factor <= 1.5, prepared_factor
    assert clone_factor <= 1.5, clone_factor
    # Checkpointing every step costs far more than flag tests.
    assert t_ck1 > t_prepared, (t_ck1, t_prepared)
    # And shrinking the interval makes it worse.
    assert t_ck1 > 3 * t_ck1000, (t_ck1, t_ck1000)

    report(
        "D1",
        "run-time cost is merely flag testing; checkpointing pays "
        "capture cost at every interval",
        f"original {t_original * 1e3:.2f}ms, prepared {t_prepared * 1e3:.2f}ms "
        f"(x{prepared_factor:.2f}; clone after restore x{clone_factor:.2f} "
        f"over {CLONE_STEPS} steps; median of 15 rounds of best-of-5), "
        f"checkpoint@1 {t_ck1 * 1e3:.1f}ms (x{t_ck1 / t_prepared:.1f} vs "
        f"prepared), checkpoint@1000 {t_ck1000 * 1e3:.1f}ms",
    )
