"""Structured resume: a prepared procedure keeps its own structure and is
steered on restore by the resume value ``_mh_r``.

Each program below puts a label where one kind of guard matters — a
labelled loop or branch that a later label's resume must pass by, a call
edge before another label, a loop holding several labels, a ``break`` or
``continue`` before a label — and is interrupted at *every* arrival at a
reconfiguration point; the interrupted run's output followed by its
clone's must be the uninterrupted program's output.
"""

import pytest

from repro.core import prepare_module
from repro.runtime.mh import MH

from tests.core.helpers import ScriptedPort, run_module

LEAF = """

def leaf(x: int):
    y = x + 1
    mh.reconfig_point('LEAF')
    return y
"""

PROGRAMS = {
    # A labelled while, then a later label: resuming at P2 must not
    # re-enter the loop, and an if/else before P2 must take no branch.
    "loop-then-later-label": """
def main():
    n = mh.read1('in')
    total = 0
    i = 0
    while i < n:
        mh.reconfig_point('P1')
        total = total + i
        i = i + 1
    if total > 100:
        total = total - 100
    else:
        total = total + 1000
    mh.reconfig_point('P2')
    mh.write('out', 'l', total)
""",
    # Two labels in one loop (a membership test), the first a call edge,
    # and one more after the loop.
    "two-labels-in-a-loop": """
def main():
    n = mh.read1('in')
    acc = 0
    k = 0
    while k < n:
        k = k + 1
        acc = leaf(acc)
        mh.write('out', 'l', acc)
        mh.reconfig_point('P')
        acc = acc * 2
    mh.reconfig_point('Q')
    mh.write('out', 'l', acc)
""" + LEAF,
    # break and continue before the label, in nested loops.
    "break-continue-before-label": """
def main():
    n = mh.read1('in')
    out = 0
    for i in range(n):
        if i == 1:
            continue
        j = 0
        while True:
            j = j + 1
            if j > i:
                break
            if j % 2 == 0:
                continue
            mh.reconfig_point('P')
            out = out + j
        if out > 20:
            break
    mh.write('out', 'l', out)
""",
    # Labels in both branches of an if, and in an elif, inside a loop,
    # with a label after the if in the same block.
    "labels-in-branches": """
def main():
    n = mh.read1('in')
    a = 0
    b = 0
    for i in range(n):
        if i % 3 == 0:
            a = leaf(a)
        elif i % 3 == 1:
            mh.reconfig_point('B')
            b = b + i
        else:
            b = leaf(b)
        mh.reconfig_point('C')
        mh.write('out', 'l', a * 1000 + b)
""" + LEAF,
}


class _CountingMH(MH):
    """``mh.reconfig`` reads true at the ``fire_at``-th arrival at a point."""

    def __init__(self, *args, fire_at=0, **kwargs):
        self.arrivals = 0
        self.fire_at = fire_at
        self._requested = False
        super().__init__(*args, **kwargs)

    @property
    def reconfig(self):
        if self._requested:
            return True
        self.arrivals += 1
        return self.arrivals == self.fire_at

    @reconfig.setter
    def reconfig(self, value):
        self._requested = value


def _run(source, mh, queues):
    port = ScriptedPort(mh, queues)
    mh.attach_port(port)
    run_module(source, mh)
    return port


@pytest.mark.parametrize("prune", [False, True], ids=["full", "pruned"])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_interrupt_at_every_point_arrival_resumes_exactly(name, prune):
    source = PROGRAMS[name]
    queues = {"in": [6]}
    expected = _run(source, MH("m"), queues).out
    prepared = prepare_module(source, "m", prune_dead_captures=prune).source
    counter = _CountingMH("m")
    assert _run(prepared, counter, queues).out == expected
    assert counter.arrivals > 3
    for fire_at in range(1, counter.arrivals + 1):
        old = _CountingMH("m", fire_at=fire_at)
        old_port = _run(prepared, old, queues)
        assert old.divulged.is_set(), fire_at
        clone = MH("m", status="clone")
        clone.incoming_packet = old.outgoing_packet
        clone_port = _run(prepared, clone, dict(old_port.queues))
        assert old_port.out + clone_port.out == expected, fire_at
        assert clone.getstatus() == "original"


class TestGuardShapes:
    def test_a_loop_holding_two_labels_tests_membership(self):
        text = prepare_module(PROGRAMS["two-labels-in-a-loop"], "m").source
        assert "while _mh_r in (1, 2) or (not _mh_r and k < n):" in text

    def test_a_loop_before_a_later_label_is_passed_by(self):
        text = prepare_module(PROGRAMS["loop-then-later-label"], "m").source
        assert "while _mh_r == 1 or (not _mh_r and i < n):" in text
        # The if/else between the two labels takes no branch on the way.
        assert "if not _mh_r:\n        if total > 100:" in text

    def test_a_call_before_a_later_label_is_skipped(self):
        text = prepare_module(PROGRAMS["two-labels-in-a-loop"], "m").source
        assert "elif not _mh_r:\n            acc = leaf(acc)" in text
