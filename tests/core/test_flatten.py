"""Tests for control-flow flattening: semantic equivalence + resume.

The flattened module must behave *identically* to the original when no
reconfiguration is requested (the paper's transformed module is the same
program plus dormant blocks), and must capture/restore correctly when one
is.
"""

import re

import pytest

from repro.core import prepare_module
from repro.runtime.mh import MH
from repro.runtime.refs import Ref

from tests.core.helpers import ScriptedPort, run_module

# A corpus of modules exercising every supported construct.  Each entry:
# (name, source, scripted queues, expected writes).  All have main() call
# leaf() which holds the reconfiguration point, so every function is
# instrumented and flattened.
CORPUS = [
    (
        "if-else-chain",
        """
def main():
    x = mh.read1('in')
    if x > 10:
        y = 'big'
    elif x > 5:
        y = 'mid'
    else:
        y = 'small'
    leaf(x)
    mh.write('out', 's', y)

def leaf(x: int):
    mh.reconfig_point('R')
""",
        {"in": [7]},
        [("out", ["mid"])],
    ),
    (
        "while-accumulate",
        """
def main():
    n = mh.read1('in')
    total = 0
    i = 0
    while i < n:
        total = total + i
        i = i + 1
    leaf(total)
    mh.write('out', 'l', total)

def leaf(x: int):
    mh.reconfig_point('R')
""",
        {"in": [5]},
        [("out", [10])],
    ),
    (
        "for-range-break-continue",
        """
def main():
    n = mh.read1('in')
    out = 0
    for i in range(n):
        if i == 2:
            continue
        if i == 7:
            break
        out = out + i
    leaf(out)
    mh.write('out', 'l', out)

def leaf(x: int):
    mh.reconfig_point('R')
""",
        {"in": [10]},
        [("out", [0 + 1 + 3 + 4 + 5 + 6])],
    ),
    (
        "nested-loops",
        """
def main():
    n = mh.read1('in')
    total = 0
    for i in range(n):
        j = 0
        while j < i:
            total = total + 1
            j = j + 1
    leaf(total)
    mh.write('out', 'l', total)

def leaf(x: int):
    mh.reconfig_point('R')
""",
        {"in": [5]},
        [("out", [10])],
    ),
    (
        "early-return",
        """
def main():
    x = mh.read1('in')
    y = classify(x)
    leaf(y)
    mh.write('out', 'l', y)

def classify(x):
    if x < 0:
        return -1
    if x == 0:
        return 0
    return 1

def leaf(x: int):
    mh.reconfig_point('R')
""",
        {"in": [-5]},
        [("out", [-1])],
    ),
    (
        "value-returning-instrumented-call",
        """
def main():
    x = mh.read1('in')
    y = square(x)
    mh.write('out', 'l', y)

def square(x: int):
    mh.reconfig_point('R')
    return x * x
""",
        {"in": [9]},
        [("out", [81])],
    ),
    (
        "ref-out-params",
        """
def main():
    x = mh.read1('in')
    cell = Ref(0)
    fill(x, cell)
    mh.write('out', 'l', cell.get())

def fill(x: int, out: Ref):
    mh.reconfig_point('R')
    out.set(x * 3)
""",
        {"in": [4]},
        [("out", [12])],
    ),
    (
        "pass-and-docstring",
        '''
def main():
    """Module main with docstring."""
    x = mh.read1('in')
    pass
    leaf(x)
    mh.write('out', 'l', x)

def leaf(x: int):
    """Leaf."""
    mh.reconfig_point('R')
    pass
''',
        {"in": [1]},
        [("out", [1])],
    ),
    (
        "aug-assign-and-tuples",
        """
def main():
    x = mh.read1('in')
    a, b = x, x + 1
    a += b
    leaf(a)
    mh.write('out', 'l', a)

def leaf(x: int):
    mh.reconfig_point('R')
""",
        {"in": [10]},
        [("out", [21])],
    ),
    (
        "deeply-nested-break-continue",
        """
def main():
    n = mh.read1('in')
    total = 0
    for i in range(n):
        j = 0
        while True:
            j = j + 1
            if j > i:
                break
            if j % 2 == 0:
                continue
            total = total + j
        if total > 50:
            break
    leaf(total)
    mh.write('out', 'l', total)

def leaf(x: int):
    mh.reconfig_point('R')
""",
        {"in": [12]},
        [("out", [60])],
    ),
    (
        "elif-ladder-in-loop",
        """
def main():
    n = mh.read1('in')
    small = 0
    mid = 0
    big = 0
    for i in range(n):
        if i < 3:
            small = small + 1
        elif i < 7:
            mid = mid + 1
        elif i < 9:
            big = big + 1
        else:
            big = big + 10
    leaf(small)
    mh.write('out', 'l', small * 10000 + mid * 100 + big)

def leaf(x: int):
    mh.reconfig_point('R')
""",
        {"in": [12]},
        [("out", [3 * 10000 + 4 * 100 + (2 + 30)])],
    ),
    (
        "instrumented-calls-in-branches",
        """
def main():
    x = mh.read1('in')
    if x % 2 == 0:
        y = double(x)
    else:
        y = triple(x)
    mh.write('out', 'l', y)

def double(x: int):
    mh.reconfig_point('R1')
    return x * 2

def triple(x: int):
    mh.reconfig_point('R2')
    return x * 3
""",
        {"in": [7]},
        [("out", [21])],
    ),
    (
        "chain-of-instrumented-calls",
        """
def main():
    x = mh.read1('in')
    a = step1(x)
    b = step2(a)
    c = step3(b)
    mh.write('out', 'l', c)

def step1(x: int):
    y = step2(x)
    return y + 1

def step2(x: int):
    y = step3(x)
    return y + 1

def step3(x: int):
    mh.reconfig_point('R')
    return x + 1
""",
        {"in": [0]},
        [("out", [6])],
    ),
    (
        "string-and-comparison-logic",
        """
def main():
    n = mh.read1('in')
    label = ''
    i = 0
    while i < n and len(label) < 12:
        label = label + ('ab' if i % 2 == 0 else 'c')
        i = i + 1
    leaf(i)
    mh.write('out', 's', label)

def leaf(x: int):
    mh.reconfig_point('R')
""",
        {"in": [6]},
        [("out", ["abcabcabc"])],
    ),
]


@pytest.mark.parametrize("name,source,queues,expected", CORPUS, ids=[c[0] for c in CORPUS])
def test_flattened_behaviour_matches_original(name, source, queues, expected):
    """Without a reconfiguration request, transformed == original."""
    # Run the original (markers are no-ops).
    mh_orig = MH("m")
    port_orig = ScriptedPort(mh_orig, queues)
    mh_orig.attach_port(port_orig)
    run_module(source, mh_orig)

    # Run the transformed version.
    result = prepare_module(source, "m")
    mh_new = MH("m")
    port_new = ScriptedPort(mh_new, queues)
    mh_new.attach_port(port_new)
    run_module(result.source, mh_new)

    assert port_orig.out == expected
    assert port_new.out == expected


@pytest.mark.parametrize("name,source,queues,expected", CORPUS, ids=[c[0] for c in CORPUS])
def test_capture_restore_roundtrip_at_point(name, source, queues, expected):
    """Reconfiguring at R and resuming in a clone completes identically.

    The reconfig flag is raised before main starts, so the very first
    arrival at R captures; the clone must produce the same final writes.
    """
    result = prepare_module(source, "m")

    mh_old = MH("m")
    port_old = ScriptedPort(mh_old, queues)
    mh_old.attach_port(port_old)
    mh_old.request_reconfig()
    run_module(result.source, mh_old)
    assert mh_old.divulged.is_set()
    assert port_old.out == []  # interrupted before any write

    mh_clone = MH("m", status="clone")
    mh_clone.incoming_packet = mh_old.outgoing_packet
    # Remaining input: whatever the old module did not consume.
    remaining = dict(port_old.queues)
    port_clone = ScriptedPort(mh_clone, remaining)
    mh_clone.attach_port(port_clone)
    run_module(result.source, mh_clone)
    assert port_clone.out == expected
    assert mh_clone.getstatus() == "original"


class TestFlattenedSourceShape:
    def test_no_dispatch_loop(self):
        # The procedure keeps its own structure: no loop the source did
        # not have, and no generated name but the restored values and
        # the resume value (no program counter).
        source = CORPUS[0][1]
        text = prepare_module(source, "m").source
        assert "while" not in text
        assert set(re.findall(r"_mh_\w+", text)) == {"_mh_vals", "_mh_r"}

    def test_docstring_preserved(self):
        source = CORPUS[7][1]
        text = prepare_module(source, "m").source
        assert "Module main with docstring." in text

    def test_uninstrumented_functions_untouched(self):
        source = CORPUS[4][1]  # classify is not on a point path
        result = prepare_module(source, "m")
        assert "classify" not in result.reports
        assert "def classify(x):" in result.source

    def test_capture_blocks_reference_mh(self):
        text = prepare_module(CORPUS[0][1], "m").source
        assert "mh.capturestack" in text
        assert "mh.begin_reconfig_capture('R')" in text
        assert "mh.encode()" in text
