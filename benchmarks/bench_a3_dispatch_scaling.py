"""A3 (cost ablation) — resume-guard overhead vs procedure shape.

The paper's C implementation pays only flag tests at run time.  Our goto
emulation keeps each procedure's own ``if``/``while`` structure and adds
tests of the resume value ``_mh_r``: one in the loop test of a loop that
holds a label, one at the label, and one per guarded run of statements
before it — none per statement and none per branch.  Two fillers
between the point and the end of the loop body check that the cost does
not grow with the body:

- straight-line statements;
- control-flow-dense bodies (many tiny ``if`` blocks).

Both stay within 1.5x of the original at 100 filler units.
"""

import pytest

from repro.core import prepare_module
from repro.runtime.mh import MH
from repro.runtime.refs import Ref

from benchmarks.conftest import DirectPort, median_ratio, report

SIZES = [5, 25, 100]
ITERS = 2_000


def make_workload(units: int, blocky: bool) -> str:
    if blocky:
        filler = "\n".join(
            f"        if i >= 0:\n            x{k} = i + {k}"
            for k in range(units)
        )
    else:
        filler = "\n".join(f"        x{k} = i + {k}" for k in range(units))
    return (
        "def main():\n"
        "    n = mh.read1('inp')\n"
        "    i = 0\n"
        "    acc = 0\n"
        "    while i < n:\n"
        "        mh.reconfig_point('P')\n"
        f"{filler}\n"
        "        acc = acc + i\n"
        "        i = i + 1\n"
        "    mh.write('out', 'l', acc)\n"
    )


def compile_pair(units: int, blocky: bool):
    source = make_workload(units, blocky)
    prepared = compile(prepare_module(source, "m").source, "<p>", "exec")
    original = compile(
        source.replace("        mh.reconfig_point('P')\n", ""), "<o>", "exec"
    )
    return prepared, original


def run(code) -> int:
    mh = MH("m")
    port = DirectPort(mh, {"inp": [ITERS]})
    mh.attach_port(port)
    namespace = {"mh": mh, "Ref": Ref}
    exec(code, namespace)
    namespace["main"]()
    return port.out[0][1][0]


@pytest.mark.benchmark(group="a3-dispatch")
@pytest.mark.parametrize("units", SIZES)
@pytest.mark.parametrize("shape", ["straightline", "blocky"])
def test_a3_prepared(benchmark, units, shape):
    prepared, _ = compile_pair(units, blocky=(shape == "blocky"))
    result = benchmark(run, prepared)
    assert result == sum(range(ITERS))


def _factor(units: int, blocky: bool) -> float:
    prepared, original = compile_pair(units, blocky)
    return median_ratio(lambda: run(prepared), lambda: run(original), 5, 3)


def test_a3_shape():
    straight = {units: _factor(units, blocky=False) for units in SIZES}
    blocky = {units: _factor(units, blocky=True) for units in SIZES}

    report(
        "A3",
        "our goto emulation adds resume-value tests to the paper's flag "
        "test; they do not grow with the body, straight-line or "
        "control-flow-dense",
        f"prepared/original factor — straight-line: "
        f"{ {k: round(v, 2) for k, v in straight.items()} }, "
        f"blocky: { {k: round(v, 2) for k, v in blocky.items()} }",
    )
    assert straight[100] <= 1.5, straight
    assert blocky[100] <= 1.5, blocky
