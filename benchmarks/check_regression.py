"""CI regression gate: compare a quick benchmark run to committed numbers.

Three modes, one per kind of budget a ``BENCH_*.json`` carries::

    # higher is better (throughput): measured >= committed * RATIO
    python benchmarks/check_regression.py \
        BENCH_bus.json BENCH_bus_multiproc.json xproc.aggregate 0.85

    # lower is better (latency): measured <= committed * RATIO
    python benchmarks/check_regression.py --lower \
        BENCH_state.json BENCH_state_ci.json results.heap.decode_ms 1.5

    # shape of one run: measured[KEY_A] / measured[KEY_B] <= LIMIT
    python benchmarks/check_regression.py --ratio \
        BENCH_state_ci.json results.heap.encode_ms results.heap.decode_ms 1.0

Keys are dotted paths into the payloads.  The first two modes compare a
run on the CI runner with numbers committed from another machine, so
their ratio has to absorb the difference in host speed; ``--ratio``
divides two times taken in the same run on the same host, so it gates
the *shape* of a layer (encoding a packet must not cost more than
decoding it) however fast the runner is.  Exits non-zero on a
regression.  Kept as a script (not inline YAML) so the comparison is
testable and the workflow stays readable; the caller decides the retry
policy — quick windows on shared CI runners are noisy, so gates should
re-measure once before failing the job.
"""

from __future__ import annotations

import json
import sys
from typing import List, Tuple


def dig(payload: object, dotted: str) -> float:
    value = payload
    for part in dotted.split("."):
        value = value[part]  # type: ignore[index]
    return float(value)  # type: ignore[arg-type]


def _load(path: str, dotted: str) -> float:
    with open(path, encoding="utf-8") as handle:
        return dig(json.load(handle), dotted)


def _fmt(value: float) -> str:
    # Throughputs are in the hundreds of thousands, times in milliseconds.
    return f"{value:,.0f}" if abs(value) >= 100 else f"{value:,.3f}"


def check_against_committed(
    dotted: str, committed: float, measured: float, ratio: float, lower_is_better: bool
) -> Tuple[bool, str]:
    """``measured`` within ``ratio`` of ``committed``, on the side that matters."""
    bound = committed * ratio
    kind = "ceiling" if lower_is_better else "floor"
    ok = measured <= bound if lower_is_better else measured >= bound
    line = (
        f"{dotted}: measured {_fmt(measured)} vs committed {_fmt(committed)} "
        f"({kind} {_fmt(bound)})"
    )
    if not ok:
        relation = ">" if lower_is_better else "<"
        line += (
            f"\nREGRESSION: {dotted} {_fmt(measured)} {relation} {_fmt(bound)} "
            f"({ratio:.0%} of committed)"
        )
    return ok, line


def check_ratio(
    numerator_key: str,
    denominator_key: str,
    numerator: float,
    denominator: float,
    limit: float,
) -> Tuple[bool, str]:
    """``numerator / denominator <= limit`` for two keys of one run."""
    label = f"{numerator_key} / {denominator_key}"
    if denominator <= 0:
        return False, f"REGRESSION: {label}: denominator is {_fmt(denominator)}"
    ratio = numerator / denominator
    line = (
        f"{label}: {_fmt(numerator)} / {_fmt(denominator)} = {ratio:.3f} "
        f"(limit {limit:.3f})"
    )
    ok = ratio <= limit
    if not ok:
        line += f"\nREGRESSION: {label} = {ratio:.3f} > {limit:.3f}"
    return ok, line


def main(argv: List[str]) -> int:
    mode = argv[0] if argv and argv[0] in ("--lower", "--ratio") else ""
    args = argv[1:] if mode else argv
    if len(args) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    if mode == "--ratio":
        path, numerator_key, denominator_key, limit = args
        ok, line = check_ratio(
            numerator_key,
            denominator_key,
            _load(path, numerator_key),
            _load(path, denominator_key),
            float(limit),
        )
    else:
        committed_path, measured_path, dotted, ratio = args
        ok, line = check_against_committed(
            dotted,
            _load(committed_path, dotted),
            _load(measured_path, dotted),
            float(ratio),
            lower_is_better=mode == "--lower",
        )
    print(line, file=sys.stdout if ok else sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
