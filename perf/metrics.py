"""Pure arithmetic over sample streams: no bus, no clock, no threads.

Everything the benchmark concludes from a run is computed here from
plain tuples, so ``perf/test_metrics.py`` can pin the semantics with
synthetic streams (an injected loss, duplicate, reorder, 50 ms gap).

Vocabulary
----------
*sample*    ``(session, t_send, t_recv)`` — one completed operation;
            ``t_send`` is the *scheduled* send on open loops.
*interval*  ``(t_start, t_end)`` — one ``replace()`` call, from the call
            to its return.  Intervals of one run never overlap (the
            timetable fires them from one thread) and arrive sorted.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Sample = Tuple[int, float, float]
Interval = Tuple[float, float]

#: Percentiles the picker chooses between, highest first.
CANDIDATE_PERCENTILES = (99.9, 99.0, 90.0, 50.0)

#: A percentile is published only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    # The epsilon keeps 99.9 * 1000 / 100 (= 999.0000000000001) at rank 999.
    rank = max(1, math.ceil(len(ordered) * p / 100.0 - 1e-9))
    return ordered[rank - 1]


def supports(n: int, p: float) -> bool:
    """Whether ``n`` samples leave at least ten beyond percentile ``p``.

    The median is always supported once there is a sample: it is the
    centre, not a tail estimate.
    """
    if p <= 50.0:
        return n >= 1
    # 100.0 - 99.9 is 0.0999...94: the epsilon lets n = 10000 support p99.9.
    return n * (100.0 - p) / 100.0 >= MIN_SAMPLES_BEYOND - 1e-9


def pick_percentile(n: int) -> Optional[float]:
    """Highest candidate percentile that ``n`` samples support."""
    for p in CANDIDATE_PERCENTILES:
        if supports(n, p):
            return p
    return None


def overlapping_interval(
    t_send: float, t_recv: float, starts: Sequence[float], intervals: Sequence[Interval]
) -> int:
    """Index of the first interval ``[t_send, t_recv]`` overlaps, or -1.

    ``starts`` is ``[start for start, _ in intervals]``, passed in so a
    caller classifying many samples builds it once.
    """
    # First interval that starts after the operation completed cannot
    # overlap; walk back over the (non-overlapping, sorted) predecessors.
    hi = bisect.bisect_right(starts, t_recv)
    first = -1
    for index in range(hi - 1, -1, -1):
        if intervals[index][1] < t_send:
            break
        first = index
    return first


def split_windows(
    samples: Iterable[Sample], intervals: Sequence[Interval]
) -> Tuple[List[float], List[float]]:
    """Latencies of (steady, during) operations, in seconds.

    *during* = the operation's ``[send, completion]`` overlaps any single
    replace interval; *steady* = it overlaps none.  Windows are per
    replace, so a run with a hundred replaces still has steady samples
    between them.
    """
    starts = [start for start, _ in intervals]
    steady: List[float] = []
    during: List[float] = []
    for _, t_send, t_recv in samples:
        if overlapping_interval(t_send, t_recv, starts, intervals) >= 0:
            during.append(t_recv - t_send)
        else:
            steady.append(t_recv - t_send)
    return steady, during


def steady_send_lags(
    lags: Iterable[Tuple[float, float]], intervals: Sequence[Interval]
) -> List[float]:
    """Lags of the paced sends that no replace interval held up.

    ``lags`` are ``(scheduled, lag)`` pairs, one per paced send; a send
    is steady when ``[scheduled, scheduled + lag]`` overlaps no interval.
    """
    starts = [start for start, _ in intervals]
    return [
        lag
        for at, lag in lags
        if overlapping_interval(at, at + lag, starts, intervals) < 0
    ]


def per_replace_stalls(
    samples: Iterable[Sample], intervals: Sequence[Interval], t_start: float
) -> List[float]:
    """For each replace, the longest completion gap overlapping it.

    A session's gaps are the spans between its consecutive completions
    (the first one clocked from ``t_start``); a gap belongs to every
    replace interval it overlaps.  The result has one entry per
    interval, 0.0 where no session's gap touched it — which cannot
    happen while traffic flows, since some gap always spans any instant.
    """
    by_session: Dict[int, List[float]] = {}
    for session, _, t_recv in samples:
        by_session.setdefault(session, []).append(t_recv)
    starts = [start for start, _ in intervals]
    stalls = [0.0] * len(intervals)
    for completions in by_session.values():
        completions.sort()
        previous = t_start
        for t_recv in completions:
            gap = t_recv - previous
            hi = bisect.bisect_right(starts, t_recv)
            for index in range(hi - 1, -1, -1):
                if intervals[index][1] < previous:
                    break
                if gap > stalls[index]:
                    stalls[index] = gap
            previous = t_recv
    return stalls


def sequence_failures(received: Iterable[int], sent: int) -> Dict[str, int]:
    """Count lost, duplicated and reordered echoes of ``1..sent``.

    ``received`` is the echo stream in arrival order.  An echo already
    seen is a *duplicate*; one below the highest seen so far (but new)
    arrived *reordered*; whatever of ``1..sent`` never arrived is
    *lost*.  Echoes outside ``1..sent`` were never sent and count as
    duplicates (something fabricated a message).
    """
    seen = set()
    high = 0
    duplicated = reordered = 0
    for seq in received:
        if seq in seen or not 1 <= seq <= sent:
            duplicated += 1
            continue
        seen.add(seq)
        if seq < high:
            reordered += 1
        else:
            high = seq
    return {
        "lost": sent - len(seen),
        "duplicated": duplicated,
        "reordered": reordered,
    }


def self_times(spans: Iterable[Dict[str, object]]) -> Dict[object, float]:
    """Self time per span id: duration minus what its children cover.

    ``spans`` are records with ``sid``, ``parent``, ``t0``, ``t1``.
    Children may overlap each other (two threads under one root), so the
    covered part is the length of the *union* of the children's
    intervals clipped to the parent.
    """
    records = list(spans)
    children: Dict[object, List[Tuple[float, float]]] = {}
    for record in records:
        children.setdefault(record["parent"], []).append(
            (float(record["t0"]), float(record["t1"]))  # type: ignore[arg-type]
        )
    out: Dict[object, float] = {}
    for record in records:
        t0, t1 = float(record["t0"]), float(record["t1"])  # type: ignore[arg-type]
        covered = 0.0
        edge = t0
        for c0, c1 in sorted(children.get(record["sid"], ())):
            c0, c1 = max(c0, edge), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                edge = c1
        out[record["sid"]] = (t1 - t0) - covered
    return out
