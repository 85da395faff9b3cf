"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import builtins
import signal
import threading
import time

import pytest

from repro.runtime import telemetry
from repro.state.machine import MACHINES

#: Default per-test wall-clock budget for the ``watchdog`` fixture.
#: Tests that legitimately run longer (soak) override it per module.
DEFAULT_WATCHDOG_S = 120.0


@pytest.fixture(autouse=True)
def _telemetry_isolation():
    """Never let one test's flight recorder leak into the next."""
    yield
    if telemetry.recorder is not None:
        telemetry.disable()


@pytest.fixture
def watchdog(request):
    """Hard per-test timeout: a wedged module, worker, or replace must
    fail loudly instead of stalling CI until the job-level timeout.

    Opt in with ``pytest.mark.usefixtures("watchdog")`` (per test or via
    module ``pytestmark``); set a module-level ``WATCHDOG_S`` to change
    the budget.  Uses ``SIGALRM``, so it arms only on platforms that
    have it and only in the main thread — elsewhere it is a no-op
    rather than a collection error.
    """
    seconds = float(getattr(request.module, "WATCHDOG_S", DEFAULT_WATCHDOG_S))
    if (
        not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _expired(signum, frame):  # pragma: no cover - only fires on hangs
        raise RuntimeError(
            f"{request.node.nodeid} exceeded the {seconds}s watchdog"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def compile_calls(monkeypatch):
    """File names of every ``builtins.compile`` call made during the test."""
    calls = []
    real = builtins.compile

    def counting(source, filename, *args, **kwargs):
        calls.append(filename)
        return real(source, filename, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counting)
    return calls


def wait_until(predicate, timeout: float = 10.0, interval: float = 0.005):
    """Poll ``predicate`` until truthy; fail the test on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError(f"condition not reached within {timeout}s")


@pytest.fixture
def sparc():
    """A big-endian 32/64 machine profile."""
    return MACHINES["sparc-like"]


@pytest.fixture
def vax():
    """A little-endian 32/32 machine profile."""
    return MACHINES["vax-like"]


@pytest.fixture
def m68k():
    """A big-endian 16/32 machine with 32-bit floats (the narrow one)."""
    return MACHINES["m68k-like"]
