"""Process worker pool: modules in long-lived worker processes.

The GIL caps a single bus process at roughly one core of module work no
matter how many module threads it hosts.  :class:`ProcessTransport`
breaks that ceiling with a pool of long-lived worker processes fed over
``multiprocessing`` pipes: each worker runs
:func:`~repro.bus.host.worker_main`, a :class:`~repro.bus.host.ModuleHost`
serving the same frame protocol as the TCP machine daemons, with the
canonical self-described encoding (:func:`~repro.state.encoding.encode_any`
— the PR 2 compiled codecs) as the wire format.  No sockets, no framing
headers: a frame is one ``send_bytes`` on the pipe.  A worker imports
:mod:`repro.bus.host`, never this file.

Deliveries are *coalesced*: a busy link ships ``deliver_batch`` frames
carrying many already-encoded message wires per ``send_bytes`` (see
:mod:`repro.bus.batch`), and the worker dispatches the whole batch
inline in the serve loop (:func:`~repro.bus.host.serve_host`) — one
frame decode, one modules-lock acquire — so per-message pipe overhead
is amortized away.

Placement is ``placement="worker"`` (round-robin over the pool) or
``placement="worker:<slot>"`` (pinned to one slot, by index or host
name; recorded as ``worker:<index>``).  Every worker starts with the
pool, by the start rule both remote transports share
(:meth:`~repro.bus.transport.RemoteTransport._start`).  Workers always
use the ``spawn`` start method: the bus process is full of threads
holding locks, which ``fork`` would duplicate mid-flight.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Dict

from repro.bus.host import PipeChannel, worker_main
from repro.bus.link import Link
from repro.bus.transport import RemoteTransport, host_profile
from repro.errors import BusError


class ProcessTransport(RemoteTransport):
    """A fixed-size pool of worker processes as a bus transport."""

    name = "worker"

    def __init__(
        self,
        workers: int = 2,
        architecture: str = "modern-64",
        sleep_scale: float = 0.0,
    ):
        if workers < 1:
            raise BusError("worker pool needs at least one slot")
        super().__init__([f"worker-{i}" for i in range(workers)])
        self._architecture = architecture
        self._sleep_scale = sleep_scale
        #: host name -> its worker process, in start order.
        self._processes: Dict[str, object] = {}
        self._start()

    def _label(self, index: int) -> str:
        return str(index)

    def _start_hosts(self, links: Dict[str, Link], deadline: float) -> None:
        """Start every worker process, then await each one's ``ping``:
        the first reply proves the interpreter is up and the repro
        imports completed (slow on cold caches)."""
        ctx = multiprocessing.get_context("spawn")
        for name in self._names:
            profile = host_profile(name, self._architecture)
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=worker_main,
                args=(child_conn, name, profile.to_abstract(), self._sleep_scale),
                name=f"repro-{name}",
                daemon=True,
            )
            process.start()
            self._processes[name] = process
            child_conn.close()
            links[name] = self._open_link(name, profile, PipeChannel(parent_conn))
        for link in links.values():
            link.request(["ping"], timeout=max(0.0, deadline - time.monotonic()))

    def _reap(self, grace: float) -> None:
        for process in self._processes.values():
            process.join(timeout=grace)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
