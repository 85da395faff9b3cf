"""The four replace-under-load applications and their traffic sessions.

Each workload is a MIL-built application on a live ``SoftwareBus`` with
one reconfigurable *target* module that the timetable in
``perf/loadgen.py`` moves ``alpha`` (sparc-like) <-> ``beta`` (vax-like)
while traffic flows, so every state packet is translated across byte
order and word size.

``kv_inproc``
    4 KV shards + 2 loaders in one process; 2 closed-loop sessions,
    50/50 put/get on zipfian keys through directed ``route_to`` /
    ``write_to``; ``shard_0`` (owner of the hottest key) is replaced.
    Tiny state: routing, queues and the coordinator stages do the work.
``pipe_xproc``
    Open loop, 300 msg/s through loader -> ``stage_0`` (pipe worker) ->
    ``stage_1`` (in-process, replaced) -> ``stage_2`` (TCP daemon) ->
    loader.  Every hop crosses a link; the only workload where the
    transports carry steady traffic.
``deep_state``
    The KV shard rewritten to serve at the bottom of a 256-deep
    recursion over a preloaded 4096-entry heap, so capture / encode /
    decode / restore dominate each replace.
``fanout_wide``
    Open loop, 500 readings/s: loader -> ``hub`` -> 64 monitors plus an
    echo; replacing the hub rebinds 66 bindings — the bus layer used the
    other way round from ``kv_inproc``.

Failures are *counted*, never raised: a lost, duplicated, reordered,
crossed or timed-out operation lands in ``failures`` and the run goes on
to produce its numbers.

Sessions that check values own a private key namespace (``k<sid>.<rank>``)
so the expected reply is exact — the last value that session put —
while both sessions still land on the same shards.
"""

from __future__ import annotations

import bisect
import random
import time
from typing import Dict, List, Optional, Tuple

from repro.bus.bus import SoftwareBus
from repro.bus.message import Message
from repro.bus.mil import parse_mil
from repro.bus.transport import TcpTransport
from repro.errors import BindingError, TransportError
from repro.state.machine import MACHINES

from perf import hygiene
from perf.metrics import sequence_failures

#: How long a session waits for one reply before counting a time-out.
REPLY_TIMEOUT_S = 5.0

# -- module sources (the paper apps' structured-Python subset) ---------------

#: Loaders run no application logic: generator threads write on their
#: interfaces with ``bus.route``/``route_to`` and read replies straight
#: off their queues, so every operation is an explicit, timed event.
LOADER_SOURCE = '''\
def main():
    mh.init()
    while mh.running:
        mh.sleep(5)
'''

#: Every replaced module sends through a helper that retries a write
#: which hit the *rename window*: between the coordinator's
#: ``remove_module`` and ``rename_instance`` a clone still named
#: ``<instance>.new`` can read its own name, lose the race to the rename,
#: and have ``route()`` raise ``UnknownModuleError`` for a name that no
#: longer exists — on the current tree that kills the module thread
#: (about once in 8000 replaces on ``pipe_xproc``, where the link
#: traffic under the bus lock widens the window).  It is the module-side
#: twin of the ``BindingError`` the KV sessions retry through, so it gets
#: the same treatment: retried like an application would, and counted
#: (``bus.rename_write_retries_per_replace``) so that an atomic rebind
#: shows as the count going to zero.  Nothing was delivered when
#: ``route()`` raises, so the retry neither loses nor duplicates.  The
#: helpers hold no reconfiguration point, so the transformer leaves
#: them (and their ``try``) alone.
_RETRY_HEAD = '''\
from repro.errors import UnknownModuleError


'''

_RETRY_TAIL = '''


def send(interface, destination, fmt, *values):
    attempts = 0
    while True:
        try:
            if destination is None:
                mh.write(interface, fmt, *values)
            else:
                mh.write_to(interface, destination, fmt, *values)
            return
        except UnknownModuleError:
            attempts = attempts + 1
            if attempts > 100:
                raise
            mh.statics['write_retries'] = mh.statics.get('write_retries', 0) + 1
'''

#: Requests carry (sender, op, key, value); replies go back directed.
KV_SHARD_SOURCE = _RETRY_HEAD + '''\
def main():
    request = None
    sender = None
    op = None
    key = None
    value = None
    mh.heap['store'] = mh.heap.get('store', {})
    mh.statics['serves'] = mh.statics.get('serves', 0)
    mh.init()
    while mh.running:
        mh.reconfig_point('Q')
        request = mh.read('requests')
        sender = request[0]
        op = request[1]
        key = request[2]
        value = request[3]
        if op == 'put':
            mh.heap['store'][key] = value
        else:
            value = mh.heap['store'].get(key, '!missing')
        send('replies', sender, 'ss', key, value)
        mh.statics['serves'] = mh.statics['serves'] + 1
''' + _RETRY_TAIL

#: Recursion depth of the deep shard: DEEP_FRAMES ``descend`` frames
#: under ``main`` gives the 257-frame activation-record stack.
DEEP_FRAMES = 256

#: The same shard serving at the bottom of a recursion, reconfiguration
#: point inside it (the paper's Figure 3 idea, at depth): every capture
#: rebuilds the whole activation-record stack.
DEEP_SHARD_SOURCE = _RETRY_HEAD + f'''\
def main():
    mh.heap['store'] = mh.heap.get('store', {{}})
    mh.statics['serves'] = mh.statics.get('serves', 0)
    mh.init()
    descend({DEEP_FRAMES})


def descend(n: int):
    request = None
    sender = None
    op = None
    key = None
    value = None
    if n > 1:
        descend(n - 1)
        return
    while mh.running:
        mh.reconfig_point('Q')
        request = mh.read('requests')
        sender = request[0]
        op = request[1]
        key = request[2]
        value = request[3]
        if op == 'put':
            mh.heap['store'][key] = value
        else:
            value = mh.heap['store'].get(key, '!missing')
        send('replies', sender, 'ss', key, value)
        mh.statics['serves'] = mh.statics['serves'] + 1
''' + _RETRY_TAIL

RELAY_SOURCE = _RETRY_HEAD + '''\
def main():
    x = None
    mh.statics['relayed'] = mh.statics.get('relayed', 0)
    mh.init()
    while mh.running:
        mh.reconfig_point('P')
        x = mh.read1('inp')
        send('out', None, 'i', x)
        mh.statics['relayed'] = mh.statics['relayed'] + 1
''' + _RETRY_TAIL

MONITOR_SOURCE = '''\
def main():
    count = 0
    mh.statics['seen'] = 0
    mh.init()
    while mh.running:
        mh.read1('inp')
        count = count + 1
        mh.statics['seen'] = count
'''

_KV_PATTERN = "{string string string string}"


def kv_mil(shards: int, loaders: int) -> str:
    blocks = []
    for j in range(shards):
        blocks.append(
            f"module shard_{j} {{\n"
            f"  use interface requests pattern = {_KV_PATTERN} ::\n"
            f"  define interface replies pattern = {{string string}} ::\n"
            f"  reconfiguration point = {{Q}} ::\n"
            f"}}\n"
        )
    for i in range(loaders):
        blocks.append(
            f"module loader_{i} {{\n"
            f"  define interface requests pattern = {_KV_PATTERN} ::\n"
            f"  use interface replies pattern = {{string string}} ::\n"
            f"}}\n"
        )
    lines = [f"  instance shard_{j}" for j in range(shards)]
    lines += [f"  instance loader_{i}" for i in range(loaders)]
    for i in range(loaders):
        for j in range(shards):
            lines.append(f'  bind "loader_{i} requests" "shard_{j} requests"')
            lines.append(f'  bind "shard_{j} replies" "loader_{i} replies"')
    return "\n".join(blocks) + "\napplication kv {\n" + "\n".join(lines) + "\n}\n"


_LOADER_BLOCK = (
    "module loader_0 {\n"
    "  define interface feed pattern = {integer} ::\n"
    "  use interface replies pattern = {integer} ::\n"
    "}\n"
)


def _relay_block(name: str) -> str:
    return (
        f"module {name} {{\n"
        f"  use interface inp pattern = {{integer}} ::\n"
        f"  define interface out pattern = {{integer}} ::\n"
        f"  reconfiguration point = {{P}} ::\n"
        f"}}\n"
    )


def pipe_mil(placements: List[str]) -> str:
    """loader -> stage_0 -> ... -> stage_{k-1} -> loader, one placement each."""
    stages = len(placements)
    blocks = [_LOADER_BLOCK] + [_relay_block(f"stage_{j}") for j in range(stages)]
    lines = ["  instance loader_0"]
    for j, placement in enumerate(placements):
        where = f' placement = "{placement}"' if placement != "inproc" else ""
        lines.append(f"  instance stage_{j}{where}")
    lines.append('  bind "loader_0 feed" "stage_0 inp"')
    for j in range(stages - 1):
        lines.append(f'  bind "stage_{j} out" "stage_{j + 1} inp"')
    lines.append(f'  bind "stage_{stages - 1} out" "loader_0 replies"')
    return "\n".join(blocks) + "\napplication pipe {\n" + "\n".join(lines) + "\n}\n"


def fanout_mil(monitors: int) -> str:
    blocks = [_LOADER_BLOCK, _relay_block("hub")]
    for j in range(monitors):
        blocks.append(
            f"module mon_{j:02d} {{\n  use interface inp pattern = {{integer}} ::\n}}\n"
        )
    lines = ["  instance loader_0", "  instance hub"]
    lines += [f"  instance mon_{j:02d}" for j in range(monitors)]
    lines.append('  bind "loader_0 feed" "hub inp"')
    lines.append('  bind "hub out" "loader_0 replies"')
    lines += [f'  bind "hub out" "mon_{j:02d} inp"' for j in range(monitors)]
    return "\n".join(blocks) + "\napplication fanout {\n" + "\n".join(lines) + "\n}\n"


# -- key streams ---------------------------------------------------------------


class ZipfianRanks:
    """Seeded ranks in ``[0, n)``, rank ``i`` weighted ``(i + 1) ** -theta``."""

    def __init__(self, n: int, theta: float, rng: random.Random):
        self._rng = rng
        running = 0.0
        self._cumulative: List[float] = []
        for rank in range(n):
            running += 1.0 / ((rank + 1) ** theta)
            self._cumulative.append(running)

    def sample(self) -> int:
        point = self._rng.random() * self._cumulative[-1]
        return bisect.bisect_left(self._cumulative, point)


# -- sessions --------------------------------------------------------------------


class KvSession:
    """One closed-loop KV client with an exact model of its own keys."""

    def __init__(
        self,
        bus: SoftwareBus,
        sid: int,
        shards: int,
        keys: int,
        theta: float,
        seed: int,
    ):
        self.bus = bus
        self.sid = sid
        self.loader = f"loader_{sid}"
        self.shards = shards
        self.keys = keys
        self.rng = random.Random(seed * 7919 + sid)
        self.ranks = ZipfianRanks(keys, theta, self.rng)
        self.queue = bus.get_module(self.loader).queue("replies")
        self.model: Dict[str, str] = {}
        self.seq = 0
        self.attempted = 0
        self.sent_by_shard = [0] * shards
        self.route_retries = 0
        self.failures = {"timed_out": 0, "crossed": 0, "wrong_value": 0}
        #: This benchmark's own spans, ``(name, t0, t1)``, while the
        #: traced half runs; ``None`` keeps the untraced loop bare.
        self.spans: Optional[List[Tuple[str, float, float]]] = None

    def preload(self) -> None:
        """Put every key once, in rank order, so the heap size is fixed."""
        for rank in range(self.keys):
            self.operation(rank, "put")

    def roundtrip(self) -> bool:
        op = "put" if self.rng.random() < 0.5 else "get"
        return self.operation(self.ranks.sample(), op)

    def operation(self, rank: int, op: str) -> bool:
        shard_index = rank % self.shards
        shard = f"shard_{shard_index}"
        self.seq += 1
        key = f"k{self.sid}.{rank:04d}"
        value = f"v{self.seq}"
        message = Message(
            values=[self.loader, op, key, value],
            fmt="ssss",
            source_instance=self.loader,
            source_interface="requests",
        ).validated()
        self.attempted += 1
        t0 = time.monotonic()
        deadline = t0 + REPLY_TIMEOUT_S
        while True:
            try:
                self.bus.route_to(self.loader, "requests", shard, message)
                break
            except BindingError:
                # The rename window between the coordinator's rebind and
                # commit: the shard is briefly bound under its clone
                # name.  Retry like a client would, and publish how often.
                self.route_retries += 1
                if time.monotonic() >= deadline:
                    self.failures["timed_out"] += 1
                    return False
                time.sleep(0.001)
        t1 = time.monotonic()
        self.sent_by_shard[shard_index] += 1
        try:
            reply = self.queue.get(REPLY_TIMEOUT_S, None)
        except TransportError:
            self.failures["timed_out"] += 1
            return False
        if self.spans is not None:
            self.spans.append(("route", t0, t1))
            self.spans.append(("reply_get", t1, time.monotonic()))
        if reply.values[0] != key:
            self.failures["crossed"] += 1
            return False
        expected = value if op == "put" else self.model.get(key, "!missing")
        if op == "put":
            self.model[key] = value
        if reply.values[1] != expected:
            self.failures["wrong_value"] += 1
            return False
        return True


class EchoSession:
    """An open-loop sequence stream: ``send`` numbers, ``recv`` echoes."""

    sid = 0

    def __init__(self, bus: SoftwareBus):
        self.bus = bus
        self.queue = bus.get_module("loader_0").queue("replies")
        self.scheduled: List[float] = []  # index = seq - 1
        self.received: List[int] = []  # echo stream in arrival order
        self.spans: Optional[List[Tuple[str, float, float]]] = None

    def send(self, t_scheduled: float) -> None:
        self.scheduled.append(t_scheduled)
        message = Message(
            values=[len(self.scheduled)],
            fmt="i",
            source_instance="loader_0",
            source_interface="feed",
        ).validated()
        t0 = time.monotonic()
        self.bus.route("loader_0", "feed", message)
        if self.spans is not None:
            self.spans.append(("route", t0, time.monotonic()))

    def recv(self, timeout: float) -> Optional[float]:
        """Next echo's scheduled send time; ``None`` on time-out or when
        the echo matches nothing that was sent (counted at the end)."""
        t0 = time.monotonic()
        try:
            message = self.queue.get(timeout, None)
        except TransportError:
            return None
        if self.spans is not None:
            self.spans.append(("reply_get", t0, time.monotonic()))
        seq = message.values[0]
        self.received.append(seq)
        if 1 <= seq <= len(self.scheduled):
            return self.scheduled[seq - 1]
        return None

    def outstanding(self) -> int:
        return len(self.scheduled) - len(self.received)


# -- workloads -------------------------------------------------------------------


def _wait_for(predicate, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class Workload:
    """Build the application, hand out sessions, verify, tear down."""

    name = ""
    target = ""
    #: "closed" (sessions each keep one request in flight) or "open"
    #: (``rate`` operations per second on a fixed schedule).
    loop = "closed"
    rate = 0.0
    #: Set-ups per end-to-end run; ``setup_s`` is their median.
    setups = 15

    def __init__(self, seed: int, build_id: int = 0):
        self.seed = seed
        #: Stamped into every module source so that each set-up of a run
        #: prepares its modules afresh, as a new process would: the
        #: program memoizes preparation by source text.
        self.build_id = build_id
        self.bus: Optional[SoftwareBus] = None
        self.sessions: list = []
        self.launch_s = 0.0  # ``bus.launch`` alone, for ``bus.launch_ms``

    def mil(self) -> str:
        raise NotImplementedError

    def sources(self) -> Dict[str, str]:
        """Module name -> inline source."""
        raise NotImplementedError

    def make_bus(self) -> SoftwareBus:
        return SoftwareBus(sleep_scale=1.0)

    def make_sessions(self) -> list:
        raise NotImplementedError

    def configuration(self):
        config = parse_mil(self.mil())
        for module, source in self.sources().items():
            config.modules[module].inline_source = f"{source}# build {self.build_id}\n"
        return config

    def build(self) -> None:
        """MIL parse -> bus (+ workers/daemons) -> launch -> sessions."""
        config = self.configuration()
        self.bus = bus = self.make_bus()
        bus.add_host("alpha", MACHINES["sparc-like"])
        bus.add_host("beta", MACHINES["vax-like"])
        start = time.perf_counter()
        bus.launch(config, default_host="alpha")
        self.launch_s = time.perf_counter() - start
        self.sessions = self.make_sessions()

    def first_operation(self) -> bool:
        """Complete one operation end to end (the end of set-up)."""
        raise NotImplementedError

    def warm(self) -> None:
        """Extra traffic-free preparation inside the warm-up (preloads)."""

    def verify(self) -> Dict[str, int]:
        """Failure counts by kind, after traffic stopped and drained."""
        raise NotImplementedError

    def attempted(self) -> int:
        raise NotImplementedError

    def close(self) -> None:
        if self.bus is not None:
            self.bus.shutdown()
            self.bus = None


class KvInproc(Workload):
    name = "kv_inproc"
    target = "shard_0"
    loop = "closed"
    shards = 4
    n_sessions = 2
    keys_per_session = 128  # 256 keys in all
    theta = 0.99
    shard_source = KV_SHARD_SOURCE

    def mil(self) -> str:
        return kv_mil(self.shards, self.n_sessions)

    def sources(self) -> Dict[str, str]:
        sources = {f"shard_{j}": self.shard_source for j in range(self.shards)}
        sources.update({f"loader_{i}": LOADER_SOURCE for i in range(self.n_sessions)})
        return sources

    def make_sessions(self) -> list:
        return [
            KvSession(
                self.bus, i, self.shards, self.keys_per_session, self.theta, self.seed
            )
            for i in range(self.n_sessions)
        ]

    def first_operation(self) -> bool:
        return self.sessions[0].operation(0, "put")

    def attempted(self) -> int:
        return sum(s.attempted for s in self.sessions)

    def verify(self) -> Dict[str, int]:
        failures = {"timed_out": 0, "crossed": 0, "wrong_value": 0}
        for session in self.sessions:
            for kind, count in session.failures.items():
                failures[kind] += count
        failures["stray_replies"] = sum(len(s.queue) for s in self.sessions)
        sent = [
            sum(s.sent_by_shard[j] for s in self.sessions) for j in range(self.shards)
        ]

        def serves() -> List[int]:
            return [
                int(self.bus.statics_of(f"shard_{j}").get("serves", 0))
                for j in range(self.shards)
            ]

        # ``serves`` increments after the reply write, so the last count
        # may trail the received reply by a scheduler beat.
        _wait_for(lambda: serves() == sent, 5.0)
        failures["serve_count_mismatch"] = sum(
            abs(a - b) for a, b in zip(serves(), sent)
        )
        return failures


class DeepState(KvInproc):
    name = "deep_state"
    shards = 2
    keys_per_session = 4096  # 8192 keys in all, 4096 per shard
    theta = 0.1  # near-uniform: the whole heap stays live
    shard_source = DEEP_SHARD_SOURCE

    def warm(self) -> None:
        # Preloaded so the heap, and therefore the packet, is constant
        # from the first replace on.
        for session in self.sessions:
            session.preload()


class _EchoWorkload(Workload):
    loop = "open"
    #: instance -> statics counter that must equal the number sent.
    counters: Dict[str, str] = {}

    def make_sessions(self) -> list:
        return [EchoSession(self.bus)]

    def first_operation(self) -> bool:
        session = self.sessions[0]
        session.send(time.monotonic())
        return session.recv(REPLY_TIMEOUT_S) is not None

    def attempted(self) -> int:
        return len(self.sessions[0].scheduled)

    def verify(self) -> Dict[str, int]:
        session = self.sessions[0]
        sent = len(session.scheduled)
        failures = sequence_failures(session.received, sent)

        def lagging() -> int:
            return sum(
                abs(int(self.bus.statics_of(instance).get(counter, 0)) - sent)
                for instance, counter in self.counters.items()
            )

        _wait_for(lambda: lagging() == 0, 5.0)
        failures["count_mismatch"] = lagging()
        return failures


class PipeXproc(_EchoWorkload):
    name = "pipe_xproc"
    target = "stage_1"
    rate = 300.0
    placements = ["worker:0", "inproc", "tcp:0"]
    counters = {f"stage_{j}": "relayed" for j in range(3)}
    setups = 9  # each spawns a worker and a daemon: 0.6 s

    def mil(self) -> str:
        return pipe_mil(self.placements)

    def sources(self) -> Dict[str, str]:
        sources = {f"stage_{j}": RELAY_SOURCE for j in range(len(self.placements))}
        sources["loader_0"] = LOADER_SOURCE
        return sources

    def make_bus(self) -> SoftwareBus:
        bus = SoftwareBus(sleep_scale=1.0, workers=1)
        try:
            bus.attach_transport(TcpTransport(machines=1, sleep_scale=1.0), owned=True)
        except BaseException:
            bus.shutdown()
            raise
        return bus

    def build(self) -> None:
        super().build()
        hygiene.move_children_off_my_cpu()


class FanoutWide(_EchoWorkload):
    name = "fanout_wide"
    target = "hub"
    rate = 500.0
    monitors = 64
    counters = {"hub": "relayed", **{f"mon_{j:02d}": "seen" for j in range(monitors)}}

    def mil(self) -> str:
        return fanout_mil(self.monitors)

    def sources(self) -> Dict[str, str]:
        sources = {f"mon_{j:02d}": MONITOR_SOURCE for j in range(self.monitors)}
        sources.update(loader_0=LOADER_SOURCE, hub=RELAY_SOURCE)
        return sources


WORKLOADS = {cls.name: cls for cls in (KvInproc, PipeXproc, DeepState, FanoutWide)}
