"""Names and paths retired by earlier simplifications must not creep back.

Each guard is a regular expression in ``grep -E`` syntax, matched line by
line over the paths it names: a directory is scanned recursively, a file
on its own, and a glob expands to its matches, all from the repository
root.  Binary files (bytecode caches among them) are skipped, and so is
this file, which names every pattern.  Each guard also lists one sample
per alternative of its pattern, the retired name as it would creep back,
and the guard must catch each of them.
"""

import re
from pathlib import Path
from typing import List, NamedTuple, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SELF = Path(__file__).resolve()

#: The tree that every guard of the remote stack and the state path scans.
CODE = ("src", "tests", "benchmarks", "docs")


class Guard(NamedTuple):
    what: str
    pattern: str
    paths: Tuple[str, ...]
    samples: Tuple[str, ...]


GUARDS = [
    # One remote stack, no batching knobs: neither the second TCP client
    # nor the environment options.
    Guard(
        "the second stack and batch knobs",
        r"DistributedBus|_DaemonLink|REPRO_BATCH",
        ("src", "tests", "examples", "benchmarks", "docs"),
        ("DistributedBus(", "class _DaemonLink:", 'os.environ["REPRO_BATCH"]'),
    ),
    # The package has no runtime dependency and a host process loads no
    # third-party module (test_import_closure.py is the exact gate on the
    # latter): the graph library.
    Guard(
        "the graph dependency",
        r"networkx",
        ("src", "pyproject.toml", "setup.py", "README.md"),
        ("import networkx",),
    ),
    # One route entry shape whether or not a recorder is installed: the
    # per-closure fan-out helper that recording used to fall back to.
    Guard(
        "the per-receiver fan-out helper",
        r"FanoutTransfer",
        CODE,
        ("FanoutTransfer(puts)",),
    ),
    # One state hand-off path: a packet decodes eagerly off its own
    # bytes, the reported depth is the encoder's frame count, and the
    # one-shot objstate_move and the coordinator share one divulge wait.
    # The lazy frames, header peek, memoryview decode and second divulge
    # wait.
    Guard(
        "the state hand-off paths",
        r"peek_state_header|StateHeader|skip_value|StackState\.lazy|wait_divulged|\.materialize\(",
        CODE,
        (
            "peek_state_header(packet)",
            "class StateHeader:",
            "skip_value(buf)",
            "StackState.lazy(blob)",
            "mh.wait_divulged()",
            "frames.materialize()",
        ),
    ),
    Guard(
        "memoryview decoding in the codec and the batch framing",
        r"memoryview",
        ("src/repro/state/*.py", "src/repro/bus/batch.py"),
        ("view = memoryview(blob)",),
    ),
    # One job per file in the remote stack, one slot table for both
    # transports, and a bus that calls its transports instead of probing
    # them: the in-process pseudo-transport, the second counter read, the
    # flush delay (its meta key "linger_s" stays in batch_settings()) and
    # the per-transport slot code.  Nor the commit-time rename of a
    # replacement's clone (a replace hands the name over instead), the
    # fault-plan commands nothing sent, or the codec's override hook.
    Guard(
        "the transport paths",
        r"InprocTransport|telemetry_counters|linger_s[^\"]|getattr\(transport"
        r"|_live_slots|_ensure_slot|rename_instance|_renamed|restore_binding_order"
        r"|_cmd_rename|install_fault_plan|install_faults|check_other",
        CODE,
        (
            "InprocTransport()",
            "transport.telemetry_counters()",
            "linger_s=0.001",
            'getattr(transport, "links", None)',
            "self._live_slots",
            "self._ensure_slot(i)",
            "bus.rename_instance(a, b)",
            "self._renamed = {}",
            "restore_binding_order(bus)",
            "def _cmd_rename(self):",
            "install_fault_plan(plan)",
            "install_faults(plan)",
            "check_other(value)",
        ),
    ),
    # One path per job in repro.state and in remote telemetry: the
    # pointer table and the streaming codec classes nothing called, the
    # test-only frame comparison, the worker start-method option and the
    # per-rebuild remote recorder sync.
    Guard(
        "the state codec and recorder paths",
        r"PointerTable|class Encoder\b|class Decoder\b|read_value"
        r"|frames_equal_ignoring_order_metadata|REPRO_WORKER_START|_sync_remote_recorders",
        CODE,
        (
            "PointerTable()",
            "class Encoder:",
            "class Decoder(object):",
            "read_value(buf)",
            "frames_equal_ignoring_order_metadata(a, b)",
            'os.environ["REPRO_WORKER_START"]',
            "self._sync_remote_recorders()",
        ),
    ),
    # One start rule and one send rule for remote hosts: every host is up
    # once its transport is built, and a link request is sent once.  The
    # lazy worker start with its reservation table, the per-host recorder
    # arming it needed, and the link's retry loop (with the delivery
    # semantics it implied).
    Guard(
        "the lazy worker start and request retry",
        r"_Spawn\b|_spawning|_arm_telemetry|at-least-once",
        CODE,
        ("_Spawn(slot)", "self._spawning = {}", "self._arm_telemetry(link)", "at-least-once delivery"),
    ),
    Guard(
        "the request retry policy in the bus package",
        r"RetryPolicy",
        ("src/repro/bus/*.py",),
        ("policy = RetryPolicy()",),
    ),
    # One out-of-process transport: the worker pool is machine daemons
    # under the transport name "worker", so the pipe transport, its
    # channel and entry point, and any use of multiprocessing in the
    # package.
    Guard(
        "the pipe transport",
        r"ProcessTransport|procpool|PipeChannel|worker_main",
        CODE,
        ("ProcessTransport(2)", "from repro.bus import procpool", "PipeChannel(conn)", "worker_main(conn)"),
    ),
    Guard(
        "multiprocessing in the package",
        r"multiprocessing",
        ("src",),
        ("import multiprocessing",),
    ),
    # One load harness: the second one (src/repro/loadgen, its benchmark
    # and its JSON).  The brackets keep the pattern from matching itself
    # where it is quoted.
    Guard(
        "the load harness",
        r"repro\.loadgen|bench_l[1]|BENCH_reconfig_under_loa[d]",
        ("src", "tests", "benchmarks", "docs", "README.md", "DESIGN.md", ".github"),
        ("from repro.loadgen import run", "benchmarks/bench_l1.py", "BENCH_reconfig_under_load.json"),
    ),
    # One divulge hand-off: the coordinator takes the packet from the old
    # module's own outcome, and a withdrawn signal is one abandon.  The
    # callback stream, its registration and the separate flag clear.
    Guard(
        "the divulge callback stream",
        r"StateMoveStream|objstate_stream|set_divulge_callback|clear_reconfig",
        CODE,
        (
            "stream = StateMoveStream(bus, old, module)",
            "bus.objstate_stream(old)",
            "mh.set_divulge_callback(on_packet)",
            'link.request(["clear_reconfig", key])',
        ),
    ),
    # One queue move per replace (SoftwareBus._move_queues), and a
    # literal rmq that drains whatever queue it is given: the probe for a
    # remote queue's count-only discard.
    Guard(
        "the queue probe in the literal rmq",
        r"getattr\(queue",
        CODE,
        ('discard = getattr(queue, "discard", None)',),
    ),
    # One queue transfer: Figure 5's cq/rmq run on the replace's queue
    # move, so the snapshot-copy and drain path and its two host commands
    # are gone; and one heap hook mechanism (mh.register_heap_hook), so
    # the global hook registry nothing read.
    Guard(
        "the queue copy path and the heap hook registry",
        r"snapshot_queue|drain_queue|_copy_queue|_remove_queue"
        r"|run_capture_hook|run_restore_hook|registered_hooks",
        CODE,
        (
            'link.request(["snapshot_queue", key, interface])',
            "def _cmd_drain_queue(self, key, interface):",
            "self._copy_queue(old, interface, new)",
            "self._remove_queue(old, interface)",
            'run_capture_hook("matrix", m)',
            'run_restore_hook("matrix", flat)',
            "registered_hooks()",
        ),
    ),
    # One record path in the flight recorder: a span is a fresh Span
    # whose close appends to the ring.  The span sampler (its dropped
    # span and drop counter), the span free-list bounds and the
    # per-thread event buffers' flush size.  Not "sample=": perf/run.py
    # still passes enable(sample=1).
    Guard(
        "the span sampler, free-list and event buffers",
        r"_DroppedSpan|telemetry\.sampled_out|_POOL_SEED|_POOL_MAX|_flush_batch",
        CODE,
        (
            "return _DroppedSpan(tls)",
            'rec.counter("telemetry.sampled_out", key="app.msg")',
            "pool = [Span.__new__(Span) for _ in range(_POOL_SEED)]",
            "if len(pool) < _POOL_MAX:",
            "self._flush_batch = min(32, max(1, capacity // 8))",
        ),
    ),
    # One form for a prepared procedure: its own if/while structure,
    # steered on restore by the resume value _mh_r.  The basic-block
    # graph, the program counter of the dispatch loop over its blocks,
    # the redo flag of a call block and the fall-off-the-table check.
    Guard(
        "the basic-block dispatch loop",
        r"_mh_pc|_mh_redo|bad_pc|CFGBuilder|FunctionCFG|core/cfg",
        CODE,
        (
            "_mh_pc = 0",
            "_mh_redo = True",
            "mh.bad_pc(_mh_pc, 'main')",
            "cfg = CFGBuilder(fn, recon).build()",
            "cfgs: Dict[str, FunctionCFG]",
            "block boundaries, `core/cfg.py`",
        ),
    ),
    # The emitter of a prepared procedure is named for what it does
    # (structured resume), not for the flattening it no longer does.
    # HeapCodec's flatten helpers are another thing and stay.
    Guard(
        "the flattener names",
        r"flatten_function|FlattenOptions|FlattenError|check_flattened"
        r"|core/flatten\.|core\.flatten",
        CODE,
        (
            "text = flatten_function(fn, layout, recon, functions, True)",
            "options = FlattenOptions(substitute_dummies=False)",
            "raise FlattenError(message)",
            "check_flattened(name, text)",
            "`core/flatten.py`",
            "from repro.core.flatten import emit",
        ),
    ),
    # One stop path and one removal path per module, wherever it runs: a
    # stop sets a plain Event and wakes the module's own queues, and every
    # module has remove().  The subscribe-on-wait stop event, its module,
    # the handle's remote flag and the bus's removal helper that branched
    # on it.
    Guard(
        "the stop event and the removal branch",
        r"InterruptibleEvent|runtime/events|runtime\.events|is_remote|_free\(",
        CODE,
        (
            "stop = InterruptibleEvent()",
            "`runtime/events.py`",
            "from repro.runtime.events import stop_event",
            'if getattr(module, "is_remote", False):',
            "self._free(module, timeout)",
        ),
    ),
    # Every coalescer runs under the same three caps, module constants of
    # repro.bus.batch; a test monkeypatches them.
    Guard(
        "the batch policy object",
        r"BatchPolicy",
        CODE,
        ("policy=BatchPolicy(max_entries=7)",),
    ),
    # One store per message queue, which hands a parked read its message
    # inside its own C ``get``: the condition variable and its waiter
    # count that every put notified through.
    Guard(
        "the condition-variable queue",
        r"\b_not_empty\b|\b_waiters\b",
        CODE,
        ("with queue._not_empty:", "wait_until(lambda: queue._waiters == 1)"),
    ),
    # A machine is its MachineProfile, and a remote failure crosses a
    # link as its type name and its text: the host registry and its
    # module, the substring rebuild of an err reply, the lock around the
    # message sequence and the delivery stamps nothing read.
    Guard(
        "the host wrapper and the untyped remote failure",
        r"\bHostRegistry\b|repro\.bus\.machine|_error_from|_sequence_lock"
        r"|_last_delivery",
        CODE,
        (
            "self.hosts = HostRegistry()",
            "from repro.bus.machine import Host",
            "raise _error_from(self.name, text)",
            "with _sequence_lock:",
            "self._last_delivery[key] = now",
        ),
    ),
    # A transport reports its own hosts to the recorder, one source per
    # link, and serves the one bus that closes it: the bus's remote
    # source, its list of owned transports, the per-transport arming
    # flag and the transport-wide merge of its hosts' totals.
    Guard(
        "the bus's remote telemetry relay",
        r"_remote_telemetry_source|_owned_transports|_hosts_recording"
        r"|\.telemetry_snapshot\(",
        CODE,
        (
            "rec.add_source(self._remote_telemetry_source)",
            "for transport in self._owned_transports:",
            "if self._hosts_recording:",
            "counters, _ = transport.telemetry_snapshot()",
        ),
    ),
    # Routes are published when a topology edit ends, never rebuilt by a
    # reader: the invalidation that dropped the table and the host
    # command that dropped a host's routes with it.
    Guard(
        "the dropped routing table",
        r"clear_routes|_invalidate_routing_locked",
        ("src", "docs"),
        ('link.send_event(["clear_routes"])', "self._invalidate_routing_locked()"),
    ),
    # A format string compiles once, into one plan of checks and writers
    # built side by side (encoding.format_plan): the separate matcher
    # compiler, the per-spec caches and the memoized parse.
    Guard(
        "the second format compiler and its caches",
        r"\bcompiled_matcher\b|\bmatcher_plan\b|_MATCHER_CACHE|\bcompiled_encoder\b"
        r"|_ENCODER_CACHE|_parse_format_cached|\bencoder_plan\b|\b_PLAN_CACHE\b",
        CODE,
        (
            "return compiled_matcher(spec)(value)",
            "plan = matcher_plan(fmt)",
            "_MATCHER_CACHE[spec] = matcher",
            "enc = compiled_encoder(spec.element)",
            "encoder = _ENCODER_CACHE.get(spec)",
            "specs = _parse_format_cached(fmt)",
            "plan = encoder_plan(fmt)",
            "_PLAN_CACHE[fmt] = plan",
        ),
    ),
    # A link handles its frames on its pump, in the order they arrive, and
    # its coalescer accounts for every lost event frame: the event
    # dispatcher thread and the send-failure hooks the link gave the
    # coalescer.
    Guard(
        "the link's event dispatcher and send-failure hooks",
        r"\b_dispatch_loop\b|link-evt-|notify_drop|notify_ok|_note_send_failed",
        CODE,
        (
            "target=self._dispatch_loop,",
            'name=f"link-evt-{name}"',
            "notify_drop=self._note_send_failed,",
            "notify_ok=self._note_send_ok,",
            "self._note_send_failed(1, exc)",
        ),
    ),
    # One queue class, which counts every put whether or not a recorder
    # is installed: the recording subclass and the class swap that
    # installed it on live queues.
    Guard(
        "the recording queue class and its swap",
        r"RecordingMessageQueue|__class__ *=[^=]",
        CODE,
        ("class RecordingMessageQueue(MessageQueue):", "q.__class__ = MessageQueue"),
    ),
    # A clone gets its state packet through mh.incoming_packet: the add
    # option that installed one nothing passed.
    Guard(
        "the add-time state packet",
        r"state_packet",
        ("src/repro/bus",),
        ("bus.add_module(spec, state_packet=packet)",),
    ),
]


def _files(root: Path, spec: str) -> List[Path]:
    if any(c in spec for c in "*?["):
        return sorted(p for p in root.glob(spec) if p.is_file())
    path = root / spec
    if path.is_dir():
        return sorted(p for p in path.rglob("*") if p.is_file())
    return [path] if path.is_file() else []


def scan(guard: Guard, root: Path = ROOT) -> List[str]:
    """``path:line: text`` for every line under ``guard.paths`` it matches."""
    regex = re.compile(guard.pattern)
    hits = []
    for spec in guard.paths:
        for path in _files(root, spec):
            if path.resolve() == SELF:
                continue
            data = path.read_bytes()
            if b"\0" in data:
                continue  # binary
            for number, line in enumerate(data.decode("utf-8", "replace").splitlines(), 1):
                if regex.search(line):
                    hits.append(f"{path.relative_to(root)}:{number}: {line.strip()}")
    return hits


@pytest.mark.parametrize("guard", GUARDS, ids=[g.what for g in GUARDS])
def test_retired_name_stays_out(guard):
    assert scan(guard) == []


@pytest.mark.parametrize("guard", GUARDS, ids=[g.what for g in GUARDS])
def test_guard_catches_each_retired_name(guard, tmp_path):
    """The mutation check: put each sample back where the guard looks."""
    alternatives = guard.pattern.split("|")
    assert len(guard.samples) == len(alternatives)
    for alternative, sample in zip(alternatives, guard.samples):
        assert re.search(alternative, sample), (alternative, sample)
    target = guard.paths[0].replace("*", "sample")
    for sample in guard.samples:
        path = tmp_path / target
        if path.suffix == "":
            path = path / "sample.py"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(f"x = 1\n{sample}\n")
        assert scan(guard, tmp_path) == [
            f"{path.relative_to(tmp_path)}:2: {sample}"
        ], sample
        path.unlink()
