"""Process bookkeeping: children, their memory, and what is left behind.

Linux ``/proc`` only — the benchmark runs in a Linux container and has
no ``psutil`` to lean on.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name is parenthesised and may contain spaces.
    return text[text.rindex(")") + 2 :].split()


def children() -> Dict[int, str]:
    """Live child processes of this one, pid -> command line.

    The multiprocessing resource tracker is left out: the ``spawn``
    start method starts one per parent and it exits with the parent.
    """
    parent = os.getpid()
    found: Dict[int, str] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is None or fields[0] == "Z" or int(fields[1]) != parent:
            continue
        try:
            cmdline = Path(f"/proc/{entry}/cmdline").read_bytes()
        except OSError:
            continue
        text = cmdline.replace(b"\0", b" ").decode(errors="replace").strip()
        if "resource_tracker" not in text:
            found[int(entry)] = text
    return found


def _hwm_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live children, in MB."""
    pids = [os.getpid()] + list(children())
    return sum(_hwm_kb(pid) for pid in pids) / 1024.0


def pin_to_one_cpu() -> str:
    """Keep every thread of this process on one CPU; returns what was done.

    The bus process runs one interpreter: its threads take turns on the
    interpreter lock wherever they are.  Spread over two virtual CPUs,
    every hand-over is a cross-CPU wake-up whose cost depends on where
    the scheduler happened to put the threads — run-to-run spreads of
    30-40 % and a 3x lower ``kv_inproc`` capacity on the 2-CPU container
    this was written on.  One CPU for the bus process (workers and
    daemons get the others, see :func:`move_children_off_my_cpu`) makes
    a run repeat.  Threads started later inherit the mask.
    """
    try:
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {allowed[0]})
    except (AttributeError, OSError) as exc:
        return f"unpinned ({exc!r})"
    return f"bus process on cpu {allowed[0]} of {allowed}"


def move_children_off_my_cpu() -> None:
    """Give worker and daemon processes the CPUs this process is not on.

    Children inherit the one-CPU mask of :func:`pin_to_one_cpu`; each of
    their threads is moved, and threads they start later inherit.  With
    a single CPU there is nowhere to move them and they stay.
    """
    try:
        others = set(range(os.cpu_count() or 1)) - os.sched_getaffinity(0)
    except AttributeError:
        return
    if not others:
        return
    for pid in children():
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                os.sched_setaffinity(int(tid), others)
            except OSError:
                pass  # the thread ended, or the cpuset forbids those CPUs


def kill_children() -> None:
    for pid in children():
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass


def reap_children(timeout: float) -> List[str]:
    """Wait for every child to end; kill and report whatever does not."""
    deadline = time.monotonic() + timeout
    while children() and time.monotonic() < deadline:
        time.sleep(0.05)
    leftover = list(children().values())
    kill_children()
    return leftover


# -- the supervisor: nothing outlives the command ------------------------------

#: ``prctl`` option: orphaned descendants are re-parented to the caller.
PR_SET_CHILD_SUBREAPER = 36


def _become_subreaper() -> bool:
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def session_members(sid: int) -> List[int]:
    """Processes of session ``sid`` that still run (zombies left out)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None and fields[0] != "Z" and int(fields[3]) == sid:
            members.append(int(entry))
    return members


def _reap() -> None:
    """Collect every child of this process that has ended."""
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass  # no child left


def end_session(sid: int, grace: float) -> List[int]:
    """Wait until session ``sid`` is empty; returns the pids it had to kill.

    Its processes get ``grace`` seconds to end by themselves (the
    ``multiprocessing`` resource tracker does, once its parent is gone),
    then SIGKILL.  Returns only when none of them runs any more and
    those that became children of this process have been waited for.
    """
    deadline = time.monotonic() + grace
    killed = set()
    while True:
        _reap()
        running = session_members(sid)
        if not running:
            break
        if time.monotonic() >= deadline:
            for pid in running:
                try:
                    os.kill(pid, signal.SIGKILL)
                    killed.add(pid)
                except OSError:
                    pass
        time.sleep(0.01)
    _reap()
    return sorted(killed)


def supervise(argv: List[str], env: Optional[Dict[str, str]], timeout: float) -> int:
    """Run ``argv`` in a session of its own and end that session with it.

    The run itself shuts its bus down and checks its children, but a
    process can still be on its way out when the run exits (the
    ``multiprocessing`` resource tracker only notices then that its
    parent is gone), and a crash or a tripped watchdog skips the tidy
    path altogether.  So the command the driver starts is this
    supervisor: it starts the run as the leader of a new session, makes
    itself the reaper of whatever the run orphans, and after the run
    has ended -- or ``timeout`` has passed, or a signal arrived -- it
    returns only when no process of that session is left.  Returns the
    run's exit code (3 after a timeout, 130 after a signal).
    """
    if not _become_subreaper():
        sys.stderr.write("perf: no child subreaper here; orphans are killed, not waited for\n")

    def interrupted(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, interrupted)
    run = subprocess.Popen(argv, env=env, start_new_session=True)
    grace = 0.0
    try:
        code = run.wait(timeout)
        grace = 3.0
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perf: the run did not end within {timeout:.0f}s\n")
        code = 3
    except KeyboardInterrupt:
        sys.stderr.write("perf: interrupted\n")
        code = 130
    finally:
        killed = end_session(run.pid, grace)
        if killed:
            sys.stderr.write(f"perf: killed processes the run left behind: {killed}\n")
    return code


def git_sha(root: Path) -> Optional[str]:
    """HEAD of the checkout at ``root``, read without running git.

    ``None`` outside a git repository (the benchmark driver's checkout).
    """
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = root / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None
