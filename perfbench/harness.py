"""Load generation, statistics and process accounting for the benchmark.

Everything here is independent of the program under test: the open-loop
scheduler, the closed-loop driver, percentile helpers, CPU and memory
readings from ``/proc``, and the host facts printed with every run.
"""

from __future__ import annotations

import collections
import ctypes
import hashlib
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile (linear interpolation); 0.0 for no samples."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


# ----------------------------------------------------------------------
# Open loop (wrk2 style) and closed loop
# ----------------------------------------------------------------------
class OpenLoopResult:
    """What the open-loop scheduler observed about itself.

    ``intended[i]`` is the absolute clock time request ``i`` was due;
    ``sent[i]`` is when the scheduler actually handed it to the
    program.  Latency is always taken from ``intended``, so a stall
    that delays later sends is charged to those later requests.
    """

    def __init__(self, intended: List[float], sent: List[float],
                 backlog_peak: int):
        self.intended = intended
        self.sent = sent
        self.backlog_peak = backlog_peak

    @property
    def lags_ms(self) -> List[float]:
        """How late the generator sent each request (ms)."""
        return [(s - i) * 1000.0 for i, s in zip(self.intended, self.sent)]


def run_open_loop(offsets_s: Sequence[float],
                  send: Callable[[int, float], None],
                  clock: Callable[[], float] = time.perf_counter,
                  sleep: Callable[[float], None] = time.sleep,
                  idle: Optional[Callable[[float], Optional[float]]] = None,
                  lead_s: float = 0.005) -> OpenLoopResult:
    """Send request ``i`` at ``start + offsets_s[i]`` regardless of replies.

    ``send(i, intended)`` hands request ``i`` to the program; it may
    block (a synchronous service) or return at once (a pipelined one).
    While the next arrival is not yet due, ``idle(now)`` is called if
    given; it may do deferred work and return the next time it wants
    to be called again, so the sleep ends early.  The scheduler sleeps
    rather than spins, so it adds no CPU time of its own.
    """
    start = clock() + lead_s
    intended: List[float] = []
    sent: List[float] = []
    backlog_peak = 0
    n = len(offsets_s)
    due_index = 0      # first index whose arrival is still in the future
    for i, offset in enumerate(offsets_s):
        due = start + offset
        while True:
            now = clock()
            if now >= due:
                break
            wake = due
            if idle is not None:
                wanted = idle(now)
                if wanted is not None:
                    wake = min(wake, wanted)
                now = clock()
            if wake > now:
                sleep(wake - now)
        now = clock()
        while due_index < n and start + offsets_s[due_index] <= now:
            due_index += 1
        backlog_peak = max(backlog_peak, due_index - i)
        intended.append(due)
        sent.append(now)
        send(i, due)
    if idle is not None:
        idle(clock())
    return OpenLoopResult(intended, sent, backlog_peak)


def run_closed_loop(items: Iterable, outstanding: int,
                    submit: Callable[[object], object],
                    wait: Callable[[object], None]) -> None:
    """Keep ``outstanding`` requests in flight until ``items`` runs out.

    ``submit(item)`` starts one request and returns a handle;
    ``wait(handle)`` blocks until that request is answered.  Requests
    are retired oldest first, so at most ``outstanding`` are ever in
    flight and a new one is sent only after an old one completed.
    """
    if outstanding < 1:
        raise ValueError("outstanding must be >= 1")
    in_flight: "collections.deque" = collections.deque()
    for item in items:
        if len(in_flight) >= outstanding:
            wait(in_flight.popleft())
        in_flight.append(submit(item))
    while in_flight:
        wait(in_flight.popleft())


# ----------------------------------------------------------------------
# Process accounting
# ----------------------------------------------------------------------
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of process ``pid`` (from /proc)."""
    with open(f"/proc/{pid}/stat", "r") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of process ``pid`` in MiB."""
    with open(f"/proc/{pid}/status", "r") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def child_pids() -> List[int]:
    """Pids of this process's direct children, zombies included."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_children(grace_s: float = 5.0) -> List[int]:
    """Stop and reap every child process still alive; returns their pids.

    The workloads stop what they start; this is the last guard on the
    way out, so that no run leaves a process behind on any path.
    """
    left = child_pids()
    for pid in left:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace_s
    waiting = set(left)
    while waiting:
        for pid in list(waiting):
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid
            if done:
                waiting.discard(pid)
        if waiting and time.monotonic() > deadline:
            for pid in waiting:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            for pid in waiting:
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass
            break
        time.sleep(0.01)
    return left


def _proc_stat_cpu() -> List[int]:
    with open("/proc/stat", "r") as handle:
        return [int(v) for v in handle.readline().split()[1:]]


def steal_s() -> float:
    """CPU seconds the hypervisor took from this machine, all CPUs.

    The ``steal`` column of ``/proc/stat``; 0.0 where it is missing.
    """
    try:
        return _proc_stat_cpu()[7] / _CLOCK_TICKS
    except (OSError, IndexError, ValueError):
        return 0.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def self_cpu_s() -> float:
    """CPU seconds of this process, all threads."""
    return time.process_time()


# ----------------------------------------------------------------------
# Host facts
# ----------------------------------------------------------------------
def _blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, asked from the library."""
    try:
        with open("/proc/self/maps", "r") as handle:
            libs = sorted({line.split()[-1] for line in handle
                           if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas_vendor() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except Exception:   # older numpy: no dict mode
        return "unknown"


def _commit(root: Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest(src: Path) -> str:
    """SHA-256 over the program's Python sources (names and bytes).

    The checkout the benchmark runs in need not be a git repository,
    so this identifies the code under test where no commit is known.
    """
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


_PROBE_MATRIX = np.random.default_rng(0).standard_normal((64, 64))


PROBE_STEPS = 150


def host_probe_ms(steps: int = PROBE_STEPS) -> float:
    """Wall time (ms) of a fixed small numpy loop: how fast the host runs now.

    About 4 ms on a calm 2-vCPU host.  It uses the same kind of small
    matrix work as the program, so it slows down with whatever slows
    the program down from outside (hypervisor steal, a busy sibling
    core), and the program under test cannot change it.
    """
    a = _PROBE_MATRIX
    started = time.perf_counter()
    b = a
    for _ in range(steps):
        b = np.tanh(b @ a * 0.01)
    return (time.perf_counter() - started) * 1000.0


def calmest(steal_s: Sequence[float], probe_ms: Sequence[float],
            keep: int) -> List[int]:
    """Indices, in run order, of the ``keep`` blocks the host disturbed least.

    A block's disturbance score is its host probe in ms plus the
    hypervisor steal inside it in ms / 10.  The probe catches a CPU
    slowed by busy neighbours, which shows no steal; steal catches
    stalls inside the block that a probe read at its ends misses
    (blocks with 20-70 ms of steal had three to four times the p99 of
    their neighbours).  Neither depends on the program, so blocks are
    never chosen by their own results.
    """
    score = [probe + steal * 100.0 for steal, probe in zip(steal_s, probe_ms)]
    return sorted(sorted(range(len(score)), key=score.__getitem__)[:keep])


class Sample(collections.namedtuple("Sample", "at probe_ms wall_s cpu_s")):
    """One host probe reading taken by a :class:`HostSampler`.

    ``at`` is when it started (sampler's clock), ``probe_ms`` the
    reading as a full ``host_probe_ms()`` would read, ``wall_s`` and
    ``cpu_s`` the reading's own cost.
    """


class HostSampler:
    """Reads the host probe every ``interval_s`` in the measured thread.

    An interval timer raises ``SIGALRM``; Python runs the handler in the
    main thread between two bytecodes, so the probe runs on whichever
    CPU the main thread's work runs on, while it runs there (or while
    it sleeps).  Each reading runs ``steps`` probe steps and is scaled
    to a full probe's.  Its own cost is recorded for the caller to take
    out of what it timed.  Only for work done in the main thread.
    """

    def __init__(self, interval_s: float = 0.1, steps: int = PROBE_STEPS,
                 clock: Callable[[], float] = time.perf_counter):
        self.interval_s = interval_s
        self.steps = steps
        self.clock = clock
        self.samples: List[Sample] = []
        self.active = False
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        started, cpu = self.clock(), self_cpu_s()
        probe = host_probe_ms(self.steps) * PROBE_STEPS / self.steps
        self.samples.append(Sample(started, probe, self.clock() - started,
                                   self_cpu_s() - cpu))

    def start(self) -> None:
        if self.active:
            return
        self.active = True
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                         self.interval_s)

    def stop(self) -> None:
        if not self.active:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.active = False

    def __enter__(self) -> "HostSampler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def take(self) -> List[Sample]:
        """The samples since the last ``take``."""
        samples, self.samples = self.samples, []
        return samples


def speed_factor(probes_ms: Sequence[float], reference_ms: float) -> float:
    """Mean of ``reference_ms / probe`` over ``probes_ms``; 1.0 if none.

    Times multiplied by it read as if the host had run at the speed at
    which the probe reads ``reference_ms``.  Samples are even in time
    and speed is 1 / probe, so the work done in a timed span is its
    time x this mean (not x the reference over the mean probe).
    """
    if not probes_ms:
        return 1.0
    return sum(reference_ms / probe for probe in probes_ms) / len(probes_ms)


def probe_cost_s(samples: Sequence[Sample], start: float,
                 end: float) -> float:
    """Wall time the samples spent inside ``[start, end)``."""
    return sum(max(0.0, min(end, s.at + s.wall_s) - max(start, s.at))
               for s in samples)


def noise_probe(repeats: int = 15) -> Dict[str, float]:
    """Time the host probe repeatedly; its spread is the host noise."""
    samples = [host_probe_ms(200) for _ in range(repeats)]
    q1, q2, q3 = (percentile(samples, q) for q in (25, 50, 75))
    return {"probe_p50_ms": round(q2, 4),
            "probe_iqr_share": round((q3 - q1) / q2, 4) if q2 else 0.0}


def host_facts(root: Path, kernel_backend: str, seed: int,
               blas_pin: str) -> Dict[str, object]:
    facts: Dict[str, object] = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_vendor(),
        "blas_pin_env": blas_pin,
        "blas_threads": _blas_threads(),
        "kernel_backend": kernel_backend,
        "commit": _commit(root),
        "source_digest": source_digest(root / "src"),
        "seed": seed,
        "platform": platform.platform(),
        "argv": " ".join(sys.argv[1:]),
    }
    facts.update(noise_probe())
    return facts
