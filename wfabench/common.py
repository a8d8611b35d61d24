"""Helpers shared by the workload drivers: statistics, spans, host facts.

Nothing here imports the program under test at module level, so the
entry point can report a missing source tree cleanly before any
``repro`` import is attempted.
"""

from __future__ import annotations

import functools
import math
import os
import platform
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

#: Checkout root (the benchmark lives one directory below it).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for generated inputs, ready-files and server traces.
#: Inside the checkout and ignored by git; each run uses its own subdir.
TMP_ROOT = ROOT / ".wfabench_tmp"


# -- statistics -----------------------------------------------------------


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile by nearest rank: always a measured sample."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


# -- host facts -------------------------------------------------------------


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids() -> list[int]:
    """Live direct children of this process (every thread's)."""
    pids: list[int] = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            continue
    return pids


def adopt_orphans() -> None:
    """Become the reaper of this run's orphaned descendants (Linux).

    Helpers the program starts without waiting for them, such as the
    ``multiprocessing`` resource tracker of a set-up probe or of the
    server, are re-parented here instead of to init, so
    :func:`reap_children` can wait for them before the run exits.
    """
    import ctypes

    pr_set_child_subreaper = 36
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(pr_set_child_subreaper, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def reap_children(timeout: float = 20.0) -> None:
    """Stop every process this run started and wait until each has ended.

    The resource tracker that shared memory starts in this process is
    stopped first (it would otherwise outlive the run by a moment); any
    child still alive after ``timeout`` seconds is killed.
    """
    import signal
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no children left
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in child_pids():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


class ChildPeaks:
    """Largest summed peak RSS of this process's live children.

    :meth:`sample` is a :meth:`Spans.wrap` hook: pool workers exit with
    their engine, so their ``VmHWM`` is read as each batch returns,
    while they still live.
    """

    def __init__(self) -> None:
        self.mb = 0.0

    def sample(self, args: Any, seconds: float) -> None:
        total = 0.0
        for pid in child_pids():
            try:
                total += vm_hwm_mb(pid)
            except (OSError, RuntimeError):
                continue  # exited between listing and reading
        self.mb = max(self.mb, total)


def _cpu_times() -> tuple[float, float]:
    """(steal, total) CPU seconds since boot, from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()[1:]
    ticks = [int(f) for f in fields[:8]]
    hz = os.sysconf("SC_CLK_TCK")
    return ticks[7] / hz, sum(ticks) / hz


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class HostProbe:
    """Load and steal time over one run, plus the host's identity."""

    def __init__(self) -> None:
        self.load_start = os.getloadavg()
        self.steal_start, self.cpu_start = _cpu_times()

    def fingerprint(self, dataset: tuple[str, int, int]) -> dict[str, Any]:
        import numpy

        from repro.obs.manifest import git_revision

        steal_end, cpu_end = _cpu_times()
        cpu_delta = max(cpu_end - self.cpu_start, 1e-9)
        steal = steal_end - self.steal_start
        digest, num_pairs, total_bases = dataset
        return {
            "git": git_revision(ROOT),
            "dataset": {
                "sha256": digest,
                "num_pairs": num_pairs,
                "total_bases": total_bases,
            },
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "loadavg_start": list(self.load_start),
            "loadavg_end": list(os.getloadavg()),
            "steal_s": round(steal, 3),
            "steal_frac": round(steal / cpu_delta, 4),
        }


# -- set-up time in fresh processes -------------------------------------------


def python_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


#: Fresh processes per run whose median is ``setup_s``.
SETUP_PROBES = 5


def probe_setup(workload: str, tmp: Path) -> list[float]:
    """Set-up seconds of fresh processes running ``probe.py``."""
    probe = Path(__file__).resolve().parent / "probe.py"
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(probe), workload, str(tmp)],
            env=python_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"set-up probe for {workload} failed: {proc.stderr.strip()}"
            )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# -- benchmark-side spans -----------------------------------------------------------


class Spans:
    """Spans recorded from the benchmark's own files.

    :meth:`wrap` replaces a public function or method of the program
    with a timing shim for the length of a traced run; :meth:`span`
    times a block of benchmark code.  Each name keeps its inclusive
    time and its self time (inclusive minus the time of spans nested
    inside it), so the self times of every span plus the time outside
    all spans add up to the traced wall time.  A span nested in one of
    the same name is not counted twice.
    """

    def __init__(self) -> None:
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list[Any]] = []  # [name, child seconds]
        self._patches: list[tuple[Any, str, Any, bool]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if any(frame[0] == name for frame in self._stack):
            yield
            return
        self._stack.append([name, 0.0])
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            _, child = self._stack.pop()
            self.total[name] += elapsed
            self.self_time[name] += elapsed - child
            if self._stack:
                self._stack[-1][1] += elapsed

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_exit: Callable[[Any, float], None] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``on_exit(args, seconds)`` is called after each call; the kernel
        span uses it to carry worker-side time home.
        """
        original = getattr(owner, attr)
        own = attr in vars(owner)

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                with self.span(name):
                    return original(*args, **kwargs)
            finally:
                if on_exit is not None:
                    on_exit(args, time.perf_counter() - start)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, own))

    def restore(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def layer_self(self, layer: str) -> float:
        """Self seconds of every span whose name starts ``layer.``."""
        return sum(
            t for n, t in self.self_time.items() if n.split(".")[0] == layer
        )


#: Report-profile stage under which a worker process charges the time it
#: spent inside a traced kernel call (see :func:`install_kernel_spans`).
WORKER_KERNEL_STAGE = "bench_kernel"


def install_kernel_spans(spans: Spans) -> None:
    """Span ``align.kernel`` around the software aligners' public calls.

    In the benchmark's own process the time lands in ``spans``.  Pool
    workers forked from it inherit the shim but not the parent's span
    table, so there the call's seconds are charged to the aligner's own
    stage profiler (``BatchedWfaAligner.profiler``), which the engine
    already ships home with each chunk and merges into
    ``BatchReport.profile``.
    """
    from repro.align import WfaAligner
    from repro.align.wfa_batched import BatchedWfaAligner
    from repro.align.wfa_vectorized import VectorizedWfaAligner

    parent = os.getpid()

    def charge_worker(args: Any, seconds: float) -> None:
        profiler = getattr(args[0], "profiler", None)
        if os.getpid() != parent and profiler is not None:
            profiler.add(WORKER_KERNEL_STAGE, seconds)

    spans.wrap(WfaAligner, "align", "align.kernel", charge_worker)
    spans.wrap(VectorizedWfaAligner, "align", "align.kernel", charge_worker)
    spans.wrap(BatchedWfaAligner, "align_batch", "align.kernel", charge_worker)


# -- correctness -------------------------------------------------------------------


def reference_scores(
    pairs: Sequence[tuple[str, str]],
    band_width: int | None = None,
    processes: int = 1,
) -> list[int]:
    """Scores from the scalar reference WFA (``repro.align.WfaAligner``).

    The repository's differential tests pin it to the SWG oracle; it is
    used here because the oracle costs ~30 ms per 150 bp pair on a
    2-core VM.  ``band_width`` gives the banded semantics of the
    long-read command (exact whenever the band holds the optimum).
    ``processes > 1`` splits the pairs over that many fresh interpreters.
    """
    if processes > 1:
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        shares = [list(pairs[i::processes]) for i in range(processes)]
        with ProcessPoolExecutor(processes, mp_context=get_context("spawn")) as pool:
            parts = list(pool.map(reference_scores, shares, [band_width] * processes))
        scores = [0] * len(pairs)
        for i, part in enumerate(parts):
            scores[i::processes] = part
        return scores
    from repro.align import DEFAULT_PENALTIES, WfaAligner

    aligner = WfaAligner(
        DEFAULT_PENALTIES, keep_backtrace=False, band_width=band_width
    )
    return [aligner.align(a, b).score for a, b in pairs]


def cigar_error(pattern: str, text: str, score: int, cigar: str | None) -> str | None:
    """Why ``cigar`` is not an alignment of the pair scoring ``score``."""
    from repro.align import DEFAULT_PENALTIES
    from repro.align.cigar import Cigar, CigarError

    if cigar is None:
        return "no CIGAR with backtrace on"
    parsed = Cigar.from_compact(cigar)
    try:
        parsed.validate(pattern, text)
    except CigarError as exc:
        return f"invalid CIGAR: {exc}"
    rescored = parsed.score(DEFAULT_PENALTIES)
    if rescored != score:
        return f"CIGAR re-scores to {rescored}, reported {score}"
    return None


def write_fastq(path: Path, pairs: Sequence[tuple[str, str]]) -> None:
    """Consecutive records pair up: record 2i is pattern, 2i+1 its text."""
    with open(path, "w", encoding="ascii") as fh:
        for i, (pattern, text) in enumerate(pairs):
            for mate, seq in ((1, pattern), (2, text)):
                fh.write(f"@p{i}/{mate}\n{seq}\n+\n{'I' * len(seq)}\n")
