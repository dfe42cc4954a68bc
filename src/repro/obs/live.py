"""Live monitoring of parallel sweeps: heartbeats, aggregation, render.

A Figure-9-style sweep is dozens of (scheme, benchmark) cells spread
over worker processes; until this module, the only signal that it was
alive was the process table. The pieces here close that gap:

* :class:`Heartbeat` — the tiny record of a cell event (``start``,
  ``done``, ``cached``) that :func:`repro.sim.parallel.execute_matrix`
  hands its ``progress`` hook, always in the parent process. A worker
  puts one ``(pid, scheme, benchmark)`` start triple per cell on a
  ``multiprocessing`` manager queue; the parent reads each ``done``
  off the cell's spans as it settles the cell, and emits ``cached``
  for result-cache hits.
* :class:`SweepMonitor` — the parent-side aggregator: feeds on
  heartbeats, tracks per-worker state, keeps the done-count
  **monotone** (a crashed worker can stall, never un-finish work) and
  derives throughput and an ETA.
* :class:`SweepStatus` / :func:`format_status` — an immutable snapshot
  and its one-line rendering (the ``--follow`` status line).
* :class:`FollowPrinter` — carriage-return single-line terminal
  rendering with proper teardown.

Everything here is stdlib-only and imports nothing from ``repro.sim``,
so the parallel runner can feed it without an import cycle. Clocks are
``time.perf_counter`` (monotonic, lint-clean): the monitor measures
*durations*, never datetimes, and none of it feeds back into results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, TextIO, Tuple

__all__ = [
    "FollowPrinter",
    "Heartbeat",
    "SweepMonitor",
    "SweepStatus",
    "WorkerState",
    "format_status",
]

#: Heartbeat kinds, in protocol order.
HEARTBEAT_KINDS = ("start", "done", "cached")


@dataclass(frozen=True)
class Heartbeat:
    """One worker's progress pulse — small and picklable by design.

    Attributes:
        worker: producer id (worker pid; 0 for parent-side events).
        kind: ``"start"`` (picked up a cell), ``"done"`` (finished
            one, with its measurements) or ``"cached"`` (the parent
            served the cell from the result cache).
        scheme: the cell's scheme label.
        benchmark: the cell's benchmark name.
        branches: conditional branches simulated (``done`` only).
        wall: seconds the cell took (``done`` / ``cached``).
        rss_bytes: the worker's peak RSS at the end of the cell
            (``done`` only; 0 when the producer could not read it).
    """

    worker: int
    kind: str
    scheme: str
    benchmark: str
    branches: int = 0
    wall: float = 0.0
    rss_bytes: int = 0

    def __post_init__(self) -> None:
        if self.kind not in HEARTBEAT_KINDS:
            raise ValueError(
                f"unknown heartbeat kind {self.kind!r}; expected one of {HEARTBEAT_KINDS}"
            )

    @property
    def cell(self) -> str:
        return f"{self.scheme}/{self.benchmark}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "worker": self.worker,
            "kind": self.kind,
            "scheme": self.scheme,
            "benchmark": self.benchmark,
            "branches": self.branches,
            "wall": self.wall,
            "rss_bytes": self.rss_bytes,
        }


@dataclass
class WorkerState:
    """What the monitor knows about one worker process."""

    worker: int
    current: Optional[str] = None  # "scheme/benchmark" while a cell is in flight
    done: int = 0
    branches: int = 0
    busy_seconds: float = 0.0
    last_seen: float = 0.0  # parent receive time (monotonic clock)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "worker": self.worker,
            "current": self.current,
            "done": self.done,
            "branches": self.branches,
            "busy_seconds": self.busy_seconds,
            "last_seen": self.last_seen,
        }


@dataclass(frozen=True)
class SweepStatus:
    """An immutable snapshot of sweep progress at one instant.

    ``done`` counts cells finished by any path (worker or cache) and is
    monotone across snapshots of the same monitor. ``eta_seconds`` is
    ``None`` until at least one cell has finished. ``stale`` lists
    workers with a cell in flight that have not been heard from for the
    monitor's ``stale_after`` window — the visible symptom of a crashed
    or wedged worker (its claimed cell is *not* counted done).
    """

    done: int
    total: int
    elapsed: float
    active: Tuple[str, ...]
    stale: Tuple[int, ...]
    branches_per_sec: float
    eta_seconds: Optional[float]
    cached: int = 0
    peak_rss_bytes: int = 0

    @property
    def finished(self) -> bool:
        return self.done >= self.total

    @property
    def fraction(self) -> float:
        return self.done / self.total if self.total > 0 else 1.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "done": self.done,
            "total": self.total,
            "elapsed": self.elapsed,
            "active": list(self.active),
            "stale": list(self.stale),
            "branches_per_sec": self.branches_per_sec,
            "eta_seconds": self.eta_seconds,
            "cached": self.cached,
            "peak_rss_bytes": self.peak_rss_bytes,
        }


class SweepMonitor:
    """Aggregates :class:`Heartbeat` pulses into :class:`SweepStatus`.

    The monitor is single-threaded by contract: the parent process
    drains the heartbeat queue and calls :meth:`observe` between
    ``concurrent.futures.wait`` timeouts. Clock injection (any
    zero-arg float callable) keeps tests deterministic; the default is
    the monotonic ``time.perf_counter``.

    Args:
        total_cells: number of cells the sweep will produce.
        stale_after: seconds of silence (while a cell is in flight)
            after which a worker is reported stale.
        clock: monotonic time source.
    """

    def __init__(
        self,
        total_cells: int,
        stale_after: float = 30.0,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if total_cells < 0:
            raise ValueError("total_cells must be >= 0")
        if stale_after <= 0:
            raise ValueError("stale_after must be positive")
        self.total_cells = total_cells
        self.stale_after = stale_after
        self._clock = clock
        self._t0 = clock()
        self._done = 0
        self._cached = 0
        self._branches = 0
        self._peak_rss = 0
        self._workers: Dict[int, WorkerState] = {}
        self._history: List[Heartbeat] = []

    # -- feeding -------------------------------------------------------

    def observe(self, beat: Heartbeat) -> None:
        """Fold one heartbeat into the aggregate state."""
        now = self._clock()
        self._history.append(beat)
        state = self._workers.get(beat.worker)
        if state is None:
            state = self._workers[beat.worker] = WorkerState(worker=beat.worker)
        state.last_seen = now
        if beat.kind == "start":
            state.current = beat.cell
        elif beat.kind == "done":
            state.current = None
            state.done += 1
            state.branches += beat.branches
            state.busy_seconds += beat.wall
            self._done += 1
            self._branches += beat.branches
            self._peak_rss = max(self._peak_rss, beat.rss_bytes)
        elif beat.kind == "cached":
            # Parent-side event: the cell never reached a worker.
            state.current = None
            state.done += 1
            self._done += 1
            self._cached += 1

    def observe_cached(self, scheme: str, benchmark: str) -> None:
        """Record a cell served from the result cache (parent side)."""
        self.observe(Heartbeat(worker=0, kind="cached", scheme=scheme, benchmark=benchmark))

    # -- reading -------------------------------------------------------

    @property
    def done(self) -> int:
        return self._done

    @property
    def history(self) -> List[Heartbeat]:
        """Every heartbeat observed, in arrival order (for tests/audit)."""
        return list(self._history)

    def status(self) -> SweepStatus:
        """Snapshot progress now (monotone ``done`` across snapshots)."""
        now = self._clock()
        elapsed = now - self._t0
        active: List[str] = []
        stale: List[int] = []
        for worker in sorted(self._workers):
            state = self._workers[worker]
            if state.current is None:
                continue
            if now - state.last_seen > self.stale_after:
                stale.append(worker)
            else:
                active.append(state.current)
        rate = self._branches / elapsed if elapsed > 0 and self._branches > 0 else 0.0
        eta: Optional[float] = None
        if 0 < self._done <= self.total_cells and elapsed > 0:
            remaining = self.total_cells - self._done
            eta = remaining * (elapsed / self._done)
        return SweepStatus(
            done=min(self._done, self.total_cells) if self.total_cells else self._done,
            total=self.total_cells,
            elapsed=elapsed,
            active=tuple(active),
            stale=tuple(stale),
            branches_per_sec=rate,
            eta_seconds=eta,
            cached=self._cached,
            peak_rss_bytes=self._peak_rss,
        )


def _format_rate(branches_per_sec: float) -> str:
    if branches_per_sec >= 1e6:
        return f"{branches_per_sec / 1e6:.1f}M br/s"
    if branches_per_sec >= 1e3:
        return f"{branches_per_sec / 1e3:.0f}k br/s"
    return f"{branches_per_sec:.0f} br/s"


def _format_eta(eta_seconds: Optional[float]) -> str:
    if eta_seconds is None:
        return "ETA --"
    if eta_seconds >= 90:
        return f"ETA {eta_seconds / 60:.1f}m"
    return f"ETA {eta_seconds:.0f}s"


def format_status(status: SweepStatus, width: int = 20) -> str:
    """Render one status line (the ``--follow`` display).

    Example::

        [#########...........] 24/54 cells | 4 running | 1.8M br/s | ETA 38s
    """
    filled = int(round(status.fraction * width))
    bar = "#" * filled + "." * (width - filled)
    parts = [
        f"[{bar}] {status.done}/{status.total} cells",
        f"{len(status.active)} running",
        _format_rate(status.branches_per_sec),
        _format_eta(status.eta_seconds),
    ]
    if status.cached:
        parts.insert(1, f"{status.cached} cached")
    if status.peak_rss_bytes:
        parts.append(f"rss {status.peak_rss_bytes // (1024 * 1024)} MiB")
    if status.stale:
        stale_ids = ",".join(str(worker) for worker in status.stale)
        parts.append(f"STALE workers: {stale_ids}")
    if status.active:
        shown = ", ".join(status.active[:3])
        if len(status.active) > 3:
            shown += f", +{len(status.active) - 3}"
        parts.append(shown)
    return " | ".join(parts)


class FollowPrinter:
    """Single-line terminal renderer for ``--follow`` mode.

    Rewrites one carriage-return-terminated status line per update and
    finishes it with a newline on :meth:`close`, so the final state
    stays visible above subsequent output. Writes are best-effort: a
    closed stream never fails the sweep.
    """

    def __init__(self, stream: TextIO) -> None:
        self.stream = stream
        self._last_width = 0

    def update(self, status: SweepStatus) -> None:
        line = format_status(status)
        pad = max(0, self._last_width - len(line))
        self._last_width = len(line)
        try:
            self.stream.write("\r" + line + " " * pad)
            self.stream.flush()
        except ValueError:
            pass

    def close(self) -> None:
        if self._last_width:
            try:
                self.stream.write("\n")
                self.stream.flush()
            except ValueError:
                pass
        self._last_width = 0
