"""The run ledger: persistent, append-only memory across runs.

PR 3 gave a *single* run deep visibility; this module gives the repo a
memory. Every engine / experiment / benchmark run can be recorded as a
:class:`LedgerEntry` — scheme and trace identity, exact result counts,
git revision, wall time and per-phase breakdown, branches/second — in
an append-only JSONL store under ``results/ledger/``:

* entries are **content-addressed by config hash**: runs of the same
  (kind, scheme, workload, dataset, context-switch) configuration land
  in the same ``<config-hash>.jsonl`` shard, in append order, so a
  configuration's history is one file read;
* each entry's ``run_id`` is a content hash of its full payload, so
  ids are stable, reproducible and collision-evident;
* the **regression sentinel** (:func:`regress`) walks every
  configuration's history and flags accuracy deltas beyond a tolerance
  (errors — simulation is deterministic, *any* drift is a bug),
  throughput drops beyond a rolling baseline, and per-phase time
  blow-ups beyond a rolling per-phase baseline (both warnings — wall
  clocks are machine-dependent);
* :func:`compare_entries` diffs any two recorded runs;
  :func:`export_bench` renders the benchmark trajectory as a
  ``BENCH_<YYYYMMDD>.json`` snapshot.

The CLI surface is ``repro-obs history`` / ``compare`` / ``regress`` /
``export-bench`` (see :mod:`repro.obs.cli`). Wall-clock reads in this
module are telemetry only — timestamps describe *when* a run happened
and never feed back into any result; the determinism lint's pragma
allowances below are scoped to exactly those reads.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..sim.results import ResultMatrix, RunTelemetry
from .report import RunReport

__all__ = [
    "LEDGER_SCHEMA",
    "LedgerEntry",
    "RegressionFinding",
    "RegressionReport",
    "RunDelta",
    "RunLedger",
    "compare_entries",
    "compute_config_hash",
    "entries_from_matrix",
    "entry_from_benchmark",
    "entry_from_characterization",
    "entry_from_report",
    "export_bench",
    "format_history",
    "git_revision",
    "regress",
]

#: Schema identifier embedded in every serialised ledger entry.
LEDGER_SCHEMA = "repro.obs.ledger/1"

#: Schema of the exported ``BENCH_<YYYYMMDD>.json`` snapshots.
_BENCH_SCHEMA = "repro.bench/1"

_git_revision_cache: Optional[str] = None


def git_revision() -> str:
    """The current git revision (short hash), or ``"unknown"``.

    Cached per process; telemetry identity only — results never depend
    on it.
    """
    global _git_revision_cache
    if _git_revision_cache is None:
        try:
            output = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True,
                text=True,
                timeout=5,
                cwd=Path(__file__).resolve().parent,
                check=True,
            ).stdout.strip()
            _git_revision_cache = output or "unknown"
        except Exception:
            _git_revision_cache = "unknown"
    return _git_revision_cache


def _context_token(context: Optional[Any]) -> str:
    """Stable identity token for a context-switch configuration.

    Accepts the :class:`~repro.sim.engine.ContextSwitchConfig` duck
    type (``interval`` / ``switch_on_traps``) or ``None``; mirrors the
    key recipe of :func:`repro.sim.parallel.result_cache_key`.
    """
    if context is None:
        return "cs:none"
    return f"cs:{context.interval}:{int(bool(context.switch_on_traps))}"


def compute_config_hash(
    kind: str,
    scheme: str,
    workload: str,
    dataset: str = "",
    context: Optional[Any] = None,
) -> str:
    """Content hash of a run configuration (the ledger's address).

    Two runs share a config hash exactly when they are re-runs of the
    same measurement: same kind (``"obs"`` / ``"matrix"`` /
    ``"bench"`` / ``"char"``), scheme, workload, dataset and
    context-switch model.
    """
    payload = "\n".join(
        [LEDGER_SCHEMA, kind, scheme, workload, dataset, _context_token(context)]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class LedgerEntry:
    """One recorded run: identity, exact counts, and timing telemetry.

    Attributes:
        kind: ``"obs"`` (single observed run), ``"matrix"`` (one sweep
            cell), ``"bench"`` (a pytest-benchmark measurement) or
            ``"char"`` (a predictability characterization report).
        scheme: scheme label (``"bench"`` for benchmark entries).
        workload: benchmark / trace name (for ``bench`` entries, the
            benchmark test id).
        dataset: input dataset label (``""`` when not applicable).
        config_hash: :func:`compute_config_hash` of the identity above.
        run_id: content hash of the entry payload, assigned on append.
        seq: position within the configuration's history (0-based),
            assigned on append.
        timestamp: wall-clock epoch seconds of the append (telemetry).
        git_revision: short git hash of the recording checkout.
        conditional_branches / correct_predictions /
        total_instructions / context_switches: exact result counts
            (all zero for ``bench`` entries).
        wall_time: seconds the measured phase took.
        branches_per_sec: throughput of the simulate phase (0.0 when
            unknown).
        phases: per-phase seconds breakdown (``trace_load`` / ``build``
            / ``simulate`` / ``cache_lookup`` vocabulary). The
            ``simulate`` span keeps that name for every engine backend,
            so ``branches_per_sec`` is comparable across the
            interpreted loop and the vectorized kernels; which backend
            ran is recorded under ``extra["backend"]``.
        extra: free-form JSON-compatible payload (benchmark
            ``extra_info``, worker counts, engine backend, ...).
    """

    kind: str
    scheme: str
    workload: str
    dataset: str = ""
    config_hash: str = ""
    run_id: str = ""
    seq: int = -1
    timestamp: float = 0.0
    git_revision: str = "unknown"
    conditional_branches: int = 0
    correct_predictions: int = 0
    total_instructions: int = 0
    context_switches: int = 0
    wall_time: float = 0.0
    branches_per_sec: float = 0.0
    phases: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def accuracy(self) -> Optional[float]:
        """Exact accuracy recomputed from the stored integer counts.

        ``None`` when the entry records no branches (bench entries),
        so consumers never mistake "no data" for 0% accuracy.
        """
        if self.conditional_branches <= 0:
            return None
        return self.correct_predictions / self.conditional_branches

    @property
    def mispredictions(self) -> int:
        return self.conditional_branches - self.correct_predictions

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible dict; every key always present, schema first."""
        return {
            "schema": LEDGER_SCHEMA,
            "kind": self.kind,
            "scheme": self.scheme,
            "workload": self.workload,
            "dataset": self.dataset,
            "config_hash": self.config_hash,
            "run_id": self.run_id,
            "seq": self.seq,
            "timestamp": self.timestamp,
            "git_revision": self.git_revision,
            "conditional_branches": self.conditional_branches,
            "correct_predictions": self.correct_predictions,
            "total_instructions": self.total_instructions,
            "context_switches": self.context_switches,
            "wall_time": self.wall_time,
            "branches_per_sec": self.branches_per_sec,
            "phases": {name: self.phases[name] for name in sorted(self.phases)},
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "LedgerEntry":
        """Reconstruct an entry serialised by :meth:`to_dict` exactly."""
        schema = str(payload.get("schema", LEDGER_SCHEMA))
        if not schema.startswith("repro.obs.ledger/"):
            raise ValueError(f"not a ledger entry (schema={schema!r})")
        return cls(
            kind=payload["kind"],
            scheme=payload["scheme"],
            workload=payload["workload"],
            dataset=payload.get("dataset", ""),
            config_hash=payload.get("config_hash", ""),
            run_id=payload.get("run_id", ""),
            seq=int(payload.get("seq", -1)),
            timestamp=float(payload.get("timestamp", 0.0)),
            git_revision=payload.get("git_revision", "unknown"),
            conditional_branches=int(payload.get("conditional_branches", 0)),
            correct_predictions=int(payload.get("correct_predictions", 0)),
            total_instructions=int(payload.get("total_instructions", 0)),
            context_switches=int(payload.get("context_switches", 0)),
            wall_time=float(payload.get("wall_time", 0.0)),
            branches_per_sec=float(payload.get("branches_per_sec", 0.0)),
            phases={k: float(v) for k, v in payload.get("phases", {}).items()},
            extra=dict(payload.get("extra", {})),
        )


class RunLedger:
    """Append-only store of :class:`LedgerEntry` records.

    One JSONL shard per configuration (file name = config-hash prefix);
    appends only ever add lines, so the ledger is safe to commit, diff
    and merge. The default location is ``results/ledger/``.
    """

    #: Shard filename length (hex chars of the config hash).
    SHARD_CHARS = 16

    def __init__(self, directory: Union[str, Path] = Path("results") / "ledger") -> None:
        self.directory = Path(directory)

    # -- write ---------------------------------------------------------

    def append(self, entry: LedgerEntry) -> LedgerEntry:
        """Record one run; returns the finalised (addressed) entry.

        Missing bookkeeping fields are assigned here: ``config_hash``
        (from the entry's identity), ``seq`` (its position in the
        configuration's history), ``timestamp`` (now), ``git_revision``
        and ``run_id`` (content hash of the final payload).
        """
        config_hash = entry.config_hash or compute_config_hash(
            entry.kind, entry.scheme, entry.workload, entry.dataset
        )
        prior = self.runs(config_hash)
        timestamp = entry.timestamp
        if timestamp == 0.0:
            timestamp = time.time()  # check: allow(det/wall-clock) — telemetry timestamp
        finalised = LedgerEntry(
            kind=entry.kind,
            scheme=entry.scheme,
            workload=entry.workload,
            dataset=entry.dataset,
            config_hash=config_hash,
            run_id=entry.run_id,
            seq=entry.seq if entry.seq >= 0 else len(prior),
            timestamp=timestamp,
            git_revision=(
                entry.git_revision if entry.git_revision != "unknown" else git_revision()
            ),
            conditional_branches=entry.conditional_branches,
            correct_predictions=entry.correct_predictions,
            total_instructions=entry.total_instructions,
            context_switches=entry.context_switches,
            wall_time=entry.wall_time,
            branches_per_sec=entry.branches_per_sec,
            phases=dict(entry.phases),
            extra=dict(entry.extra),
        )
        if not finalised.run_id:
            payload = finalised.to_dict()
            payload["run_id"] = ""
            digest = hashlib.sha256(
                json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
            ).hexdigest()
            finalised = LedgerEntry.from_dict({**payload, "run_id": digest[:16]})
        self.directory.mkdir(parents=True, exist_ok=True)
        shard = self._shard_path(config_hash)
        with shard.open("a", encoding="utf-8") as stream:
            stream.write(json.dumps(finalised.to_dict(), separators=(",", ":")) + "\n")
            # The ledger is the regression sentinel's source of truth:
            # a record must be durable once append returns, not sitting
            # in a page cache a crash discards (found by
            # res/append-without-fsync).
            stream.flush()
            os.fsync(stream.fileno())
        return finalised

    def extend(self, entries: Sequence[LedgerEntry]) -> List[LedgerEntry]:
        """Append many entries; returns the finalised records."""
        return [self.append(entry) for entry in entries]

    # -- read ----------------------------------------------------------

    def _shard_path(self, config_hash: str) -> Path:
        return self.directory / f"{config_hash[: self.SHARD_CHARS]}.jsonl"

    def runs(self, config_hash: str) -> List[LedgerEntry]:
        """One configuration's history, in append order."""
        shard = self._shard_path(config_hash)
        if not shard.exists():
            return []
        entries = []
        for line in shard.read_text(encoding="utf-8").splitlines():
            if line.strip():
                entries.append(LedgerEntry.from_dict(json.loads(line)))
        return entries

    def entries(self) -> List[LedgerEntry]:
        """Every recorded run, ordered by (timestamp, config, seq)."""
        collected: List[LedgerEntry] = []
        if not self.directory.exists():
            return collected
        for shard in sorted(self.directory.glob("*.jsonl")):
            for line in shard.read_text(encoding="utf-8").splitlines():
                if line.strip():
                    collected.append(LedgerEntry.from_dict(json.loads(line)))
        collected.sort(key=lambda entry: (entry.timestamp, entry.config_hash, entry.seq))
        return collected

    def by_config(self) -> Dict[str, List[LedgerEntry]]:
        """config hash -> history in append order (regression groups)."""
        groups: Dict[str, List[LedgerEntry]] = {}
        for entry in self.entries():
            groups.setdefault(entry.config_hash, []).append(entry)
        for runs in groups.values():
            runs.sort(key=lambda entry: entry.seq)
        return groups

    def history(
        self,
        scheme: Optional[str] = None,
        workload: Optional[str] = None,
        kind: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[LedgerEntry]:
        """Filtered, time-ordered view (newest last)."""
        selected = [
            entry
            for entry in self.entries()
            if (scheme is None or entry.scheme == scheme)
            and (workload is None or entry.workload == workload)
            and (kind is None or entry.kind == kind)
        ]
        if limit is not None and limit >= 0:
            selected = selected[-limit:]
        return selected

    def find(self, selector: str) -> LedgerEntry:
        """Resolve a run selector to one entry.

        Selectors: a ``run_id`` prefix (at least 4 chars), ``latest``,
        or ``latest~N`` (the Nth-newest run, git style).

        Raises:
            KeyError: no match, or an ambiguous prefix.
        """
        entries = self.entries()
        if not entries:
            raise KeyError("the ledger is empty")
        if selector == "latest" or selector.startswith("latest~"):
            back = 0
            if "~" in selector:
                try:
                    back = int(selector.split("~", 1)[1])
                except ValueError:
                    raise KeyError(f"bad selector {selector!r}") from None
            if back < 0 or back >= len(entries):
                raise KeyError(
                    f"{selector!r} is out of range (ledger holds {len(entries)} runs)"
                )
            return entries[-1 - back]
        if len(selector) < 4:
            raise KeyError(f"run-id prefix {selector!r} is too short (min 4 chars)")
        matches = [entry for entry in entries if entry.run_id.startswith(selector)]
        if not matches:
            raise KeyError(f"no run matches {selector!r}")
        if len({entry.run_id for entry in matches}) > 1:
            raise KeyError(f"run-id prefix {selector!r} is ambiguous")
        return matches[-1]

    def __len__(self) -> int:
        return len(self.entries())


# ----------------------------------------------------------------------
# Entry builders
# ----------------------------------------------------------------------


def _rate(branches: int, seconds: float) -> float:
    return branches / seconds if seconds > 0 and branches > 0 else 0.0


def entry_from_report(
    report: RunReport, context: Optional[Any] = None, kind: str = "obs"
) -> LedgerEntry:
    """Build a ledger entry from an observed run's :class:`RunReport`.

    The report's free-form ``extra`` attachments (notably the embedded
    characterization payload) are copied into the entry verbatim, so
    they round-trip through the ledger and reach the Prometheus
    exposition.
    """
    result = report.result
    if result is None:
        raise ValueError("the run report carries no simulation result")
    phases = {name: span.get("seconds", 0.0) for name, span in report.timing.items()}
    simulate_s = phases.get("simulate", 0.0)
    extra: Dict[str, Any] = dict(report.extra)
    if report.streaks:
        extra["max_streak"] = report.max_streak
    return LedgerEntry(
        kind=kind,
        scheme=report.scheme,
        workload=report.workload,
        dataset=report.dataset,
        config_hash=compute_config_hash(
            kind, report.scheme, report.workload, report.dataset, context
        ),
        conditional_branches=result.conditional_branches,
        correct_predictions=result.correct_predictions,
        total_instructions=result.total_instructions,
        context_switches=result.context_switches,
        wall_time=sum(phases.values()),
        branches_per_sec=_rate(result.conditional_branches, simulate_s),
        phases=phases,
        extra=extra,
    )


def entries_from_matrix(
    matrix: ResultMatrix, context: Optional[Any] = None, spans: Optional[Any] = None
) -> List[LedgerEntry]:
    """One ``"matrix"`` entry per evaluated (scheme, benchmark) cell.

    Wall time and phase breakdowns come from the matrix's attached
    :class:`~repro.sim.results.RunTelemetry` when present; cells served
    from the result cache record their lookup cost, not a simulation.
    When the sweep was traced, pass the collected spans (a
    :class:`repro.obs.spans.SpanCollector` or a span sequence) to embed
    each cell's span summary as ``extra["spans"]``; cells with a peak
    worker RSS reading record it as ``extra["rss_peak_bytes"]``.
    """
    cell_summaries: Dict[Tuple[str, str], Any] = {}
    if spans is not None:
        from .spans import cell_span_summaries

        span_list = getattr(spans, "spans", spans)
        cell_summaries = cell_span_summaries(span_list)
    telemetry: Optional[RunTelemetry] = matrix.telemetry
    cell_info: Dict[Tuple[str, str], Any] = {}
    if telemetry is not None:
        for cell in telemetry.cells:
            cell_info[(cell.scheme, cell.benchmark)] = cell
    entries: List[LedgerEntry] = []
    for scheme in matrix.schemes:
        for benchmark in matrix.benchmarks:
            result = matrix.cells.get(scheme, {}).get(benchmark)
            if result is None:
                continue
            cell = cell_info.get((scheme, benchmark))
            phases = dict(cell.phases) if cell is not None else {}
            wall = cell.wall_time if cell is not None else 0.0
            simulate_s = phases.get("simulate", 0.0)
            extra: Dict[str, Any] = {}
            if cell is not None:
                extra["source"] = cell.source
                if getattr(cell, "backend", ""):
                    extra["backend"] = cell.backend
                if getattr(cell, "rss_peak", 0):
                    extra["rss_peak_bytes"] = cell.rss_peak
            if telemetry is not None:
                extra["workers"] = telemetry.n_workers
            summary = cell_summaries.get((scheme, benchmark))
            if summary is not None:
                extra["spans"] = summary
            entries.append(
                LedgerEntry(
                    kind="matrix",
                    scheme=scheme,
                    workload=benchmark,
                    dataset=result.dataset,
                    config_hash=compute_config_hash(
                        "matrix", scheme, benchmark, result.dataset, context
                    ),
                    conditional_branches=result.conditional_branches,
                    correct_predictions=result.correct_predictions,
                    total_instructions=result.total_instructions,
                    context_switches=result.context_switches,
                    wall_time=wall,
                    branches_per_sec=_rate(result.conditional_branches, simulate_s),
                    phases=phases,
                    extra=extra,
                )
            )
    return entries


def entry_from_benchmark(
    name: str, seconds: float, extra_info: Optional[Mapping[str, Any]] = None
) -> LedgerEntry:
    """Build a ``"bench"`` entry from one pytest-benchmark measurement.

    Args:
        name: the benchmark test id (e.g. ``test_bench_fig9``).
        seconds: the measurement (pytest-benchmark's ``min`` — the
            least-noise statistic for regression tracking).
        extra_info: the benchmark's ``extra_info`` dict; only
            JSON-scalar values are kept.
    """
    extra = {
        key: value
        for key, value in (extra_info or {}).items()
        if isinstance(value, (str, int, float, bool))
    }
    return LedgerEntry(
        kind="bench",
        scheme="bench",
        workload=name,
        config_hash=compute_config_hash("bench", "bench", name),
        wall_time=seconds,
        extra=extra,
    )


def entry_from_characterization(
    payload: Mapping[str, Any], wall_time: float = 0.0
) -> LedgerEntry:
    """Build a ``"char"`` entry from a serialised characterization.

    Args:
        payload: a :class:`repro.analysis.predictability.CharacterizationReport`
            ``to_dict`` payload (schema ``repro.analysis.char/…``).
        wall_time: seconds the characterization took, when known.

    The full payload is stored under ``extra["characterization"]``, so
    ``CharacterizationReport.from_dict(entry.extra["characterization"])``
    reconstructs the report exactly; the scheme label is ``"char"``
    (mirroring how bench entries use ``"bench"``).
    """
    schema = str(payload.get("schema", ""))
    if not schema.startswith("repro.analysis.char/"):
        raise ValueError(f"not a characterization payload (schema={schema!r})")
    workload = str(payload.get("workload", ""))
    dataset = str(payload.get("dataset", ""))
    return LedgerEntry(
        kind="char",
        scheme="char",
        workload=workload,
        dataset=dataset,
        config_hash=compute_config_hash("char", "char", workload, dataset),
        # Branch counts stay zero (accuracy reads "no data", like bench
        # entries); the exact counts live inside the payload itself.
        wall_time=wall_time,
        extra={"characterization": dict(payload)},
    )


# ----------------------------------------------------------------------
# Comparison and the regression sentinel
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RunDelta:
    """The difference between two recorded runs (``b`` relative to ``a``)."""

    run_a: str
    run_b: str
    label_a: str
    label_b: str
    same_config: bool
    accuracy_a: Optional[float]
    accuracy_b: Optional[float]
    accuracy_delta: Optional[float]
    mispredictions_delta: int
    wall_time_ratio: Optional[float]
    throughput_ratio: Optional[float]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run_a": self.run_a,
            "run_b": self.run_b,
            "label_a": self.label_a,
            "label_b": self.label_b,
            "same_config": self.same_config,
            "accuracy_a": self.accuracy_a,
            "accuracy_b": self.accuracy_b,
            "accuracy_delta": self.accuracy_delta,
            "mispredictions_delta": self.mispredictions_delta,
            "wall_time_ratio": self.wall_time_ratio,
            "throughput_ratio": self.throughput_ratio,
        }

    def format_text(self) -> str:
        lines = [
            f"# compare {self.run_a} ({self.label_a})",
            f"#      vs {self.run_b} ({self.label_b})",
            f"same configuration : {'yes' if self.same_config else 'NO'}",
        ]
        if self.accuracy_delta is not None:
            lines.append(
                f"accuracy           : {self.accuracy_a * 100:.4f}% -> "
                f"{self.accuracy_b * 100:.4f}%  (delta {self.accuracy_delta * 100:+.4f} pp)"
            )
            lines.append(f"mispredictions     : {self.mispredictions_delta:+d}")
        else:
            lines.append("accuracy           : n/a (a run records no branches)")
        if self.throughput_ratio is not None:
            lines.append(f"throughput         : x{self.throughput_ratio:.3f}")
        if self.wall_time_ratio is not None:
            lines.append(f"wall time          : x{self.wall_time_ratio:.3f}")
        return "\n".join(lines)


def compare_entries(a: LedgerEntry, b: LedgerEntry) -> RunDelta:
    """Diff two ledger entries (``b`` relative to ``a``)."""
    accuracy_a, accuracy_b = a.accuracy, b.accuracy
    delta = (
        accuracy_b - accuracy_a
        if accuracy_a is not None and accuracy_b is not None
        else None
    )
    return RunDelta(
        run_a=a.run_id,
        run_b=b.run_id,
        label_a=f"{a.scheme} on {a.workload}",
        label_b=f"{b.scheme} on {b.workload}",
        same_config=a.config_hash == b.config_hash,
        accuracy_a=accuracy_a,
        accuracy_b=accuracy_b,
        accuracy_delta=delta,
        mispredictions_delta=b.mispredictions - a.mispredictions,
        wall_time_ratio=(
            b.wall_time / a.wall_time if a.wall_time > 0 and b.wall_time > 0 else None
        ),
        throughput_ratio=(
            b.branches_per_sec / a.branches_per_sec
            if a.branches_per_sec > 0 and b.branches_per_sec > 0
            else None
        ),
    )


@dataclass(frozen=True)
class RegressionFinding:
    """One flagged configuration."""

    severity: str  # "error" | "warning"
    rule: str  # "accuracy-drift" | "throughput-drop" | "phase-drift"
    config_hash: str
    scheme: str
    workload: str
    latest_run: str
    baseline_run: str
    message: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "severity": self.severity,
            "rule": self.rule,
            "config_hash": self.config_hash,
            "scheme": self.scheme,
            "workload": self.workload,
            "latest_run": self.latest_run,
            "baseline_run": self.baseline_run,
            "message": self.message,
        }


@dataclass
class RegressionReport:
    """The sentinel's verdict over the whole ledger."""

    findings: List[RegressionFinding] = field(default_factory=list)
    checked_configs: int = 0
    skipped_configs: int = 0

    @property
    def errors(self) -> List[RegressionFinding]:
        return [finding for finding in self.findings if finding.severity == "error"]

    @property
    def warnings(self) -> List[RegressionFinding]:
        return [finding for finding in self.findings if finding.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.findings

    def exit_code(self, strict: bool = False) -> int:
        if self.errors:
            return 1
        if strict and self.warnings:
            return 1
        return 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "checked_configs": self.checked_configs,
            "skipped_configs": self.skipped_configs,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "findings": [finding.to_dict() for finding in self.findings],
        }

    def format_text(self) -> str:
        lines = [
            f"# repro.obs regress — {self.checked_configs} configurations checked, "
            f"{self.skipped_configs} without a baseline"
        ]
        if not self.findings:
            lines.append("clean: no accuracy drift, no throughput or phase drops")
        for finding in self.findings:
            lines.append(
                f"{finding.severity.upper():7s} {finding.rule:16s} "
                f"{finding.scheme} on {finding.workload}: {finding.message}"
            )
        return "\n".join(lines)


def _validate_fraction(name: str, value: float, upper: float) -> None:
    if not isinstance(value, (int, float)) or math.isnan(value) or math.isinf(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if value < 0 or value >= upper:
        raise ValueError(f"{name} must be in [0, {upper}), got {value!r}")


#: Phases shorter than this (seconds, rolling baseline) are exempt from
#: the phase-drift rule: sub-10ms phases are dominated by scheduler and
#: allocator noise, and flagging them would make the sentinel cry wolf.
_PHASE_DRIFT_FLOOR_S = 0.01


def regress(
    ledger: RunLedger,
    tolerance: float = 0.0,
    throughput_drop: float = 0.5,
    window: int = 5,
    phase_drift: float = 1.0,
) -> RegressionReport:
    """Run the regression sentinel over every configuration's history.

    Args:
        ledger: the run ledger to audit.
        tolerance: maximum tolerated ``|accuracy delta|`` between the
            latest run and its immediate predecessor. The simulator is
            deterministic, so the default is exact (0.0): *any* drift —
            up or down — is flagged as an error.
        throughput_drop: fraction below the rolling baseline
            (median branches/sec of up to ``window`` prior runs) at
            which the latest run's throughput is flagged as a warning.
        window: rolling-baseline width in runs.
        phase_drift: fraction above the rolling per-phase baseline
            (median seconds of that phase over up to ``window`` prior
            runs) at which a phase's time is flagged as a warning — the
            default ``1.0`` flags a phase that doubled. Phases whose
            baseline is under 10 ms are skipped (timing noise), as is
            the whole rule when ``phase_drift`` is 0.

    Edge cases by design: an empty ledger or a configuration with a
    single run produce no findings (nothing to compare — counted in
    ``skipped_configs``); runs without branch counts (bench entries)
    skip the accuracy rule; runs without throughput skip the
    throughput rule; runs without phase breakdowns skip the phase
    rule. ``tolerance`` / ``throughput_drop`` / ``phase_drift`` must
    be finite — NaN would silently disable every comparison.
    """
    _validate_fraction("tolerance", tolerance, 1.0)
    _validate_fraction("throughput_drop", throughput_drop, 1.0)
    _validate_fraction("phase_drift", phase_drift, math.inf)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")

    report = RegressionReport()
    for config_hash, runs in sorted(ledger.by_config().items()):
        if len(runs) < 2:
            report.skipped_configs += 1
            continue
        report.checked_configs += 1
        latest, previous = runs[-1], runs[-2]

        latest_accuracy, previous_accuracy = latest.accuracy, previous.accuracy
        if latest_accuracy is not None and previous_accuracy is not None:
            delta = latest_accuracy - previous_accuracy
            if abs(delta) > tolerance:
                report.findings.append(
                    RegressionFinding(
                        severity="error",
                        rule="accuracy-drift",
                        config_hash=config_hash,
                        scheme=latest.scheme,
                        workload=latest.workload,
                        latest_run=latest.run_id,
                        baseline_run=previous.run_id,
                        message=(
                            f"accuracy moved {delta * 100:+.4f} pp "
                            f"({previous_accuracy * 100:.4f}% -> {latest_accuracy * 100:.4f}%) "
                            f"beyond tolerance {tolerance * 100:.4f} pp; the simulator is "
                            "deterministic, so this is a behaviour change"
                        ),
                    )
                )

        prior_rates = [
            run.branches_per_sec for run in runs[-(window + 1) : -1] if run.branches_per_sec > 0
        ]
        if prior_rates and latest.branches_per_sec > 0:
            baseline = median(prior_rates)
            floor = (1.0 - throughput_drop) * baseline
            if latest.branches_per_sec < floor:
                report.findings.append(
                    RegressionFinding(
                        severity="warning",
                        rule="throughput-drop",
                        config_hash=config_hash,
                        scheme=latest.scheme,
                        workload=latest.workload,
                        latest_run=latest.run_id,
                        baseline_run=runs[-2].run_id,
                        message=(
                            f"{latest.branches_per_sec:,.0f} branches/s is "
                            f"{100 * (1 - latest.branches_per_sec / baseline):.1f}% below the "
                            f"rolling baseline of {baseline:,.0f} branches/s "
                            f"(median of {len(prior_rates)} prior runs)"
                        ),
                    )
                )

        if phase_drift > 0 and latest.phases:
            prior_runs = runs[-(window + 1) : -1]
            for phase in sorted(latest.phases):
                latest_s = latest.phases[phase]
                prior = [
                    run.phases[phase]
                    for run in prior_runs
                    if phase in run.phases and run.phases[phase] > 0
                ]
                if not prior:
                    continue
                baseline = median(prior)
                if baseline < _PHASE_DRIFT_FLOOR_S:
                    continue
                if latest_s > (1.0 + phase_drift) * baseline:
                    report.findings.append(
                        RegressionFinding(
                            severity="warning",
                            rule="phase-drift",
                            config_hash=config_hash,
                            scheme=latest.scheme,
                            workload=latest.workload,
                            latest_run=latest.run_id,
                            baseline_run=runs[-2].run_id,
                            message=(
                                f"phase '{phase}' took {latest_s:.3f}s, "
                                f"{latest_s / baseline:.1f}x the rolling baseline of "
                                f"{baseline:.3f}s (median of {len(prior)} prior runs)"
                            ),
                        )
                    )
    return report


# ----------------------------------------------------------------------
# Rendering and export
# ----------------------------------------------------------------------


def format_history(entries: Sequence[LedgerEntry]) -> str:
    """Text table of ledger entries (the ``history`` subcommand body)."""
    if not entries:
        return "(ledger is empty)"
    lines = [
        "run id            seq  kind    scheme            workload     "
        "accuracy     branches/s          git"
    ]
    for entry in entries:
        accuracy = entry.accuracy
        accuracy_text = f"{accuracy * 100:8.4f}%" if accuracy is not None else "       —"
        rate_text = (
            f"{entry.branches_per_sec:12,.0f}" if entry.branches_per_sec > 0 else "           —"
        )
        lines.append(
            f"{entry.run_id:16s}  {entry.seq:3d}  {entry.kind:6s}  {entry.scheme:16s}  "
            f"{entry.workload:11s}  {accuracy_text}  {rate_text}  {entry.git_revision:>11s}"
        )
    return "\n".join(lines)


def export_bench(
    ledger: RunLedger,
    out: Union[str, Path],
    date_stamp: Optional[str] = None,
) -> Path:
    """Write the benchmark trajectory snapshot (``BENCH_<date>.json``).

    Collects the latest ``"bench"`` entry of every benchmark
    configuration plus a throughput summary of the latest engine runs,
    so the snapshot captures both harness timings and simulator
    throughput at one revision.
    """
    entries = ledger.entries()
    latest_bench: Dict[str, LedgerEntry] = {}
    for entry in entries:
        if entry.kind == "bench":
            latest_bench[entry.config_hash] = entry
    latest_runs: Dict[str, LedgerEntry] = {}
    for entry in entries:
        if entry.kind in ("obs", "matrix") and entry.branches_per_sec > 0:
            latest_runs[entry.config_hash] = entry
    if date_stamp is None:
        newest = max((entry.timestamp for entry in entries), default=0.0)
        date_stamp = time.strftime("%Y%m%d", time.gmtime(newest))
    payload = {
        "schema": _BENCH_SCHEMA,
        "date": date_stamp,
        "git_revision": git_revision(),
        "benchmarks": [
            {
                "name": entry.workload,
                "seconds": entry.wall_time,
                "run_id": entry.run_id,
                "git_revision": entry.git_revision,
                "extra": dict(entry.extra),
            }
            for entry in sorted(latest_bench.values(), key=lambda e: e.workload)
        ],
        "simulator_throughput": [
            {
                "scheme": entry.scheme,
                "workload": entry.workload,
                "branches_per_sec": entry.branches_per_sec,
                "accuracy": entry.accuracy,
                "run_id": entry.run_id,
            }
            for entry in sorted(
                latest_runs.values(), key=lambda e: (e.scheme, e.workload)
            )
        ],
    }
    target = Path(out)
    if target.parent != Path("."):
        target.parent.mkdir(parents=True, exist_ok=True)
    # Atomic publish: the exported BENCH file is committed and diffed,
    # so a half-written export must never be observable (found by
    # res/non-atomic-write).
    tmp = target.with_name(f"{target.name}.tmp-{os.getpid()}")
    with tmp.open("w", encoding="utf-8") as stream:
        stream.write(json.dumps(payload, indent=2) + "\n")
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(tmp, target)
    return target
