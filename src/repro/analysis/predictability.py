"""Predictability characterization and mispredict attribution.

The paper closes by noting the authors "are examining that 3 percent
[miss rate] to try to characterize it". This module is that
characterization layer, following the metric set of "Workload
Characterization for Branch Predictability" and "Branch Prediction Is
Not a Solved Problem": per static branch and whole-trace it computes

* **taken rate and outcome entropy** — how biased each branch is,
* **history-sensitivity curves** — the conditional entropy
  H(outcome | k-bit history) for k = 0..K under both a *global* and a
  *per-branch (local)* history register, with the implied
  ideal-accuracy bound (an oracle that always picks the majority
  outcome of each (branch, history) context),
* **H2P identification** — hard-to-predict branches: high dynamic
  count, low bias, high conditional entropy even with history,
* **feature clustering** — a deterministic rule-based grouping of
  static branches (biased / local-history / global-history / mixed /
  hard) with a per-cluster winner table across the registered paper
  schemes, joining the :mod:`repro.analysis.breakdown` miss classes
  and the :mod:`repro.analysis.interference` summary into one
  attribution view.

Everything streams over any :class:`repro.trace.stream.TraceSource`
in bounded memory: the context tables hold at most
``static_sites * 2**max_k`` entries regardless of trace length, and
curves for k < K are derived by masking the low k bits of the stored
K-bit contexts (history bit 0 is the most recent outcome).

**Estimator convention (warmup skip).** A record contributes to the
k-bit context tables only when its history register is *fully
defined*: the global table skips the first ``max_k`` conditional
branches of the trace, the local table skips the first ``max_k``
occurrences of each site. This makes the closed-form pins exact — a
pure period-``p`` pattern has H(outcome | k-bit local history) = 0
for every k >= p — and makes both curves monotone non-increasing in
k. Taken rates and outcome entropy (the k = 0 site statistics) are
counted over *all* conditional records. This deliberately differs
from the paper's all-ones register initialisation (kept by
:mod:`repro.analysis.bounds` and the predictors themselves), which
would pollute the transient contexts and break the closed forms.

Two backends produce the *same integer count tables* — a pure-python
dict loop and a vectorized NumPy path (the static oracles' context
tally, :func:`repro.analysis.bounds._context_counts`, over the
kernels' first-level registers filled with zeros) — so every derived
float, and therefore the whole :class:`CharacterizationReport`, is
bit-identical between them by construction. The report serialises
under schema :data:`CHAR_SCHEMA` with an exact ``to_dict`` /
``from_dict`` round-trip and is embedded across the obs stack
(``RunReport.extra``, the run ledger, Prometheus families, the
``repro-obs characterize`` subcommand).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.history import history_mask
from ..predictors.base import BranchPredictor
from ..trace.events import BranchClass, Trace
from ..trace.stream import TraceSource, iter_source_tuples
from .bounds import _context_counts
from .breakdown import MispredictionBreakdown, _replay
from .interference import bht_pressure, first_level_interference, second_level_interference

__all__ = [
    "CHAR_SCHEMA",
    "CLUSTER_NAMES",
    "DEFAULT_MAX_K",
    "DEFAULT_SCHEMES",
    "CharacterizationReport",
    "ClusterSummary",
    "ClusteringConfig",
    "H2PCriteria",
    "HistoryCurvePoint",
    "PredictabilityCounts",
    "SchemeAttribution",
    "SiteCharacterization",
    "attribute_scheme",
    "binary_entropy",
    "characterization_counts",
    "characterize",
    "format_characterization",
]

#: Schema identifier embedded in every serialised report. Bump when a
#: key changes meaning; consumers should reject unknown majors.
CHAR_SCHEMA = "repro.analysis.char/1"

#: Default maximum history depth K of the sensitivity curves. 8 bits
#: keeps the context tables at <= sites * 256 entries — bounded memory
#: even for multi-million-branch traces — while covering every loop
#: period the paper's workloads exhibit.
DEFAULT_MAX_K = 8

#: Paper schemes the attribution pass replays by default: one
#: representative per Table 3 family that builds without a training
#: trace (GSg/PSg/profile need one; pass them explicitly if desired).
DEFAULT_SCHEMES: Tuple[str, ...] = (
    "gag-12",
    "pag-12",
    "pap-12",
    "gshare-12",
    "gselect-6+6",
    "tournament",
    "btb-a2",
)

#: Cluster vocabulary, in assignment-rule order (first match wins).
CLUSTER_NAMES: Tuple[str, ...] = (
    "biased",
    "local-history",
    "global-history",
    "mixed",
    "hard",
)

_COND = int(BranchClass.CONDITIONAL)


def binary_entropy(p: float) -> float:
    """The binary entropy H(p) in bits; 0.0 at the degenerate points."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


# ----------------------------------------------------------------------
# Count tables: the integer core both backends agree on exactly
# ----------------------------------------------------------------------


@dataclass
class PredictabilityCounts:
    """Integer context tables for one trace — the backend contract.

    Both estimator backends must produce *equal* instances; every
    float in the report is derived from these counts by shared code,
    which is what makes the backends bit-identical end to end.

    Attributes:
        max_k: history depth K of the context tables.
        conditional: total conditional records seen.
        executions: site pc -> dynamic execution count.
        taken: site pc -> taken count.
        global_counts: ``(pc, K-bit global history) -> (n0, n1)``
            outcome counts, warmup-skipped (see the module docstring).
        local_counts: ``(pc, K-bit local history) -> (n0, n1)``.
    """

    max_k: int
    conditional: int
    executions: Dict[int, int]
    taken: Dict[int, int]
    global_counts: Dict[Tuple[int, int], Tuple[int, int]]
    local_counts: Dict[Tuple[int, int], Tuple[int, int]]


def _validate_max_k(max_k: int) -> None:
    if not 1 <= max_k <= 20:
        raise ValueError(f"max_k must be in [1, 20], got {max_k}")


def _python_counts(
    source: TraceSource, max_k: int, block_size: Optional[int]
) -> PredictabilityCounts:
    """Reference estimator: one dict-driven pass over the records."""
    mask = history_mask(max_k)
    executions: Dict[int, int] = {}
    taken_counts: Dict[int, int] = {}
    global_counts: Dict[Tuple[int, int], List[int]] = {}
    local_counts: Dict[Tuple[int, int], List[int]] = {}
    local_hist: Dict[int, int] = {}
    global_hist = 0
    seen = 0
    for pc, taken, cls, _target, _instret, _trap in iter_source_tuples(
        source, block_size
    ):
        if cls != _COND:
            continue
        outcome = 1 if taken else 0
        executions[pc] = executions.get(pc, 0) + 1
        taken_counts[pc] = taken_counts.get(pc, 0) + outcome
        if seen >= max_k:
            pair = global_counts.get((pc, global_hist))
            if pair is None:
                global_counts[(pc, global_hist)] = [1 - outcome, outcome]
            else:
                pair[outcome] += 1
        global_hist = ((global_hist << 1) | outcome) & mask
        seen += 1
        count = executions[pc] - 1  # occurrences before this one
        hist = local_hist.get(pc, 0)
        if count >= max_k:
            pair = local_counts.get((pc, hist))
            if pair is None:
                local_counts[(pc, hist)] = [1 - outcome, outcome]
            else:
                pair[outcome] += 1
        local_hist[pc] = ((hist << 1) | outcome) & mask
    return PredictabilityCounts(
        max_k=max_k,
        conditional=seen,
        executions=executions,
        taken=taken_counts,
        global_counts={key: (n0, n1) for key, (n0, n1) in global_counts.items()},
        local_counts={key: (n0, n1) for key, (n0, n1) in local_counts.items()},
    )


def _vectorized_counts(
    source: TraceSource, max_k: int, block_size: Optional[int]
) -> PredictabilityCounts:
    """NumPy estimator: :func:`repro.analysis.bounds._context_counts` on
    zero-filled, warmup-skipped registers."""
    conditional, sites, known = _context_counts(source, 0, block_size=block_size)
    if not conditional:
        return PredictabilityCounts(max_k, 0, {}, {}, {}, {})
    pcs = known.keys[np.argsort(known.cols["id"])]

    def table(per_address: bool) -> Dict[Tuple[int, int], Tuple[int, int]]:
        _records, counts, _known = _context_counts(
            source, max_k, per_address, fill=0, skip=True, block_size=block_size)
        taken = counts.cols["taken"]
        registers = counts.keys & history_mask(max_k)
        contexts = zip(pcs[counts.keys >> max_k].tolist(), registers.tolist())
        return dict(zip(contexts, zip((counts.cols["total"] - taken).tolist(), taken.tolist())))

    site_pcs = pcs[sites.keys].tolist()
    return PredictabilityCounts(
        max_k=max_k,
        conditional=conditional,
        executions=dict(zip(site_pcs, sites.cols["total"].tolist())),
        taken=dict(zip(site_pcs, sites.cols["taken"].tolist())),
        global_counts=table(per_address=False),
        local_counts=table(per_address=True),
    )


def characterization_counts(
    source: TraceSource,
    max_k: int = DEFAULT_MAX_K,
    block_size: Optional[int] = None,
    backend: str = "auto",
) -> PredictabilityCounts:
    """Stream the context count tables off a trace source.

    Args:
        source: any :class:`~repro.trace.stream.TraceSource`.
        max_k: history depth K (1..20); memory is O(sites * 2**K).
        block_size: records per block (``None`` = source default).
        backend: ``"python"``, ``"vectorized"`` or ``"auto"`` (the
            vectorized path). Both backends return equal counts —
            pinned by the test suite.
    """
    _validate_max_k(max_k)
    if backend == "auto":
        backend = "vectorized"
    if backend == "python":
        return _python_counts(source, max_k, block_size)
    if backend == "vectorized":
        return _vectorized_counts(source, max_k, block_size)
    raise ValueError(f"unknown backend {backend!r}")


# ----------------------------------------------------------------------
# Derived metrics (shared float code — the bit-identical part)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HistoryCurvePoint:
    """One point of a history-sensitivity curve.

    Attributes:
        k: history depth in bits (contexts are (site, k-bit history)).
        contexts: distinct contexts observed.
        counted: records the estimate is over (the warmup-skipped
            population; constant along one curve).
        entropy_bits: H(outcome | context) in bits.
        ideal_accuracy: accuracy of the per-context majority oracle —
            the predictability bound history depth k implies.
    """

    k: int
    contexts: int
    counted: int
    entropy_bits: float
    ideal_accuracy: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "k": self.k,
            "contexts": self.contexts,
            "counted": self.counted,
            "entropy_bits": self.entropy_bits,
            "ideal_accuracy": self.ideal_accuracy,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "HistoryCurvePoint":
        return cls(
            k=int(payload["k"]),
            contexts=int(payload["contexts"]),
            counted=int(payload["counted"]),
            entropy_bits=float(payload["entropy_bits"]),
            ideal_accuracy=float(payload["ideal_accuracy"]),
        )


def _marginalize(
    counts: Mapping[Tuple[int, int], Tuple[int, int]], k: int
) -> Dict[Tuple[int, int], Tuple[int, int]]:
    """Reduce K-bit context counts to k-bit ones (mask low k bits)."""
    mask = history_mask(k) if k else 0
    merged: Dict[Tuple[int, int], List[int]] = {}
    for (pc, hist), (n0, n1) in counts.items():
        key = (pc, hist & mask)
        pair = merged.get(key)
        if pair is None:
            merged[key] = [n0, n1]
        else:
            pair[0] += n0
            pair[1] += n1
    return {key: (n0, n1) for key, (n0, n1) in merged.items()}


def _entropy_and_bound(
    counts: Mapping[Tuple[int, int], Tuple[int, int]],
) -> Tuple[int, int, float, float]:
    """``(contexts, counted, entropy_bits, ideal_accuracy)`` of a table.

    Iterates contexts in sorted order so the float accumulation order
    — and therefore the result — is identical for any two equal
    tables, whichever backend built them.
    """
    total = 0
    majority = 0
    entropy = 0.0
    contexts = 0
    for key in sorted(counts):
        n0, n1 = counts[key]
        weight = n0 + n1
        if weight == 0:
            continue
        contexts += 1
        total += weight
        majority += max(n0, n1)
        entropy += weight * binary_entropy(n1 / weight)
    if total == 0:
        return 0, 0, 0.0, 0.0
    return contexts, total, entropy / total, majority / total


def _history_curve(
    counts: Mapping[Tuple[int, int], Tuple[int, int]], max_k: int
) -> List[HistoryCurvePoint]:
    curve = []
    for k in range(max_k + 1):
        table = counts if k == max_k else _marginalize(counts, k)
        contexts, counted, entropy, ideal = _entropy_and_bound(table)
        curve.append(
            HistoryCurvePoint(
                k=k,
                contexts=contexts,
                counted=counted,
                entropy_bits=entropy,
                ideal_accuracy=ideal,
            )
        )
    return curve


def _per_site_tables(
    counts: Mapping[Tuple[int, int], Tuple[int, int]],
) -> Dict[int, Dict[Tuple[int, int], Tuple[int, int]]]:
    by_site: Dict[int, Dict[Tuple[int, int], Tuple[int, int]]] = {}
    for (pc, hist), pair in counts.items():
        by_site.setdefault(pc, {})[(pc, hist)] = pair
    return by_site


# ----------------------------------------------------------------------
# H2P criteria and clustering
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class H2PCriteria:
    """Hard-to-predict branch criteria (BPINASP-style).

    A site is H2P when it executes often (absolute count *and* dynamic
    share), is not strongly biased, and stays high-entropy even given
    ``max_k`` bits of the better of local/global history — i.e. deeper
    pattern history alone will not fix it.
    """

    min_executions: int = 64
    min_dynamic_share: float = 0.0005
    min_outcome_entropy_bits: float = 0.25
    min_conditional_entropy_bits: float = 0.30

    def to_dict(self) -> Dict[str, Any]:
        return {
            "min_executions": self.min_executions,
            "min_dynamic_share": self.min_dynamic_share,
            "min_outcome_entropy_bits": self.min_outcome_entropy_bits,
            "min_conditional_entropy_bits": self.min_conditional_entropy_bits,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "H2PCriteria":
        return cls(
            min_executions=int(payload["min_executions"]),
            min_dynamic_share=float(payload["min_dynamic_share"]),
            min_outcome_entropy_bits=float(payload["min_outcome_entropy_bits"]),
            min_conditional_entropy_bits=float(payload["min_conditional_entropy_bits"]),
        )


@dataclass(frozen=True)
class ClusteringConfig:
    """Thresholds of the deterministic feature clustering.

    Rules are applied in :data:`CLUSTER_NAMES` order, first match
    wins — no RNG, no iteration-order dependence (the determinism
    lint audits this module):

    * ``biased`` — outcome entropy <= ``biased_entropy_bits``,
    * ``local-history`` — residual entropy under K-bit *local*
      history <= ``predictable_entropy_bits``,
    * ``global-history`` — same under *global* history,
    * ``mixed`` — the better history register removes at least
      ``mixed_entropy_fraction`` of the outcome entropy,
    * ``hard`` — everything else.
    """

    biased_entropy_bits: float = 0.35
    predictable_entropy_bits: float = 0.15
    mixed_entropy_fraction: float = 0.5

    def to_dict(self) -> Dict[str, Any]:
        return {
            "biased_entropy_bits": self.biased_entropy_bits,
            "predictable_entropy_bits": self.predictable_entropy_bits,
            "mixed_entropy_fraction": self.mixed_entropy_fraction,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ClusteringConfig":
        return cls(
            biased_entropy_bits=float(payload["biased_entropy_bits"]),
            predictable_entropy_bits=float(payload["predictable_entropy_bits"]),
            mixed_entropy_fraction=float(payload["mixed_entropy_fraction"]),
        )

    def assign(
        self, outcome_entropy: float, local_entropy: float, global_entropy: float
    ) -> str:
        """Cluster one site from its three entropy features."""
        if outcome_entropy <= self.biased_entropy_bits:
            return "biased"
        if local_entropy <= self.predictable_entropy_bits:
            return "local-history"
        if global_entropy <= self.predictable_entropy_bits:
            return "global-history"
        best = min(local_entropy, global_entropy)
        removed = outcome_entropy - best
        if outcome_entropy > 0 and removed / outcome_entropy >= self.mixed_entropy_fraction:
            return "mixed"
        return "hard"


@dataclass(frozen=True)
class SiteCharacterization:
    """Per-static-branch feature row of the report.

    ``local_entropy_bits`` / ``global_entropy_bits`` are the residual
    conditional entropies at K bits of history; for a site whose
    execution count never clears the warmup skip they fall back to the
    site's outcome entropy (history behaviour unknown), flagged by
    ``history_counted == 0``.
    """

    pc: int
    executions: int
    taken_rate: float
    outcome_entropy_bits: float
    local_entropy_bits: float
    global_entropy_bits: float
    local_ideal_accuracy: float
    global_ideal_accuracy: float
    history_counted: int
    cluster: str
    h2p: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "pc": self.pc,
            "executions": self.executions,
            "taken_rate": self.taken_rate,
            "outcome_entropy_bits": self.outcome_entropy_bits,
            "local_entropy_bits": self.local_entropy_bits,
            "global_entropy_bits": self.global_entropy_bits,
            "local_ideal_accuracy": self.local_ideal_accuracy,
            "global_ideal_accuracy": self.global_ideal_accuracy,
            "history_counted": self.history_counted,
            "cluster": self.cluster,
            "h2p": self.h2p,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SiteCharacterization":
        return cls(
            pc=int(payload["pc"]),
            executions=int(payload["executions"]),
            taken_rate=float(payload["taken_rate"]),
            outcome_entropy_bits=float(payload["outcome_entropy_bits"]),
            local_entropy_bits=float(payload["local_entropy_bits"]),
            global_entropy_bits=float(payload["global_entropy_bits"]),
            local_ideal_accuracy=float(payload["local_ideal_accuracy"]),
            global_ideal_accuracy=float(payload["global_ideal_accuracy"]),
            history_counted=int(payload["history_counted"]),
            cluster=str(payload["cluster"]),
            h2p=bool(payload["h2p"]),
        )


# ----------------------------------------------------------------------
# Scheme attribution: replay registered predictors, join the breakdown
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SchemeAttribution:
    """One scheme's replay over the trace, with per-site hit counts."""

    scheme: str
    executions: int
    correct: int
    breakdown: MispredictionBreakdown
    site_correct: Dict[int, int] = field(hash=False, default_factory=dict)
    site_executions: Dict[int, int] = field(hash=False, default_factory=dict)

    @property
    def accuracy(self) -> float:
        if self.executions == 0:
            return 0.0
        return self.correct / self.executions


def attribute_scheme(
    predictor: BranchPredictor,
    source: TraceSource,
    context_switches: Optional[Any] = None,
    block_size: Optional[int] = None,
    scheme: str = "",
) -> SchemeAttribution:
    """Replay one predictor, collecting per-site hits and miss classes.

    One replay yields both the
    :func:`repro.analysis.breakdown.misprediction_breakdown` miss
    classes and the per-site correct counts, so the per-cluster winner
    table costs one replay per scheme. Like the breakdown, it scores
    the engine's mispredicted records and needs a freshly built
    ``predictor``.
    """
    tally = _replay(predictor, source, context_switches, block_size)
    breakdown = tally.breakdown()
    correct = tally.executions - tally.misses
    return SchemeAttribution(
        scheme=scheme or type(predictor).__name__,
        executions=breakdown.total_branches,
        correct=breakdown.total_branches - breakdown.total_misses,
        breakdown=breakdown,
        site_correct={
            int(tally.sites[i]): int(correct[i]) for i in np.flatnonzero(correct).tolist()
        },
        site_executions=dict(zip(tally.sites.tolist(), tally.executions.tolist())),
    )


@dataclass(frozen=True)
class ClusterSummary:
    """One cluster row of the winner table."""

    name: str
    sites: int
    executions: int
    dynamic_share: float
    winner: Optional[str]
    accuracy: Dict[str, Optional[float]] = field(hash=False, default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "sites": self.sites,
            "executions": self.executions,
            "dynamic_share": self.dynamic_share,
            "winner": self.winner,
            "accuracy": {name: self.accuracy[name] for name in sorted(self.accuracy)},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ClusterSummary":
        return cls(
            name=str(payload["name"]),
            sites=int(payload["sites"]),
            executions=int(payload["executions"]),
            dynamic_share=float(payload["dynamic_share"]),
            winner=payload.get("winner"),
            accuracy={
                str(name): (None if value is None else float(value))
                for name, value in payload.get("accuracy", {}).items()
            },
        )


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------


@dataclass
class CharacterizationReport:
    """Everything the characterization engine derives from one trace.

    Schema-stable: :meth:`to_dict` always emits every top-level key
    under :data:`CHAR_SCHEMA` and :meth:`from_dict` round-trips it
    exactly (including through JSON), which is what lets the report
    ride inside ``RunReport.extra``, ledger entries and the result
    cache unchanged.
    """

    workload: str
    dataset: str = ""
    backend: str = "python"
    max_k: int = DEFAULT_MAX_K
    block_size: Optional[int] = None
    conditional_branches: int = 0
    static_sites: int = 0
    taken_rate: float = 0.0
    outcome_entropy_bits: float = 0.0
    global_curve: List[HistoryCurvePoint] = field(default_factory=list)
    local_curve: List[HistoryCurvePoint] = field(default_factory=list)
    h2p_criteria: H2PCriteria = field(default_factory=H2PCriteria)
    h2p_sites: int = 0
    h2p_dynamic_share: float = 0.0
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    sites: List[SiteCharacterization] = field(default_factory=list)
    clusters: List[ClusterSummary] = field(default_factory=list)
    schemes: List[Dict[str, Any]] = field(default_factory=list)
    interference: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible dict; every top-level key always present."""
        return {
            "schema": CHAR_SCHEMA,
            "workload": self.workload,
            "dataset": self.dataset,
            "backend": self.backend,
            "max_k": self.max_k,
            "block_size": self.block_size,
            "conditional_branches": self.conditional_branches,
            "static_sites": self.static_sites,
            "taken_rate": self.taken_rate,
            "outcome_entropy_bits": self.outcome_entropy_bits,
            "global_curve": [point.to_dict() for point in self.global_curve],
            "local_curve": [point.to_dict() for point in self.local_curve],
            "h2p": {
                "criteria": self.h2p_criteria.to_dict(),
                "sites": self.h2p_sites,
                "dynamic_share": self.h2p_dynamic_share,
            },
            "clustering": self.clustering.to_dict(),
            "sites": [site.to_dict() for site in self.sites],
            "clusters": [cluster.to_dict() for cluster in self.clusters],
            "schemes": [dict(entry) for entry in self.schemes],
            "interference": dict(self.interference),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CharacterizationReport":
        """Reconstruct a report serialised by :meth:`to_dict`."""
        schema = str(payload.get("schema", CHAR_SCHEMA))
        if not schema.startswith("repro.analysis.char/"):
            raise ValueError(f"not a CharacterizationReport payload (schema={schema!r})")
        h2p = payload.get("h2p", {})
        return cls(
            workload=payload["workload"],
            dataset=payload.get("dataset", ""),
            backend=payload.get("backend", "python"),
            max_k=int(payload.get("max_k", DEFAULT_MAX_K)),
            block_size=payload.get("block_size"),
            conditional_branches=int(payload.get("conditional_branches", 0)),
            static_sites=int(payload.get("static_sites", 0)),
            taken_rate=float(payload.get("taken_rate", 0.0)),
            outcome_entropy_bits=float(payload.get("outcome_entropy_bits", 0.0)),
            global_curve=[
                HistoryCurvePoint.from_dict(point)
                for point in payload.get("global_curve", [])
            ],
            local_curve=[
                HistoryCurvePoint.from_dict(point)
                for point in payload.get("local_curve", [])
            ],
            h2p_criteria=(
                H2PCriteria.from_dict(h2p["criteria"])
                if "criteria" in h2p
                else H2PCriteria()
            ),
            h2p_sites=int(h2p.get("sites", 0)),
            h2p_dynamic_share=float(h2p.get("dynamic_share", 0.0)),
            clustering=(
                ClusteringConfig.from_dict(payload["clustering"])
                if "clustering" in payload
                else ClusteringConfig()
            ),
            sites=[
                SiteCharacterization.from_dict(site)
                for site in payload.get("sites", [])
            ],
            clusters=[
                ClusterSummary.from_dict(cluster)
                for cluster in payload.get("clusters", [])
            ],
            schemes=[dict(entry) for entry in payload.get("schemes", [])],
            interference=dict(payload.get("interference", {})),
        )


def _site_features(
    counts: PredictabilityCounts,
    h2p: H2PCriteria,
    clustering: ClusteringConfig,
) -> List[SiteCharacterization]:
    """Characterize every site, sorted by executions desc then pc."""
    local_by_site = _per_site_tables(counts.local_counts)
    global_by_site = _per_site_tables(counts.global_counts)
    rows: List[SiteCharacterization] = []
    total = counts.conditional
    for pc in sorted(counts.executions):
        executions = counts.executions[pc]
        taken_rate = counts.taken[pc] / executions if executions else 0.0
        outcome_entropy = binary_entropy(taken_rate)
        bias_accuracy = max(taken_rate, 1.0 - taken_rate) if executions else 0.0
        _, local_counted, local_entropy, local_ideal = _entropy_and_bound(
            local_by_site.get(pc, {})
        )
        _, global_counted, global_entropy, global_ideal = _entropy_and_bound(
            global_by_site.get(pc, {})
        )
        history_counted = local_counted
        if local_counted == 0:
            # Site never cleared the warmup skip: history behaviour is
            # unknown, fall back to the bias-only view.
            local_entropy, local_ideal = outcome_entropy, bias_accuracy
        if global_counted == 0:
            global_entropy, global_ideal = outcome_entropy, bias_accuracy
        cluster = clustering.assign(outcome_entropy, local_entropy, global_entropy)
        share = executions / total if total else 0.0
        is_h2p = (
            executions >= h2p.min_executions
            and share >= h2p.min_dynamic_share
            and outcome_entropy >= h2p.min_outcome_entropy_bits
            and min(local_entropy, global_entropy) >= h2p.min_conditional_entropy_bits
        )
        rows.append(
            SiteCharacterization(
                pc=pc,
                executions=executions,
                taken_rate=taken_rate,
                outcome_entropy_bits=outcome_entropy,
                local_entropy_bits=local_entropy,
                global_entropy_bits=global_entropy,
                local_ideal_accuracy=local_ideal,
                global_ideal_accuracy=global_ideal,
                history_counted=history_counted,
                cluster=cluster,
                h2p=is_h2p,
            )
        )
    rows.sort(key=lambda row: (-row.executions, row.pc))
    return rows


def _cluster_table(
    rows: Sequence[SiteCharacterization],
    attributions: Sequence[SchemeAttribution],
    total: int,
) -> List[ClusterSummary]:
    members: Dict[str, List[SiteCharacterization]] = {
        name: [] for name in CLUSTER_NAMES
    }
    for row in rows:
        members[row.cluster].append(row)
    clusters: List[ClusterSummary] = []
    for name in CLUSTER_NAMES:
        sites = members[name]
        executions = sum(row.executions for row in sites)
        pcs = [row.pc for row in sites]
        accuracy: Dict[str, Optional[float]] = {}
        for attribution in attributions:
            execs = sum(attribution.site_executions.get(pc, 0) for pc in pcs)
            correct = sum(attribution.site_correct.get(pc, 0) for pc in pcs)
            accuracy[attribution.scheme] = correct / execs if execs else None
        winner: Optional[str] = None
        best = -1.0
        # Deterministic tie-break: the replay order of the scheme list.
        for attribution in attributions:
            value = accuracy.get(attribution.scheme)
            if value is not None and value > best:
                best = value
                winner = attribution.scheme
        clusters.append(
            ClusterSummary(
                name=name,
                sites=len(sites),
                executions=executions,
                dynamic_share=executions / total if total else 0.0,
                winner=winner,
                accuracy=accuracy,
            )
        )
    return clusters


def characterize(
    source: TraceSource,
    max_k: int = DEFAULT_MAX_K,
    block_size: Optional[int] = None,
    backend: str = "auto",
    schemes: Optional[Sequence[str]] = None,
    training_trace: Optional[Trace] = None,
    context_switches: Optional[Any] = None,
    top: int = 20,
    h2p: Optional[H2PCriteria] = None,
    clustering: Optional[ClusteringConfig] = None,
    include_interference: bool = True,
) -> CharacterizationReport:
    """Characterize a trace end to end; the module's main entry point.

    Args:
        source: any :class:`~repro.trace.stream.TraceSource`.
        max_k: history-sensitivity curve depth K.
        block_size: streaming block size (``None`` = source default).
        backend: count-table backend (see
            :func:`characterization_counts`).
        schemes: friendly scheme names to replay for the winner table
            (default :data:`DEFAULT_SCHEMES`); pass ``()`` to skip the
            attribution pass entirely.
        training_trace: training trace for profile-dependent schemes
            (GSg / PSg / profile), when they appear in ``schemes``.
        context_switches: optional
            :class:`~repro.sim.engine.ContextSwitchConfig` applied to
            the attribution replays.
        top: per-site rows to keep in the report (by executions).
        h2p: H2P criteria override.
        clustering: clustering threshold override.
        include_interference: also run the
            :mod:`repro.analysis.interference` passes and embed their
            summary.
    """
    from ..predictors.registry import make_predictor

    h2p = h2p or H2PCriteria()
    clustering = clustering or ClusteringConfig()
    counts = characterization_counts(source, max_k, block_size, backend)
    resolved_backend = "vectorized" if backend == "auto" else backend

    total = counts.conditional
    taken_total = sum(counts.taken[pc] for pc in sorted(counts.taken))
    taken_rate = taken_total / total if total else 0.0
    rows = _site_features(counts, h2p, clustering)
    # Whole-trace outcome entropy: execution-weighted per-site entropy
    # (the k=0 local point computed over the *full*, un-skipped
    # population — the honest "how biased are the branches" number).
    outcome_entropy = 0.0
    for row in sorted(rows, key=lambda item: item.pc):
        outcome_entropy += row.executions * row.outcome_entropy_bits
    outcome_entropy = outcome_entropy / total if total else 0.0

    scheme_names = DEFAULT_SCHEMES if schemes is None else tuple(schemes)
    attributions: List[SchemeAttribution] = []
    for name in scheme_names:
        predictor = make_predictor(name, training_trace)
        attributions.append(
            attribute_scheme(
                predictor,
                source,
                context_switches=context_switches,
                block_size=block_size,
                scheme=name,
            )
        )

    h2p_rows = [row for row in rows if row.h2p]
    h2p_executions = sum(row.executions for row in h2p_rows)
    clusters = _cluster_table(rows, attributions, total)
    scheme_entries = [
        {
            "scheme": attribution.scheme,
            "accuracy": attribution.accuracy,
            "executions": attribution.executions,
            "correct": attribution.correct,
            "breakdown": {
                "total_misses": attribution.breakdown.total_misses,
                "cold": attribution.breakdown.cold_misses,
                "post_flush": attribution.breakdown.post_flush_misses,
                "steady": attribution.breakdown.steady_misses,
            },
        }
        for attribution in attributions
    ]

    interference: Dict[str, Any] = {}
    if include_interference:
        first = first_level_interference(source, max_k, block_size=block_size)
        second = second_level_interference(source, max_k, block_size=block_size)
        pressure = bht_pressure(source, block_size=block_size)
        interference = {
            "history_bits": max_k,
            "first_level_pollution_rate": first.pollution_rate,
            "second_level_sharing_rate": second.sharing_rate,
            "second_level_destructive_rate": second.destructive_rate,
            "bht_hit_rate": pressure.hit_rate,
            "bht_evictions": pressure.evictions,
        }

    meta = source.meta
    return CharacterizationReport(
        workload=meta.name,
        dataset=meta.dataset,
        backend=resolved_backend,
        max_k=max_k,
        block_size=block_size,
        conditional_branches=total,
        static_sites=len(counts.executions),
        taken_rate=taken_rate,
        outcome_entropy_bits=outcome_entropy,
        global_curve=_history_curve(counts.global_counts, max_k),
        local_curve=_history_curve(counts.local_counts, max_k),
        h2p_criteria=h2p,
        h2p_sites=len(h2p_rows),
        h2p_dynamic_share=h2p_executions / total if total else 0.0,
        clustering=clustering,
        sites=rows[: max(top, 0)],
        clusters=clusters,
        schemes=scheme_entries,
        interference=interference,
    )


def format_characterization(report: CharacterizationReport, top: int = 10) -> str:
    """Perf-style text rendering of a :class:`CharacterizationReport`."""
    lines: List[str] = []
    lines.append(
        f"# repro.analysis.char — {report.workload}"
        + (f" ({report.dataset})" if report.dataset else "")
        + f"  [K={report.max_k}, backend={report.backend}]"
    )
    lines.append(
        f"conditional branches: {report.conditional_branches:10d} over "
        f"{report.static_sites} static sites"
    )
    lines.append(
        f"taken rate          : {report.taken_rate * 100:8.3f}%   "
        f"outcome entropy {report.outcome_entropy_bits:.4f} bits"
    )
    if report.global_curve:
        lines.append("")
        lines.append("history sensitivity H(outcome | k-bit history), ideal accuracy:")
        lines.append("   k    global-H  global-ideal     local-H   local-ideal")
        for g_point, l_point in zip(report.global_curve, report.local_curve):
            lines.append(
                f"  {g_point.k:2d}    {g_point.entropy_bits:8.4f}      "
                f"{g_point.ideal_accuracy * 100:7.3f}%    {l_point.entropy_bits:8.4f}"
                f"      {l_point.ideal_accuracy * 100:7.3f}%"
            )
    lines.append("")
    lines.append(
        f"H2P branches        : {report.h2p_sites} sites, "
        f"{report.h2p_dynamic_share * 100:.2f}% of dynamic branches"
    )
    if report.sites:
        lines.append("")
        lines.append(f"top {min(top, len(report.sites))} sites by dynamic count:")
        lines.append(
            "          pc     execs  taken%     H0   H|loc   H|glo"
            "  cluster         h2p"
        )
        for site in report.sites[:top]:
            lines.append(
                f"  {site.pc:#010x}  {site.executions:8d}  {site.taken_rate * 100:5.1f}%"
                f"  {site.outcome_entropy_bits:5.3f}  {site.local_entropy_bits:6.3f}"
                f"  {site.global_entropy_bits:6.3f}  {site.cluster:14s}"
                f"  {'yes' if site.h2p else '-'}"
            )
    populated = [cluster for cluster in report.clusters if cluster.sites]
    if populated:
        lines.append("")
        lines.append("cluster winner table:")
        lines.append("  cluster          sites     execs   share   winner         accuracy")
        for cluster in populated:
            value = cluster.accuracy.get(cluster.winner) if cluster.winner else None
            accuracy_text = f"{value * 100:7.3f}%" if value is not None else "      —"
            lines.append(
                f"  {cluster.name:14s}  {cluster.sites:6d}  {cluster.executions:8d}"
                f"  {cluster.dynamic_share * 100:5.1f}%   {cluster.winner or '—':12s}"
                f"  {accuracy_text}"
            )
    if report.schemes:
        lines.append("")
        lines.append("scheme attribution (misses: cold / post-flush / steady):")
        lines.append("  scheme          accuracy      misses      cold  post-fl    steady")
        for entry in report.schemes:
            breakdown = entry.get("breakdown", {})
            lines.append(
                f"  {entry['scheme']:14s}  {entry['accuracy'] * 100:7.3f}%"
                f"  {breakdown.get('total_misses', 0):10d}"
                f"  {breakdown.get('cold', 0):8d}  {breakdown.get('post_flush', 0):7d}"
                f"  {breakdown.get('steady', 0):8d}"
            )
    if report.interference:
        inter = report.interference
        lines.append("")
        lines.append(
            f"interference (k={inter.get('history_bits', report.max_k)}): "
            f"{inter.get('first_level_pollution_rate', 0.0) * 100:.2f}% first-level pollution, "
            f"{inter.get('second_level_sharing_rate', 0.0) * 100:.2f}% pattern-entry sharing, "
            f"{inter.get('bht_hit_rate', 0.0) * 100:.2f}% BHT hit rate"
        )
    return "\n".join(lines)
