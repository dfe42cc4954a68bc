"""Workload instrumentation layer.

The paper generated traces by running SPEC89 binaries through a
Motorola 88100 instruction-level simulator. Our SPEC-analog workloads
are real algorithms written in Python and *instrumented*: every
conditional decision flows through a :class:`BranchProbe`, which
assigns the decision a stable static site id (a synthetic "pc") and
appends a record to the trace.

Site ids must be stable across datasets and runs — profiling trains on
one dataset and predicts on another, so the same source-level branch
must map to the same pc in both traces. Ids therefore derive from a
hash of ``workload_name + label`` rather than from execution order.

The probe also fabricates a code-layout *target* for each branch so the
BTFN static scheme has something to look at: sites declared
``backward=True`` (loop back-edges) get a target below their pc,
everything else a target above. Loop helpers declare themselves
backward automatically, matching how compilers lay out loops.
"""

from __future__ import annotations

import abc
import hashlib
import random
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Set

from ..trace.events import _CODE_BITS, BranchClass, Trace, TraceBuilder

_PC_SPACE_BITS = 28
_PC_ALIGN = 4
_BRANCH_SPAN = 64  # synthetic distance between a branch and its target


def stable_site_id(namespace: str, label: str, salt: int = 0) -> int:
    """A deterministic, order-independent pc for (namespace, label).

    28-bit, word-aligned, offset away from 0 so pc 0 never appears
    (0 is the "unknown target" sentinel in :class:`BranchRecord`).
    """
    digest = hashlib.sha256(f"{namespace}\x00{label}\x00{salt}".encode("utf-8")).digest()
    raw = int.from_bytes(digest[:8], "little")
    pc = (raw % (1 << _PC_SPACE_BITS)) & ~(_PC_ALIGN - 1)
    return pc + 0x1000


class BranchProbe:
    """Instrumentation handle threaded through a workload's code.

    Wraps a :class:`TraceBuilder` with stable site-id allocation and
    branch-shaped conveniences. The instrumented code keeps its own
    semantics: ``probe.cond(...)`` returns the outcome it was given.

    Conditional records skip :meth:`TraceBuilder.branch`: the probe
    caches each label's packed slot code and appends one log word per
    record to the builder itself.
    """

    def __init__(self, namespace: str, builder: TraceBuilder) -> None:
        self.namespace = namespace
        self.builder = builder
        self._sites: Dict[str, int] = {}
        self._used_pcs: Set[int] = set()
        # label -> slot code of its conditional records. Once a label is
        # declared backward it stays backward, so it enters both maps.
        self._codes: Dict[str, int] = {}
        self._backward: Dict[str, int] = {}
        self._append = builder._log.append

    # ------------------------------------------------------------------
    # Site management
    # ------------------------------------------------------------------
    def site(self, label: str) -> int:
        """The stable pc for ``label`` (allocating on first use)."""
        pc = self._sites.get(label)
        if pc is None:
            salt = 0
            pc = stable_site_id(self.namespace, label, salt)
            while pc in self._used_pcs:
                salt += 1
                pc = stable_site_id(self.namespace, label, salt)
            self._sites[label] = pc
            self._used_pcs.add(pc)
        return pc

    @property
    def num_sites(self) -> int:
        return len(self._sites)

    def _code(self, label: str, backward: bool) -> int:
        """Allocate the slot code of ``label``'s conditional records."""
        pc = self.site(label)
        target = pc - _BRANCH_SPAN if backward else pc + _BRANCH_SPAN
        code = self._codes[label] = self.builder._slot(pc, BranchClass.CONDITIONAL, target)
        if backward:
            self._backward[label] = code
        return code

    # ------------------------------------------------------------------
    # Branch-shaped events
    # ------------------------------------------------------------------
    def cond(self, label: str, taken: bool, work: int = 3, backward: bool = False) -> bool:
        """Record a conditional branch and return its outcome.

        Args:
            label: static-site label, unique per source-level branch.
            taken: the decision the algorithm actually made.
            work: non-branch instructions charged before this branch.
            backward: lay the branch out as a loop back-edge (target
                below pc) for the BTFN scheme. The label stays
                backward for every later record.

        Raises:
            ValueError: when ``work`` is negative.
        """
        code = (self._backward if backward else self._codes).get(label)
        if code is None:
            code = self._code(label, backward)
        if work < 0:
            raise ValueError("work must be non-negative")
        word = work + 1 << _CODE_BITS | code
        self._append(word | 1 if taken else word)
        return taken

    def loop(self, label: str, count: int, work: int = 3) -> Iterator[int]:
        """Iterate ``range(count)`` emitting loop-branch records.

        Emits a *taken* backward branch per completed iteration and one
        final *not-taken* branch at loop exit — the classic
        test-at-bottom loop shape. Zero-trip loops emit a single
        not-taken branch (the guard fails immediately). The records are
        exactly those of ``cond(label, ..., backward=True)`` calls.
        """
        append = self._append
        back_edge = None  # the taken word, packed once the first record is in
        for index in range(count):
            yield index
            if back_edge is None:
                self.cond(label, True, work=work, backward=True)
                back_edge = work + 1 << _CODE_BITS | self._codes[label] | 1
            else:
                append(back_edge)
        self.cond(label, False, work=work, backward=True)

    def while_(self, label: str, condition: bool, work: int = 3) -> bool:
        """A loop-guard conditional laid out backward; returns ``condition``."""
        return self.cond(label, condition, work=work, backward=True)

    def call(self, label: str, work: int = 2) -> None:
        """Record a subroutine call (unconditional, always taken)."""
        pc = self.site(label)
        self.builder.call(pc, target=pc + _BRANCH_SPAN, work=work)

    def ret(self, label: str, work: int = 1) -> None:
        """Record a subroutine return."""
        pc = self.site(label)
        self.builder.ret(pc, work=work)

    def jump(self, label: str, work: int = 1) -> None:
        """Record an unconditional jump (e.g. a goto / loop preheader)."""
        pc = self.site(label)
        self.builder.unconditional(pc, target=pc + _BRANCH_SPAN, work=work)

    def trap(self) -> None:
        """Record a trap (system call); a context-switch opportunity."""
        self.builder.trap()

    def work(self, count: int) -> None:
        """Charge ``count`` straight-line non-branch instructions."""
        self.builder.instructions(count)


@dataclass(frozen=True)
class DatasetSpec:
    """One named input of a workload (Table 2 rows)."""

    name: str
    seed: int
    size: int
    """A workload-interpreted size parameter (scaled by ``scale``)."""


class Workload(abc.ABC):
    """A SPEC-analog benchmark: generates branch traces from datasets.

    Subclasses define :attr:`name`, :attr:`category`, their Table 2
    datasets, and :meth:`run`, which executes the instrumented
    algorithm against a dataset.
    """

    #: Benchmark name matching the paper's tables.
    name: str = "workload"
    #: "int" or "fp" — decides which geometric mean the result joins.
    category: str = "int"
    #: Table 2 training dataset; None reproduces the paper's "NA".
    training_dataset: Optional[DatasetSpec] = None
    #: Table 2 testing dataset.
    testing_dataset: DatasetSpec = DatasetSpec("builtin", seed=0, size=1)
    #: Extra named inputs beyond Table 2, for sensitivity studies.
    alternate_datasets: tuple = ()

    @abc.abstractmethod
    def run(self, probe: BranchProbe, rng: random.Random, dataset: DatasetSpec, scale: int) -> None:
        """Execute the workload, emitting branches through ``probe``."""

    def generate(self, dataset: Optional[str] = None, scale: int = 1, seed_offset: int = 0) -> Trace:
        """Produce the branch trace for one dataset.

        Args:
            dataset: dataset name; defaults to the testing dataset.
                ``"training"``/``"testing"`` select by role.
            scale: linear work multiplier (1 = the default suite size).
            seed_offset: perturb the dataset seed (for replication
                studies); 0 reproduces the canonical trace.
        """
        spec = self._resolve_dataset(dataset)
        if scale < 1:
            raise ValueError("scale must be >= 1")
        builder = TraceBuilder(name=self.name, dataset=spec.name, source="workload")
        probe = BranchProbe(self.name, builder)
        rng = random.Random((spec.seed + seed_offset) * 1_000_003 + 17)
        self.run(probe, rng, spec, scale)
        return builder.build()

    def _resolve_dataset(self, dataset: Optional[str]) -> DatasetSpec:
        if dataset is None or dataset == "testing" or dataset == self.testing_dataset.name:
            return self.testing_dataset
        if dataset == "training" or (
            self.training_dataset is not None and dataset == self.training_dataset.name
        ):
            if self.training_dataset is None:
                raise ValueError(f"{self.name} has no training dataset (Table 2: NA)")
            return self.training_dataset
        for spec in self.alternate_datasets:
            if dataset == spec.name:
                return spec
        raise ValueError(
            f"{self.name} has no dataset named {dataset!r}; "
            f"known: {[s.name for s in self.datasets()]}"
        )

    def datasets(self) -> "list[DatasetSpec]":
        """Every named input this workload knows."""
        specs = []
        if self.training_dataset is not None:
            specs.append(self.training_dataset)
        specs.append(self.testing_dataset)
        specs.extend(self.alternate_datasets)
        return specs

    @property
    def has_training(self) -> bool:
        return self.training_dataset is not None

    def __repr__(self) -> str:
        return f"<Workload {self.name} ({self.category})>"
