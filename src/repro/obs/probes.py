"""The probe API: how observers attach to the simulation engine.

A **probe** is any object with the :class:`Probe` callback surface. The
engine (:func:`repro.sim.engine.simulate`) invokes the callbacks at
fixed points of the replay loop:

========================  =============================================
``on_run_start(p, t)``    once, before the first trace record.
``on_branch(pc, predicted, taken, instret)``
                          after each conditional branch is predicted,
                          updated and resolved (warm-up branches
                          included).
``on_context_switch(instret)``
                          after each simulated context switch flushed
                          the predictor's first level.
``on_interval(index, instret)``
                          each time the dynamic instruction clock
                          crosses a multiple of
                          :attr:`Probe.interval_instructions`; fired at
                          most once per record, with the index of the
                          highest fully-completed window (intervening
                          branch-free windows are skipped).
``on_run_end(result)``    once, with the final ``SimulationResult``.
========================  =============================================

Probes are pure observers: the contract — enforced statically by the
``repro.check`` purity/determinism lints, and dynamically by the
equivalence tests — is that attaching any probe leaves the simulation
result bit-identical to a probe-free run. Both run the engine's one
interpreted loop, whose callbacks sit behind local ``if probing:`` guards.

Multiple probes compose through :class:`ProbeSet`, which fans every
callback out to its members and reconciles their interval windows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from ..predictors.base import BranchPredictor
    from ..sim.results import SimulationResult
    from ..trace.events import Trace

__all__ = ["Probe", "ProbeSet"]


class Probe:
    """Base probe: every callback is a no-op; subclass what you need.

    Attributes:
        interval_instructions: instruction-window size driving
            :meth:`on_interval`; ``None`` (the default) disables the
            interval clock for this probe.
    """

    interval_instructions: Optional[int] = None

    def on_run_start(self, predictor: "BranchPredictor", trace: "Trace") -> None:
        """Called once before the first record of the trace."""

    def on_branch(self, pc: int, predicted: bool, taken: bool, instret: int) -> None:
        """Called after each conditional branch resolves."""

    def on_interval(self, index: int, instret: int) -> None:
        """Called when the instruction clock completes window ``index``."""

    def on_context_switch(self, instret: int) -> None:
        """Called after each simulated context-switch flush."""

    def on_run_end(self, result: "SimulationResult") -> None:
        """Called once with the final simulation result."""


class ProbeSet(Probe):
    """A composite probe fanning every callback out to its members.

    Members may each declare an ``interval_instructions`` window; all
    declared windows must agree (a single engine-side interval clock
    drives every member), and the set adopts that common value. Members
    without a window simply receive the shared ``on_interval`` ticks —
    free to ignore them.

    Raises:
        ValueError: when two members declare different windows.
    """

    def __init__(self, probes: Iterable[Probe] = ()) -> None:
        self.probes: List[Probe] = []
        for probe in probes:
            self.add(probe)

    def add(self, probe: Probe) -> "ProbeSet":
        """Append ``probe``, reconciling its interval window; returns self."""
        window = probe.interval_instructions
        if window is not None:
            if self.interval_instructions is None:
                self.interval_instructions = window
            elif self.interval_instructions != window:
                raise ValueError(
                    "probes declare conflicting interval windows: "
                    f"{self.interval_instructions} vs {window} instructions"
                )
        self.probes.append(probe)
        return self

    def __len__(self) -> int:
        return len(self.probes)

    def __iter__(self):
        return iter(self.probes)

    def on_run_start(self, predictor: "BranchPredictor", trace: "Trace") -> None:
        for probe in self.probes:
            probe.on_run_start(predictor, trace)

    def on_branch(self, pc: int, predicted: bool, taken: bool, instret: int) -> None:
        for probe in self.probes:
            probe.on_branch(pc, predicted, taken, instret)

    def on_interval(self, index: int, instret: int) -> None:
        for probe in self.probes:
            probe.on_interval(index, instret)

    def on_context_switch(self, instret: int) -> None:
        for probe in self.probes:
            probe.on_context_switch(instret)

    def on_run_end(self, result: "SimulationResult") -> None:
        for probe in self.probes:
            probe.on_run_end(result)
