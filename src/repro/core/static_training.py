"""Lee & Smith Static Training schemes (the paper's GSg and PSg).

Static Training has the same two-level *structure* as the adaptive
schemes, but the second level is **preset by profiling**: a training run
tallies, for every history pattern, how often the next branch was taken;
the majority direction becomes a frozen prediction bit per pattern. At
test time the first-level history registers still update dynamically,
but the pattern bits never change.

Training is columnar: it tallies ``(pattern, taken)`` over the history
windows the vectorized kernels build for GSg and PSg
(:mod:`repro.sim.kernels`) instead of replaying a predictor per record.
That module imports this one, hence the function-local imports below.

* **GSg** — global history register, preset global pattern table.
* **PSg** — per-address history registers (same BHT configurations as
  the adaptive schemes, for the paper's "fair comparison"), preset
  global pattern table.

The paper's PSp (per-address preset tables) was not simulated there
("requires a lot of storage") and is likewise omitted here.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..predictors.base import BranchPredictor
from ..trace.events import Trace
from .history import IdealBHT, history_mask
from .pht import PresetPatternTable
from .twolevel import TwoLevelConfig, _PerAddressBase


def _training_run(trace: Trace):
    """The kernels' prepared pass over ``trace`` (no flushes, no
    warmup), or None when it has no conditional record.

    An in-memory trace lends its cached :meth:`Trace.as_arrays`, so
    training GSg, PSg and the profile on one trace converts it once;
    any other source is read as one uncached block. The run stays out of
    the kernels' per-trace memo, so training never evicts or fills the
    memo of the trace under test.
    """
    from ..sim.kernels import _Run

    block = trace if isinstance(trace, Trace) else next(trace.iter_blocks(), None)
    if block is None:
        return None
    run = _Run(block, None, False, 0)
    return run if run.n_c else None


def _majority(patterns, taken) -> Dict[int, bool]:
    """pattern -> whether at least half of its records were taken.

    Counts are kept per distinct pattern seen, so the tally grows with
    the number of records, never with ``2**history_bits``.
    """
    keys, ids = np.unique(patterns, return_inverse=True)
    total = np.bincount(ids)
    taken_counts = np.bincount(ids[taken], minlength=keys.shape[0])
    return dict(zip(keys.tolist(), (taken_counts * 2 >= total).tolist()))


def train_global_presets(trace: Trace, history_bits: int) -> Dict[int, bool]:
    """Profile a training trace through a global history register.

    Tallies ``(pattern, taken)`` over the GHR window the GAg/GSg kernels
    build (:func:`repro.sim.kernels._global_history`), starting from the
    all-ones register and never flushed.

    Returns:
        pattern -> majority direction, for every pattern observed.
        Ties resolve to taken (branches are taken-biased overall).
    """
    from ..sim.kernels import _global_history

    run = _training_run(trace)
    if run is None:
        return {}
    ghr, _carry = _global_history(run, history_bits, history_mask(history_bits), None)
    return _majority(ghr, run.out_bool)


def train_per_address_presets(trace: Trace, history_bits: int) -> Dict[int, bool]:
    """Profile a training trace through per-address history registers.

    The first level is ideal (one register per static branch), as in
    :meth:`PSgPredictor.trained_on`: tallies ``(pattern, taken)`` over
    the per-address windows the PAg/PSg kernels build
    (:func:`repro.sim.kernels._build_layout` with an :class:`IdealBHT`,
    then :func:`repro.sim.kernels._pa_patterns`). All branches feed one
    global tally, exactly as all PSg history registers index one global
    preset table. The layout bypasses the kernels' memo, as the run
    does.
    """
    from ..sim.kernels import _build_layout, _pa_patterns

    run = _training_run(trace)
    if run is None:
        return {}
    layout = _build_layout(run, IdealBHT(), None)
    patterns = _pa_patterns(run, layout, history_bits, None)
    return _majority(patterns, layout.out_s.view(bool))


class GSgPredictor(BranchPredictor):
    """Global Static Training: GHR + preset global pattern table."""

    def __init__(
        self,
        history_bits: int,
        presets: Dict[int, bool],
        default_direction: bool = True,
        name: Optional[str] = None,
    ) -> None:
        self.history_bits = history_bits
        self._mask = history_mask(history_bits)
        self.ghr = self._mask
        self.table = PresetPatternTable(history_bits, presets, default_direction)
        self.name = name or f"GSg(HR(1,,{history_bits}-sr),1xPHT(2^{history_bits},PB))"

    @classmethod
    def trained_on(cls, trace: Trace, history_bits: int) -> "GSgPredictor":
        """Build a GSg predictor profiled on ``trace``."""
        return cls(history_bits, train_global_presets(trace, history_bits))

    def predict(self, pc: int, target: int = 0) -> bool:
        return self.table.predict(self.ghr)

    def update(self, pc: int, taken: bool, target: int = 0) -> None:
        self.ghr = ((self.ghr << 1) | (1 if taken else 0)) & self._mask

    def on_context_switch(self) -> None:
        self.ghr = self._mask


class PSgPredictor(_PerAddressBase):
    """Per-address Static Training: BHT of HRs + preset global table."""

    def __init__(
        self,
        config: TwoLevelConfig,
        presets: Dict[int, bool],
        default_direction: bool = True,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(config)
        self.table = PresetPatternTable(config.history_bits, presets, default_direction)
        self.name = name or (
            f"PSg({self._bht_label()},1xPHT(2^{config.history_bits},PB))"
        )

    @classmethod
    def trained_on(
        cls,
        trace: Trace,
        history_bits: int,
        bht_entries: Optional[int] = 512,
        bht_associativity: int = 4,
    ) -> "PSgPredictor":
        """Build a PSg predictor profiled on ``trace``.

        Training uses an ideal first level (profiling is offline and has
        no capacity constraint); test time uses the practical BHT.
        """
        presets = train_per_address_presets(trace, history_bits)
        config = TwoLevelConfig(
            history_bits=history_bits,
            bht_entries=bht_entries,
            bht_associativity=bht_associativity,
        )
        return cls(config, presets)

    def predict(self, pc: int, target: int = 0) -> bool:
        # Pure read: a miss would allocate the all-ones taken-biased fill.
        entry = self.bht.peek(pc)
        pattern = entry.value if entry is not None else self._mask
        return self.table.predict(pattern)

    def update(self, pc: int, taken: bool, target: int = 0) -> None:
        entry = self._access_entry(pc)
        self._advance_history(entry, taken)
