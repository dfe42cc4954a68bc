"""Predictability reference points (static oracles).

How good is the best **time-invariant** predictor on a given trace?

* :func:`bias_bound` — the accuracy of an oracle that knows each
  branch's whole-trace majority direction in advance. This is exactly
  what in-sample profiling converges to; any *static* per-branch scheme
  is bounded by it.
* :func:`history_bound` — the accuracy of an oracle that, for every
  (branch, k-bit self-history) context, knows the context's whole-trace
  majority outcome. This is the ceiling for any *fixed* k-history
  mapping — e.g. an idealised Static Training table with unlimited
  profiling on the test input itself.

Two caveats make these *reference points*, not hard ceilings:

1. **Adaptive predictors can exceed them.** A saturating counter tracks
   phase changes; when a context behaves differently in different
   program phases, the whole-trace majority gets ``max(p, 1-p)`` while
   an adaptive entry can get both phases right. (Our eqntott analog
   shows precisely this: PAp-6 beats the 6-bit static oracle.) The gap
   *above* the oracle measures how much phase-adaptivity buys — the
   paper's §2 argument for adaptive over Static Training, quantified.
2. Below the oracle, the gap decomposes into warm-up and hysteresis
   losses; and the oracle's own distance from 100 % is behaviour that
   no fixed k-history mapping can capture — raising k is the only fix,
   the paper's Figure 7 story.

Both tally each context over the kernels' registers (all ones, then only
shifts: no outcome extension, unlike the interference passes; no context
switches; at most 24 history bits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.history import IdealBHT
from ..sim.kernels import (_global_history, _history_bits, _Keyed, _pa_history, _site_ids,
                           _source_tallies)
from ..trace.events import Trace

__all__ = [
    "PredictabilityBounds",
    "bias_bound",
    "history_bound",
    "predictability_bounds",
]


@dataclass(frozen=True)
class PredictabilityBounds:
    """Static-oracle reference points for one trace at one history
    length (see the module docstring for what they do and do not
    bound)."""

    history_bits: int
    conditional_branches: int
    bias_bound: float
    history_bound: float

    @property
    def history_headroom(self) -> float:
        """How much knowing k-bit history adds over pure bias."""
        return self.history_bound - self.bias_bound


def _context_counts(source, k: int, per_address: bool = True, fill: int = 1,
                    skip: bool = False, block_size: Optional[int] = None):
    """``(records, counts, known)``: ``taken`` and ``total`` per ``site << k |
    register`` (``k == 0``: per site) and the pc -> site id map, both None
    without a record. The per-address (ideal BHT) or global register
    starts all ``fill`` and only shifts; ``skip`` drops records it holds fill bits for."""
    ideal = IdealBHT()

    def kernel(run, carry):
        known, first, seen, counts = carry or (
            None, None, np.zeros(0, np.int64), None)
        ids, known = _site_ids(run, known)
        keys, out, valid = ids.astype(np.int64), run.out_u8, slice(None)
        if k and per_address:
            layout, registers, first = _pa_history(run, ideal, k, first, fill)
            keys, out = keys[layout.order], layout.out_s
            if skip:
                seen = np.pad(seen, (0, known.keys.shape[0] - seen.shape[0]))
                valid = seen[keys] + layout.m >= k
                seen += np.bincount(ids, minlength=seen.shape[0])
            keys = keys << k | registers
        elif k:
            registers, first = _global_history(run, k, (1 << k) - 1 if fill else 0, first)
            valid = run.t0 + np.arange(run.n_c) >= k if skip else valid
            keys = keys << k | registers
        keys, index = np.unique(keys[valid], return_inverse=True)
        total = np.bincount(index, minlength=keys.shape[0])
        taken = np.bincount(index[out[valid].view(np.bool_)], minlength=keys.shape[0])
        counts = _merge_counts(counts, keys, taken=taken, total=total)
        return (counts, known), (known, first, seen, counts)

    records, tally = _source_tallies(kernel, source, block_size)
    return (records,) + (tally or (None, None))


def _merge_counts(counts: Optional[_Keyed], keys: np.ndarray, **cols: np.ndarray) -> _Keyed:
    """``counts`` plus the block's ``cols`` at its sorted unique ``keys``:
    one ``searchsorted`` places every key, known keys add in place and
    new keys go in with one insert per column."""
    if counts is None or counts.keys.shape[0] == 0:
        return _Keyed(keys, **cols)
    pos = np.searchsorted(counts.keys, keys)
    found = counts.keys[np.minimum(pos, counts.keys.shape[0] - 1)] == keys
    for name, values in cols.items():
        counts.cols[name][pos[found]] += values[found]
    if found.all():
        return counts
    new = ~found
    where = pos[new]
    return _Keyed(np.insert(counts.keys, where, keys[new]),
                  **{name: np.insert(counts.cols[name], where, values[new])
                     for name, values in cols.items()})


def _majority_oracle(trace: Trace, k: int, per_address: bool = True) -> float:
    """The static majority oracle's accuracy per (branch, k-bit register)."""
    records, counts, _known = _context_counts(trace, k, per_address)
    if not records:
        return 0.0
    taken, total = counts.cols["taken"], counts.cols["total"]
    return int(np.maximum(taken, total - taken).sum()) / records


def bias_bound(trace: Trace) -> float:
    """Accuracy of the static per-branch majority-direction oracle."""
    return _majority_oracle(trace, 0)


def history_bound(trace: Trace, history_bits: int, per_address: bool = True) -> float:
    """Accuracy of the static majority oracle per (branch, k-history)
    context — the ceiling for fixed mappings, beatable by adaptive ones
    on phase-changing behaviour.

    Args:
        per_address: contexts keyed by the branch's own history (the
            PAg/PAp ceiling); False keys by global history (GAg ceiling).
    """
    return _majority_oracle(trace, _history_bits(history_bits), per_address)


def predictability_bounds(trace: Trace, history_bits: int) -> PredictabilityBounds:
    """Both ceilings for one trace."""
    return PredictabilityBounds(
        history_bits=history_bits,
        conditional_branches=trace.num_conditional(),
        bias_bound=bias_bound(trace),
        history_bound=history_bound(trace, history_bits),
    )
